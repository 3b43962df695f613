/// \file kernels_scalar.cpp
/// Scalar reference kernels — the semantics every SIMD variant must match
/// bit for bit.  Plain loops over baseline ISA: std::popcount compiles to
/// whatever the base target offers (SWAR on plain x86-64), which is exactly
/// the PR-2 packed-backend code path these kernels replace.

#include <bit>

#include "hdc/kernels/count_pairs.hpp"
#include "hdc/kernels/kernels.hpp"
#include "hdc/kernels/kernels_ref.hpp"

namespace graphhd::hdc::kernels {

namespace ref {

void xor_words(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) out[w] = a[w] ^ b[w];
}

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t mismatches = 0;
  for (std::size_t w = 0; w < n; ++w) {
    mismatches += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return mismatches;
}

void hamming_batch(const std::uint64_t* query, const std::uint64_t* const* rows,
                   std::size_t num_rows, std::size_t n, std::size_t* out) {
  for (std::size_t r = 0; r < num_rows; ++r) out[r] = hamming_words(query, rows[r], n);
}

void full_adder(std::uint64_t* plane, const std::uint64_t* pending, const std::uint64_t* incoming,
                std::uint64_t* carry, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) {
    const std::uint64_t s = plane[w];
    const std::uint64_t p = pending[w];
    const std::uint64_t x = incoming[w];
    plane[w] = s ^ p ^ x;
    carry[w] = (s & p) | (s & x) | (p & x);
  }
}

namespace {

/// Four words per lane, as plain loops the compiler may vectorize with
/// whatever the baseline ISA offers.
struct QuadLane {
  struct V {
    std::uint64_t w[4];
  };
  static constexpr std::size_t kWords = 4;
  template <class Op>
  static V map(V a, V b, Op op) {
    V out;
    for (std::size_t i = 0; i < 4; ++i) out.w[i] = op(a.w[i], b.w[i]);
    return out;
  }
  static V zero() { return V{}; }
  static V load(const std::uint64_t* p) { return V{{p[0], p[1], p[2], p[3]}}; }
  static void store(std::uint64_t* p, V x) {
    for (std::size_t i = 0; i < 4; ++i) p[i] = x.w[i];
  }
  static V xor_(V a, V b) {
    return map(a, b, [](std::uint64_t x, std::uint64_t y) { return x ^ y; });
  }
  static V and_(V a, V b) {
    return map(a, b, [](std::uint64_t x, std::uint64_t y) { return x & y; });
  }
  static bool any(V x) { return (x.w[0] | x.w[1] | x.w[2] | x.w[3]) != 0; }
  static void csa(V& high, V& low, V a, V b, V c) {
    for (std::size_t i = 0; i < 4; ++i) {
      const std::uint64_t t = a.w[i] ^ b.w[i];
      high.w[i] = (a.w[i] & b.w[i]) | (t & c.w[i]);
      low.w[i] = t ^ c.w[i];
    }
  }
};

}  // namespace

void count_bound_pairs(const std::uint64_t* table, std::size_t num_vectors, std::size_t blocks,
                       const std::uint32_t* u, const std::uint32_t* v, std::size_t num_pairs,
                       std::uint64_t* planes, std::size_t num_planes) {
  detail::count_bound_pairs<QuadLane>(table, num_vectors, blocks, u, v, num_pairs, planes,
                                      num_planes);
}

void accumulate_packed(std::int32_t* counts, const std::uint64_t* bits, std::size_t dimension,
                       std::int32_t weight) {
  for (std::size_t i = 0; i < dimension; ++i) {
    const bool bit = (bits[i >> 6] >> (i & 63)) & 1u;
    counts[i] += bit ? -weight : weight;
  }
}

void threshold_counters(const std::int32_t* counts, std::size_t dimension, std::uint64_t* negative,
                        std::uint64_t* zero) {
  for (std::size_t i = 0; i < dimension; ++i) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (counts[i] < 0) negative[i >> 6] |= mask;
    if (zero != nullptr && counts[i] == 0) zero[i >> 6] |= mask;
  }
}

std::int64_t dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int64_t>(a[i]) * b[i];
  }
  return acc;
}

std::size_t mismatch_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mismatches += static_cast<std::size_t>(a[i] != b[i]);
  }
  return mismatches;
}

void accumulate_bound_i8(std::int32_t* counts, const std::int8_t* a, const std::int8_t* b,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
}

void accumulate_weighted_i8(std::int32_t* counts, const std::int8_t* comps, std::size_t n,
                            std::int32_t weight) {
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] += weight * static_cast<std::int32_t>(comps[i]);
  }
}

}  // namespace ref

namespace {

bool always_supported() { return true; }

const KernelOps kScalarOps = {
    /*name=*/"scalar",
    /*priority=*/0,
    /*supported=*/always_supported,
    /*xor_words=*/ref::xor_words,
    /*hamming_words=*/ref::hamming_words,
    /*hamming_batch=*/ref::hamming_batch,
    /*full_adder=*/ref::full_adder,
    /*count_bound_pairs=*/ref::count_bound_pairs,
    /*accumulate_packed=*/ref::accumulate_packed,
    /*threshold_counters=*/ref::threshold_counters,
    /*dot_i8=*/ref::dot_i8,
    /*mismatch_i8=*/ref::mismatch_i8,
    /*accumulate_bound_i8=*/ref::accumulate_bound_i8,
    /*accumulate_weighted_i8=*/ref::accumulate_weighted_i8,
};

}  // namespace

const KernelOps* scalar_kernels() noexcept { return &kScalarOps; }

}  // namespace graphhd::hdc::kernels
