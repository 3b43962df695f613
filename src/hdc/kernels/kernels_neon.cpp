/// \file kernels_neon.cpp
/// NEON kernels for aarch64, where Advanced SIMD is part of the baseline ISA
/// (no per-file compile flags and no runtime check needed).  On other
/// architectures the getter returns nullptr.
///
/// The word/byte kernels vectorize with vcnt/veor; the strided counter
/// kernels (accumulate_packed, threshold_counters) delegate to the scalar
/// reference — bit-spread into 32-bit lanes does not pay off at 128-bit
/// vector width, and pointing a table slot at the reference is the sanctioned
/// fallback for unvectorized slots (see kernels_ref.hpp).

#include "hdc/kernels/kernels.hpp"

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

#include <bit>

#include "hdc/kernels/kernels_ref.hpp"

namespace graphhd::hdc::kernels {
namespace {

bool neon_supported() { return true; }

void xor_words(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    vst1q_u64(out + w, veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  for (; w < n; ++w) out[w] = a[w] ^ b[w];
}

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t mismatches = 0;
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const uint8x16_t x = vreinterpretq_u8_u64(veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
    mismatches += vaddlvq_u8(vcntq_u8(x));
  }
  for (; w < n; ++w) {
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
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const uint64x2_t s = vld1q_u64(plane + w);
    const uint64x2_t p = vld1q_u64(pending + w);
    const uint64x2_t x = vld1q_u64(incoming + w);
    vst1q_u64(plane + w, veorq_u64(veorq_u64(s, p), x));
    vst1q_u64(carry + w, vorrq_u64(vorrq_u64(vandq_u64(s, p), vandq_u64(s, x)), vandq_u64(p, x)));
  }
  for (; w < n; ++w) {
    const std::uint64_t s = plane[w];
    const std::uint64_t p = pending[w];
    const std::uint64_t x = incoming[w];
    plane[w] = s ^ p ^ x;
    carry[w] = (s & p) | (s & x) | (p & x);
  }
}

std::size_t mismatch_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::size_t mismatches = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t eq = vceqq_s8(vld1q_s8(a + i), vld1q_s8(b + i));
    // Equal bytes are 0xff; shift to 0/1 and sum: 16 - matches = mismatches.
    mismatches += 16 - vaddlvq_u8(vshrq_n_u8(eq, 7));
  }
  for (; i < n; ++i) mismatches += static_cast<std::size_t>(a[i] != b[i]);
  return mismatches;
}

std::int64_t dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  // Bipolar contract: dot == n - 2 * mismatches, exactly.
  return static_cast<std::int64_t>(n) - 2 * static_cast<std::int64_t>(mismatch_i8(a, b, n));
}

void accumulate_bound_i8(std::int32_t* counts, const std::int8_t* a, const std::int8_t* b,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int8x16_t prod = vmulq_s8(vld1q_s8(a + i), vld1q_s8(b + i));
    const int16x8_t lo = vmovl_s8(vget_low_s8(prod));
    const int16x8_t hi = vmovl_s8(vget_high_s8(prod));
    vst1q_s32(counts + i, vaddw_s16(vld1q_s32(counts + i), vget_low_s16(lo)));
    vst1q_s32(counts + i + 4, vaddw_s16(vld1q_s32(counts + i + 4), vget_high_s16(lo)));
    vst1q_s32(counts + i + 8, vaddw_s16(vld1q_s32(counts + i + 8), vget_low_s16(hi)));
    vst1q_s32(counts + i + 12, vaddw_s16(vld1q_s32(counts + i + 12), vget_high_s16(hi)));
  }
  for (; i < n; ++i) {
    counts[i] += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
}

void accumulate_weighted_i8(std::int32_t* counts, const std::int8_t* comps, std::size_t n,
                            std::int32_t weight) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t wide = vmovl_s8(vld1_s8(comps + i));
    const int32x4_t lo = vmulq_n_s32(vmovl_s16(vget_low_s16(wide)), weight);
    const int32x4_t hi = vmulq_n_s32(vmovl_s16(vget_high_s16(wide)), weight);
    vst1q_s32(counts + i, vaddq_s32(vld1q_s32(counts + i), lo));
    vst1q_s32(counts + i + 4, vaddq_s32(vld1q_s32(counts + i + 4), hi));
  }
  for (; i < n; ++i) counts[i] += weight * static_cast<std::int32_t>(comps[i]);
}

const KernelOps kNeonOps = {
    /*name=*/"neon",
    /*priority=*/10,
    /*supported=*/neon_supported,
    /*xor_words=*/xor_words,
    /*hamming_words=*/hamming_words,
    /*hamming_batch=*/hamming_batch,
    /*full_adder=*/full_adder,
    /*count_bound_pairs=*/ref::count_bound_pairs,
    /*accumulate_packed=*/ref::accumulate_packed,
    /*threshold_counters=*/ref::threshold_counters,
    /*dot_i8=*/dot_i8,
    /*mismatch_i8=*/mismatch_i8,
    /*accumulate_bound_i8=*/accumulate_bound_i8,
    /*accumulate_weighted_i8=*/accumulate_weighted_i8,
};

}  // namespace

const KernelOps* neon_kernels() noexcept { return &kNeonOps; }

}  // namespace graphhd::hdc::kernels

#else  // not aarch64

namespace graphhd::hdc::kernels {

const KernelOps* neon_kernels() noexcept { return nullptr; }

}  // namespace graphhd::hdc::kernels

#endif
