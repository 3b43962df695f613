#include "hdc/bitslice.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

#include "hdc/kernels/kernels.hpp"

namespace graphhd::hdc {

namespace {

[[nodiscard]] std::size_t words_for(std::size_t dimension) noexcept {
  return (dimension + 63) / 64;
}

}  // namespace

BitsliceBundler::BitsliceBundler(std::size_t dimension)
    : dimension_(dimension),
      words_(words_for(dimension)),
      scratch_(words_, 0),
      carry_(words_, 0) {
  if (dimension == 0) {
    throw std::invalid_argument("BitsliceBundler: dimension must be positive");
  }
}

void BitsliceBundler::add_bound(const PackedHypervector& a, const PackedHypervector& b) {
  if (a.dimension() != dimension_ || b.dimension() != dimension_) {
    throw std::invalid_argument("BitsliceBundler::add_bound: dimension mismatch");
  }
  kernels::active().xor_words(scratch_.data(), a.words().data(), b.words().data(), words_);
  add_staged(0);
  ++count_;
}

void BitsliceBundler::add_bound_pairs(std::span<const PackedHypervector* const> vectors,
                                      std::span<const std::uint32_t> u,
                                      std::span<const std::uint32_t> v) {
  if (u.size() != v.size()) {
    throw std::invalid_argument("BitsliceBundler::add_bound_pairs: endpoint count mismatch");
  }
  for (std::size_t j = 0; j < u.size(); ++j) {
    if (u[j] >= vectors.size() || v[j] >= vectors.size()) {
      throw std::invalid_argument("BitsliceBundler::add_bound_pairs: vector index out of range");
    }
  }
  for (const PackedHypervector* hv : vectors) {
    if (hv->dimension() != dimension_) {
      throw std::invalid_argument("BitsliceBundler::add_bound_pairs: dimension mismatch");
    }
  }
  if (u.size() < kMinPairsPerVector * vectors.size()) {
    // Sparse batch: copying the table would cost more than it saves.
    for (std::size_t j = 0; j < u.size(); ++j) add_bound(*vectors[u[j]], *vectors[v[j]]);
    return;
  }
  // Block-major copy: block c of every vector is one contiguous run, zero
  // past the last word.
  constexpr std::size_t kBlock = kernels::kBlockWords;
  const std::size_t blocks = (words_ + kBlock - 1) / kBlock;
  const std::unique_ptr<std::uint64_t[]> table(
      new std::uint64_t[blocks * kBlock * vectors.size()]);
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const auto words = vectors[i]->words();
    for (std::size_t block = 0; block < blocks; ++block) {
      std::uint64_t* out = &table[(block * vectors.size() + i) * kBlock];
      const std::size_t first = block * kBlock;
      const std::size_t count = std::min(kBlock, words_ - first);
      std::copy_n(words.begin() + static_cast<std::ptrdiff_t>(first), count, out);
      std::fill(out + count, out + kBlock, std::uint64_t{0});
    }
  }
  // Count the pairs into plain binary planes, then add plane k into the
  // carry-save structure with weight 2^k.
  const std::size_t levels = std::bit_width(u.size());
  const std::size_t plane_words = blocks * kBlock;
  std::vector<std::uint64_t> counted(levels * plane_words);
  kernels::active().count_bound_pairs(table.get(), vectors.size(), blocks, u.data(), v.data(),
                                      u.size(), counted.data(), levels);
  for (std::size_t level = 0; level < levels; ++level) {
    std::copy_n(counted.begin() + static_cast<std::ptrdiff_t>(level * plane_words), words_,
                scratch_.begin());
    add_staged(level);
  }
  count_ += u.size();
}

void BitsliceBundler::add(const PackedHypervector& hv) {
  if (hv.dimension() != dimension_) {
    throw std::invalid_argument("BitsliceBundler::add: dimension mismatch");
  }
  const auto words = hv.words();
  for (std::size_t w = 0; w < words_; ++w) scratch_[w] = words[w];
  add_staged(0);
  ++count_;
}

void BitsliceBundler::add_staged(std::size_t level) {
  // Lazy carry-save accumulation (Harley-Seal style): level k keeps one
  // committed plane (weight 2^k of the final count) and at most one pending
  // vector of the same weight.  Inserting at level k either parks the vector
  // as pending (a buffer swap) or performs one full-adder step over the
  // triple (plane, pending, incoming) and recurses with the carry — so
  // level k is touched only once every 2^k adds, amortized O(words) per add.
  //
  // Invariant: the incoming vector always lives in scratch_ — add() and
  // add_bound() stage into it, and each full-adder step swaps the carry
  // buffer back into it.
  for (;; ++level) {
    while (level >= planes_.size()) {
      planes_.emplace_back(words_, 0);
      pending_.emplace_back(words_, 0);
      pending_valid_.push_back(false);
    }
    if (!pending_valid_[level]) {
      pending_[level].swap(scratch_);
      pending_valid_[level] = true;
      break;
    }
    // Full adder: plane' = s ^ p ^ x (weight 2^k), carry = maj(s, p, x)
    // (weight 2^{k+1}) — one kernel call per touched level.
    kernels::active().full_adder(planes_[level].data(), pending_[level].data(), scratch_.data(),
                                 carry_.data(), words_);
    pending_valid_[level] = false;
    // The carry becomes the next level's incoming vector (kept in scratch_).
    scratch_.swap(carry_);
  }
}

void BitsliceBundler::flush_pending() {
  for (std::size_t level = 0; level < pending_valid_.size(); ++level) {
    if (!pending_valid_[level]) continue;
    pending_valid_[level] = false;
    // Half-adder ripple: add the pending vector (weight 2^level) into the
    // committed planes, propagating the carry upward.
    std::uint64_t* carry = scratch_.data();
    const std::uint64_t* pend = pending_[level].data();
    for (std::size_t w = 0; w < words_; ++w) carry[w] = pend[w];
    for (std::size_t k = level;; ++k) {
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < words_; ++w) any |= carry[w];
      if (any == 0) break;
      if (k == planes_.size()) {
        planes_.emplace_back(words_, 0);
        pending_.emplace_back(words_, 0);
        pending_valid_.push_back(false);
      }
      std::uint64_t* plane = planes_[k].data();
      for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t p = plane[w];
        plane[w] = p ^ carry[w];
        carry[w] = p & carry[w];
      }
    }
  }
}

void BitsliceBundler::compare_counters(std::uint64_t threshold,
                                       std::vector<std::uint64_t>& greater,
                                       std::vector<std::uint64_t>& less) const {
  greater.assign(words_, 0);
  less.assign(words_, 0);
  std::size_t levels = planes_.size();
  while (levels < 64 && (threshold >> levels) != 0) ++levels;
  // MSB-first: the first level at which the counter bit differs from the
  // threshold bit decides the comparison for that component.
  for (std::size_t level_plus = levels; level_plus > 0; --level_plus) {
    const std::size_t level = level_plus - 1;
    const std::uint64_t threshold_bit =
        ((threshold >> level) & 1u) ? ~std::uint64_t{0} : std::uint64_t{0};
    const std::uint64_t* plane = level < planes_.size() ? planes_[level].data() : nullptr;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t count_bit = plane != nullptr ? plane[w] : 0;
      const std::uint64_t undecided = ~(greater[w] | less[w]);
      greater[w] |= undecided & count_bit & ~threshold_bit;
      less[w] |= undecided & ~count_bit & threshold_bit;
    }
  }
}

std::vector<std::uint32_t> BitsliceBundler::negative_counts() {
  flush_pending();
  std::vector<std::uint32_t> counts(dimension_, 0);
  for (std::size_t level = 0; level < planes_.size(); ++level) {
    const auto& plane = planes_[level];
    for (std::size_t i = 0; i < dimension_; ++i) {
      counts[i] += static_cast<std::uint32_t>((plane[i >> 6] >> (i & 63)) & 1u) << level;
    }
  }
  return counts;
}

PackedHypervector BitsliceBundler::threshold_packed(std::uint64_t tie_break_seed) {
  // Odd counts cannot tie, so they never pay for the stream.
  if ((count_ & 1u) != 0) return threshold_packed(std::span<const std::uint64_t>{});
  return threshold_packed(tie_sign_words(tie_break_seed, dimension_));
}

PackedHypervector BitsliceBundler::threshold_packed(std::span<const std::uint64_t> tie_words) {
  flush_pending();
  // Component is -1 iff neg > count/2.  Bit-sliced comparison against the
  // constant count/2 yields both the strict-majority mask (greater) and the
  // tie mask (neither greater nor less == exactly count/2, only possible
  // for even counts).  The strict-majority mask *is* the packed result
  // (bit set == component -1); its tail bits are clear because the planes
  // never carry data past the dimension.
  std::vector<std::uint64_t> greater, less;
  compare_counters(count_ / 2, greater, less);
  if ((count_ & 1u) == 0) {
    if (tie_words.size() != words_) {
      throw std::invalid_argument("BitsliceBundler::threshold_packed: " +
                                  std::to_string(tie_words.size()) + " tie words for " +
                                  std::to_string(words_) + " packed words");
    }
    // Even count: tie components take the seeded stream, one draw per
    // component (its tail bits are zero, which also masks the undecided
    // tail slack).
    for (std::size_t w = 0; w < words_; ++w) {
      greater[w] |= ~(greater[w] | less[w]) & tie_words[w];
    }
  }
  return PackedHypervector::from_words(std::move(greater), dimension_);
}

void BitsliceBundler::clear() noexcept {
  planes_.clear();
  pending_.clear();
  pending_valid_.clear();
  count_ = 0;
}

}  // namespace graphhd::hdc
