#include "hdc/packed.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "hdc/kernels/kernels.hpp"

namespace graphhd::hdc {

namespace {

void require_same_dimension(std::size_t a, std::size_t b, const char* op) {
  if (a != b) {
    throw std::invalid_argument(std::string(op) + ": dimension mismatch (" +
                                std::to_string(a) + " vs " + std::to_string(b) + ")");
  }
}

[[nodiscard]] std::size_t words_for(std::size_t dimension) noexcept {
  return (dimension + 63) / 64;
}

}  // namespace

PackedHypervector::PackedHypervector(std::size_t dimension)
    : words_(words_for(dimension), 0), dimension_(dimension) {}

PackedHypervector PackedHypervector::random(std::size_t dimension, Rng& rng) {
  PackedHypervector hv(dimension);
  for (auto& word : hv.words_) word = rng();
  hv.mask_tail();
  return hv;
}

PackedHypervector PackedHypervector::from_bipolar(const Hypervector& hv) {
  PackedHypervector packed(hv.dimension());
  for (std::size_t i = 0; i < hv.dimension(); ++i) {
    if (hv[i] == -1) packed.words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }
  return packed;
}

PackedHypervector PackedHypervector::from_words(std::vector<std::uint64_t> words,
                                                std::size_t dimension) {
  if (words.size() != words_for(dimension)) {
    throw std::invalid_argument("PackedHypervector::from_words: " + std::to_string(words.size()) +
                                " words cannot hold dimension " + std::to_string(dimension));
  }
  PackedHypervector packed;
  packed.words_ = std::move(words);
  packed.dimension_ = dimension;
  packed.mask_tail();
  return packed;
}

Hypervector PackedHypervector::to_bipolar() const {
  // One table lookup per byte: entry b holds the eight components of byte
  // value b (bit set == -1).  The output is ±1 by construction, so it skips
  // the checking constructor.
  static constexpr auto kSigns = [] {
    std::array<std::array<std::int8_t, 8>, 256> table{};
    for (std::size_t b = 0; b < 256; ++b) {
      for (std::size_t k = 0; k < 8; ++k) table[b][k] = ((b >> k) & 1u) ? -1 : 1;
    }
    return table;
  }();
  Hypervector hv(dimension_);
  std::int8_t* out = hv.data_.data();
  for (std::size_t i = 0; i < dimension_; i += 8) {
    const auto byte = static_cast<std::uint8_t>(words_[i >> 6] >> (i & 63));
    std::memcpy(out + i, kSigns[byte].data(), std::min<std::size_t>(8, dimension_ - i));
  }
  return hv;
}

void PackedHypervector::set_bit_unchecked(std::size_t i, bool value) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  if (value) {
    words_[i >> 6] |= mask;
  } else {
    words_[i >> 6] &= ~mask;
  }
}

void PackedHypervector::throw_index_error(const char* op, std::size_t i) const {
  throw std::out_of_range("PackedHypervector::" + std::string(op) + ": index " +
                          std::to_string(i) + " out of range for dimension " +
                          std::to_string(dimension_));
}

PackedHypervector PackedHypervector::bind(const PackedHypervector& other) const {
  require_same_dimension(dimension_, other.dimension_, "PackedHypervector::bind");
  PackedHypervector out(dimension_);
  kernels::active().xor_words(out.words_.data(), words_.data(), other.words_.data(),
                              words_.size());
  return out;
}

std::size_t PackedHypervector::hamming_distance(const PackedHypervector& other) const {
  require_same_dimension(dimension_, other.dimension_, "PackedHypervector::hamming_distance");
  return kernels::active().hamming_words(words_.data(), other.words_.data(), words_.size());
}

double PackedHypervector::similarity(const PackedHypervector& other) const {
  if (dimension_ == 0) return 0.0;
  const double h = static_cast<double>(hamming_distance(other));
  return 1.0 - 2.0 * h / static_cast<double>(dimension_);
}

PackedHypervector PackedHypervector::permute(std::ptrdiff_t shift) const {
  if (dimension_ == 0) return *this;
  PackedHypervector out(dimension_);
  const auto d = static_cast<std::ptrdiff_t>(dimension_);
  std::ptrdiff_t offset = shift % d;
  if (offset < 0) offset += d;
  for (std::size_t i = 0; i < dimension_; ++i) {
    const std::size_t target = (i + static_cast<std::size_t>(offset)) % dimension_;
    if (bit_unchecked(i)) out.set_bit_unchecked(target, true);
  }
  return out;
}

void PackedHypervector::mask_tail() noexcept {
  const std::size_t tail_bits = dimension_ & 63;
  if (tail_bits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail_bits) - 1;
  }
}

PackedBundleAccumulator::PackedBundleAccumulator(std::size_t dimension)
    : counts_(dimension, 0) {}

PackedBundleAccumulator PackedBundleAccumulator::from_raw(std::vector<std::int32_t> counts,
                                                          std::size_t count,
                                                          bool weight_parity_odd) {
  PackedBundleAccumulator acc;
  acc.counts_ = std::move(counts);
  acc.count_ = count;
  acc.weight_parity_odd_ = weight_parity_odd;
  return acc;
}

void PackedBundleAccumulator::add(const PackedHypervector& hv, std::int32_t weight) {
  require_same_dimension(counts_.size(), hv.dimension(), "PackedBundleAccumulator::add");
  kernels::active().accumulate_packed(counts_.data(), hv.words().data(), counts_.size(), weight);
  ++count_;
  // Every component moves by ±weight, so all counters share one parity.
  if ((weight & 1) != 0) weight_parity_odd_ = !weight_parity_odd_;
}

void PackedBundleAccumulator::merge(const PackedBundleAccumulator& other) {
  require_same_dimension(counts_.size(), other.counts_.size(),
                         "PackedBundleAccumulator::merge");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  weight_parity_odd_ = weight_parity_odd_ != other.weight_parity_odd_;
}

PackedHypervector PackedBundleAccumulator::threshold(std::uint64_t tie_break_seed) const {
  const std::size_t dimension = counts_.size();
  const std::size_t num_words = (dimension + 63) / 64;
  std::vector<std::uint64_t> negative(num_words, 0);
  if (weight_parity_odd_) {
    // Odd total weight: no counter can be zero, the tie stream is never
    // consulted — skip generating it (identical result, faster).
    kernels::active().threshold_counters(counts_.data(), dimension, negative.data(), nullptr);
    return PackedHypervector::from_words(std::move(negative), dimension);
  }
  // Even weight: the zero counters are ties, resolved by the seeded stream
  // with one sign per component (not per tie) so that the result for a given
  // counter vector does not depend on *which* components are tied — the
  // BundleAccumulator convention (bit set corresponds to bipolar -1).
  std::vector<std::uint64_t> zero(num_words, 0);
  kernels::active().threshold_counters(counts_.data(), dimension, negative.data(), zero.data());
  const std::vector<std::uint64_t> tie = tie_sign_words(tie_break_seed, dimension);
  for (std::size_t w = 0; w < num_words; ++w) negative[w] |= zero[w] & tie[w];
  return PackedHypervector::from_words(std::move(negative), dimension);
}

void PackedBundleAccumulator::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  weight_parity_odd_ = false;
}

}  // namespace graphhd::hdc
