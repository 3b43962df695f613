#include "hdc/item_memory.hpp"

#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

namespace graphhd::hdc {

ItemMemory::ItemMemory(std::size_t dimension, std::uint64_t seed)
    : dimension_(dimension), seed_(seed) {
  if (dimension == 0) {
    throw std::invalid_argument("ItemMemory: dimension must be positive");
  }
}

const Hypervector& ItemMemory::get(std::size_t index) {
  while (index >= vectors_.size()) {
    vectors_.push_back(make(vectors_.size()));
  }
  return vectors_[index];
}

void ItemMemory::reserve(std::size_t count) {
  if (count > 0) (void)get(count - 1);
}

Hypervector ItemMemory::make(std::size_t index) const {
  Rng rng(derive_seed(seed_, static_cast<std::uint64_t>(index)));
  return Hypervector::random(dimension_, rng);
}

PackedItemMemory::PackedItemMemory(std::size_t dimension, std::uint64_t seed)
    : dimension_(dimension), seed_(seed) {
  if (dimension == 0) {
    throw std::invalid_argument("PackedItemMemory: dimension must be positive");
  }
}

std::size_t PackedItemMemory::segment_of(std::size_t index) noexcept {
  return std::bit_width(index / kFirstSegment + 1) - 1;
}

PackedHypervector* PackedItemMemory::locate(std::size_t index) const noexcept {
  const std::size_t segment = segment_of(index);
  const std::size_t start = kFirstSegment * ((std::size_t{1} << segment) - 1);
  return &segments_[segment][index - start];
}

void PackedItemMemory::reserve(std::size_t count) const {
  if (count <= size()) return;
  const std::lock_guard lock(grow_mutex_);
  std::size_t n = size_.load(std::memory_order_relaxed);
  for (; n < count; ++n) {
    const std::size_t segment = segment_of(n);
    if (!segments_[segment]) {
      segments_[segment] = std::make_unique<PackedHypervector[]>(kFirstSegment << segment);
    }
    *locate(n) = make(n);
  }
  size_.store(n, std::memory_order_release);
}

PackedHypervector PackedItemMemory::make(std::size_t index) const {
  Rng rng(derive_seed(seed_, static_cast<std::uint64_t>(index)));
  // Hypervector::random takes one RNG word per 64 components and maps a set
  // bit to +1; the packed convention sets the bit for -1, hence the negation
  // (from_words clears the tail past the dimension).
  std::vector<std::uint64_t> words((dimension_ + 63) / 64);
  for (std::uint64_t& word : words) word = ~rng();
  return PackedHypervector::from_words(std::move(words), dimension_);
}

}  // namespace graphhd::hdc
