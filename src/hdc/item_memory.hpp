/// \file item_memory.hpp
/// Item memory: the store of fixed random basis hypervectors.
///
/// HDC encoders map discrete symbols (for GraphHD: PageRank centrality
/// *ranks*) to random basis vectors that stay fixed for the lifetime of the
/// model.  Two properties matter:
///   1. determinism — symbol k always maps to the same vector, across graphs,
///      folds and processes (given the same seed);
///   2. quasi-orthogonality — distinct symbols map to vectors with expected
///      cosine 0 and O(1/sqrt(d)) deviation, which is what makes bundles
///      separable.
///
/// The memory grows lazily: vector k is derived from seed and index k alone
/// (counter-based generation), so `get(5)` yields the same vector whether or
/// not `get(0..4)` were ever requested.
///
/// ItemMemory is the dense reference table; PackedItemMemory is its packed,
/// thread-safe twin, the basis every encoder shares (core/encoder.hpp).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "hdc/hypervector.hpp"
#include "hdc/packed.hpp"
#include "hdc/random.hpp"

namespace graphhd::hdc {

/// Lazily grown, seed-deterministic table of random bipolar basis vectors.
class ItemMemory {
 public:
  /// \param dimension hypervector dimensionality (the paper uses 10,000).
  /// \param seed      master seed; vector k uses derive_seed(seed, k).
  ItemMemory(std::size_t dimension, std::uint64_t seed);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Number of vectors materialized so far.
  [[nodiscard]] std::size_t size() const noexcept { return vectors_.size(); }

  /// Returns basis vector `index`, materializing anything missing.
  /// References remain valid for the lifetime of the memory (the table grows
  /// without relocating existing vectors).
  [[nodiscard]] const Hypervector& get(std::size_t index);

  /// Pre-materializes vectors [0, count).  Useful to move generation cost out
  /// of timed sections.
  void reserve(std::size_t count);

  /// Stateless variant: computes vector `index` without storing it.
  [[nodiscard]] Hypervector make(std::size_t index) const;

 private:
  std::size_t dimension_;
  std::uint64_t seed_;
  std::deque<Hypervector> vectors_;  ///< deque: growth never invalidates refs.
};

/// Packed twin of ItemMemory: vector k is bit-identical to
/// PackedHypervector::from_bipolar(ItemMemory(dimension, seed).make(k)), but
/// is generated straight from the RNG words.  Logically immutable and safe
/// to share across threads: vectors already materialized are read without
/// a lock; growth runs under one mutex into segments that never relocate
/// and is published with a release store, so get()/reserve() may be called
/// concurrently from any number of threads.
class PackedItemMemory {
 public:
  PackedItemMemory(std::size_t dimension, std::uint64_t seed);

  /// Number of vectors materialized so far.
  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  /// Returns basis vector `index`, materializing it (and every vector below
  /// it) first when needed.  References stay valid for the memory's lifetime.
  [[nodiscard]] const PackedHypervector& get(std::size_t index) const {
    if (index >= size()) reserve(index + 1);
    return *locate(index);
  }

  /// Materializes vectors [0, count).
  void reserve(std::size_t count) const;

 private:
  /// Computes vector `index` from (seed, index) alone.
  [[nodiscard]] PackedHypervector make(std::size_t index) const;

  /// Segment s holds kFirstSegment << s vectors, starting at index
  /// kFirstSegment * (2^s - 1); 64 segments cover every size_t index.
  static constexpr std::size_t kFirstSegment = 64;
  static constexpr std::size_t kSegments = 64;

  [[nodiscard]] static std::size_t segment_of(std::size_t index) noexcept;
  [[nodiscard]] PackedHypervector* locate(std::size_t index) const noexcept;

  std::size_t dimension_;
  std::uint64_t seed_;
  mutable std::mutex grow_mutex_;
  /// Written only under grow_mutex_, before the size_ release store that
  /// publishes them; never reallocated.
  mutable std::array<std::unique_ptr<PackedHypervector[]>, kSegments> segments_;
  mutable std::atomic<std::size_t> size_{0};
};

}  // namespace graphhd::hdc
