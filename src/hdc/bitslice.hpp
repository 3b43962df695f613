/// \file bitslice.hpp
/// Bit-sliced ("vertical counter") majority bundling.
///
/// GraphHD's inner loop bundles one ±1 product per edge into per-component
/// majority counters.  Done naively that is d integer multiply-accumulates
/// per edge (d = 10,000).  Because a bipolar product is one *bit* (sign),
/// the counters can instead be kept as a bit-sliced binary number: plane k
/// stores bit k of every component's counter, packed 64 components per word.
/// Additions run through a lazy carry-save adder (Harley-Seal style) at
/// amortized O(d / 64) word operations per edge, and the final majority is
/// decided by a bit-sliced comparator rather than per-component count
/// extraction.
///
/// This is the "binarized bundling" hardware technique of Schmuck et al.
/// (JETC 2019), which the paper cites as the efficiency motivation for HDC;
/// here it serves the same role in software.  The result is bit-identical
/// to BundleAccumulator + threshold (tested in tests/test_bitslice.cpp).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/packed.hpp"

namespace graphhd::hdc {

/// Majority bundler over XOR-bound packed hypervector pairs.
///
/// Counts, per component, how many added inputs had that component equal to
/// -1 (bit set in the packed convention).  threshold_packed() reproduces
/// exactly BundleAccumulator::threshold()'s majority + seeded-tie-break
/// semantics.
class BitsliceBundler {
 public:
  explicit BitsliceBundler(std::size_t dimension);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Adds bind(a, b) — i.e. the packed XOR — without materializing it.
  void add_bound(const PackedHypervector& a, const PackedHypervector& b);

  /// Adds bind(*vectors[u[j]], *vectors[v[j]]) for every pair j — the same
  /// counts as one add_bound per pair, taken (when the pairs are dense
  /// enough) by one kernel call, kernels::count_bound_pairs over a
  /// block-major copy of `vectors`, and merged into the counters.  The
  /// encoder's edge loop: `vectors` are a graph's vertex vectors, (u, v)
  /// its edges.
  void add_bound_pairs(std::span<const PackedHypervector* const> vectors,
                       std::span<const std::uint32_t> u, std::span<const std::uint32_t> v);

  /// Adds one packed vector.
  void add(const PackedHypervector& hv);

  /// Per-component count of added inputs whose component was -1 (set bit).
  /// Used by tests and diagnostics.
  [[nodiscard]] std::vector<std::uint32_t> negative_counts();

  /// Majority threshold with the same convention as
  /// BundleAccumulator::threshold: component sign of (count_+1 - count_-1),
  /// exact ties resolved by the seeded ±1 stream (one draw per component);
  /// odd add counts cannot tie and skip the stream.  Produces the packed
  /// representation directly; bit-identical to
  /// `PackedHypervector::from_bipolar(BundleAccumulator::threshold(seed))`.
  [[nodiscard]] PackedHypervector threshold_packed(
      std::uint64_t tie_break_seed = kMajorityTieSeed);

  /// Same threshold with the tie stream already packed: `tie_words` must be
  /// tie_sign_words(seed, dimension()) — callers that threshold many bundles
  /// with one seed (the encoder) build it once.  Ignored for odd counts.
  [[nodiscard]] PackedHypervector threshold_packed(std::span<const std::uint64_t> tie_words);

  void clear() noexcept;

 private:
  /// add_bound_pairs copies the vectors into the kernel's table only when
  /// there are at least this many pairs per vector; sparser batches take
  /// the per-pair path (measured crossover on AVX-512 and AVX2: 3-4).
  static constexpr std::size_t kMinPairsPerVector = 4;

  /// Adds the vector currently staged in scratch_, with weight 2^level,
  /// into the lazy carry-save counter structure (count_ is the caller's).
  void add_staged(std::size_t level);

  /// Merges all pending vectors into the committed planes (carry-
  /// propagating), leaving a plain bit-sliced binary counter.
  void flush_pending();

  /// Bit-sliced comparator: sets bit i of `greater` iff counter_i >
  /// `threshold`, of `less` iff counter_i < `threshold`.  Requires
  /// flush_pending() to have run.
  void compare_counters(std::uint64_t threshold, std::vector<std::uint64_t>& greater,
                        std::vector<std::uint64_t>& less) const;

  std::size_t dimension_;
  std::size_t words_;
  std::size_t count_ = 0;
  std::vector<std::vector<std::uint64_t>> planes_;   ///< committed weight-2^k planes.
  std::vector<std::vector<std::uint64_t>> pending_;  ///< <=1 parked vector per level.
  std::vector<bool> pending_valid_;
  std::vector<std::uint64_t> scratch_;  ///< XOR / carry staging buffer.
  std::vector<std::uint64_t> carry_;    ///< full-adder carry output buffer.
};

}  // namespace graphhd::hdc
