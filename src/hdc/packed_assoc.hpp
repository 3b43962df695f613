/// \file packed_assoc.hpp
/// The associative memory M = {C1, ..., Ck}: the trained HDC class store.
///
/// Training (Section III-B) bundles the encoded samples of each class into a
/// class vector; inference (Section III-C) returns the class whose vector is
/// most similar to the query.  The paper's efficiency argument leans on
/// associative-memory hardware (Schmuck et al.): with binary class vectors,
/// one inference is k Hamming distances, each a row of XOR + popcount — the
/// operation FPGA/ASIC mappings execute in a single cycle per class.
///
/// PackedClassMemory is that store in software: per-slot signed-counter
/// accumulators (PackedBundleAccumulator, the same raw state as the dense
/// BundleAccumulator) fed with packed queries.  Quantized stores (the
/// paper's model) score with popcount-Hamming against the majority-
/// thresholded class vectors; non-quantized stores (the retraining
/// extension's "counter" model) score with the exact counter cosine of
/// counter_cosine().  Either way the similarity doubles are bit-identical to
/// the dense reference arithmetic (hdc::similarity on the bipolar class
/// vectors, BundleAccumulator::cosine on the counters) — property-tested
/// against a dense oracle in tests/test_backend.cpp and
/// tests/test_packed_assoc.cpp.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/ops.hpp"
#include "hdc/packed.hpp"

namespace graphhd::hdc {

/// Result of a single associative-memory query.
struct QueryResult {
  std::size_t best_class = 0;           ///< argmax class index.
  double best_similarity = -2.0;        ///< δ(query, C_best).
  std::vector<double> similarities;     ///< δ(query, C_i) for every class.

  /// Margin between best and runner-up similarity (0 if fewer than 2 classes).
  [[nodiscard]] double margin() const noexcept;
};

/// Exact cosine between a signed-counter row and the bipolar vector a packed
/// query encodes (bit b set means component -1).  The dot product is
/// Σc − 2·Σ_{b set} c — the same int64 value as Σ c_i·q_i — and the norm
/// expression is BundleAccumulator::cosine's, so the double is bit-identical
/// to BundleAccumulator::cosine(query.to_bipolar()).  `query_words` must hold
/// ceil(counts.size() / 64) words with a zero tail; an all-zero row (or an
/// empty one) scores 0.
[[nodiscard]] double counter_cosine(std::span<const std::int32_t> counts,
                                    std::span<const std::uint64_t> query_words);

/// Trainable associative memory over `num_classes` signed-counter class
/// accumulators, queried with packed hypervectors.
class PackedClassMemory {
 public:
  /// \param dimension    hypervector dimensionality.
  /// \param num_classes  number of class slots k (>= 1).
  /// \param metric       similarity δ used by quantized queries.
  /// \param quantized    if true, queries compare against the majority-
  ///                     thresholded class vectors with XOR + popcount (the
  ///                     paper's model); if false, against the raw counters
  ///                     with counter_cosine (the metric does not apply).
  PackedClassMemory(std::size_t dimension, std::size_t num_classes,
                    Similarity metric = Similarity::kCosine, bool quantized = true);

  /// Copies rebuild the cached row-pointer table against their own cached
  /// class vectors (defaulted moves keep the heap buffers valid), so a
  /// finalized memory — original or copy — serves concurrent queries as
  /// pure reads.
  PackedClassMemory(const PackedClassMemory& other);
  PackedClassMemory& operator=(const PackedClassMemory& other);
  PackedClassMemory(PackedClassMemory&&) noexcept = default;
  PackedClassMemory& operator=(PackedClassMemory&&) noexcept = default;

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return accumulators_.size(); }
  [[nodiscard]] Similarity metric() const noexcept { return metric_; }
  [[nodiscard]] bool quantized() const noexcept { return quantized_; }

  /// Adds an encoded training sample to class `label`.
  void add(std::size_t label, const PackedHypervector& encoded);

  /// Signed update used by perceptron-style retraining: adds the sample to
  /// its true class and subtracts it from the class it was mispredicted as.
  void retrain_update(std::size_t true_label, std::size_t predicted_label,
                      const PackedHypervector& encoded);

  /// Number of samples added to class `label` so far.
  [[nodiscard]] std::size_t class_count(std::size_t label) const;

  /// The quantized (packed) class vector C_i.
  [[nodiscard]] PackedHypervector class_vector(std::size_t label) const;

  /// Classifies `query`; requires at least one class.
  [[nodiscard]] QueryResult query(const PackedHypervector& query) const;

  /// Rebuilds the cached packed class vectors; called automatically by
  /// query() when the memory is dirty, exposed so batch predict paths can
  /// finalize once before querying concurrently from pool workers.
  void finalize() const;

  /// Raw accumulator of one class slot (serialization / diagnostics).
  [[nodiscard]] const PackedBundleAccumulator& accumulator(std::size_t label) const;

  /// Replaces one slot's accumulator state (deserialization).  The
  /// accumulator's dimension must match the memory's.
  void restore(std::size_t label, PackedBundleAccumulator accumulator,
               std::size_t sample_count);

  /// Folds another memory in, slot by slot: counter addition, sample counts
  /// summed (see PackedBundleAccumulator::merge).  Exact — querying the
  /// merged memory equals querying one trained on both memories' samples in
  /// any interleaving.  Layouts must agree (dimension, slot count, metric,
  /// quantization); throws std::invalid_argument otherwise.
  void merge(const PackedClassMemory& other);

  /// Inference-time artifact size in bytes: num_classes * ceil(d / 8).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  std::size_t dimension_;
  Similarity metric_;
  bool quantized_;
  std::vector<PackedBundleAccumulator> accumulators_;
  std::vector<std::size_t> counts_;
  mutable std::vector<PackedHypervector> cached_class_vectors_;
  /// Row-pointer table into cached_class_vectors_ for the batched distance
  /// kernel; rebuilt by finalize() and by the copy operations, so queries
  /// on a finalized memory stay pure reads.
  mutable std::vector<const std::uint64_t*> cached_rows_;
  mutable bool dirty_ = true;
};

}  // namespace graphhd::hdc
