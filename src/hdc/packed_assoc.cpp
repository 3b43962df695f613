#include "hdc/packed_assoc.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "hdc/kernels/kernels.hpp"

namespace graphhd::hdc {

namespace {

/// Distances scratch for one one-vs-all query: class-slot counts are small
/// (classes x vectors_per_class), so the common case lives on the stack and
/// the hot inference path performs zero heap allocations beyond the caller's
/// QueryResult.
struct DistanceBuffer {
  explicit DistanceBuffer(std::size_t n) {
    if (n > stack.size()) {
      heap.resize(n);
      data = heap.data();
    } else {
      data = stack.data();
    }
  }
  std::array<std::size_t, 64> stack;
  std::vector<std::size_t> heap;
  std::size_t* data;
};

/// Shared row-table builder: the batched distance kernel wants one pointer
/// per class row, and every (re)build must come through here so the
/// aliasing invariant (pointers into exactly these vectors) has one home.
std::vector<const std::uint64_t*> make_row_table(
    const std::vector<PackedHypervector>& class_vectors) {
  std::vector<const std::uint64_t*> rows(class_vectors.size());
  for (std::size_t c = 0; c < class_vectors.size(); ++c) rows[c] = class_vectors[c].words().data();
  return rows;
}

}  // namespace

double QueryResult::margin() const noexcept {
  if (similarities.size() < 2) return 0.0;
  double best = -2.0, second = -2.0;
  for (const double s : similarities) {
    if (s > best) {
      second = best;
      best = s;
    } else if (s > second) {
      second = s;
    }
  }
  return best - second;
}

double counter_cosine(std::span<const std::int32_t> counts,
                      std::span<const std::uint64_t> query_words) {
  if (query_words.size() * 64 < counts.size()) {
    throw std::invalid_argument("counter_cosine: query has fewer words than the counter row");
  }
  if (counts.empty()) return 0.0;
  // Σ c_i·q_i with q_i = 1 - 2·bit_i, split into Σc and Σ_{bit set} c so the
  // packed bits are read directly — the same int64 dot as the dense loop.
  std::int64_t sum = 0;
  std::int64_t set_sum = 0;
  std::int64_t norm_sq = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::int64_t c = counts[i];
    const auto bit = static_cast<std::int64_t>((query_words[i >> 6] >> (i & 63)) & 1u);
    sum += c;
    set_sum += c & -bit;
    norm_sq += c * c;
  }
  if (norm_sq == 0) return 0.0;
  const std::int64_t dot = sum - 2 * set_sum;
  const double denom =
      std::sqrt(static_cast<double>(norm_sq)) * std::sqrt(static_cast<double>(counts.size()));
  return static_cast<double>(dot) / denom;
}

PackedClassMemory::PackedClassMemory(const PackedClassMemory& other)
    : dimension_(other.dimension_),
      metric_(other.metric_),
      quantized_(other.quantized_),
      accumulators_(other.accumulators_),
      counts_(other.counts_),
      cached_class_vectors_(other.cached_class_vectors_),
      cached_rows_(make_row_table(cached_class_vectors_)),
      dirty_(other.dirty_) {}

PackedClassMemory& PackedClassMemory::operator=(const PackedClassMemory& other) {
  if (this != &other) {
    dimension_ = other.dimension_;
    metric_ = other.metric_;
    quantized_ = other.quantized_;
    accumulators_ = other.accumulators_;
    counts_ = other.counts_;
    cached_class_vectors_ = other.cached_class_vectors_;
    cached_rows_ = make_row_table(cached_class_vectors_);
    dirty_ = other.dirty_;
  }
  return *this;
}

PackedClassMemory::PackedClassMemory(std::size_t dimension, std::size_t num_classes,
                                     Similarity metric, bool quantized)
    : dimension_(dimension), metric_(metric), quantized_(quantized) {
  if (dimension == 0) {
    throw std::invalid_argument("PackedClassMemory: dimension must be positive");
  }
  if (num_classes == 0) {
    throw std::invalid_argument("PackedClassMemory: need at least one class");
  }
  accumulators_.assign(num_classes, PackedBundleAccumulator(dimension));
  counts_.assign(num_classes, 0);
}

void PackedClassMemory::add(std::size_t label, const PackedHypervector& encoded) {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("PackedClassMemory::add: label out of range");
  }
  accumulators_[label].add(encoded);
  ++counts_[label];
  dirty_ = true;
}

void PackedClassMemory::retrain_update(std::size_t true_label, std::size_t predicted_label,
                                       const PackedHypervector& encoded) {
  if (true_label >= accumulators_.size() || predicted_label >= accumulators_.size()) {
    throw std::out_of_range("PackedClassMemory::retrain_update: label out of range");
  }
  if (true_label == predicted_label) return;
  accumulators_[true_label].add(encoded, 1);
  accumulators_[predicted_label].add(encoded, -1);
  dirty_ = true;
}

std::size_t PackedClassMemory::class_count(std::size_t label) const {
  if (label >= counts_.size()) {
    throw std::out_of_range("PackedClassMemory::class_count: label out of range");
  }
  return counts_[label];
}

PackedHypervector PackedClassMemory::class_vector(std::size_t label) const {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("PackedClassMemory::class_vector: label out of range");
  }
  finalize();
  return cached_class_vectors_[label];
}

const PackedBundleAccumulator& PackedClassMemory::accumulator(std::size_t label) const {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("PackedClassMemory::accumulator: label out of range");
  }
  return accumulators_[label];
}

void PackedClassMemory::restore(std::size_t label, PackedBundleAccumulator accumulator,
                                std::size_t sample_count) {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("PackedClassMemory::restore: label out of range");
  }
  if (accumulator.dimension() != dimension_) {
    throw std::invalid_argument("PackedClassMemory::restore: dimension mismatch");
  }
  accumulators_[label] = std::move(accumulator);
  counts_[label] = sample_count;
  dirty_ = true;
}

void PackedClassMemory::merge(const PackedClassMemory& other) {
  if (other.dimension_ != dimension_ || other.accumulators_.size() != accumulators_.size() ||
      other.metric_ != metric_ || other.quantized_ != quantized_) {
    throw std::invalid_argument("PackedClassMemory::merge: memory layout mismatch");
  }
  for (std::size_t slot = 0; slot < accumulators_.size(); ++slot) {
    accumulators_[slot].merge(other.accumulators_[slot]);
    counts_[slot] += other.counts_[slot];
  }
  dirty_ = true;
}

void PackedClassMemory::finalize() const {
  if (!dirty_) return;
  cached_class_vectors_.clear();
  cached_class_vectors_.reserve(accumulators_.size());
  for (std::size_t c = 0; c < accumulators_.size(); ++c) {
    // Per-class tie-break stream keeps empty classes distinct from each
    // other; the seed is the dense reference's, so each class vector is the
    // exact packing of BundleAccumulator::threshold on the same counters.
    cached_class_vectors_.push_back(
        accumulators_[c].threshold(derive_seed(kMajorityTieSeed, c)));
  }
  cached_rows_ = make_row_table(cached_class_vectors_);
  dirty_ = false;
}

QueryResult PackedClassMemory::query(const PackedHypervector& query_hv) const {
  if (query_hv.dimension() != dimension_) {
    throw std::invalid_argument("PackedClassMemory::query: dimension mismatch");
  }
  const std::size_t num_slots = accumulators_.size();
  QueryResult result;
  result.similarities.resize(num_slots);
  if (quantized_) {
    // finalize() also keeps the row-pointer table fresh, so the batched
    // kernel call below is a pure read — the associative-memory op the
    // dispatch layer exists for.  similarity_from_hamming reproduces the
    // dense quantized arithmetic exactly.
    finalize();
    DistanceBuffer distances(num_slots);
    kernels::active().hamming_batch(query_hv.words().data(), cached_rows_.data(), num_slots,
                                    query_hv.words().size(), distances.data);
    for (std::size_t c = 0; c < num_slots; ++c) {
      result.similarities[c] = similarity_from_hamming(metric_, distances.data[c], dimension_);
    }
  } else {
    for (std::size_t c = 0; c < num_slots; ++c) {
      result.similarities[c] = counter_cosine(accumulators_[c].counts(), query_hv.words());
    }
  }
  for (std::size_t c = 0; c < num_slots; ++c) {
    if (result.similarities[c] > result.best_similarity) {
      result.best_similarity = result.similarities[c];
      result.best_class = c;
    }
  }
  return result;
}

std::size_t PackedClassMemory::footprint_bytes() const noexcept {
  return accumulators_.size() * ((dimension_ + 7) / 8);
}

}  // namespace graphhd::hdc
