/// \file dense_oracle.hpp
/// Dense reference implementation of GraphHD training and inference — the
/// test oracle for the packed runtime.
///
/// Every model, snapshot and server runs on one representation: packed
/// queries over one signed-counter class store (hdc::PackedClassMemory).
/// This header rebuilds the paper's arithmetic from the dense primitives
/// only — its own baseline encoder (BaselineEncoder: an hdc::ItemMemory rank
/// basis, independent of the encoder's packed basis; GraphHdEncoder::encode
/// only for the label and message-passing extensions), one
/// hdc::BundleAccumulator per class slot,
/// the seeded majority threshold, hdc::similarity for quantized models and
/// BundleAccumulator::cosine for counter models — with the same training
/// schedule as core::GraphHdModel (round-robin prototypes, perceptron
/// retraining).  The packed runtime must reproduce its predictions bit for
/// bit: labels, winning scores and every per-class score.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/encoder.hpp"
#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed_assoc.hpp"

namespace graphhd::oracle {

/// The paper's baseline encoder (structure only) from the dense primitives:
/// its own ItemMemory rank basis, one BundleAccumulator::add_bound per edge
/// (the vertex vectors for edgeless graphs) and the seeded majority
/// threshold.  Only the centrality ranks come from the encoder under test.
class BaselineEncoder {
 public:
  explicit BaselineEncoder(const core::GraphHdConfig& config)
      : ranker_(config),
        rank_memory_(config.dimension, hdc::derive_seed(config.seed, "vertex-rank-basis")),
        tie_break_seed_(hdc::derive_seed(config.seed, "bundle-tie-break")) {}

  [[nodiscard]] hdc::Hypervector encode(const graph::Graph& graph) {
    const std::vector<std::size_t> ranks = ranker_.vertex_ranks(graph);
    hdc::BundleAccumulator accumulator(rank_memory_.dimension());
    if (graph.num_edges() == 0) {
      for (const std::size_t rank : ranks) accumulator.add(rank_memory_.get(rank));
    }
    for (const auto& e : graph.edges()) {
      accumulator.add_bound(rank_memory_.get(ranks[e.u]), rank_memory_.get(ranks[e.v]));
    }
    return accumulator.threshold(tie_break_seed_);
  }

 private:
  core::GraphHdEncoder ranker_;
  hdc::ItemMemory rank_memory_;
  std::uint64_t tie_break_seed_;
};

/// Dense class store: one BundleAccumulator per slot.
class DenseClassMemory {
 public:
  DenseClassMemory(std::size_t dimension, std::size_t slots,
                   hdc::Similarity metric = hdc::Similarity::kCosine, bool quantized = true)
      : metric_(metric),
        quantized_(quantized),
        accumulators_(slots, hdc::BundleAccumulator(dimension)),
        counts_(slots, 0) {}

  void add(std::size_t slot, const hdc::Hypervector& hv) {
    accumulators_.at(slot).add(hv);
    ++counts_.at(slot);
  }

  void retrain_update(std::size_t true_slot, std::size_t predicted_slot,
                      const hdc::Hypervector& hv) {
    if (true_slot == predicted_slot) return;
    accumulators_.at(true_slot).add(hv, 1);
    accumulators_.at(predicted_slot).add(hv, -1);
  }

  /// The majority-thresholded class vector, with the per-slot tie stream.
  [[nodiscard]] hdc::Hypervector class_vector(std::size_t slot) const {
    return accumulators_.at(slot).threshold(hdc::derive_seed(hdc::kMajorityTieSeed, slot));
  }

  [[nodiscard]] hdc::QueryResult query(const hdc::Hypervector& query) const {
    hdc::QueryResult result;
    result.similarities.resize(accumulators_.size());
    for (std::size_t slot = 0; slot < accumulators_.size(); ++slot) {
      const double s = quantized_ ? hdc::similarity(class_vector(slot), query, metric_)
                                  : accumulators_[slot].cosine(query);
      result.similarities[slot] = s;
      if (s > result.best_similarity) {
        result.best_similarity = s;
        result.best_class = slot;
      }
    }
    return result;
  }

  [[nodiscard]] const hdc::BundleAccumulator& accumulator(std::size_t slot) const {
    return accumulators_.at(slot);
  }
  [[nodiscard]] std::size_t class_count(std::size_t slot) const { return counts_.at(slot); }

 private:
  hdc::Similarity metric_;
  bool quantized_;
  std::vector<hdc::BundleAccumulator> accumulators_;
  std::vector<std::size_t> counts_;
};

/// core::GraphHdModel's training schedule and prediction mapping over the
/// dense class store and dense encodings.
class DenseModel {
 public:
  DenseModel(const core::GraphHdConfig& config, std::size_t num_classes)
      : config_(config),
        num_classes_(num_classes),
        encoder_(config),
        baseline_(config),
        memory_(config.dimension, num_classes * config.vectors_per_class, config.metric,
                config.quantized_model),
        next_replica_(num_classes, 0) {}

  /// Algorithm 1 + perceptron retraining (config.retrain_epochs).
  void fit(const data::GraphDataset& train) {
    std::vector<hdc::Hypervector> encoded;
    for (std::size_t i = 0; i < train.size(); ++i) encoded.push_back(encode(train, i));
    for (std::size_t i = 0; i < train.size(); ++i) bundle(encoded[i], train.label(i));
    for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
      std::size_t mispredictions = 0;
      for (std::size_t i = 0; i < train.size(); ++i) {
        const auto result = memory_.query(encoded[i]);
        const std::size_t label = train.label(i);
        if (result.best_class / config_.vectors_per_class == label) continue;
        ++mispredictions;
        std::size_t target = label * config_.vectors_per_class;
        for (std::size_t r = 1; r < config_.vectors_per_class; ++r) {
          const std::size_t slot = label * config_.vectors_per_class + r;
          if (result.similarities[slot] > result.similarities[target]) target = slot;
        }
        memory_.retrain_update(target, result.best_class, encoded[i]);
      }
      if (mispredictions == 0) break;
    }
  }

  void partial_fit(const graph::Graph& graph, std::size_t label) {
    bundle(encode(graph, {}), label);
  }

  [[nodiscard]] core::Prediction predict_encoded(const hdc::Hypervector& encoded) const {
    const auto result = memory_.query(encoded);
    core::Prediction prediction;
    prediction.class_scores.assign(num_classes_, -2.0);
    for (std::size_t slot = 0; slot < result.similarities.size(); ++slot) {
      double& best = prediction.class_scores[slot / config_.vectors_per_class];
      if (result.similarities[slot] > best) best = result.similarities[slot];
    }
    prediction.label = result.best_class / config_.vectors_per_class;
    prediction.score = result.best_similarity;
    return prediction;
  }

  [[nodiscard]] core::Prediction predict(const graph::Graph& graph) {
    return predict_encoded(encode(graph, {}));
  }

  /// Encodes like fit(): vertex labels are bound in when configured and
  /// present.
  [[nodiscard]] std::vector<core::Prediction> predict_batch(const data::GraphDataset& test) {
    std::vector<core::Prediction> predictions;
    for (std::size_t i = 0; i < test.size(); ++i) {
      predictions.push_back(predict_encoded(encode(test, i)));
    }
    return predictions;
  }

  [[nodiscard]] const DenseClassMemory& memory() const noexcept { return memory_; }

 private:
  [[nodiscard]] hdc::Hypervector encode(const data::GraphDataset& dataset, std::size_t i) {
    const bool labeled = config_.use_vertex_labels && dataset.has_vertex_labels();
    return encode(dataset.graph(i), labeled ? std::span<const std::size_t>(
                                                  dataset.vertex_labels()[i])
                                            : std::span<const std::size_t>());
  }

  /// The baseline encoder unless an extension (labels, message passing)
  /// changes the vertex vectors.
  [[nodiscard]] hdc::Hypervector encode(const graph::Graph& graph,
                                        std::span<const std::size_t> labels) {
    if (!labels.empty()) return encoder_.encode(graph, labels);
    if (config_.neighborhood_rounds > 0) return encoder_.encode(graph);
    return baseline_.encode(graph);
  }

  void bundle(const hdc::Hypervector& encoded, std::size_t label) {
    const std::size_t replica = next_replica_.at(label);
    next_replica_[label] = (replica + 1) % config_.vectors_per_class;
    memory_.add(label * config_.vectors_per_class + replica, encoded);
  }

  core::GraphHdConfig config_;
  std::size_t num_classes_;
  core::GraphHdEncoder encoder_;
  BaselineEncoder baseline_;
  DenseClassMemory memory_;
  std::vector<std::size_t> next_replica_;
};

/// True when two predictions agree bit for bit (label, score, class scores).
[[nodiscard]] inline bool identical(const core::Prediction& a, const core::Prediction& b) {
  return a.label == b.label && a.score == b.score && a.class_scores == b.class_scores;
}

}  // namespace graphhd::oracle
