/// \file encoder.hpp
/// The GraphHD encoder: graphs -> hypervectors (Section IV of the paper).
///
/// Pipeline per graph:
///   1. PageRank (fixed iteration count) -> per-vertex centrality *ranks*;
///   2. vertex hypervector  Encv(v) = basis[rank(v)]
///      (optionally bound with a label hypervector — extension VII.2);
///   3. edge hypervector    Ence((u,v)) = Encv(u) × Encv(v)  (binding);
///   4. graph hypervector   EncG(G) = [ Σ_e Ence(e) ]        (bundling).
///
/// Graphs without edges fall back to bundling the vertex hypervectors (the
/// paper's encoder is undefined for m = 0; see DESIGN.md).
///
/// encode_packed() produces the bit-packed binary representation every
/// model, snapshot and server runs on; encode() produces the dense bipolar
/// one, kept as the reference path (the test oracle) and as the input path
/// of the label and message-passing extensions.  The two are exact images of
/// each other — encode_packed(g) is always bit-identical to
/// PackedHypervector::from_bipolar(encode(g)) — but the packed baseline path
/// (no labels, no message passing) never materializes a bipolar vector.
///
/// The basis (rank and label vectors, tie-break stream) is packed, built
/// once and shared: encoders are cheap handles on it, and encoding is const
/// and thread-safe.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/packed.hpp"

namespace graphhd::core {

using graph::Graph;
using hdc::Hypervector;

/// The encoder's fixed random basis — a pure function of (config seed,
/// dimension), built once per GraphHdEncoder and shared read-only by every
/// copy of it.  The rank and label tables grow by index on demand (safely
/// from any thread, see hdc::PackedItemMemory); the packed tie-break stream
/// is computed up front.
struct EncoderBasis {
  EncoderBasis(std::size_t dimension, std::uint64_t seed);

  hdc::PackedItemMemory ranks;   ///< vertex-rank basis (Encv of the paper).
  hdc::PackedItemMemory labels;  ///< vertex-label basis (extension VII.2).
  std::uint64_t tie_break_seed;
  /// tie_sign_words(tie_break_seed, dimension): the majority tie-break of
  /// every even-count bundle.
  std::vector<std::uint64_t> tie_words;
};

/// Stateless encoder: a cheap, copyable handle on a config and its shared
/// EncoderBasis.  Every encoding is a pure function of the config, so the
/// same config encodes the same graph to the same hypervector in any
/// process, which is what makes train/test encodings compatible.  All
/// members are const and thread-safe: any number of threads may encode
/// through one encoder (or through copies of it, which share the basis).
class GraphHdEncoder {
 public:
  explicit GraphHdEncoder(const GraphHdConfig& config);

  [[nodiscard]] const GraphHdConfig& config() const noexcept { return config_; }
  [[nodiscard]] const EncoderBasis& basis() const noexcept { return *basis_; }

  /// Encodes one graph (structure only — the paper's baseline).
  [[nodiscard]] Hypervector encode(const Graph& graph) const;

  /// Encodes one graph with vertex labels (extension VII.2); `labels` must
  /// have one entry per vertex.  Only used when config.use_vertex_labels.
  [[nodiscard]] Hypervector encode(const Graph& graph, std::span<const std::size_t> labels) const;

  /// Encodes one graph straight into the packed binary representation.
  /// The structure-only baseline path runs entirely on packed words (XOR
  /// bind + bit-sliced majority); the extension paths (labels, message
  /// passing, bitslice disabled) fall back to packing the dense encoding.
  /// Always bit-identical to from_bipolar(encode(...)).
  [[nodiscard]] hdc::PackedHypervector encode_packed(const Graph& graph) const;

  /// Packed encoding with vertex labels (extension VII.2).
  [[nodiscard]] hdc::PackedHypervector encode_packed(const Graph& graph,
                                                     std::span<const std::size_t> labels) const;

  /// The centrality ranks the encoder assigns to `graph`'s vertices
  /// (exposed for tests and diagnostics).
  [[nodiscard]] std::vector<std::size_t> vertex_ranks(const Graph& graph) const;

  /// Basis hypervector for centrality rank `rank` (exposed for tests).
  [[nodiscard]] Hypervector rank_basis(std::size_t rank) const {
    return basis_->ranks.get(rank).to_bipolar();
  }

 private:
  /// The dense path: labels, message passing and the reference bundling.
  [[nodiscard]] Hypervector encode_dense(const Graph& graph,
                                         std::span<const std::size_t> labels) const;

  GraphHdConfig config_;
  std::shared_ptr<const EncoderBasis> basis_;
};

/// Encodes every sample of `dataset` into packed hypervectors, in parallel
/// over the process-wide thread pool (parallel/thread_pool.hpp).  The basis
/// is grown once to the dataset's largest graph before the fan-out, so every
/// chunk then only reads the one shared encoder.  Encodings are pure
/// functions of the config, so the result is bit-identical to the serial
/// loop at any thread count.  Vertex labels are bound in exactly when
/// config.use_vertex_labels is set *and* the dataset carries labels — the
/// shared contract of fit/predict_batch/evaluate (GraphHdModel) and
/// SnapshotPredictor.
[[nodiscard]] std::vector<hdc::PackedHypervector> encode_dataset_packed(
    const GraphHdEncoder& encoder, const data::GraphDataset& dataset);

}  // namespace graphhd::core
