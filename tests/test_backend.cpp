/// Tests of the one runtime representation: every model — whatever its
/// persisted `backend` field — encodes packed and scores against one
/// signed-counter class store, and must be a *faithful* fast path:
/// bit-identical predictions (labels and similarity doubles) to the dense
/// oracle (tests/support/dense_oracle.hpp), for quantized and counter
/// models, on synthetic and TUDataset-format fixtures, at any thread count
/// and through every extension.  The equivalence matrix is property-based
/// (tests/support/proptest.hpp): the leading cases pin a config sweep
/// deterministically, the tail randomizes config combinations and datasets,
/// and failures replay/shrink by seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "data/scalability.hpp"
#include "data/synthetic.hpp"
#include "data/tudataset.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "support/dense_oracle.hpp"
#include "support/proptest.hpp"

namespace {

using namespace graphhd::core;
using graphhd::data::GraphDataset;
using graphhd::graph::cycle_graph;
using graphhd::graph::star_graph;
namespace parallel = graphhd::parallel;
namespace proptest = graphhd::proptest;
using graphhd::hdc::Rng;

/// Restores the process-wide pool so tests don't leak thread settings.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_threads(0); }
};

GraphHdConfig base_config() {
  GraphHdConfig config;
  config.dimension = 2048;  // smaller than the paper's 10k: same math, faster tests.
  config.seed = 0xbacc;
  return config;
}

GraphDataset synthetic_dataset(std::size_t num_vertices = 40, std::size_t num_graphs = 30) {
  graphhd::data::ScalabilityConfig spec;
  spec.num_vertices = num_vertices;
  spec.num_graphs = num_graphs;
  return graphhd::data::make_scalability_dataset(spec, /*seed=*/0x5e7ULL);
}

/// A small dataset that went through the TUDataset on-disk format (write +
/// re-read), as the CI fixtures would.
GraphDataset tudataset_fixture() {
  namespace fs = std::filesystem;
  const auto replica =
      graphhd::data::make_synthetic_replica("MUTAG", /*seed=*/0x70d5ULL, /*scale=*/0.1);
  const fs::path dir = fs::temp_directory_path() / "graphhd_backend_fixture";
  graphhd::data::save_tudataset(replica, dir);
  auto loaded = graphhd::data::load_tudataset(dir, replica.name());
  fs::remove_all(dir);
  return loaded;
}

/// One cell of the oracle equivalence matrix: every model knob plus the
/// dataset shape.  Datasets
/// regenerate from (tudataset, num_vertices, num_graphs), so a case is fully
/// described — and replayable / shrinkable — by these scalars.
struct BackendCase {
  std::size_t dimension = 2048;
  std::size_t retrain_epochs = 0;
  std::size_t prototypes = 1;
  std::size_t rounds = 0;
  bool use_vertex_labels = false;
  bool bitslice = true;
  bool inverse_hamming = false;
  bool quantized = true;   ///< false = the counter model.
  bool tudataset = false;  ///< MUTAG-replica fixture (carries vertex labels).
  std::size_t num_vertices = 40;
  std::size_t num_graphs = 30;
};

std::ostream& operator<<(std::ostream& out, const BackendCase& c) {
  return out << "d=" << c.dimension << " retrain=" << c.retrain_epochs
             << " prototypes=" << c.prototypes << " rounds=" << c.rounds
             << " vertex_labels=" << c.use_vertex_labels << " bitslice=" << c.bitslice
             << " inverse_hamming=" << c.inverse_hamming << " quantized=" << c.quantized
             << " dataset=" << (c.tudataset ? "tudataset" : "synthetic")
             << "(v=" << c.num_vertices << ", g=" << c.num_graphs << ")";
}

/// The historical fixed-config sweep, pinned onto the leading property
/// cases so it runs deterministically on every row at any CI scale.
[[nodiscard]] BackendCase pinned_backend_case(std::size_t index) {
  BackendCase c;
  switch (index) {
    case 0:  // baseline synthetic.
      break;
    case 1:  // disk-format fixture.
      c.tudataset = true;
      break;
    case 2:  // labels route the packed encoder through its dense-then-pack fallback.
      c.tudataset = true;
      c.use_vertex_labels = true;
      break;
    case 3:
      c.retrain_epochs = 3;
      break;
    case 4:
      c.prototypes = 3;
      break;
    case 5:
      c.inverse_hamming = true;
      break;
    case 6:  // message passing is O(rounds * d * (V+2E)) — keep it small.
      c.rounds = 1;
      c.dimension = 512;
      c.num_vertices = 20;
      break;
    case 7:  // the counter model, retrained (the extension it exists for).
      c.quantized = false;
      c.retrain_epochs = 3;
      c.prototypes = 2;
      break;
    default:
      c.bitslice = false;
      c.num_vertices = 20;
      break;
  }
  return c;
}
constexpr std::size_t kPinnedBackendCases = 9;

[[nodiscard]] GraphDataset case_dataset(const BackendCase& c) {
  // The tudataset fixture is a fixed-shape disk-format roundtrip; the
  // num_vertices/num_graphs knobs shape the synthetic datasets only.
  return c.tudataset ? tudataset_fixture() : synthetic_dataset(c.num_vertices, c.num_graphs);
}

[[nodiscard]] GraphHdConfig case_config(const BackendCase& c) {
  GraphHdConfig config = base_config();
  config.dimension = c.dimension;
  config.retrain_epochs = c.retrain_epochs;
  config.vectors_per_class = c.prototypes;
  config.neighborhood_rounds = c.rounds;
  config.use_vertex_labels = c.use_vertex_labels;
  config.use_bitslice_bundling = c.bitslice;
  config.quantized_model = c.quantized;
  if (c.inverse_hamming) config.metric = graphhd::hdc::Similarity::kInverseHamming;
  return config;
}

/// First sample whose predictions differ bit-wise, or size() when none.
[[nodiscard]] std::size_t first_divergence(const std::vector<Prediction>& actual,
                                           const std::vector<Prediction>& expected) {
  if (actual.size() != expected.size()) return 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!graphhd::oracle::identical(actual[i], expected[i])) return i;
  }
  return expected.size();
}

/// The equivalence contract: a model trained on either backend value
/// predicts bit-identically (labels AND similarity doubles) to the dense
/// oracle trained on the same samples, at 1, 2 and 8 threads — quantized
/// and counter models alike.
[[nodiscard]] bool backends_agree(const BackendCase& c, std::ostream& diag) {
  diag << c;
  ThreadGuard guard;
  const auto dataset = case_dataset(c);
  const GraphHdConfig config = case_config(c);
  graphhd::oracle::DenseModel oracle(config, dataset.num_classes());
  oracle.fit(dataset);
  const auto reference = oracle.predict_batch(dataset);

  for (const Backend backend : {Backend::kDenseBipolar, Backend::kPackedBinary}) {
    GraphHdConfig backend_config = config;
    backend_config.backend = backend;
    GraphHdModel model(backend_config, dataset.num_classes());
    parallel::set_threads(backend == Backend::kDenseBipolar ? 1 : 8);
    model.fit(dataset);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      parallel::set_threads(threads);
      const std::size_t diverged = first_divergence(model.predict_batch(dataset), reference);
      if (diverged != reference.size()) {
        diag << " [" << to_string(backend) << " sample " << diverged << " diverges at "
             << threads << " threads]";
        return false;
      }
    }
  }
  return true;
}

TEST(PackedBackend, PropertyMatchesDenseAcrossConfigsAndThreads) {
  proptest::check<BackendCase>(
      "every backend bit-identical to the dense oracle across configs/threads",
      [](Rng& rng, std::size_t case_index) {
        if (case_index < kPinnedBackendCases) return pinned_backend_case(case_index);
        BackendCase c;
        c.dimension = 256 + rng.next_below(1280);
        c.retrain_epochs = rng.next_below(3);
        c.prototypes = 1 + rng.next_below(3);
        c.tudataset = rng.next_bool();
        c.use_vertex_labels = c.tudataset && rng.next_bool();
        c.bitslice = rng.next_bool();
        c.inverse_hamming = rng.next_bool();
        c.quantized = rng.next_bool(0.7);
        c.num_vertices = 16 + rng.next_below(24);
        c.num_graphs = 12 + rng.next_below(18);
        if (rng.next_bool(0.25)) {
          c.rounds = 1;
          c.dimension = 256 + rng.next_below(256);
        }
        return c;
      },
      [](const BackendCase& failing) {
        // Shrink one knob at a time toward the baseline cell.
        std::vector<BackendCase> candidates;
        const auto with = [&](auto mutate) {
          BackendCase smaller = failing;
          mutate(smaller);
          candidates.push_back(smaller);
        };
        if (failing.retrain_epochs > 0) with([](BackendCase& c) { c.retrain_epochs = 0; });
        if (failing.prototypes > 1) with([](BackendCase& c) { c.prototypes = 1; });
        if (failing.rounds > 0) with([](BackendCase& c) { c.rounds = 0; });
        if (failing.use_vertex_labels) with([](BackendCase& c) { c.use_vertex_labels = false; });
        if (!failing.bitslice) with([](BackendCase& c) { c.bitslice = true; });
        if (failing.inverse_hamming) with([](BackendCase& c) { c.inverse_hamming = false; });
        if (!failing.quantized) with([](BackendCase& c) { c.quantized = true; });
        if (failing.tudataset) with([](BackendCase& c) { c.tudataset = false; });
        if (failing.dimension > 64) with([](BackendCase& c) { c.dimension /= 2; });
        if (failing.num_graphs > 4) with([](BackendCase& c) { c.num_graphs /= 2; });
        return candidates;
      },
      backends_agree, proptest::Config{.cases = 10, .min_cases = kPinnedBackendCases});
}

TEST(PackedBackend, EncoderPackedMatchesPackedDenseEncoding) {
  // encode_packed must be the exact image of encode under from_bipolar —
  // including the edgeless-graph fallback.
  GraphHdConfig config = base_config();
  GraphHdEncoder a(config), b(config);
  const auto edgeless = graphhd::graph::Graph::from_edges(5, {});
  for (const auto& graph : {star_graph(9), cycle_graph(12), edgeless}) {
    EXPECT_EQ(a.encode_packed(graph),
              graphhd::hdc::PackedHypervector::from_bipolar(b.encode(graph)));
  }
}

/// Online-learning case: a random interleaved partial_fit history (graph
/// kind, size, label per step) followed by probe predictions.  The former
/// fixed star/cycle loop, upgraded to random histories with step shrinking.
struct PartialFitCase {
  struct Step {
    bool star = true;  ///< star_graph vs cycle_graph.
    std::size_t n = 6;
    std::size_t label = 0;
  };
  std::vector<Step> steps;
};

std::ostream& operator<<(std::ostream& out, const PartialFitCase& c) {
  out << c.steps.size() << " steps:";
  for (const auto& s : c.steps) {
    out << ' ' << (s.star ? "star" : "cycle") << '(' << s.n << ")->" << s.label;
  }
  return out;
}

TEST(PackedBackend, PropertyPartialFitMatchesDense) {
  proptest::check<PartialFitCase>(
      "online partial_fit keeps every backend bit-identical to the dense oracle",
      [](Rng& rng, std::size_t) {
        PartialFitCase c;
        const std::size_t steps = 2 + rng.next_below(15);
        for (std::size_t i = 0; i < steps; ++i) {
          c.steps.push_back({rng.next_bool(), 4 + rng.next_below(12), rng.next_below(2)});
        }
        return c;
      },
      [](const PartialFitCase& failing) {
        std::vector<PartialFitCase> candidates;
        if (failing.steps.size() > 1) {
          PartialFitCase fewer = failing;
          fewer.steps.pop_back();
          candidates.push_back(std::move(fewer));
          PartialFitCase halved = failing;
          halved.steps.resize(failing.steps.size() / 2);
          candidates.push_back(std::move(halved));
        }
        return candidates;
      },
      [](const PartialFitCase& c, std::ostream& diag) {
        diag << c;
        GraphHdConfig config = base_config();
        config.dimension = 1024;
        graphhd::oracle::DenseModel oracle(config, 2);
        GraphHdModel dense(config, 2);
        config.backend = Backend::kPackedBinary;
        GraphHdModel packed(config, 2);
        for (const auto& step : c.steps) {
          const auto graph = step.star ? star_graph(step.n) : cycle_graph(step.n);
          oracle.partial_fit(graph, step.label);
          dense.partial_fit(graph, step.label);
          packed.partial_fit(graph, step.label);
        }
        for (std::size_t n = 5; n < 16; ++n) {
          const auto expected = oracle.predict(cycle_graph(n));
          if (!graphhd::oracle::identical(dense.predict(cycle_graph(n)), expected) ||
              !graphhd::oracle::identical(packed.predict(cycle_graph(n)), expected)) {
            diag << " [probe cycle(" << n << ") diverges]";
            return false;
          }
        }
        return true;
      },
      proptest::Config{.cases = 16});
}

TEST(PackedBackend, PredictEncodedAcceptsEitherRepresentation) {
  GraphHdConfig config = base_config();
  config.backend = Backend::kPackedBinary;
  GraphHdModel model(config, 2);
  model.partial_fit(star_graph(8), 0);
  model.partial_fit(cycle_graph(8), 1);
  const auto dense_hv = model.encoder().encode(star_graph(10));
  const auto packed_hv = model.encoder().encode_packed(star_graph(10));
  const auto via_dense = model.predict_encoded(dense_hv);
  const auto via_packed = model.predict_encoded(packed_hv);
  EXPECT_EQ(via_dense.label, via_packed.label);
  EXPECT_EQ(via_dense.score, via_packed.score);
}

TEST(PackedBackend, AcceptsNonQuantizedModel) {
  // The backend tag selects no code path, so a counter model may carry
  // either tag and scores identically under both.
  GraphHdConfig config = base_config();
  config.quantized_model = false;
  GraphHdModel dense(config, 2);
  config.backend = Backend::kPackedBinary;
  EXPECT_NO_THROW(config.validate());
  GraphHdModel packed(config, 2);
  EXPECT_FALSE(packed.memory().quantized());
  for (const std::size_t n : {6u, 8u, 9u}) {
    dense.partial_fit(star_graph(n), 0);
    packed.partial_fit(star_graph(n), 0);
    dense.partial_fit(cycle_graph(n), 1);
    packed.partial_fit(cycle_graph(n), 1);
  }
  for (std::size_t n = 5; n < 12; ++n) {
    EXPECT_TRUE(graphhd::oracle::identical(packed.predict(cycle_graph(n)),
                                           dense.predict(cycle_graph(n))))
        << "cycle(" << n << ")";
  }
}

TEST(PackedBackend, MemoryAccessorsMatchBackend) {
  // One class store behind every backend value; its scoring mode follows
  // quantized_model.
  GraphHdConfig config = base_config();
  config.vectors_per_class = 2;
  GraphHdModel dense(config, 3);
  EXPECT_EQ(dense.memory().num_classes(), 6u);
  EXPECT_TRUE(dense.memory().quantized());
  config.quantized_model = false;
  GraphHdModel counters(config, 3);
  EXPECT_FALSE(counters.memory().quantized());
  config.quantized_model = true;
  config.backend = Backend::kPackedBinary;
  GraphHdModel packed(config, 3);
  EXPECT_EQ(packed.memory().num_classes(), 6u);
  EXPECT_EQ(packed.memory().dimension(), config.dimension);
}

TEST(PackedBackend, GraphHdFacadeRunsPacked) {
  GraphHdConfig config = base_config();
  config.backend = Backend::kPackedBinary;
  GraphHd classifier(config);
  const auto dataset = synthetic_dataset(25);
  classifier.fit(dataset);
  EXPECT_GT(classifier.score(dataset), 0.5);  // learnable signal by design.
}

TEST(BackendConfig, ParseAndToString) {
  EXPECT_STREQ(to_string(Backend::kDenseBipolar), "dense");
  EXPECT_STREQ(to_string(Backend::kPackedBinary), "packed");
  EXPECT_EQ(parse_backend("dense"), Backend::kDenseBipolar);
  EXPECT_EQ(parse_backend("bipolar"), Backend::kDenseBipolar);
  EXPECT_EQ(parse_backend("packed"), Backend::kPackedBinary);
  EXPECT_EQ(parse_backend("binary"), Backend::kPackedBinary);
  EXPECT_EQ(parse_backend("simd"), std::nullopt);
  EXPECT_EQ(parse_backend(""), std::nullopt);
}

TEST(BackendConfig, EnvSelectionAndErrors) {
  // Single-threaded test process: setenv is safe here.
  ASSERT_EQ(setenv("GRAPHHD_BACKEND", "packed", 1), 0);
  EXPECT_EQ(backend_from_env(Backend::kDenseBipolar), Backend::kPackedBinary);
  ASSERT_EQ(setenv("GRAPHHD_BACKEND", "dense", 1), 0);
  EXPECT_EQ(backend_from_env(Backend::kPackedBinary), Backend::kDenseBipolar);
  ASSERT_EQ(setenv("GRAPHHD_BACKEND", "typo", 1), 0);
  EXPECT_THROW((void)backend_from_env(Backend::kDenseBipolar), std::runtime_error);
  ASSERT_EQ(unsetenv("GRAPHHD_BACKEND"), 0);
  EXPECT_EQ(backend_from_env(Backend::kPackedBinary), Backend::kPackedBinary);
}

}  // namespace
