#include "core/encoder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "hdc/item_memory.hpp"
#include "support/dense_oracle.hpp"

namespace {

using namespace graphhd::core;
using graphhd::graph::cycle_graph;
using graphhd::graph::path_graph;
using graphhd::graph::star_graph;
using graphhd::graph::VertexId;
using graphhd::hdc::ItemMemory;
using graphhd::hdc::PackedHypervector;
using graphhd::hdc::Rng;

GraphHdConfig test_config(std::size_t dimension = 2048) {
  GraphHdConfig config;
  config.dimension = dimension;
  config.seed = 0x5eed;
  return config;
}

TEST(GraphHdConfig, ValidateRejectsBadValues) {
  GraphHdConfig config = test_config();
  config.dimension = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = test_config();
  config.pagerank_damping = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = test_config();
  config.vectors_per_class = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(GraphHdConfig, IdentifierNames) {
  EXPECT_STREQ(to_string(VertexIdentifier::kPageRank), "pagerank");
  EXPECT_STREQ(to_string(VertexIdentifier::kDegree), "degree");
}

TEST(Encoder, GraphBeyondAThousandRanksMatchesTheDenseOracle) {
  // The packed basis grows with the largest graph seen; a graph with more
  // than 1024 vertices (the size the old packed cache was capped at) must
  // encode bit for bit like the dense oracle's own ItemMemory basis, on
  // both the even- and the odd-edge-count threshold.
  const GraphHdConfig config = test_config(512);
  GraphHdEncoder encoder(config);
  graphhd::oracle::BaselineEncoder oracle(config);
  for (const std::size_t n : {1100u, 1101u}) {
    const auto graph = path_graph(n);  // ranks 0..n-1 all occur; n-1 edges.
    EXPECT_EQ(encoder.encode_packed(graph), PackedHypervector::from_bipolar(oracle.encode(graph)))
        << n << " vertices";
  }
}

TEST(Encoder, EncodingsMatchTheDenseOracle) {
  // Even and odd edge counts, the edgeless fallback, and a dimension that
  // is not a multiple of 64.
  for (const std::size_t d : {100u, 2048u}) {
    const GraphHdConfig config = test_config(d);
    GraphHdEncoder encoder(config);
    graphhd::oracle::BaselineEncoder oracle(config);
    Rng rng(d);
    const std::vector<graphhd::graph::Graph> graphs{
        star_graph(9), cycle_graph(12), path_graph(2), graphhd::graph::Graph::from_edges(5, {}),
        graphhd::graph::random_molecule(30, 3, rng), graphhd::graph::random_molecule(30, 2, rng),
        path_graph(6)};
    for (const auto& graph : graphs) {
      const auto expected = oracle.encode(graph);
      EXPECT_EQ(encoder.encode(graph), expected) << "d=" << d;
      EXPECT_EQ(encoder.encode_packed(graph), PackedHypervector::from_bipolar(expected))
          << "d=" << d;
    }
  }
}

TEST(Encoder, PackedBasisEqualsThePackedDenseItemMemory) {
  // Basis vector k is generated straight from the RNG words; it must equal
  // from_bipolar(ItemMemory::make(k)) for the rank and the label basis,
  // including the masked tail of dimensions that are not multiples of 64.
  for (const std::size_t d : {1u, 63u, 64u, 65u, 1000u, 10000u}) {
    const GraphHdConfig config = test_config(d);
    const GraphHdEncoder encoder(config);
    const ItemMemory ranks(d, graphhd::hdc::derive_seed(config.seed, "vertex-rank-basis"));
    const ItemMemory labels(d, graphhd::hdc::derive_seed(config.seed, "vertex-label-basis"));
    for (const std::size_t k : {0u, 1u, 7u, 63u, 64u, 200u}) {
      EXPECT_EQ(encoder.basis().ranks.get(k), PackedHypervector::from_bipolar(ranks.make(k)))
          << "d=" << d << " k=" << k;
      EXPECT_EQ(encoder.basis().labels.get(k), PackedHypervector::from_bipolar(labels.make(k)))
          << "d=" << d << " k=" << k;
      EXPECT_EQ(encoder.rank_basis(k), ranks.make(k)) << "d=" << d << " k=" << k;
    }
    EXPECT_EQ(encoder.basis().tie_words,
              graphhd::hdc::tie_sign_words(
                  graphhd::hdc::derive_seed(config.seed, "bundle-tie-break"), d));
  }
}

TEST(Encoder, CopiesShareOneBasis) {
  const GraphHdEncoder encoder(test_config());
  const GraphHdEncoder copy = encoder;
  EXPECT_EQ(&copy.basis(), &encoder.basis());
  (void)copy.encode_packed(path_graph(40));
  EXPECT_GE(encoder.basis().ranks.size(), 40u);
}

TEST(Encoder, DeterministicPerConfigSeed) {
  GraphHdEncoder a(test_config()), b(test_config());
  const auto g = star_graph(8);
  EXPECT_EQ(a.encode(g), b.encode(g));
}

TEST(Encoder, DifferentSeedsProduceDifferentEncodings) {
  GraphHdConfig other = test_config();
  other.seed = 0xabcd;
  GraphHdEncoder a(test_config()), b(other);
  const auto g = star_graph(8);
  EXPECT_NE(a.encode(g), b.encode(g));
}

TEST(Encoder, OutputDimensionMatchesConfig) {
  GraphHdConfig config = test_config(777);
  GraphHdEncoder encoder(config);
  EXPECT_EQ(encoder.encode(path_graph(5)).dimension(), 777u);
}

TEST(Encoder, RejectsEmptyGraph) {
  GraphHdEncoder encoder(test_config());
  EXPECT_THROW((void)encoder.encode(graphhd::graph::Graph{}), std::invalid_argument);
}

TEST(Encoder, EdgelessGraphUsesVertexFallback) {
  GraphHdEncoder encoder(test_config());
  const auto g = graphhd::graph::Graph::from_edges(4, {});
  const auto encoded = encoder.encode(g);
  EXPECT_EQ(encoded.dimension(), 2048u);
  // The fallback bundles rank basis vectors 0..3; the encoding must be
  // similar to each of them.
  for (std::size_t rank = 0; rank < 4; ++rank) {
    EXPECT_GT(encoded.cosine(encoder.rank_basis(rank)), 0.1);
  }
}

TEST(Encoder, VertexRanksArePagerankRanks) {
  GraphHdEncoder encoder(test_config());
  const auto ranks = encoder.vertex_ranks(star_graph(6));
  EXPECT_EQ(ranks[0], 0u);  // center is most central
  // Leaves occupy ranks 1..5 in id order (deterministic tie-break).
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(ranks[v], v);
}

TEST(Encoder, DegreeIdentifierAblationWorks) {
  GraphHdConfig config = test_config();
  config.identifier = VertexIdentifier::kDegree;
  GraphHdEncoder encoder(config);
  const auto ranks = encoder.vertex_ranks(star_graph(6));
  EXPECT_EQ(ranks[0], 0u);
  const auto encoded = encoder.encode(star_graph(6));
  EXPECT_EQ(encoded.dimension(), config.dimension);
}

TEST(Encoder, HarmonicIdentifierAblationWorks) {
  GraphHdConfig config = test_config();
  config.identifier = VertexIdentifier::kHarmonic;
  GraphHdEncoder encoder(config);
  // Star center has the largest harmonic centrality -> rank 0.
  EXPECT_EQ(encoder.vertex_ranks(star_graph(6))[0], 0u);
  EXPECT_EQ(encoder.encode(star_graph(6)).dimension(), config.dimension);
  EXPECT_STREQ(to_string(VertexIdentifier::kHarmonic), "harmonic");
}

TEST(Encoder, IsomorphicGraphsEncodeIdentically) {
  // The central property of GraphHD: vertex identity comes from PageRank
  // rank only, so relabeling vertices must not change the encoding (as long
  // as the centrality ordering is preserved; ties break by id, so use a
  // tie-free graph: a star plus a path tail has fully distinct centralities).
  graphhd::graph::GraphBuilder builder;
  // Star 0-(1..4) with tail 4-5-6: all PageRank scores distinct.
  for (VertexId leaf = 1; leaf <= 4; ++leaf) builder.add_edge(0, leaf);
  builder.add_edge(4, 5);
  builder.add_edge(5, 6);
  const auto g = builder.build();

  // A permutation that reverses vertex ids.
  std::vector<VertexId> mapping(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mapping[v] = static_cast<VertexId>(g.num_vertices() - 1 - v);
  }
  const auto h = graphhd::graph::relabel(g, mapping);

  GraphHdEncoder encoder(test_config(10000));
  const auto eg = encoder.encode(g);
  const auto eh = encoder.encode(h);
  EXPECT_EQ(eg, eh);
}

TEST(Encoder, StructurallyDifferentGraphsQuasiOrthogonal) {
  GraphHdEncoder encoder(test_config(10000));
  const auto a = encoder.encode(path_graph(10));
  const auto b = encoder.encode(star_graph(10));
  EXPECT_LT(std::abs(a.cosine(b)), 0.2);
}

TEST(Encoder, SimilarGraphsMoreSimilarThanDissimilar) {
  // One chord difference vs a completely different topology.
  GraphHdEncoder encoder(test_config(10000));
  graphhd::hdc::Rng rng(7);
  const auto base = graphhd::graph::random_molecule(20, 2, rng);
  graphhd::graph::GraphBuilder builder(20);
  for (const auto& e : base.edges()) builder.add_edge(e.u, e.v);
  builder.add_edge(0, 19);  // one extra chord
  const auto near = builder.build();
  const auto far = star_graph(20);

  const auto eb = encoder.encode(base);
  EXPECT_GT(eb.cosine(encoder.encode(near)), eb.cosine(encoder.encode(far)));
}

TEST(Encoder, RankBasisVectorsAreQuasiOrthogonal) {
  GraphHdEncoder encoder(test_config(10000));
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_LT(std::abs(encoder.rank_basis(i).cosine(encoder.rank_basis(j))), 0.05);
    }
  }
}

TEST(Encoder, VertexLabelsChangeEncodingOnlyWhenEnabled) {
  const auto g = path_graph(6);
  const std::vector<std::size_t> labels{0, 1, 0, 1, 0, 1};

  GraphHdConfig plain_config = test_config();
  GraphHdEncoder plain(plain_config);
  EXPECT_EQ(plain.encode(g), plain.encode(g, labels))
      << "labels must be ignored when use_vertex_labels is false";

  GraphHdConfig labeled_config = test_config();
  labeled_config.use_vertex_labels = true;
  GraphHdEncoder labeled(labeled_config);
  EXPECT_NE(labeled.encode(g), labeled.encode(g, labels));
}

TEST(Encoder, LabelAwareEncodingDistinguishesLabelings) {
  GraphHdConfig config = test_config(10000);
  config.use_vertex_labels = true;
  GraphHdEncoder encoder(config);
  const auto g = path_graph(6);
  const std::vector<std::size_t> labels_a{0, 0, 0, 1, 1, 1};
  const std::vector<std::size_t> labels_b{1, 1, 1, 0, 0, 0};
  const auto ea = encoder.encode(g, labels_a);
  const auto eb = encoder.encode(g, labels_b);
  EXPECT_LT(ea.cosine(eb), 0.9);
  // Same labeling encodes identically.
  EXPECT_EQ(ea, encoder.encode(g, labels_a));
}

TEST(Encoder, LabelSizeValidated) {
  GraphHdConfig config = test_config();
  config.use_vertex_labels = true;
  GraphHdEncoder encoder(config);
  EXPECT_THROW((void)encoder.encode(path_graph(3), std::vector<std::size_t>{0, 1}),
               std::invalid_argument);
}

TEST(Encoder, NeighborhoodRoundsChangeTheEncoding) {
  GraphHdConfig base = test_config();
  GraphHdConfig refined_config = test_config();
  refined_config.neighborhood_rounds = 1;
  GraphHdEncoder plain(base), refined(refined_config);
  const auto g = star_graph(8);
  EXPECT_NE(plain.encode(g), refined.encode(g));
  // Deterministic per config.
  GraphHdEncoder refined_again(refined_config);
  EXPECT_EQ(refined.encode(g), refined_again.encode(g));
}

TEST(Encoder, NeighborhoodRoundsPreserveIsomorphismInvariance) {
  // Same tie-free graph construction as the base invariance test.
  graphhd::graph::GraphBuilder builder;
  for (graphhd::graph::VertexId leaf = 1; leaf <= 4; ++leaf) builder.add_edge(0, leaf);
  builder.add_edge(4, 5);
  builder.add_edge(5, 6);
  const auto g = builder.build();
  std::vector<graphhd::graph::VertexId> mapping(g.num_vertices());
  for (graphhd::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    mapping[v] = static_cast<graphhd::graph::VertexId>(g.num_vertices() - 1 - v);
  }
  const auto h = graphhd::graph::relabel(g, mapping);

  GraphHdConfig config = test_config(8192);
  config.neighborhood_rounds = 2;
  GraphHdEncoder encoder(config);
  EXPECT_EQ(encoder.encode(g), encoder.encode(h));
}

TEST(Encoder, NeighborhoodRoundsKeepTopologiesDistinct) {
  // The rank-ordered permute-bind decorrelates the refined (bundle-
  // overlapping) endpoint vectors, so different topologies must stay well
  // separated rather than collapsing toward a shared direction (the failure
  // mode that plain binding of refined vectors exhibits — see encoder.cpp).
  for (const std::size_t rounds : {1u, 2u}) {
    GraphHdConfig config = test_config(8192);
    config.neighborhood_rounds = rounds;
    GraphHdEncoder encoder(config);
    const double similarity =
        encoder.encode(star_graph(10)).cosine(encoder.encode(path_graph(10)));
    EXPECT_LT(std::abs(similarity), 0.5) << rounds << " rounds";
  }
}

/// Dimension sweep: the encoder works across dimensions and similarity noise
/// shrinks as 1/sqrt(d).
class EncoderDimensionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EncoderDimensionSweep, EncodingsBehaveAtAllDimensions) {
  GraphHdEncoder encoder(test_config(GetParam()));
  const auto a = encoder.encode(path_graph(8));
  const auto b = encoder.encode(cycle_graph(8));
  EXPECT_EQ(a.dimension(), GetParam());
  EXPECT_EQ(b.dimension(), GetParam());
  // Self-consistency at every dimension.
  EXPECT_EQ(a, encoder.encode(path_graph(8)));
}

INSTANTIATE_TEST_SUITE_P(Dimensions, EncoderDimensionSweep,
                         ::testing::Values(64, 256, 1024, 4096, 10000));

}  // namespace
