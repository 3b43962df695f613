#include "graph/pagerank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"

namespace {

using namespace graphhd::graph;
using graphhd::hdc::Rng;

double score_sum(const PageRankResult& result) {
  return std::accumulate(result.scores.begin(), result.scores.end(), 0.0);
}

TEST(PageRank, EmptyGraphYieldsEmptyResult) {
  const auto result = pagerank(Graph{});
  EXPECT_TRUE(result.scores.empty());
  EXPECT_EQ(result.iterations, 0u);
}

TEST(PageRank, ScoresSumToOne) {
  Rng rng(3);
  const auto g = erdos_renyi(50, 0.1, rng);
  const auto result = pagerank(g);
  EXPECT_NEAR(score_sum(result), 1.0, 1e-9);
}

TEST(PageRank, ScoresSumToOneWithIsolatedVertices) {
  // Dangling-mass redistribution must keep the distribution normalized.
  const auto g = Graph::from_edges(6, std::vector<Edge>{{0, 1}, {1, 2}});
  const auto result = pagerank(g);
  EXPECT_NEAR(score_sum(result), 1.0, 1e-9);
  // Isolated vertices all share the same (lowest) score.
  EXPECT_DOUBLE_EQ(result.scores[3], result.scores[4]);
  EXPECT_DOUBLE_EQ(result.scores[4], result.scores[5]);
  EXPECT_LT(result.scores[3], result.scores[1]);
}

TEST(PageRank, UniformOnVertexTransitiveGraphs) {
  for (const auto& g : {cycle_graph(8), complete_graph(6)}) {
    const auto result = pagerank(g);
    for (const double s : result.scores) {
      EXPECT_NEAR(s, 1.0 / static_cast<double>(g.num_vertices()), 1e-9);
    }
  }
}

TEST(PageRank, StarCenterDominates) {
  const auto g = star_graph(10);
  const auto result = pagerank(g);
  for (std::size_t v = 1; v < 10; ++v) {
    EXPECT_GT(result.scores[0], result.scores[v]);
    EXPECT_NEAR(result.scores[v], result.scores[1], 1e-12);  // leaves identical
  }
}

TEST(PageRank, PathEndpointsScoreLowest) {
  const auto g = path_graph(5);
  const auto result = pagerank(g);
  EXPECT_NEAR(result.scores[0], result.scores[4], 1e-12);  // symmetry
  EXPECT_NEAR(result.scores[1], result.scores[3], 1e-12);
  EXPECT_GT(result.scores[2], result.scores[0]);
  EXPECT_GT(result.scores[1], result.scores[0]);
}

TEST(PageRank, RespectsIterationCount) {
  Rng rng(5);
  const auto g = erdos_renyi(30, 0.2, rng);
  PageRankOptions options;
  options.max_iterations = 3;
  const auto result = pagerank(g, options);
  EXPECT_EQ(result.iterations, 3u);
}

TEST(PageRank, ToleranceStopsEarly) {
  const auto g = complete_graph(8);  // stationary from the first iteration
  PageRankOptions options;
  options.max_iterations = 50;
  options.tolerance = 1e-12;
  const auto result = pagerank(g, options);
  EXPECT_LT(result.iterations, 5u);
}

TEST(PageRank, DeltaShrinksWithIterations) {
  Rng rng(7);
  const auto g = barabasi_albert(80, 2, rng);
  PageRankOptions few, many;
  few.max_iterations = 2;
  many.max_iterations = 30;
  EXPECT_GT(pagerank(g, few).last_delta, pagerank(g, many).last_delta);
}

TEST(PageRank, TenIterationsCloseToConverged) {
  // The paper fixes 10 iterations; verify that on dataset-sized graphs this
  // is already near the fixed point.
  Rng rng(11);
  const auto g = erdos_renyi(100, 0.05, rng);
  PageRankOptions ten, many;
  ten.max_iterations = 10;
  many.max_iterations = 200;
  const auto coarse = pagerank(g, ten);
  const auto fine = pagerank(g, many);
  double l1 = 0.0;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    l1 += std::abs(coarse.scores[v] - fine.scores[v]);
  }
  EXPECT_LT(l1, 1e-3);
}

/// The textbook push form: every vertex pushes its share to its neighbours,
/// vertices in ascending order.
std::vector<double> push_pagerank(const Graph& g, const PageRankOptions& options) {
  const std::size_t n = g.num_vertices();
  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, uniform), next(n);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling_mass = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (g.degree(v) == 0) dangling_mass += rank[v];
    }
    const double base =
        (1.0 - options.damping) * uniform + options.damping * dangling_mass * uniform;
    std::fill(next.begin(), next.end(), base);
    for (VertexId v = 0; v < n; ++v) {
      const std::size_t deg = g.degree(v);
      if (deg == 0) continue;
      const double share = options.damping * rank[v] / static_cast<double>(deg);
      for (const VertexId u : g.neighbors(v)) next[u] += share;
    }
    rank.swap(next);
  }
  return rank;
}

TEST(PageRank, ScoresBitIdenticalToThePushForm) {
  // Encodings depend on the exact score order, so the pull loop must
  // reproduce the push form's floating-point sums exactly, on sparse graphs
  // (one chain at a time, isolated vertices included) and dense ones (four
  // interleaved chains, vertex counts on and off a multiple of four).
  Rng rng(31);
  const std::vector<Graph> graphs = {
      star_graph(9),           path_graph(7),
      erdos_renyi(120, 0.02, rng), barabasi_albert(80, 3, rng),
      random_molecule(40, 2, rng), erdos_renyi(300, 0.05, rng),
      erdos_renyi(303, 0.05, rng), erdos_renyi(37, 0.5, rng)};
  for (const Graph& g : graphs) {
    for (const double damping : {0.85, 0.5}) {
      const PageRankOptions options{.damping = damping, .max_iterations = 10, .tolerance = 0.0};
      EXPECT_EQ(pagerank(g, options).scores, push_pagerank(g, options)) << to_string(g);
    }
  }
}

TEST(PageRank, ValidatesDamping) {
  PageRankOptions options;
  options.damping = 1.0;
  EXPECT_THROW((void)pagerank(complete_graph(3), options), std::invalid_argument);
  options.damping = -0.1;
  EXPECT_THROW((void)pagerank(complete_graph(3), options), std::invalid_argument);
}

TEST(PageRank, ZeroDampingIsUniform) {
  Rng rng(13);
  const auto g = barabasi_albert(40, 2, rng);
  PageRankOptions options;
  options.damping = 0.0;
  const auto result = pagerank(g, options);
  for (const double s : result.scores) EXPECT_NEAR(s, 1.0 / 40.0, 1e-12);
}

TEST(CentralityRanks, OrdersByScoreDescending) {
  const std::vector<double> scores{0.1, 0.5, 0.3, 0.1};
  const auto ranks = centrality_ranks(scores);
  EXPECT_EQ(ranks[1], 0u);  // highest score -> rank 0
  EXPECT_EQ(ranks[2], 1u);
  // Tied scores break by vertex id ascending.
  EXPECT_EQ(ranks[0], 2u);
  EXPECT_EQ(ranks[3], 3u);
}

TEST(CentralityRanks, IsAPermutation) {
  Rng rng(17);
  const auto g = erdos_renyi(60, 0.1, rng);
  const auto ranks = pagerank_ranks(g);
  std::vector<bool> seen(ranks.size(), false);
  for (const std::size_t r : ranks) {
    ASSERT_LT(r, ranks.size());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

TEST(CentralityRanks, EmptyInput) {
  EXPECT_TRUE(centrality_ranks(std::vector<double>{}).empty());
}

TEST(PagerankRanks, StarCenterGetsRankZero) {
  EXPECT_EQ(pagerank_ranks(star_graph(9))[0], 0u);
}

TEST(HarmonicCentrality, KnownValuesOnStar) {
  const auto centrality = harmonic_centrality(star_graph(5));
  // Center: 4 neighbours at distance 1 -> 4.0.
  EXPECT_DOUBLE_EQ(centrality[0], 4.0);
  // Leaf: center at 1, three leaves at 2 -> 1 + 3/2.
  EXPECT_DOUBLE_EQ(centrality[1], 2.5);
}

TEST(HarmonicCentrality, PathMiddleBeatsEnds) {
  const auto centrality = harmonic_centrality(path_graph(5));
  EXPECT_GT(centrality[2], centrality[0]);
  EXPECT_DOUBLE_EQ(centrality[0], centrality[4]);  // symmetry
  EXPECT_DOUBLE_EQ(centrality[0], 1.0 + 0.5 + 1.0 / 3.0 + 0.25);
}

TEST(HarmonicCentrality, DisconnectedVerticesContributeZero) {
  const auto g = Graph::from_edges(4, std::vector<Edge>{{0, 1}});
  const auto centrality = harmonic_centrality(g);
  EXPECT_DOUBLE_EQ(centrality[0], 1.0);
  EXPECT_DOUBLE_EQ(centrality[2], 0.0);
  EXPECT_DOUBLE_EQ(centrality[3], 0.0);
}

TEST(HarmonicCentrality, EmptyAndSingleton) {
  EXPECT_TRUE(harmonic_centrality(Graph{}).empty());
  EXPECT_DOUBLE_EQ(harmonic_centrality(Graph::from_edges(1, {}))[0], 0.0);
}

TEST(DegreeCentrality, MatchesDegreesNormalized) {
  const auto g = star_graph(5);
  const auto centrality = degree_centrality(g);
  EXPECT_DOUBLE_EQ(centrality[0], 1.0);
  EXPECT_DOUBLE_EQ(centrality[1], 0.25);
}

TEST(DegreeCentrality, SmallGraphsAreZero) {
  EXPECT_TRUE(degree_centrality(Graph{}).empty());
  const auto single = Graph::from_edges(1, {});
  EXPECT_DOUBLE_EQ(degree_centrality(single)[0], 0.0);
}

/// Property: PageRank score ordering refines degree ordering on strongly
/// hub-structured graphs (the hub is always the top-ranked vertex).
class HubProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HubProperty, BarabasiAlbertHubIsTopRanked) {
  Rng rng(19 + GetParam());
  const auto g = barabasi_albert(GetParam(), 2, rng);
  const auto scores = pagerank(g).scores;
  std::size_t top_by_degree = 0, top_by_score = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(static_cast<VertexId>(top_by_degree))) top_by_degree = v;
    if (scores[v] > scores[top_by_score]) top_by_score = v;
  }
  EXPECT_EQ(top_by_score, top_by_degree);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HubProperty, ::testing::Values(30, 60, 120, 240));

}  // namespace
