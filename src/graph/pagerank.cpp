#include "graph/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <stdexcept>

namespace graphhd::graph {

namespace {

/// One power-iteration step in pull form: each vertex adds its neighbours'
/// shares onto `base` in ascending neighbour order — the same additions in
/// the same order as pushing every share to the neighbours in ascending
/// vertex order, so the scores are bit-identical to the push form.  Each
/// vertex's sum is one dependent chain of additions; four chains run side by
/// side to hide the addition latency.
void pull_iteration(const Graph& g, double damping, double base, const std::vector<double>& rank,
                    std::vector<double>& shares, std::vector<double>& next) {
  const std::size_t n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t deg = g.degree(v);
    shares[v] = deg == 0 ? 0.0 : damping * rank[v] / static_cast<double>(deg);
  }
  VertexId u = 0;
  for (; u + 4 <= n; u += 4) {
    const std::span<const VertexId> nbrs[4] = {g.neighbors(u), g.neighbors(u + 1),
                                                g.neighbors(u + 2), g.neighbors(u + 3)};
    double sums[4] = {base, base, base, base};
    const std::size_t common =
        std::min({nbrs[0].size(), nbrs[1].size(), nbrs[2].size(), nbrs[3].size()});
    for (std::size_t i = 0; i < common; ++i) {
      for (std::size_t k = 0; k < 4; ++k) sums[k] += shares[nbrs[k][i]];
    }
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t i = common; i < nbrs[k].size(); ++i) sums[k] += shares[nbrs[k][i]];
      next[u + k] = sums[k];
    }
  }
  for (; u < n; ++u) {
    double sum = base;
    for (const VertexId v : g.neighbors(u)) sum += shares[v];
    next[u] = sum;
  }
}

}  // namespace

PageRankResult pagerank(const Graph& g, const PageRankOptions& options) {
  if (options.damping < 0.0 || options.damping >= 1.0) {
    throw std::invalid_argument("pagerank: damping must be in [0, 1)");
  }
  PageRankResult result;
  const std::size_t n = g.num_vertices();
  if (n == 0) return result;

  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, uniform);
  std::vector<double> next(n, 0.0);
  std::vector<double> shares;
  // From this average degree on, the pull form's interleaved sums beat the
  // push form's scattered updates; below it they cost more than they hide.
  const bool interleave = 2 * g.num_edges() >= 8 * n;
  if (interleave) shares.resize(n);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Mass from dangling (degree-0) vertices is spread uniformly, the
    // standard stochastic-matrix fix; in undirected datasets these are
    // isolated vertices.
    double dangling_mass = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (g.degree(v) == 0) dangling_mass += rank[v];
    }
    const double base =
        (1.0 - options.damping) * uniform + options.damping * dangling_mass * uniform;
    if (interleave) {
      pull_iteration(g, options.damping, base, rank, shares, next);
    } else {
      std::fill(next.begin(), next.end(), base);
      for (VertexId v = 0; v < n; ++v) {
        const std::size_t deg = g.degree(v);
        if (deg == 0) continue;
        const double share = options.damping * rank[v] / static_cast<double>(deg);
        for (const VertexId u : g.neighbors(v)) next[u] += share;
      }
    }
    double delta = 0.0;
    for (std::size_t v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    result.iterations = iter + 1;
    result.last_delta = delta;
    if (options.tolerance > 0.0 && delta < options.tolerance) break;
  }

  result.scores = std::move(rank);
  return result;
}

std::vector<std::size_t> centrality_ranks(std::span<const double> scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&scores](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;  // deterministic tie-break by vertex id
  });
  std::vector<std::size_t> ranks(scores.size());
  for (std::size_t position = 0; position < order.size(); ++position) {
    ranks[order[position]] = position;
  }
  return ranks;
}

std::vector<std::size_t> pagerank_ranks(const Graph& g, const PageRankOptions& options) {
  return centrality_ranks(pagerank(g, options).scores);
}

std::vector<double> harmonic_centrality(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<double> centrality(n, 0.0);
  std::vector<std::size_t> dist(n);
  std::queue<VertexId> frontier;
  for (VertexId source = 0; source < n; ++source) {
    std::fill(dist.begin(), dist.end(), std::numeric_limits<std::size_t>::max());
    dist[source] = 0;
    frontier.push(source);
    double sum = 0.0;
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop();
      if (v != source) sum += 1.0 / static_cast<double>(dist[v]);
      for (const VertexId u : g.neighbors(v)) {
        if (dist[u] == std::numeric_limits<std::size_t>::max()) {
          dist[u] = dist[v] + 1;
          frontier.push(u);
        }
      }
    }
    centrality[source] = sum;
  }
  return centrality;
}

std::vector<double> degree_centrality(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<double> centrality(n, 0.0);
  if (n < 2) return centrality;
  const double denom = static_cast<double>(n - 1);
  for (VertexId v = 0; v < n; ++v) {
    centrality[v] = static_cast<double>(g.degree(v)) / denom;
  }
  return centrality;
}

}  // namespace graphhd::graph
