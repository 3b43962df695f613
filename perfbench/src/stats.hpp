/// \file stats.hpp
/// Reporting rules of the benchmark: timing summaries, the open-loop
/// latency and lateness accounting, the per-rung backlog test and the
/// goodput ladder.  Header-only so tests/test_helpers.cpp checks exactly the
/// code the benchmark runs.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Latency recorded for a request that failed, timed out or came back wrong:
/// it misses every latency limit (1000 s, finite so it stays printable).
inline constexpr double kMissUs = 1e9;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples,
/// clamped to [1, n].  The epsilon keeps 99.9% of 10000 at rank 9990 despite
/// 99.9 having no exact binary form.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

/// Nearest-rank percentile `p` of ascending `sorted`.
[[nodiscard]] inline double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of an empty sample");
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// True when percentile `p` of `n` samples has at least ten samples beyond it.
[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// A timing reported as the median plus the highest percentile of
/// kTailLadder that keeps at least ten samples beyond it, with the count.
struct TimingSummary {
  std::size_t count = 0;
  double median = 0.0;
  double tail_percentile = 50.0;
  double tail = 0.0;
};

inline constexpr std::array<double, 4> kTailLadder{99.9, 99.0, 90.0, 50.0};

[[nodiscard]] inline TimingSummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TimingSummary summary;
  summary.count = samples.size();
  summary.median = percentile_sorted(samples, 50.0);
  summary.tail = summary.median;
  for (const double p : kTailLadder) {
    if (percentile_supported(samples.size(), p)) {
      summary.tail_percentile = p;
      summary.tail = percentile_sorted(samples, p);
      break;
    }
  }
  return summary;
}

/// Median of a small set of repeated measurements (mean of the middle two
/// for an even count).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// One request of an open-loop run, in microseconds on one clock.  The
/// generator owes the request at `scheduled`; it went out at `sent`; its
/// answer arrived at `done`.  `backlog` counts the requests already due but
/// not yet answered when it went out (itself included), so a generator that
/// falls behind still shows the backlog it is not sending.  `ok` is false
/// for a failed, timed-out or wrong answer.
struct OpenLoopRecord {
  double scheduled = 0.0;
  double sent = 0.0;
  double done = 0.0;
  std::size_t backlog = 0;
  bool ok = false;
};

/// Latency timed from the scheduled send, so a stall that delays later
/// sends is charged to every request it delays.  A failure is a miss.
[[nodiscard]] inline double latency_us(const OpenLoopRecord& record) {
  return record.ok ? record.done - record.scheduled : kMissUs;
}

/// How late the generator sent the request (never negative).
[[nodiscard]] inline double lateness_us(const OpenLoopRecord& record) {
  return std::max(0.0, record.sent - record.scheduled);
}

/// Requests per window of window_percentiles: the nearest-rank p99 of a
/// window then has ten samples beyond it.
inline constexpr std::size_t kWindowRequests = 1000;

/// Nearest-rank percentile `p` of each window of `window` consecutive
/// requests (in schedule order; a short remainder joins the last window,
/// and a run shorter than one window is one window), sorted ascending.  A
/// failure is a miss in its window.
[[nodiscard]] inline std::vector<double> window_percentiles(
    std::span<const OpenLoopRecord> records, double p, std::size_t window = kWindowRequests) {
  if (records.empty()) throw std::invalid_argument("window percentiles of an empty run");
  const std::size_t windows = std::max<std::size_t>(1, records.size() / window);
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t end = w + 1 == windows ? records.size() : (w + 1) * window;
    std::vector<double> latencies;
    for (std::size_t i = w * window; i < end; ++i) latencies.push_back(latency_us(records[i]));
    std::sort(latencies.begin(), latencies.end());
    values.push_back(percentile_sorted(latencies, p));
  }
  std::sort(values.begin(), values.end());
  return values;
}

/// The p90 latency of the typical window: the median over windows of each
/// window's p90.  The host stalls a serving CPU for milliseconds at a time,
/// and at 100 000/s one such stall delays a thousand requests; stalls in
/// fewer than half the windows leave the figure alone, while a slower
/// serving path lifts every window.
[[nodiscard]] inline double windowed_p90(std::span<const OpenLoopRecord> records,
                                         std::size_t window = kWindowRequests) {
  return percentile_sorted(window_percentiles(records, 90.0, window), 50.0);
}

/// The p99 latency of the quieter windows: the lower quartile over windows
/// of each window's p99.  How many windows the host's interference hits
/// depends on the neighbours' load; a rate past capacity lifts every window.
[[nodiscard]] inline double quiet_p99(std::span<const OpenLoopRecord> records,
                                      std::size_t window = kWindowRequests) {
  return percentile_sorted(window_percentiles(records, 99.0, window), 25.0);
}

/// The backlog grew when its mean over the last quarter of the run exceeds
/// 1.5 times its mean over the second quarter plus `slack` requests.  Means
/// over quarters ride out a short stall; a rate above capacity raises the
/// backlog without bound and fails the test.
[[nodiscard]] inline bool backlog_growing(std::span<const OpenLoopRecord> records,
                                          double slack) {
  const std::size_t quarter = records.size() / 4;
  if (quarter == 0) return false;
  const auto mean_backlog = [&](std::size_t begin, std::size_t end) {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += static_cast<double>(records[i].backlog);
    return sum / static_cast<double>(end - begin);
  };
  return mean_backlog(3 * quarter, records.size()) >
         1.5 * mean_backlog(quarter, 2 * quarter) + slack;
}

/// One rung of the offered-rate ladder.
struct Rung {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< correct answers per second of the rung.
  std::size_t sent = 0;
  std::size_t failed = 0;
  double p99_us = 0.0;        ///< quiet_p99, failures counted as misses.
  std::size_t backlog_max = 0;
  bool backlog_growing = false;
};

/// A rung passes when its p99 (failures included as misses) stays within
/// the limit and the backlog did not grow.
[[nodiscard]] inline bool rung_passes(const Rung& rung, double limit_us) {
  return rung.sent > 0 && rung.p99_us <= limit_us && !rung.backlog_growing;
}

/// Index of the highest passing rung, if any.
[[nodiscard]] inline std::optional<std::size_t> goodput_rung(std::span<const Rung> rungs,
                                                              double limit_us) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rung_passes(rungs[i], limit_us) &&
        (!best || rungs[i].offered_qps > rungs[*best].offered_qps)) {
      best = i;
    }
  }
  return best;
}

}  // namespace perfbench
