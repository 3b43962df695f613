/// \file test_helpers.cpp
/// Checks of the benchmark's own reporting rules (src/stats.hpp) and span
/// accounting (src/trace.hpp).  Run with `python3 perfbench/run.py --selftest`;
/// prints each failed check and exits 1 if any failed.

#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) samples[i] = static_cast<double>(i + 1);
  return samples;
}

OpenLoopRecord answered(double scheduled, double latency, std::size_t backlog = 1) {
  return {.scheduled = scheduled, .sent = scheduled, .done = scheduled + latency,
          .backlog = backlog, .ok = true};
}

void percentile_rule() {
  const std::vector<double> hundred = iota_samples(100);
  EXPECT(percentile_sorted(hundred, 50.0) == 50.0);
  EXPECT(percentile_sorted(hundred, 99.0) == 99.0);
  EXPECT(percentile_sorted(hundred, 100.0) == 100.0);
  EXPECT(samples_beyond(1000, 99.0) == 10);
  EXPECT(percentile_supported(1000, 99.0));
  EXPECT(!percentile_supported(999, 99.0));
  EXPECT(!percentile_supported(9999, 99.9));
  EXPECT(percentile_supported(10000, 99.9));

  // The summary reports the highest percentile with ten samples beyond it.
  TimingSummary s = summarize(iota_samples(10000));
  EXPECT(s.count == 10000 && s.tail_percentile == 99.9 && s.tail == 9990.0);
  EXPECT(s.median == 5000.0);
  s = summarize(iota_samples(5000));
  EXPECT(s.tail_percentile == 99.0 && s.tail == 4950.0);
  s = summarize(iota_samples(150));
  EXPECT(s.tail_percentile == 90.0 && s.tail == 135.0);
  s = summarize(iota_samples(12));
  EXPECT(s.tail_percentile == 50.0 && s.tail == s.median);

  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void lateness_accounting() {
  // The generator stalls: the second and third requests go out late.  Their
  // latency runs from the scheduled time, so the stall is charged to both.
  const std::vector<OpenLoopRecord> run = {
      {.scheduled = 0, .sent = 0, .done = 5, .ok = true},
      {.scheduled = 10, .sent = 50, .done = 55, .ok = true},
      {.scheduled = 20, .sent = 50.5, .done = 56, .ok = true},
  };
  EXPECT(latency_us(run[0]) == 5.0);
  EXPECT(latency_us(run[1]) == 45.0);
  EXPECT(latency_us(run[2]) == 36.0);
  EXPECT(lateness_us(run[0]) == 0.0);
  EXPECT(lateness_us(run[1]) == 40.0);
  EXPECT(lateness_us(run[2]) == 30.5);

  const OpenLoopRecord early{.scheduled = 10, .sent = 9, .done = 12, .ok = true};
  EXPECT(lateness_us(early) == 0.0);
  const OpenLoopRecord failed{.scheduled = 10, .sent = 10, .done = 11, .ok = false};
  EXPECT(latency_us(failed) == kMissUs);
}

void quiet_tail() {
  // Ten windows of 100 requests at 10 us; stalls hit two of them.
  std::vector<OpenLoopRecord> run;
  for (std::size_t i = 0; i < 1000; ++i) {
    const bool stalled = (i >= 300 && i < 350) || (i >= 700 && i < 720);
    run.push_back(answered(static_cast<double>(i), stalled ? 5000.0 : 10.0));
  }
  EXPECT(quiet_p99(run, 100) == 10.0);

  // A path slow in most windows is reported slow.
  std::vector<OpenLoopRecord> busy;
  for (std::size_t i = 0; i < 1000; ++i) {
    busy.push_back(answered(static_cast<double>(i), i % 100 == 0 && i >= 200 ? 800.0 : 10.0));
  }
  EXPECT(quiet_p99(busy, 100) == 10.0);
  for (std::size_t i = 0; i < 1000; i += 50) busy[i].done = busy[i].scheduled + 800.0;
  EXPECT(quiet_p99(busy, 100) == 800.0);

  // A tail present in every window is reported.
  for (std::size_t i = 0; i < 1000; i += 50) run[i].done = run[i].scheduled + 900.0;
  EXPECT(quiet_p99(run, 100) == 900.0);

  // Failures are misses; a short remainder joins the last window; a run
  // shorter than one window is one window.
  EXPECT(window_percentiles(std::span(run).first(250), 50.0, 100).size() == 2);
  std::vector<OpenLoopRecord> failing;
  for (std::size_t i = 0; i < 250; ++i) failing.push_back(answered(static_cast<double>(i), 10.0));
  for (std::size_t i = 0; i < 250; i += 20) failing[i].ok = false;
  EXPECT(quiet_p99(failing, 100) == kMissUs);
  EXPECT(quiet_p99(std::span(failing).first(50), 100) == kMissUs);
}

void typical_window() {
  // Ten windows of 100 requests at 10 us, 20 us in every tenth request.
  std::vector<OpenLoopRecord> run;
  for (std::size_t i = 0; i < 1000; ++i) {
    run.push_back(answered(static_cast<double>(i), i % 10 == 9 ? 20.0 : 10.0));
  }
  EXPECT(windowed_p90(run, 100) == 10.0);
  for (std::size_t i = 0; i < 1000; i += 10) run[i].done = run[i].scheduled + 20.0;
  EXPECT(windowed_p90(run, 100) == 20.0);

  // Stalls that delay whole windows count only once they hit more than half.
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t i = w * 200; i < w * 200 + 100; ++i) run[i].done = run[i].scheduled + 5000.0;
  }
  EXPECT(windowed_p90(run, 100) == 20.0);
  for (std::size_t i = 100; i < 200; ++i) run[i].done = run[i].scheduled + 5000.0;
  EXPECT(windowed_p90(run, 100) == 20.0);
  for (std::size_t i = 300; i < 400; ++i) run[i].done = run[i].scheduled + 5000.0;
  EXPECT(windowed_p90(run, 100) == 5000.0);
}

void backlog_rule() {
  std::vector<OpenLoopRecord> steady;
  for (std::size_t i = 0; i < 400; ++i) steady.push_back(answered(static_cast<double>(i), 1.0, 3));
  EXPECT(!backlog_growing(steady, 32.0));

  // A short spike in the last quarter is ridden out.
  std::vector<OpenLoopRecord> spike = steady;
  for (std::size_t i = 350; i < 360; ++i) spike[i].backlog = 200;
  EXPECT(!backlog_growing(spike, 32.0));

  // A rate above capacity grows the backlog without bound.
  std::vector<OpenLoopRecord> growing;
  for (std::size_t i = 0; i < 400; ++i) growing.push_back(answered(static_cast<double>(i), 1.0, i));
  EXPECT(backlog_growing(growing, 32.0));
  EXPECT(!backlog_growing({}, 32.0));
}

void goodput_ladder() {
  const double limit = 1000.0;
  std::vector<Rung> rungs = {
      {.offered_qps = 100, .achieved_qps = 99.9, .sent = 10, .p99_us = 50},
      {.offered_qps = 200, .achieved_qps = 199.8, .sent = 10, .p99_us = 400},
      {.offered_qps = 400, .achieved_qps = 380, .sent = 10, .p99_us = 90000},
  };
  EXPECT(goodput_rung(rungs, limit) == 1);

  // A growing backlog fails a rung whose p99 still looks fine.
  rungs[1].backlog_growing = true;
  EXPECT(goodput_rung(rungs, limit) == 0);

  // The highest passing rung counts even above a failed one.
  rungs[1].backlog_growing = false;
  rungs[0].p99_us = 5000;
  EXPECT(goodput_rung(rungs, limit) == 1);

  // A rung with failures counted as misses fails; no passing rung gives none.
  for (Rung& r : rungs) r.p99_us = kMissUs;
  EXPECT(!goodput_rung(rungs, limit).has_value());
  EXPECT(!rung_passes(Rung{}, limit));
}

void self_time() {
  // parent [0,100] has children a [10,40] and b [30,60] (overlapping);
  // a has child c [15,20]; d [90,120] runs past its parent's end.
  const std::vector<Span> spans = {
      {1, 0, "parent", 0, 100}, {2, 1, "a", 10, 40}, {3, 1, "b", 30, 60},
      {4, 2, "c", 15, 20},      {5, 1, "d", 90, 120},
  };
  auto layers = self_times(spans);
  EXPECT(layers["parent"].self_us == 100.0 - 50.0 - 10.0);
  EXPECT(layers["parent"].total_us == 100.0);
  EXPECT(layers["a"].self_us == 25.0);
  EXPECT(layers["b"].self_us == 30.0);
  EXPECT(layers["c"].self_us == 5.0);
  EXPECT(layers["d"].self_us == 30.0);

  // Same-named spans aggregate.
  const std::vector<Span> repeated = {
      {1, 0, "pass", 0, 10}, {2, 1, "io", 1, 3}, {3, 1, "io", 5, 6},
  };
  layers = self_times(repeated);
  EXPECT(layers["io"].count == 2 && layers["io"].self_us == 3.0);
  EXPECT(layers["pass"].self_us == 7.0);

  // The tracer nests spans and files recorded intervals under the open one.
  Tracer tracer(true);
  const auto outer = tracer.begin("outer");
  { ScopedSpan inner(tracer, "inner"); }
  tracer.record("measured", 1.0, 2.0);
  tracer.end(outer);
  const auto recorded = tracer.spans();
  EXPECT(recorded.size() == 3);
  EXPECT(recorded[1].parent == outer && recorded[2].parent == outer);
  EXPECT(recorded[0].parent == 0 && recorded[0].end_us >= recorded[1].end_us);

  Tracer off(false);
  { ScopedSpan ignored(off, "ignored"); }
  EXPECT(off.spans().empty());
}

}  // namespace

int main() {
  percentile_rule();
  lateness_accounting();
  quiet_tail();
  typical_window();
  backlog_rule();
  goodput_ladder();
  self_time();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
