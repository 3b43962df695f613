/// \file main.cpp
/// End-to-end benchmark of libgraphhd.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR [--slice K]
///
/// One process is one slice of a run (run.py runs several and takes the
/// median of each metric).  It sets up once (setup_s, warm-up included),
/// then runs its timed phase: streamed train and predict passes over the
/// workload's TUDataset files, followed by open-loop serving of the trained
/// model at a nominal rate and up an offered-rate ladder.  With --trace 1 the timed
/// phase is replaced by the traced layer probes (layers.cpp).  The last line
/// of stdout is one JSON object: correct, attempted, failed, metrics.
/// README.md in this directory explains the workloads and metrics.

#include <algorithm>
#include <charconv>
#include <exception>
#include <string_view>
#include <system_error>

#include "bench.hpp"
#include "core/model.hpp"
#include "core/runtime.hpp"
#include "data/stream.hpp"
#include "hdc/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using namespace graphhd;

namespace {

/// Share of the timed phase spent on train/predict passes; serving gets the rest.
constexpr double kTrainShare = 0.6;
/// Untimed serving between the train/predict passes and the nominal phase.
constexpr double kServeWarmupS = 0.3;
/// Share of the serving time spent at the nominal rate; the ladder gets the rest.
constexpr double kNominalShare = 0.6;
/// Fewest requests a ladder rung sends: its p99 then has ten beyond it.
constexpr double kMinRungRequests = 1000.0;
/// The p99 a ladder rung must meet, on both serving paths.
constexpr double kLatencyLimitUs = 500.0;

}  // namespace

std::span<const WorkloadSpec> workloads() {
  // Replica shapes are Table I of the paper.  Each serving path runs at a
  // nominal rate well below its knee.  Each ladder puts its top passing
  // rung well below the lowest capacity measured for the path and the next
  // rung at least twice the highest: capacity moved by a factor of two with
  // the host's load, and goodput must not move with it.
  static const std::vector<WorkloadSpec> table = {
      {.name = "tu-small",
       .shape = data::spec_by_name("NCI1"),
       .transport = Transport::kTcp,
       .nominal_qps = 10000,
       .ladder_qps = {5000, 20000, 320000}},
      {.name = "tu-large",
       .shape = data::spec_by_name("DD"),
       .vectors_per_class = 24,
       .transport = Transport::kInProcess,
       .hot_swap = true,
       .nominal_qps = 100000,
       .ladder_qps = {25000, 100000, 800000}},
  };
  return table;
}

namespace {

struct PassRates {
  std::vector<double> train;
  std::vector<double> predict;
  double accuracy = 0.0;
};

/// One streamed train pass over the training file and one streamed predict
/// pass over the held-out file, each timed from opening its file.
void train_predict_pass(Prepared& p, PassRates& rates, Tally& tally) {
  const double t0 = now_us();
  core::GraphHdModel model(p.config, p.num_classes);
  data::TUDatasetStream train_stream(p.train_dir, p.dataset_name);
  model.fit_stream(train_stream);
  const double t1 = now_us();
  data::TUDatasetStream test_stream(p.test_dir, p.dataset_name);
  const std::vector<Prediction> predictions = model.predict_stream(test_stream);
  const double t2 = now_us();

  rates.train.push_back(static_cast<double>(p.train.size()) * 1e6 / (t1 - t0));
  rates.predict.push_back(static_cast<double>(p.test.size()) * 1e6 / (t2 - t1));
  tally.check(predictions.size() == p.test.size(), "one streamed prediction per held-out graph");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    tally.op(i < p.reference.size() && same_prediction(predictions[i], p.reference[i]));
    hits += predictions[i].label == p.test.label(i);
  }
  rates.accuracy = static_cast<double>(hits) / static_cast<double>(p.test.size());
}

Metrics run_timed(const WorkloadSpec& spec, Prepared& p, const Options& options, Tally& tally) {
  Metrics m;
  const double budget_us = options.seconds * 1e6;
  const double start = now_us();
  const double serve_s = (1.0 - kTrainShare) * options.seconds;

  PassRates rates;
  do {
    train_predict_pass(p, rates, tally);
  } while (rates.train.size() < 2 || now_us() - start < kTrainShare * budget_us);
  // Sampled before any request records exist: they are the harness's
  // memory, not the program's.
  m["peak_rss_mb"] = {static_cast<double>(core::runtime::peak_rss_kb()) / 1024.0, "MB"};

  // The passes leave cold caches and a busy host behind; serve untimed for
  // a moment (answers still checked) before the nominal measurement.
  (void)make_rung(run_open_loop(p, spec, spec.transport, spec.nominal_qps, kServeWarmupS), tally);
  const LoadRun nominal =
      run_open_loop(p, spec, spec.transport, spec.nominal_qps, kNominalShare * serve_s);
  const Rung nominal_rung = make_rung(nominal, tally);

  m["train_graphs_per_s"] = {median(rates.train), "graphs/s"};
  m["predict_graphs_per_s"] = {median(rates.predict), "graphs/s"};
  m["accuracy"] = {rates.accuracy, "ratio"};
  tally.check(rates.accuracy == p.accuracy, "streamed accuracy equals the set-up accuracy");
  const auto [train_min, train_max] = std::minmax_element(rates.train.begin(), rates.train.end());
  const auto [predict_min, predict_max] =
      std::minmax_element(rates.predict.begin(), rates.predict.end());
  std::fprintf(stderr,
               "# passes=%zu train_graphs_per_s median=%.1f [%.1f, %.1f] "
               "predict_graphs_per_s median=%.1f [%.1f, %.1f]\n",
               rates.train.size(), median(rates.train), *train_min, *train_max,
               median(rates.predict), *predict_min, *predict_max);

  std::vector<double> latencies;
  std::vector<double> lateness;
  for (const OpenLoopRecord& r : nominal.records) {
    latencies.push_back(latency_us(r));
    lateness.push_back(lateness_us(r));
  }
  const TimingSummary summary = summarize(latencies);
  const TimingSummary late = summarize(lateness);
  std::sort(latencies.begin(), latencies.end());
  const double p90 = percentile_sorted(latencies, 90.0);
  m["serve_p90_us"] = {windowed_p90(nominal.records), "us"};
  std::fprintf(stderr,
               "# nominal %.0f/s: n=%zu p50=%.2fus p90=%.2fus windowed_p90=%.2fus p%.1f=%.2fus "
               "quiet_p99=%.2fus failed=%zu lateness p50=%.2fus p%.1f=%.2fus backlog_max=%zu\n",
               spec.nominal_qps, summary.count, summary.median, p90,
               m["serve_p90_us"].value, summary.tail_percentile, summary.tail,
               nominal_rung.p99_us, nominal_rung.failed, late.median,
               late.tail_percentile, late.tail, nominal_rung.backlog_max);

  const double ladder_s =
      (1.0 - kNominalShare) * serve_s / static_cast<double>(spec.ladder_qps.size());
  std::vector<Rung> rungs;
  std::size_t consecutive_failures = 0;
  for (const double rate : spec.ladder_qps) {
    const double rung_s = std::max(ladder_s, kMinRungRequests / rate);
    const Rung rung = make_rung(run_open_loop(p, spec, spec.transport, rate, rung_s), tally);
    rungs.push_back(rung);
    const bool pass = rung_passes(rung, kLatencyLimitUs);
    std::fprintf(stderr,
                 "# rung %.0f/s: sent=%zu achieved=%.1f/s quiet_p99=%.2fus failed=%zu "
                 "backlog_max=%zu growing=%d %s\n",
                 rate, rung.sent, rung.achieved_qps, rung.p99_us, rung.failed, rung.backlog_max,
                 rung.backlog_growing ? 1 : 0, pass ? "pass" : "FAIL");
    consecutive_failures = pass ? 0 : consecutive_failures + 1;
    if (consecutive_failures == 2) break;
  }
  const auto best = goodput_rung(rungs, kLatencyLimitUs);
  m["serve_goodput_qps"] = {best ? rungs[*best].achieved_qps : 0.0, "1/s"};
  return m;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--slice K]\nworkloads:",
               message);
  for (const WorkloadSpec& spec : workloads()) std::fprintf(stderr, " %s", spec.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_number(std::string_view text, const char* flag) {
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

double parse_seconds(std::string_view text) {
  double value = 0.0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) usage("bad value for --seconds");
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have[5] = {};
  // --slice is optional: run.py passes it, a direct call may leave it out.
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      options.seed = parse_number(value, "--seed");
      have[1] = true;
    } else if (flag == "--seconds") {
      options.seconds = parse_seconds(value);
      have[2] = true;
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_number(value, "--trace");
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
      have[3] = true;
    } else if (flag == "--slice") {
      options.slice = parse_number(value, "--slice");
    } else if (flag == "--workdir") {
      options.workdir = value;
      have[4] = true;
    } else {
      usage("unknown flag");
    }
  }
  if (!std::all_of(std::begin(have), std::end(have), [](bool b) { return b; })) {
    usage("every flag is required");
  }
  if (!(options.seconds >= 0.5)) usage("--seconds must be at least 0.5");
  return options;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              tally.checks_ok && tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const auto spec = std::find_if(workloads().begin(), workloads().end(),
                                 [&](const WorkloadSpec& w) { return w.name == options.workload; });
  if (spec == workloads().end()) usage("unknown workload");

  // The pool gets half the CPUs.  On a shared host a pool on every CPU
  // waits at each chunk barrier for whichever CPU the host took away, and
  // leaves none for the library's prefetch thread; with half, train and
  // predict rates held within a few percent while a full pool swung by a
  // quarter on a shared 4-CPU virtual machine.
  parallel::set_threads(std::max<std::size_t>(1, allowed_cpus().size() / 2));
  const ServeCpus cpus = serve_cpus(options.slice);
  std::fprintf(stderr,
               "# workload=%s seed=%llu slice=%zu threads=%zu kernel=%s server_cpu=%d "
               "in_process_generator_cpu=%d\n",
               spec->name.c_str(), static_cast<unsigned long long>(options.seed), options.slice,
               parallel::current_threads(), hdc::kernels::active().name, cpus.server,
               cpus.in_process_generator);

  Tally tally;
  const double t0 = now_us();
  std::unique_ptr<Prepared> prepared = prepare(*spec, options, options.workdir, tally);
  const double setup_s = (now_us() - t0) / 1e6;
  std::fprintf(stderr, "# setup_s: %.4f\n", setup_s);

  Metrics metrics;
  if (options.trace) {
    metrics = run_traced(*spec, *prepared, options, tally);
  } else {
    metrics = run_timed(*spec, *prepared, options, tally);
    metrics["setup_s"] = {setup_s, "s"};
  }
  prepared.reset();
  fs::remove_all(options.workdir);
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
