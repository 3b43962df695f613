/// \file layers.cpp
/// The traced run.  It drives the workload's own inputs through each
/// layer's public calls, each call (or each fixed block of calls, where one
/// call is shorter than a clock read) inside a span, and reports per-layer
/// self time.  A serial predict pass runs both with and without spans: the
/// spans' stage sum is checked against the untraced pass, and the ratio of
/// the two passes is the tracing overhead.

#include <sys/resource.h>

#include <fstream>
#include <mutex>
#include <optional>
#include <string>

#include "bench.hpp"
#include "core/encoder.hpp"
#include "core/model.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "graph/pagerank.hpp"
#include "hdc/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/net/wire.hpp"

namespace perfbench {

using namespace graphhd;

namespace {

/// Rate of the in-process submit-to-callback probe on TCP workloads.
constexpr double kInProcessProbeQps = 100000.0;
/// Rate of the TCP probe on in-process workloads.
constexpr double kTcpProbeQps = 10000.0;
/// Shortest serving probe.  The two serving probes split what the fixed
/// probes before them leave of --seconds.
constexpr double kMinServeProbeS = 1.0;
constexpr std::size_t kSerialPasses = 3;
constexpr std::size_t kStreamPasses = 2;
constexpr std::size_t kReps = 7;

std::vector<double> durations(const Tracer& tracer, std::string_view name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

double median_duration(const Tracer& tracer, std::string_view name) {
  return median(durations(tracer, name));
}

/// One serial predict pass over the held-out file: parse, encode, query.
/// Returns its wall time in microseconds.
double serial_predict_pass(Tracer& tracer, Prepared& p, core::GraphHdEncoder& encoder,
                           Tally& tally) {
  data::TUDatasetStream stream(p.test_dir, p.dataset_name);
  const double start = now_us();
  const std::uint32_t pass = tracer.begin("serial_predict_pass");
  for (std::size_t i = 0;; ++i) {
    std::optional<data::StreamSample> sample;
    {
      ScopedSpan span(tracer, "serial.parse");
      sample = stream.next();
    }
    if (!sample) break;
    hdc::PackedHypervector encoded;
    {
      ScopedSpan span(tracer, sample->graph.num_edges() % 2 == 0 ? "core.encode_even"
                                                                  : "core.encode_odd");
      encoded = encoder.encode_packed(sample->graph);
    }
    Prediction prediction;
    {
      ScopedSpan span(tracer, "core.query");
      prediction = p.snapshot->predict_encoded(encoded);
    }
    tally.op(i < p.reference.size() && same_prediction(prediction, p.reference[i]));
  }
  tracer.end(pass);
  return now_us() - start;
}

/// Wraps the stream that fit_stream/predict_stream consume and keeps the
/// interval of every next() call.  The library may pull from its prefetch
/// thread; the mutex orders those writes before the reads after the pass.
class TimedStream final : public data::GraphStream {
 public:
  explicit TimedStream(data::GraphStream& inner) : inner_(inner) {}

  std::optional<data::StreamSample> next() override {
    const double start = now_us();
    std::optional<data::StreamSample> sample = inner_.next();
    const double end = now_us();
    const std::lock_guard lock(mutex_);
    calls_.emplace_back(start, end);
    if (sample) ++samples_;
    return sample;
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::size_t num_classes() const override { return inner_.num_classes(); }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_.size_hint();
  }
  [[nodiscard]] std::optional<std::vector<std::size_t>> label_scan() override {
    return inner_.label_scan();
  }

  /// Files every next() call as a span under the tracer's open span;
  /// returns the samples delivered.
  std::size_t record(Tracer& tracer, const char* name) {
    const std::lock_guard lock(mutex_);
    for (const auto& [start, end] : calls_) tracer.record(name, start, end);
    return samples_;
  }

 private:
  data::GraphStream& inner_;
  std::mutex mutex_;
  std::vector<std::pair<double, double>> calls_;
  std::size_t samples_ = 0;
};

struct ProcessCounters {
  double read_syscalls = 0;
  double write_syscalls = 0;
  double ctx_switches = 0;
};

/// Process-wide syscall counts (/proc/self/io) and context switches
/// (getrusage), client and server threads together, less the calling
/// thread's own context switches: that is the load generator, whose
/// yielding wait between sends is the harness's, not the program's.
ProcessCounters process_counters() {
  ProcessCounters counters;
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0;
  while (io >> key >> value) {
    if (key == "syscr:") counters.read_syscalls = value;
    if (key == "syscw:") counters.write_syscalls = value;
  }
  rusage process{};
  rusage generator{};
  ::getrusage(RUSAGE_SELF, &process);
  ::getrusage(RUSAGE_THREAD, &generator);
  counters.ctx_switches = static_cast<double>(process.ru_nvcsw + process.ru_nivcsw -
                                              generator.ru_nvcsw - generator.ru_nivcsw);
  return counters;
}

/// Adds one span per answered request (sent to done), for the first
/// kMaxRequestSpans requests, and returns the generator's p99 lateness.
double record_requests(Tracer& tracer, const LoadRun& run, const char* name) {
  constexpr std::size_t kMaxRequestSpans = 20000;
  std::vector<double> lateness;
  for (const OpenLoopRecord& r : run.records) {
    lateness.push_back(lateness_us(r));
    if (r.ok && lateness.size() <= kMaxRequestSpans) tracer.record(name, r.sent, r.done);
  }
  std::sort(lateness.begin(), lateness.end());
  return percentile_sorted(lateness, 99.0);
}

}  // namespace

Metrics run_traced(const WorkloadSpec& spec, Prepared& p, const Options& options,
                   Tally& tally) {
  Tracer tracer(true);
  Tracer off(false);
  Metrics m;
  const double start = now_us();
  const std::uint32_t root = tracer.begin("traced_run");
  const std::size_t threads = parallel::current_threads();

  // Serial predict pass, untraced and traced in turn.
  core::GraphHdEncoder encoder(p.snapshot->config());
  (void)serial_predict_pass(off, p, encoder, tally);  // warm the basis
  std::vector<double> untraced;
  std::vector<double> traced;
  for (std::size_t i = 0; i < kSerialPasses; ++i) {
    untraced.push_back(serial_predict_pass(off, p, encoder, tally));
    traced.push_back(serial_predict_pass(tracer, p, encoder, tally));
  }
  std::map<std::string, LayerTime> layers = self_times(tracer.spans());
  const auto per_call = [&](const char* name) {
    const LayerTime& layer = layers[name];
    return layer.count == 0 ? 0.0 : layer.self_us / static_cast<double>(layer.count);
  };
  m["core.encode_us_even"] = {per_call("core.encode_even"), "us"};
  m["core.encode_us_odd"] = {per_call("core.encode_odd"), "us"};
  double stage_sum = 0.0;
  for (const char* stage :
       {"serial.parse", "core.encode_even", "core.encode_odd", "core.query"}) {
    stage_sum += layers[stage].self_us;
  }
  stage_sum /= static_cast<double>(kSerialPasses);
  m["trace.stage_sum_ratio"] = {stage_sum / median(untraced), "ratio"};
  m["trace.overhead_ratio"] = {median(traced) / median(untraced), "ratio"};

  // Streamed train and predict passes as the timed phase runs them, with
  // the consumed stream wrapped: parse self time per graph.
  std::size_t parsed = 0;
  for (std::size_t r = 0; r < kStreamPasses; ++r) {
    core::GraphHdModel model(p.config, p.num_classes);
    {
      ScopedSpan span(tracer, "stream_train_pass");
      data::TUDatasetStream file(p.train_dir, p.dataset_name);
      TimedStream stream(file);
      model.fit_stream(stream);
      parsed += stream.record(tracer, "data.parse");
    }
    ScopedSpan span(tracer, "stream_predict_pass");
    data::TUDatasetStream file(p.test_dir, p.dataset_name);
    TimedStream stream(file);
    const std::vector<Prediction> predictions = model.predict_stream(stream);
    parsed += stream.record(tracer, "data.parse");
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      tally.op(i < p.reference.size() && same_prediction(predictions[i], p.reference[i]));
    }
  }
  layers = self_times(tracer.spans());
  m["data.parse_us_per_graph"] = {layers["data.parse"].self_us / static_cast<double>(parsed),
                                  "us"};

  // Centrality and rank sort, called on their own over the held-out graphs.
  {
    ScopedSpan probe(tracer, "graph_probe");
    for (const graph::Graph& g : p.test.graphs()) {
      graph::PageRankResult result;
      {
        ScopedSpan span(tracer, "graph.pagerank");
        result = graph::pagerank(g, p.config.pagerank_options());
      }
      ScopedSpan span(tracer, "graph.rank_sort");
      (void)graph::centrality_ranks(result.scores);
    }
  }

  // Encoder construction plus basis growth to the largest graph.
  const graph::Graph* largest = &p.train.graph(0);
  for (const auto* side : {&p.train, &p.test}) {
    for (const graph::Graph& g : side->graphs()) {
      if (g.num_vertices() > largest->num_vertices()) largest = &g;
    }
  }
  for (std::size_t i = 0; i < kReps; ++i) {
    ScopedSpan span(tracer, "core.encoder_build");
    core::GraphHdEncoder fresh(p.config);
    (void)fresh.encode_packed(*largest);
  }
  layers = self_times(tracer.spans());
  m["graph.pagerank_us_per_graph"] = {per_call("graph.pagerank"), "us"};
  m["graph.rank_sort_us_per_graph"] = {per_call("graph.rank_sort"), "us"};
  m["core.encoder_build_ms"] = {median_duration(tracer, "core.encoder_build") / 1e3, "ms"};

  // Parallel encode of one chunk: N threads against 1 thread.
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
    std::vector<std::size_t> indices(chunk);
    for (std::size_t i = 0; i < chunk; ++i) indices[i] = i % p.train.size();
    const data::GraphDataset dataset = p.train.subset(indices);
    const std::size_t reps = chunk == 64 ? kReps : 1;
    const std::string tag = "parallel.encode_c" + std::to_string(chunk);
    double seconds[2] = {0.0, 0.0};
    for (const std::size_t t : {std::size_t{1}, threads}) {
      parallel::set_threads(t);
      std::vector<double> walls;
      for (std::size_t r = 0; r < reps; ++r) {
        core::GraphHdEncoder primary(p.config);
        (void)primary.encode_packed(*largest);
        const std::string name = tag + "_t" + std::to_string(t);
        const std::uint32_t span = tracer.begin(name.c_str());
        (void)core::encode_dataset_packed(primary, dataset);
        tracer.end(span);
        walls.push_back(durations(tracer, name).back());
      }
      seconds[t == 1 ? 0 : 1] = median(walls) / 1e6;
    }
    parallel::set_threads(threads);
    m["parallel.encode_speedup_c" + std::to_string(chunk)] = {seconds[0] / seconds[1], "ratio"};
    m["parallel.encode_1t_graphs_per_s_c" + std::to_string(chunk)] = {
        static_cast<double>(chunk) / seconds[0], "graphs/s"};
  }

  // Class sweep at batch 1 and at the server's largest batch.
  std::vector<const std::uint64_t*> rows;
  for (const auto& q : p.queries) rows.push_back(q.words().data());
  const std::size_t bmax = serve::ServerConfig{}.max_batch;
  std::vector<const std::uint64_t*> batch(bmax);
  std::vector<Prediction> out(bmax);
  constexpr std::size_t kSweepQueries = 4096;
  for (std::size_t r = 0; r < kReps; ++r) {
    {
      ScopedSpan span(tracer, "core.sweep_b1");
      for (std::size_t i = 0; i < kSweepQueries; ++i) {
        p.snapshot->predict_encoded_batch(&rows[i % rows.size()], 1, out.data());
      }
    }
    ScopedSpan span(tracer, "core.sweep_bmax");
    for (std::size_t i = 0; i < kSweepQueries; i += bmax) {
      for (std::size_t j = 0; j < bmax; ++j) batch[j] = rows[(i + j) % rows.size()];
      p.snapshot->predict_encoded_batch(batch.data(), bmax, out.data());
    }
  }
  m["core.sweep_ns_per_query_b1"] = {median_duration(tracer, "core.sweep_b1") * 1e3 / kSweepQueries, "ns"};
  m["core.sweep_ns_per_query_bmax"] = {median_duration(tracer, "core.sweep_bmax") * 1e3 / kSweepQueries, "ns"};

  // Raw one-vs-all Hamming kernel over the class rows.
  {
    const auto& kernel = hdc::kernels::active();
    std::vector<const std::uint64_t*> slot_rows;
    for (std::size_t s = 0; s < p.snapshot->slots(); ++s) {
      slot_rows.push_back(p.snapshot->packed_words(s).data());
    }
    std::vector<std::size_t> distances(slot_rows.size());
    const std::size_t words = p.snapshot->words_per_slot();
    constexpr std::size_t kCalls = 20000;
    for (std::size_t r = 0; r < kReps; ++r) {
      ScopedSpan span(tracer, "hdc.hamming_batch");
      for (std::size_t i = 0; i < kCalls; ++i) {
        kernel.hamming_batch(rows[i % rows.size()], slot_rows.data(), slot_rows.size(), words,
                             distances.data());
      }
    }
    const double bytes = static_cast<double>(kCalls * slot_rows.size() * words * 8);
    m["hdc.hamming_gb_per_s"] = {bytes / median_duration(tracer, "hdc.hamming_batch") / 1e3,
                                 "GB/s"};
  }

  // Cold start of the served artifact.
  for (std::size_t r = 0; r < kReps; ++r) {
    ScopedSpan span(tracer, "core.snapshot_load");
    (void)core::load_snapshot(p.artifact, core::SnapshotLoad::kMmap);
  }
  m["core.snapshot_load_ms"] = {median_duration(tracer, "core.snapshot_load") / 1e3, "ms"};

  // Wire encode (client side) and request decode (server side).
  {
    constexpr std::size_t kFrames = 4096;
    const std::vector<std::uint8_t> frame = serve::net::encode_request_frame(1, p.queries[0]);
    const std::span<const std::uint8_t> body(frame.data() + sizeof(std::uint32_t),
                                             frame.size() - sizeof(std::uint32_t));
    for (std::size_t r = 0; r < kReps; ++r) {
      {
        ScopedSpan span(tracer, "net.request_encode");
        for (std::size_t i = 0; i < kFrames; ++i) {
          (void)serve::net::encode_request_frame(i, p.queries[i % p.queries.size()]);
        }
      }
      ScopedSpan span(tracer, "net.frame_decode");
      for (std::size_t i = 0; i < kFrames; ++i) (void)serve::net::decode_frame(body);
    }
    m["net.request_encode_ns"] = {median_duration(tracer, "net.request_encode") * 1e3 / kFrames, "ns"};
    m["net.frame_decode_ns"] = {median_duration(tracer, "net.frame_decode") * 1e3 / kFrames, "ns"};
  }

  const double serve_probe_s =
      std::max(kMinServeProbeS, (options.seconds - (now_us() - start) / 1e6) / 2.0);

  // In-process serving: submit to callback, batch sizes, generator honesty.
  {
    ScopedSpan probe(tracer, "serve_inproc");
    const double rate = spec.transport == Transport::kInProcess ? spec.nominal_qps
                                                                : kInProcessProbeQps;
    const serve::ServerStats before = p.server->stats();
    const LoadRun run = run_open_loop(p, spec, Transport::kInProcess, rate, serve_probe_s);
    const serve::ServerStats after = p.server->stats();
    const Rung rung = make_rung(run, tally);
    const double lateness = record_requests(tracer, run, "serve.submit_to_callback");
    if (spec.transport == Transport::kInProcess) {
      m["gen.lateness_us_p99"] = {lateness, "us"};
      m["serve.backlog_max"] = {static_cast<double>(rung.backlog_max), "count"};
    }
    std::vector<double> waits;
    for (const OpenLoopRecord& r : run.records) {
      if (r.ok) waits.push_back(r.done - r.sent);
    }
    const TimingSummary summary = summarize(waits);
    std::sort(waits.begin(), waits.end());
    m["serve.submit_to_callback_us_p50"] = {summary.median, "us"};
    m["serve.submit_to_callback_us_p99"] = {percentile_sorted(waits, 99.0), "us"};
    m["serve.batch_size_mean"] = {static_cast<double>(after.requests - before.requests) /
                                      static_cast<double>(after.batches - before.batches),
                                  "requests"};
  }

  // Loopback TCP: idle round trip, then syscalls and context switches per
  // request under open-loop load.
  {
    ScopedSpan probe(tracer, "serve_tcp");
    if (!p.tcp_client) start_tcp(p);
    const CpuPin pin(p.cpus.server);
    for (std::size_t i = 0; i < 512; ++i) {
      Prediction prediction;
      {
        ScopedSpan span(tracer, "net.rtt_idle");
        try {
          prediction = p.tcp_client->predict(p.queries[i % p.queries.size()]);
        } catch (const serve::net::NetError& error) {
          std::fprintf(stderr, "perfbench: idle round trip failed: %s\n", error.what());
        }
      }
      tally.op(same_prediction(prediction, p.expected[i % p.queries.size()]));
    }
    m["net.rtt_idle_us"] = {median_duration(tracer, "net.rtt_idle"), "us"};

    const double rate = spec.transport == Transport::kTcp ? spec.nominal_qps : kTcpProbeQps;
    const ProcessCounters before = process_counters();
    const LoadRun run = run_open_loop(p, spec, Transport::kTcp, rate, serve_probe_s);
    const ProcessCounters after = process_counters();
    const Rung rung = make_rung(run, tally);
    const double requests = static_cast<double>(run.records.size());
    m["net.read_syscalls_per_request"] = {(after.read_syscalls - before.read_syscalls) / requests, "count"};
    m["net.write_syscalls_per_request"] = {(after.write_syscalls - before.write_syscalls) / requests, "count"};
    m["net.ctx_switches_per_request"] = {(after.ctx_switches - before.ctx_switches) / requests, "count"};
    const double lateness = record_requests(tracer, run, "net.request");
    if (spec.transport == Transport::kTcp) {
      m["gen.lateness_us_p99"] = {lateness, "us"};
      m["serve.backlog_max"] = {static_cast<double>(rung.backlog_max), "count"};
    }
  }
  tracer.end(root);

  // Self time of every layer, and the spans themselves, at the end.
  layers = self_times(tracer.spans());
  std::fprintf(stderr, "# %-34s %8s %14s %14s %14s\n", "layer", "calls", "total_us", "self_us",
               "self_us/call");
  for (const auto& [name, layer] : layers) {
    std::fprintf(stderr, "# %-34s %8zu %14.1f %14.1f %14.3f\n", name.c_str(), layer.count,
                 layer.total_us, layer.self_us, layer.self_us / static_cast<double>(layer.count));
  }
  const fs::path trace_dir = options.workdir.parent_path() / "traces";
  fs::create_directories(trace_dir);
  const fs::path trace_path =
      trace_dir / (spec.name + "-seed" + std::to_string(options.seed) + ".json");
  tally.check(tracer.write_json(trace_path.string()), "trace file written");
  std::fprintf(stderr, "# spans: %zu written to %s\n", tracer.spans().size(),
               trace_path.string().c_str());
  return m;
}

}  // namespace perfbench
