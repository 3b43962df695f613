/// \file bench.hpp
/// Shared declarations of the end-to-end benchmark: the workload table, the
/// set-up every workload runs, the open-loop load generators and the traced
/// layer probes.  Only libgraphhd's public headers are used.

#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "hdc/packed.hpp"
#include "serve/net/tcp_client.hpp"
#include "serve/net/tcp_server.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using graphhd::core::Prediction;

/// How the pre-encoded queries reach the server: Server::submit with a
/// callback, or one pipelined TcpClient connection over loopback.
enum class Transport { kInProcess, kTcp };

/// One workload: a data shape and a serving path.  Every workload runs the
/// same phases: streamed train and predict passes over its replica data,
/// then open-loop serving of the model it trained.
struct WorkloadSpec {
  std::string name;
  graphhd::data::SyntheticSpec shape;
  std::size_t vectors_per_class = 1;  ///< prototypes per class of the trained model.
  Transport transport = Transport::kInProcess;
  bool hot_swap = false;            ///< swap snapshots every 10 ms while serving.
  double nominal_qps = 0.0;         ///< rate of the latency measurement.
  std::vector<double> ladder_qps;   ///< offered rates of the goodput ladder.
};

[[nodiscard]] std::span<const WorkloadSpec> workloads();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t slice = 0;  ///< which slice of a run this process is (run.py).
  fs::path workdir;
};

/// Operations attempted and failed, plus the outcome of every other check.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_ok = true;

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(bool ok, const char* what) {
    if (!ok) {
      checks_ok = false;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
  }
};

/// Bit-identical predictions: label, score bits and every class score's bits.
[[nodiscard]] bool same_prediction(const Prediction& a, const Prediction& b);

/// Pins the calling thread to one CPU while the object lives.  Threads
/// started meanwhile inherit the pin.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
};

/// CPUs the process may run on, highest first.
[[nodiscard]] std::vector<int> allowed_cpus();

/// The CPUs serving runs on.  Over TCP the load generator, the client's
/// receiver, the server worker and the socket thread all share the server's
/// CPU, so every wake-up along the path stays on that CPU and each request
/// is priced in CPU time on one core.  In process the generator runs on a
/// CPU of its own beside the worker's, so the worker's spin-poll never
/// competes with the sender.  Each slice of a run (see run.py) serves from
/// a different CPU, so the median over slices does not rest on one CPU of a
/// shared host.
struct ServeCpus {
  int server = 0;
  int in_process_generator = 0;
};

[[nodiscard]] ServeCpus serve_cpus(std::size_t slice);

/// Everything the set-up leaves for the timed phase.
struct Prepared {
  Prepared() = default;
  /// Closes the client, then shuts the batching server down, then stops the
  /// socket server.  TcpServer::stop() can return while a completion
  /// callback still sits between its outstanding-count decrement and its
  /// self-pipe wake write; joining the server's workers first means no
  /// callback writes to the pipe after the socket server closed it.
  ~Prepared();
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  std::string dataset_name;
  fs::path train_dir;
  fs::path test_dir;
  graphhd::data::GraphDataset train;
  graphhd::data::GraphDataset test;
  graphhd::core::GraphHdConfig config;
  std::size_t num_classes = 0;
  std::vector<Prediction> reference;  ///< in-memory predict_batch on `test`.
  double accuracy = 0.0;
  fs::path artifact;
  std::shared_ptr<const graphhd::core::InferenceSnapshot> snapshot;       ///< mmap-loaded.
  std::shared_ptr<const graphhd::core::InferenceSnapshot> swap_snapshot;  ///< same artifact, read.
  std::vector<graphhd::hdc::PackedHypervector> queries;  ///< encoded held-out graphs.
  std::vector<Prediction> expected;  ///< predict_encoded_batch on `queries`.
  ServeCpus cpus;
  std::unique_ptr<graphhd::serve::Server> server;
  std::unique_ptr<graphhd::serve::net::TcpServer> tcp_server;
  std::unique_ptr<graphhd::serve::net::TcpClient> tcp_client;
};

/// Synthesizes the workload's data from the seed, writes the stratified
/// split as TUDataset files under `dir`, trains and saves the served model
/// (which, with one streamed predict pass, warms the train/predict path),
/// loads it back with mmap, encodes the queries, starts the server (and the
/// loopback socket server and client for TCP workloads) and warms the
/// serving path.
[[nodiscard]] std::unique_ptr<Prepared> prepare(const WorkloadSpec& spec, const Options& options,
                                                const fs::path& dir, Tally& tally);

/// Starts the loopback socket server and its client on `prepared.server`.
void start_tcp(Prepared& prepared);

/// Result of one open-loop run at a fixed rate.
struct LoadRun {
  double offered_qps = 0.0;
  std::vector<OpenLoopRecord> records;
  std::size_t protocol_errors = 0;  ///< socket server error frames during the run.
};

/// Sends `rate * seconds` requests at evenly spaced scheduled times over the
/// given transport, checks every answer against `prepared.expected`, and
/// waits for every answer (or its timeout).
[[nodiscard]] LoadRun run_open_loop(Prepared& prepared, const WorkloadSpec& spec,
                                    Transport transport, double rate, double seconds);

/// Condenses a load run into a ladder rung and counts its operations.
[[nodiscard]] Rung make_rung(const LoadRun& run, Tally& tally);

/// A metric value and its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Traced run: drives the workload's inputs through each layer's public
/// calls inside spans and returns the per-layer metrics.
[[nodiscard]] Metrics run_traced(const WorkloadSpec& spec, Prepared& prepared,
                                 const Options& options, Tally& tally);

}  // namespace perfbench
