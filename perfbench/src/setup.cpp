/// \file setup.cpp
/// Workload set-up: data synthesis, the stratified split on disk, the served
/// model and its artifact, the query encodings and the server.

#include <bit>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "core/encoder.hpp"
#include "core/model.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "data/tudataset.hpp"
#include "hdc/random.hpp"
#include "serve/net/wire.hpp"

namespace perfbench {

using namespace graphhd;

bool same_prediction(const Prediction& a, const Prediction& b) {
  if (a.label != b.label || std::bit_cast<std::uint64_t>(a.score) !=
                                std::bit_cast<std::uint64_t>(b.score)) {
    return false;
  }
  return a.class_scores.size() == b.class_scores.size() &&
         std::memcmp(a.class_scores.data(), b.class_scores.data(),
                     a.class_scores.size() * sizeof(double)) == 0;
}

namespace {

/// Share of each class that goes to the training split.
constexpr double kTrainFraction = 0.75;

bool same_predictions(std::span<const Prediction> a, std::span<const Prediction> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_prediction(a[i], b[i])) return false;
  }
  return true;
}

/// Writes one side of the split and checks that the reader gives back the
/// in-memory labels (a split that leaves a class out of one side would be
/// densified to other label ids by the TUDataset reader).
fs::path write_split(const data::GraphDataset& side, const fs::path& dir, Tally& tally) {
  data::save_tudataset(side, dir);
  data::TUDatasetStream reread(dir, side.name());
  tally.check(reread.labels() == side.labels(), "split labels survive the TUDataset round trip");
  return dir;
}

}  // namespace

std::unique_ptr<Prepared> prepare(const WorkloadSpec& spec, const Options& options,
                                  const fs::path& dir, Tally& tally) {
  auto prepared = std::make_unique<Prepared>();
  Prepared& p = *prepared;
  fs::create_directories(dir);

  const data::GraphDataset all = data::make_synthetic_replica(spec.shape, options.seed);
  hdc::Rng split_rng(hdc::derive_seed(options.seed, "perfbench-split"));
  const data::Split split = data::stratified_split(all, kTrainFraction, split_rng);
  p.train = all.subset(split.train);
  p.test = all.subset(split.test);
  p.dataset_name = all.name();
  p.train_dir = write_split(p.train, dir / "train", tally);
  p.test_dir = write_split(p.test, dir / "test", tally);

  p.config.backend = core::Backend::kPackedBinary;
  p.config.vectors_per_class = spec.vectors_per_class;
  p.num_classes = all.num_classes();

  // Training the served model and one streamed predict pass also warm the
  // train/predict path, so the timed passes start from a steady state.
  core::GraphHdModel model(p.config, p.num_classes);
  data::TUDatasetStream train_stream(p.train_dir, p.dataset_name);
  model.fit_stream(train_stream);
  p.reference = model.predict_batch(p.test);
  data::TUDatasetStream test_stream(p.test_dir, p.dataset_name);
  const std::vector<Prediction> streamed = model.predict_stream(test_stream);
  tally.check(same_predictions(streamed, p.reference),
              "streamed predictions equal in-memory predict_batch");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < p.test.size(); ++i) hits += p.reference[i].label == p.test.label(i);
  p.accuracy = static_cast<double>(hits) / static_cast<double>(p.test.size());

  p.artifact = dir / "model.ghd";
  core::save_model(model, p.artifact);
  p.snapshot = core::load_snapshot(p.artifact, core::SnapshotLoad::kMmap);
  p.swap_snapshot = core::load_snapshot(p.artifact, core::SnapshotLoad::kRead);

  core::GraphHdEncoder encoder(p.snapshot->config());
  p.queries = core::encode_dataset_packed(encoder, p.test);
  p.expected = p.snapshot->predict_encoded_batch(p.queries);
  tally.check(same_predictions(p.expected, p.reference),
              "mmap-loaded snapshot answers equal the trainer's predict_batch");

  p.cpus = serve_cpus(options.slice);
  {
    const CpuPin pin(p.cpus.server);
    p.server = std::make_unique<serve::Server>(p.snapshot);
  }

  if (spec.transport == Transport::kTcp) start_tcp(p);

  // Warm the serving path so the timed phase starts from a steady state.
  const LoadRun warm = run_open_loop(p, spec, spec.transport, spec.nominal_qps, 0.2);
  (void)make_rung(warm, tally);
  return prepared;
}

Prepared::~Prepared() {
  tcp_client.reset();
  if (server) server->shutdown();
  tcp_server.reset();
}

void start_tcp(Prepared& p) {
  const CpuPin pin(p.cpus.server);
  p.tcp_server = std::make_unique<serve::net::TcpServer>(*p.server);
  serve::net::TcpClientConfig client_config;
  client_config.read_timeout_ms = 2000;
  client_config.expect_config_hash = serve::net::config_hash(p.snapshot->config());
  p.tcp_client = std::make_unique<serve::net::TcpClient>("127.0.0.1", p.tcp_server->port(),
                                                         client_config);
}

}  // namespace perfbench
