#include "core/model.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "core/runtime.hpp"
#include "core/serialize.hpp"
#include "parallel/thread_pool.hpp"

namespace graphhd::core {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-shard checkpoint file of a sharded fit.
[[nodiscard]] std::filesystem::path shard_checkpoint_path(const std::filesystem::path& base,
                                                          std::size_t shard) {
  if (base.empty()) return base;
  std::filesystem::path path = base;
  path += ".shard" + std::to_string(shard);
  return path;
}

void remove_if_exists(const std::filesystem::path& path) {
  if (path.empty()) return;
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
}

/// Removes every `<base>.shard<digits>` sibling of a sharded fit's
/// checkpoint base — not just the current shard count's files.  A previous
/// *wider* run may have left higher-numbered files behind; they would fail
/// the resume topology check loudly, but the success path must not leave
/// that trap armed (and must not leak disk).
void cleanup_shard_checkpoints(const std::filesystem::path& base) {
  if (base.empty()) return;
  const std::string prefix = base.filename().string() + ".shard";
  std::filesystem::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code list_error;
  std::filesystem::directory_iterator entries(dir, list_error);
  if (list_error) return;
  for (const std::filesystem::directory_entry& entry : entries) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.find_first_not_of("0123456789", prefix.size()) != std::string::npos) continue;
    std::error_code ignored;
    std::filesystem::remove(entry.path(), ignored);
  }
}

}  // namespace

GraphHdModel::GraphHdModel(const GraphHdConfig& config, std::size_t num_classes)
    : GraphHdModel(GraphHdEncoder(config), num_classes) {}

GraphHdModel::GraphHdModel(GraphHdEncoder encoder, std::size_t num_classes)
    : config_(encoder.config()),
      num_classes_(num_classes),
      encoder_(std::move(encoder)),
      memory_(config_.dimension, num_classes * config_.vectors_per_class, config_.metric,
              config_.quantized_model),
      next_replica_(num_classes, 0) {
  if (num_classes < 2) {
    throw std::invalid_argument("GraphHdModel: need at least 2 classes");
  }
}

void GraphHdModel::fit(const data::GraphDataset& train) {
  if (fitted_) {
    throw std::logic_error("GraphHdModel::fit: model already fitted");
  }
  if (train.num_classes() > num_classes_) {
    throw std::invalid_argument("GraphHdModel::fit: dataset has more classes than the model");
  }
  invalidate_snapshot();

  // Encode once (in parallel — see core::encode_dataset_packed); the
  // hypervectors are reused by the retraining passes.
  const std::vector<hdc::PackedHypervector> encoded = encode_dataset_packed(encoder_, train);

  // Algorithm 1: bundle every sample into (a prototype of) its class.
  for (std::size_t i = 0; i < train.size(); ++i) {
    const std::size_t label = train.label(i);
    const std::size_t replica = next_replica_[label];
    next_replica_[label] = (replica + 1) % config_.vectors_per_class;
    memory_.add(slot_of(label, replica), encoded[i]);
  }

  // Extension VII.1a: perceptron-style retraining.
  for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
    std::size_t mispredictions = 0;
    for (std::size_t i = 0; i < train.size(); ++i) {
      mispredictions += retrain_sample(encoded[i], train.label(i));
    }
    if (mispredictions == 0) break;
  }
  fitted_ = true;
}

bool GraphHdModel::retrain_sample(const hdc::PackedHypervector& encoded, std::size_t label) {
  const auto result = memory_.query(encoded);
  if (class_of_slot(result.best_class) == label) return false;
  memory_.retrain_update(best_slot_in_class(result, label), result.best_class, encoded);
  return true;
}

void GraphHdModel::fit_stream(data::GraphStream& stream, const TrainOptions& options) {
  options.validate("GraphHdModel::fit_stream");
  if (options.shards > 1) {
    fit_stream_sharded(stream, options);
    return;
  }
  if (fitted_) {
    throw std::logic_error("GraphHdModel::fit_stream: model already fitted");
  }
  if (stream.num_classes() > num_classes_) {
    throw std::invalid_argument(
        "GraphHdModel::fit_stream: stream has more classes than the model");
  }
  invalidate_snapshot();

  // Same schedule as fit(): one bundling pass (checkpointed when asked),
  // then one stream replay per retraining epoch.  Chunk boundaries are
  // invisible to the result — encoding is seed-deterministic per sample and
  // the bundle/retrain updates run in stream order.
  if (options.stats != nullptr) *options.stats = TrainStats{};
  const auto bundle_start = Clock::now();
  const std::size_t samples = bundle_stream(stream, options, nullptr, 1, 0);
  if (options.stats != nullptr) {
    options.stats->shards.push_back(
        {0, samples, seconds_since(bundle_start), runtime::peak_rss_kb()});
  }
  const auto retrain_start = Clock::now();
  retrain_stream(stream, options.stream());
  if (options.stats != nullptr) options.stats->retrain_seconds = seconds_since(retrain_start);
  fitted_ = true;
  // Success: the checkpoint has served its purpose.
  remove_if_exists(options.checkpoint);
}

std::size_t GraphHdModel::bundle_stream(
    data::GraphStream& stream, const TrainOptions& options,
    const std::function<std::size_t(std::size_t)>* replica_for, std::size_t shard_count,
    std::size_t shard_index) {
  // Resume: adopt the persisted counters and skip the already-consumed
  // prefix.  A missing file simply starts fresh (first run of a resumable
  // job); a corrupt file throws in resume_checkpoint.
  std::size_t start_index = 0;
  if (options.resume && !options.checkpoint.empty() &&
      std::filesystem::exists(options.checkpoint)) {
    ResumedCheckpoint resumed = resume_checkpoint(options.checkpoint);
    if (!(resumed.model.config() == config_) || resumed.model.num_classes() != num_classes_) {
      throw std::runtime_error("GraphHdModel::fit_stream: checkpoint " +
                               options.checkpoint.string() +
                               " was written by a model with a different configuration");
    }
    // samples_consumed indexes into the checkpoint's round-robin shard view;
    // under any other {shard_count, shard_index} that prefix names different
    // samples, so a mismatched resume would silently skip or duplicate data.
    const CheckpointProgress& progress = resumed.progress;
    if (progress.shard_count == 0) {
      throw std::runtime_error("GraphHdModel::fit_stream: checkpoint " +
                               options.checkpoint.string() +
                               " predates shard-topology progress (v1) — its shard "
                               "assignment is unknown; delete it and restart the fit");
    }
    if (progress.shard_count != shard_count || progress.shard_index != shard_index) {
      throw std::runtime_error(
          "GraphHdModel::fit_stream: checkpoint " + options.checkpoint.string() +
          " was written as shard " + std::to_string(progress.shard_index) + " of " +
          std::to_string(progress.shard_count) + " but this fit runs shard " +
          std::to_string(shard_index) + " of " + std::to_string(shard_count) +
          " — resuming would skip or duplicate samples");
    }
    memory_ = std::move(resumed.model.memory_);
    next_replica_ = std::move(resumed.model.next_replica_);
    invalidate_snapshot();
    fitted_ = false;  // mid-training state, whatever the artifact says.
    if (progress.bundle_complete) return static_cast<std::size_t>(progress.samples_consumed);
    start_index = static_cast<std::size_t>(progress.samples_consumed);
  }

  stream.reset();
  std::size_t index = 0;
  for (; index < start_index; ++index) {
    if (!stream.next().has_value()) {
      throw std::runtime_error(
          "GraphHdModel::fit_stream: checkpoint consumed more samples than the stream "
          "holds — resuming against a different stream?");
    }
  }

  std::size_t last_saved = index;
  const auto maybe_checkpoint = [&](bool bundle_complete) {
    if (options.checkpoint.empty()) return;
    if (!bundle_complete && index - last_saved < options.checkpoint_interval) return;
    save_checkpoint(*this, {index, bundle_complete, shard_count, shard_index},
                    options.checkpoint);
    // save_checkpoint builds (and caches) a snapshot of the mid-fit state;
    // drop it so later snapshot() calls never serve stale counters.
    invalidate_snapshot();
    last_saved = index;
  };

  // Algorithm 1: bundle every sample into (a prototype of) its class.
  {
    data::ChunkFetcher fetcher(stream, options.chunk, options.prefetch);
    while (true) {
      const data::GraphDataset chunk = fetcher.next();
      if (chunk.empty()) break;
      if (chunk.num_classes() > num_classes_) {
        throw std::invalid_argument(
            "GraphHdModel::fit_stream: stream label exceeds the model's class count");
      }
      const std::vector<hdc::PackedHypervector> encoded = encode_dataset_packed(encoder_, chunk);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::size_t label = chunk.label(i);
        const std::size_t replica =
            replica_for != nullptr ? (*replica_for)(index) : next_replica_[label];
        next_replica_[label] = (next_replica_[label] + 1) % config_.vectors_per_class;
        memory_.add(slot_of(label, replica), encoded[i]);
        ++index;
      }
      maybe_checkpoint(false);
    }
  }
  // Bundle-complete marker: a crash during (deterministic, restartable)
  // retraining resumes from here instead of re-ingesting the stream.
  maybe_checkpoint(true);
  return index;
}

void GraphHdModel::retrain_stream(data::GraphStream& stream, const StreamOptions& options) {
  // Extension VII.1a: perceptron-style retraining, re-encoding per epoch.
  for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
    std::size_t mispredictions = 0;
    stream.reset();
    data::ChunkFetcher fetcher(stream, options.chunk, options.prefetch);
    while (true) {
      const data::GraphDataset chunk = fetcher.next();
      if (chunk.empty()) break;
      if (chunk.num_classes() > num_classes_) {
        throw std::invalid_argument(
            "GraphHdModel::fit_stream: stream label exceeds the model's class count");
      }
      const std::vector<hdc::PackedHypervector> encoded = encode_dataset_packed(encoder_, chunk);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        mispredictions += retrain_sample(encoded[i], chunk.label(i));
      }
    }
    if (mispredictions == 0) break;
  }
}

std::vector<std::size_t> GraphHdModel::global_replica_assignment(data::GraphStream& stream) {
  // Serial fit assigns sample -> replica by per-class arrival order.  A
  // shard only sees every W-th sample, so with vectors_per_class > 1 its
  // local arrival order would pick different replicas than the serial fit.
  // One cheap label pass (label_scan when the source supports it) rebuilds
  // the *global* assignment; each shard then bundles its samples into
  // exactly the slots the serial fit would have used.
  std::vector<std::size_t> replica_of;
  if (config_.vectors_per_class <= 1) return replica_of;
  const std::vector<std::size_t> labels = data::collect_labels(stream);
  replica_of.resize(labels.size());
  std::vector<std::size_t> seen(num_classes_, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= num_classes_) {
      throw std::invalid_argument(
          "GraphHdModel::fit_stream_sharded: stream label exceeds the model's class count");
    }
    replica_of[i] = seen[labels[i]]++ % config_.vectors_per_class;
  }
  return replica_of;
}

namespace {

/// Shard `shard`'s local sample k is global sample shard + k * W; the bound
/// check catches a source that grew between the label pass and the bundle
/// pass (the assignment would no longer be the serial one).
[[nodiscard]] std::function<std::size_t(std::size_t)> shard_replica_map(
    const std::vector<std::size_t>& replica_of, std::size_t shard, std::size_t shards) {
  if (replica_of.empty()) return {};
  return [&replica_of, shard, shards](std::size_t local) {
    const std::size_t global = shard + local * shards;
    if (global >= replica_of.size()) {
      throw std::runtime_error(
          "GraphHdModel::fit_stream_sharded: stream grew between the label pass and "
          "the bundle pass");
    }
    return replica_of[global];
  };
}

}  // namespace

void GraphHdModel::fit_stream_sharded(data::GraphStream& stream, const TrainOptions& options) {
  options.validate("GraphHdModel::fit_stream_sharded");
  if (options.workers != 1) {
    throw std::invalid_argument(
        "GraphHdModel::fit_stream_sharded: options.workers != 1 requires the StreamOpener "
        "form — a borrowed stream has a single cursor and cannot be pulled concurrently");
  }
  if (fitted_) {
    throw std::logic_error("GraphHdModel::fit_stream_sharded: model already fitted");
  }
  if (stream.num_classes() > num_classes_) {
    throw std::invalid_argument(
        "GraphHdModel::fit_stream_sharded: stream has more classes than the model");
  }
  invalidate_snapshot();
  const std::size_t shards = options.shards;
  if (options.stats != nullptr) {
    *options.stats = TrainStats{};
    options.stats->shards.assign(shards, ShardProgress{});
  }

  const std::vector<std::size_t> replica_of = global_replica_assignment(stream);

  // Map: bundle each shard into a private model, then reduce by merge().
  // Shards run one after another — the parallelism inside each shard's
  // encode (process-wide pool) already saturates the cores, and sequential
  // shard fits keep stream access single-cursor safe in borrowing mode.
  for (std::size_t shard = 0; shard < shards; ++shard) {
    data::ShardedStream shard_view(stream, shard, shards);
    GraphHdModel shard_model(encoder_, num_classes_);
    TrainOptions shard_options = options;
    shard_options.shards = 1;
    shard_options.workers = 1;
    shard_options.stats = nullptr;
    shard_options.checkpoint = shard_checkpoint_path(options.checkpoint, shard);

    const std::function<std::size_t(std::size_t)> shard_replica =
        shard_replica_map(replica_of, shard, shards);
    const auto shard_start = Clock::now();
    const std::size_t samples = shard_model.bundle_stream(
        shard_view, shard_options, shard_replica ? &shard_replica : nullptr, shards, shard);
    if (options.stats != nullptr) {
      options.stats->shards[shard] =
          ShardProgress{shard, samples, seconds_since(shard_start), runtime::peak_rss_kb()};
    }
    const auto merge_start = Clock::now();
    merge(std::move(shard_model));
    if (options.stats != nullptr) options.stats->merge_seconds += seconds_since(merge_start);
  }

  // Reduce done; retraining is sequential by nature and runs on the merged
  // counters — which equal the serial bundle counters exactly, so the
  // retrained model is bit-identical to serial fit_stream.
  const auto retrain_start = Clock::now();
  retrain_stream(stream, options.stream());
  if (options.stats != nullptr) options.stats->retrain_seconds = seconds_since(retrain_start);
  fitted_ = true;
  cleanup_shard_checkpoints(options.checkpoint);
}

void GraphHdModel::fit_stream_sharded(const data::StreamOpener& opener,
                                      const TrainOptions& options) {
  if (!opener) {
    throw std::invalid_argument("GraphHdModel::fit_stream_sharded: opener must be callable");
  }
  options.validate("GraphHdModel::fit_stream_sharded");
  const std::size_t workers =
      options.workers == 0 ? std::min(options.shards, parallel::configured_threads())
                           : std::min(options.workers, options.shards);
  if (workers <= 1) {
    // ReplayableStream turns the opener into a rewindable source; the shard
    // views and retrain replays rewind it by re-opening.
    TrainOptions serial = options;
    serial.workers = 1;
    data::ReplayableStream stream(opener);
    fit_stream_sharded(stream, serial);
    if (options.stats != nullptr) options.stats->workers_used = 1;
    return;
  }

  if (fitted_) {
    throw std::logic_error("GraphHdModel::fit_stream_sharded: model already fitted");
  }
  invalidate_snapshot();
  if (options.stats != nullptr) *options.stats = TrainStats{};

  std::vector<std::size_t> replica_of;
  {
    data::ReplayableStream probe(opener);
    if (probe.num_classes() > num_classes_) {
      throw std::invalid_argument(
          "GraphHdModel::fit_stream_sharded: stream has more classes than the model");
    }
    replica_of = global_replica_assignment(probe);
  }

  bundle_shards_parallel(opener, options, replica_of, workers);

  const auto retrain_start = Clock::now();
  data::ReplayableStream retrain_source(opener);
  retrain_stream(retrain_source, options.stream());
  if (options.stats != nullptr) options.stats->retrain_seconds = seconds_since(retrain_start);
  fitted_ = true;
  cleanup_shard_checkpoints(options.checkpoint);
}

void GraphHdModel::bundle_shards_parallel(const data::StreamOpener& opener,
                                          const TrainOptions& options,
                                          const std::vector<std::size_t>& replica_of,
                                          std::size_t workers) {
  const std::size_t shards = options.shards;
  if (options.stats != nullptr) {
    options.stats->shards.assign(shards, ShardProgress{});
    options.stats->workers_used = workers;
  }

  // Each worker claims shards off an atomic counter and bundles them into
  // private models over private owning shard views — no shared mutable
  // state beyond the counter, the per-shard result/error slots (each written
  // by exactly one worker, read only after the joins) and whatever the
  // opener shares internally.  The encode passes inside bundle_stream go
  // through the process-wide pool, whose one-batch-at-a-time discipline
  // keeps concurrent shard encodes from oversubscribing the cores: workers
  // overlap stream pull/parse/prefetch with each other's encode batches.
  std::vector<std::unique_ptr<GraphHdModel>> shard_models(shards);
  std::vector<std::exception_ptr> shard_errors(shards);
  std::atomic<std::size_t> next_shard{0};
  std::atomic<bool> abort{false};

  const auto worker_loop = [&] {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t shard = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shards) return;
      try {
        data::ShardedStream shard_view(opener, shard, shards);
        auto shard_model = std::make_unique<GraphHdModel>(encoder_, num_classes_);
        TrainOptions shard_options = options;
        shard_options.shards = 1;
        shard_options.workers = 1;
        shard_options.stats = nullptr;
        shard_options.checkpoint = shard_checkpoint_path(options.checkpoint, shard);

        const std::function<std::size_t(std::size_t)> shard_replica =
            shard_replica_map(replica_of, shard, shards);
        const auto shard_start = Clock::now();
        const std::size_t samples = shard_model->bundle_stream(
            shard_view, shard_options, shard_replica ? &shard_replica : nullptr, shards,
            shard);
        if (options.stats != nullptr) {
          options.stats->shards[shard] =
              ShardProgress{shard, samples, seconds_since(shard_start), runtime::peak_rss_kb()};
        }
        shard_models[shard] = std::move(shard_model);
      } catch (...) {
        shard_errors[shard] = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_loop);
  for (std::thread& thread : threads) thread.join();

  // Deterministic error propagation: the lowest failed shard's exception
  // wins, whatever order the workers actually hit their errors in.
  for (std::size_t shard = 0; shard < shards; ++shard) {
    if (shard_errors[shard] != nullptr) std::rethrow_exception(shard_errors[shard]);
  }

  // Reduce on the calling thread, in shard order.  merge() is commutative,
  // so any order would produce the same counters — index order just makes
  // the equivalence to the serial loop obvious.
  const auto merge_start = Clock::now();
  for (std::size_t shard = 0; shard < shards; ++shard) {
    merge(std::move(*shard_models[shard]));
  }
  if (options.stats != nullptr) options.stats->merge_seconds = seconds_since(merge_start);
}

CheckpointProgress GraphHdModel::fit_stream_shard(data::GraphStream& stream,
                                                  std::size_t shard_index,
                                                  const TrainOptions& options) {
  options.validate("GraphHdModel::fit_stream_shard");
  if (shard_index >= options.shards) {
    throw std::invalid_argument("GraphHdModel::fit_stream_shard: shard index " +
                                std::to_string(shard_index) + " out of range for " +
                                std::to_string(options.shards) + " shards");
  }
  if (fitted_) {
    throw std::logic_error("GraphHdModel::fit_stream_shard: model already fitted");
  }
  if (stream.num_classes() > num_classes_) {
    throw std::invalid_argument(
        "GraphHdModel::fit_stream_shard: stream has more classes than the model");
  }
  invalidate_snapshot();
  if (options.stats != nullptr) *options.stats = TrainStats{};

  // The replica assignment comes from the GLOBAL label order — every machine
  // computes the same one from the same full stream, so the union of the
  // per-machine bundles lands in exactly the serial fit's slots.
  const std::vector<std::size_t> replica_of = global_replica_assignment(stream);
  data::ShardedStream shard_view(stream, shard_index, options.shards);
  TrainOptions shard_options = options;
  shard_options.shards = 1;
  shard_options.workers = 1;
  shard_options.stats = nullptr;
  // options.checkpoint is used as-is: this process owns exactly one shard,
  // so there is no sibling to disambiguate from.
  const std::function<std::size_t(std::size_t)> shard_replica =
      shard_replica_map(replica_of, shard_index, options.shards);
  const auto shard_start = Clock::now();
  const std::size_t samples =
      bundle_stream(shard_view, shard_options, shard_replica ? &shard_replica : nullptr,
                    options.shards, shard_index);
  if (options.stats != nullptr) {
    options.stats->shards.push_back(
        {shard_index, samples, seconds_since(shard_start), runtime::peak_rss_kb()});
  }
  return CheckpointProgress{samples, true, options.shards, shard_index};
}

void GraphHdModel::finish_training(data::GraphStream& stream, const StreamOptions& options) {
  options.validate("GraphHdModel::finish_training");
  if (fitted_) {
    throw std::logic_error("GraphHdModel::finish_training: model already fitted");
  }
  if (stream.num_classes() > num_classes_) {
    throw std::invalid_argument(
        "GraphHdModel::finish_training: stream has more classes than the model");
  }
  invalidate_snapshot();
  retrain_stream(stream, options);
  fitted_ = true;
}

void GraphHdModel::merge(GraphHdModel&& other) {
  if (!(other.config_ == config_)) {
    throw std::invalid_argument("GraphHdModel::merge: model configurations differ");
  }
  if (other.num_classes_ != num_classes_) {
    throw std::invalid_argument("GraphHdModel::merge: class counts differ (" +
                                std::to_string(num_classes_) + " vs " +
                                std::to_string(other.num_classes_) + ")");
  }
  invalidate_snapshot();
  memory_.merge(other.memory_);
  // Replica cursors advance per bundled sample, so the merged cursor is the
  // sum of both arrival counts modulo the replica count — exactly where the
  // serial cursor would stand after both sample sets.
  for (std::size_t c = 0; c < num_classes_; ++c) {
    next_replica_[c] = (next_replica_[c] + other.next_replica_[c]) % config_.vectors_per_class;
  }
  fitted_ = fitted_ || other.fitted_;
}

void GraphHdModel::partial_fit(const graph::Graph& graph, std::size_t label) {
  if (label >= num_classes_) {
    throw std::out_of_range("GraphHdModel::partial_fit: label out of range");
  }
  invalidate_snapshot();
  const std::size_t replica = next_replica_[label];
  next_replica_[label] = (replica + 1) % config_.vectors_per_class;
  memory_.add(slot_of(label, replica), encoder_.encode_packed(graph));
}

std::size_t GraphHdModel::best_slot_in_class(const hdc::QueryResult& result,
                                             std::size_t class_id) const {
  std::size_t best = slot_of(class_id, 0);
  for (std::size_t r = 1; r < config_.vectors_per_class; ++r) {
    const std::size_t slot = slot_of(class_id, r);
    if (result.similarities[slot] > result.similarities[best]) best = slot;
  }
  return best;
}

Prediction GraphHdModel::predict(const graph::Graph& graph) {
  return predict_encoded(encoder_.encode_packed(graph));
}

Prediction GraphHdModel::predict_encoded(const hdc::Hypervector& encoded) const {
  return snapshot()->predict_encoded(encoded);
}

Prediction GraphHdModel::predict_encoded(const hdc::PackedHypervector& encoded) const {
  return snapshot()->predict_encoded(encoded);
}

std::vector<Prediction> GraphHdModel::predict_batch(const data::GraphDataset& test) {
  // Pin one snapshot up front (building it finalizes the class vectors) so
  // the concurrent queries are pure reads on an immutable object.
  return core::predict_batch(*snapshot(), encoder_, test);
}

void GraphHdModel::predict_stream(data::GraphStream& stream, const StreamOptions& options,
                                  const std::function<void(std::size_t, const Prediction&)>& sink) {
  core::predict_stream(*snapshot(), encoder_, stream, options, sink);
}

std::vector<Prediction> GraphHdModel::predict_stream(data::GraphStream& stream,
                                                     const StreamOptions& options) {
  return core::predict_stream(*snapshot(), encoder_, stream, options);
}

double GraphHdModel::evaluate(const data::GraphDataset& test) {
  if (test.empty()) return 0.0;
  const auto predictions = predict_batch(test);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    hits += static_cast<std::size_t>(predictions[i].label == test.label(i));
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

void GraphHdModel::restore_state(std::vector<hdc::BundleAccumulator> accumulators,
                                 std::vector<std::size_t> sample_counts,
                                 std::vector<std::size_t> replica_cursors, bool fitted) {
  const std::size_t slots = num_classes_ * config_.vectors_per_class;
  if (accumulators.size() != slots || sample_counts.size() != slots ||
      replica_cursors.size() != num_classes_) {
    throw std::invalid_argument("GraphHdModel::restore_state: slot layout mismatch");
  }
  invalidate_snapshot();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    // The raw signed-counter state is shared by both accumulators; rewrap it.
    const auto counts = accumulators[slot].counts();
    memory_.restore(slot,
                    hdc::PackedBundleAccumulator::from_raw(
                        std::vector<std::int32_t>(counts.begin(), counts.end()),
                        accumulators[slot].count(), accumulators[slot].tie_free()),
                    sample_counts[slot]);
  }
  next_replica_ = std::move(replica_cursors);
  fitted_ = fitted;
}

std::shared_ptr<const InferenceSnapshot> GraphHdModel::snapshot() const {
  if (snapshot_ != nullptr) return snapshot_;
  const std::size_t slots = num_classes_ * config_.vectors_per_class;
  const std::size_t words_per_slot = (config_.dimension + 63) / 64;
  std::vector<InferenceSnapshot::SlotMeta> meta(slots);
  std::vector<std::int32_t> counters;
  counters.reserve(slots * config_.dimension);
  std::vector<std::uint64_t> words;
  words.reserve(slots * words_per_slot);
  // The packed words are the finalized (majority-thresholded) class vectors.
  memory_.finalize();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const auto& acc = memory_.accumulator(slot);
    meta[slot] = {memory_.class_count(slot), acc.count(), acc.tie_free()};
    const auto counts = acc.counts();
    counters.insert(counters.end(), counts.begin(), counts.end());
    const hdc::PackedHypervector class_hv = memory_.class_vector(slot);
    const auto row = class_hv.words();
    words.insert(words.end(), row.begin(), row.end());
  }
  snapshot_ = std::make_shared<const InferenceSnapshot>(config_, num_classes_, fitted_,
                                                        next_replica_, std::move(meta),
                                                        std::move(counters), std::move(words));
  return snapshot_;
}

GraphHdModel model_from_snapshot(const InferenceSnapshot& snapshot) {
  GraphHdModel model(snapshot.config(), snapshot.num_classes());
  const std::size_t slots = snapshot.slots();
  std::vector<hdc::BundleAccumulator> accumulators;
  std::vector<std::size_t> sample_counts;
  accumulators.reserve(slots);
  sample_counts.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const auto counts = snapshot.counters(slot);
    const auto& meta = snapshot.slot_meta(slot);
    accumulators.push_back(hdc::BundleAccumulator::from_raw(
        std::vector<std::int32_t>(counts.begin(), counts.end()),
        static_cast<std::size_t>(meta.add_count), meta.tie_free));
    sample_counts.push_back(static_cast<std::size_t>(meta.sample_count));
  }
  model.restore_state(std::move(accumulators), std::move(sample_counts),
                      snapshot.replica_cursors(), snapshot.fitted());
  return model;
}

std::vector<std::size_t> GraphHdModel::class_counts() const {
  std::vector<std::size_t> counts(num_classes_, 0);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    for (std::size_t r = 0; r < config_.vectors_per_class; ++r) {
      counts[c] += memory_.class_count(slot_of(c, r));
    }
  }
  return counts;
}

}  // namespace graphhd::core
