/// \file load.cpp
/// Open-loop load generation.  Requests are due at evenly spaced times; the
/// generator thread spins (yielding: over TCP the server shares its CPU) until
/// each one is due and sends it whether or not earlier answers came back,
/// and every latency is timed from the due time.
/// In-process requests go through serve::Server's callback submit; TCP
/// requests go through one pipelined TcpClient connection, with the
/// generator thread calling only submit() and one receiver thread calling
/// only wait() (the two calls touch disjoint client state).

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "bench.hpp"

namespace perfbench {

using namespace graphhd;

namespace {

/// How long an in-process run may wait for its last answers.  The server
/// answers every accepted request, so running out of time means it hung.
constexpr double kDrainTimeoutUs = 10e6;
/// Interval between hot swaps on workloads that swap.  The request sent
/// right after a swap waits for it, so at the nominal 100 000/s a 1 ms
/// period delayed exactly 1% of requests and put the p99 on that cliff; at
/// 10 ms the delayed requests are 0.1%, beyond the p99 and inside the p99.9.
constexpr double kSwapPeriodUs = 10000.0;
/// Requests a TCP connection may have in flight.  A pipelining client
/// bounds its window; past it the generator waits and falls behind its
/// schedule, which the latency, lateness and backlog all show.  Unbounded,
/// an overload rung once queued more than the socket server's 16 MB input
/// cap of valid frames, and the server closed the connection as malformed.
constexpr std::size_t kMaxInFlight = 4096;
/// Backlog rise a rung tolerates (see backlog_growing()): what arrives in
/// 5 ms, so one host stall does not read as a growing backlog.
constexpr double kBacklogSlackUs = 5000.0;

struct LoadState {
  explicit LoadState(std::size_t n) : records(n) {}
  std::vector<OpenLoopRecord> records;
  std::atomic<std::size_t> completed{0};
};

void spin_until(double due_us) {
  while (now_us() < due_us) std::this_thread::yield();
}

/// Requests due by now and not yet answered.  A generator that runs past the
/// end of its schedule keeps counting requests as due, so the backlog of an
/// overloaded rung keeps growing to its last send.
std::size_t backlog_now(const LoadState& state, double t0, double period_us) {
  const auto due = static_cast<std::size_t>((now_us() - t0) / period_us) + 1;
  return due - state.completed.load(std::memory_order_relaxed);
}

/// Alternates the served snapshot every kSwapPeriodUs of schedule, between
/// sends, on workloads that hot-swap.
class HotSwapper {
 public:
  HotSwapper(Prepared& p, bool enabled, double t0)
      : p_(p), enabled_(enabled), next_(t0 + kSwapPeriodUs) {}

  void before_send(double scheduled) {
    if (!enabled_ || scheduled < next_) return;
    p_.server->swap(use_swap_snapshot_ ? p_.swap_snapshot : p_.snapshot);
    use_swap_snapshot_ = !use_swap_snapshot_;
    next_ += kSwapPeriodUs;
  }

 private:
  Prepared& p_;
  bool enabled_;
  double next_;
  bool use_swap_snapshot_ = true;
};

void run_in_process(Prepared& p, const WorkloadSpec& spec,
                    const std::shared_ptr<LoadState>& state, double period_us) {
  const std::size_t n = state->records.size();
  const std::size_t q = p.queries.size();
  const double t0 = now_us() + 200.0;
  HotSwapper swapper(p, spec.hot_swap, t0);
  for (std::size_t k = 0; k < n; ++k) {
    OpenLoopRecord& record = state->records[k];
    record.scheduled = t0 + static_cast<double>(k) * period_us;
    spin_until(record.scheduled);
    swapper.before_send(record.scheduled);
    record.sent = now_us();
    const Prediction* expected = &p.expected[k % q];
    p.server->submit(hdc::PackedHypervector(p.queries[k % q]),
                     [state, k, expected](const Prediction& prediction) {
                       OpenLoopRecord& r = state->records[k];
                       r.done = now_us();
                       r.ok = same_prediction(prediction, *expected);
                       state->completed.fetch_add(1, std::memory_order_release);
                     });
    record.backlog = backlog_now(*state, t0, period_us);
  }
  const double deadline = now_us() + kDrainTimeoutUs;
  while (state->completed.load(std::memory_order_acquire) < n) {
    if (now_us() > deadline) {
      std::fprintf(stderr, "perfbench: in-process server left requests unanswered\n");
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void run_tcp(Prepared& p, const WorkloadSpec& spec, LoadRun& run,
             const std::shared_ptr<LoadState>& state, double period_us) {
  auto& client = *p.tcp_client;
  const std::size_t n = state->records.size();
  const std::size_t q = p.queries.size();
  std::vector<std::uint64_t> ids(n);
  // Requests sent so far; the top bit marks that the generator stopped.
  constexpr std::size_t kStopped = std::size_t{1} << 63;
  std::atomic<std::size_t> published{0};

  // Set when the receiver stops early (the connection failed), so a
  // generator waiting on a full window does not wait forever.
  std::atomic<bool> receiver_gone{false};
  std::thread receiver([&] {
    const auto receive = [&] {
      for (std::size_t k = 0; k < n; ++k) {
        std::size_t seen = published.load(std::memory_order_acquire);
        while ((seen & ~kStopped) <= k) {
          if ((seen & kStopped) != 0) return;
          published.wait(seen, std::memory_order_acquire);
          seen = published.load(std::memory_order_acquire);
        }
        OpenLoopRecord& record = state->records[k];
        try {
          const Prediction prediction = client.wait(ids[k]);
          record.done = now_us();
          record.ok = same_prediction(prediction, p.expected[k % q]);
        } catch (const serve::net::NetError& error) {
          std::fprintf(stderr, "perfbench: request %zu failed: %s\n", k, error.what());
          if (error.kind() != serve::net::NetErrorKind::kRemoteError) return;
        }
        state->completed.fetch_add(1, std::memory_order_release);
      }
    };
    receive();
    receiver_gone.store(true, std::memory_order_release);
  });

  const std::uint64_t errors_before = p.tcp_server->stats().protocol_errors;
  const double t0 = now_us() + 200.0;
  HotSwapper swapper(p, spec.hot_swap, t0);
  try {
    for (std::size_t k = 0; k < n; ++k) {
      OpenLoopRecord& record = state->records[k];
      record.scheduled = t0 + static_cast<double>(k) * period_us;
      spin_until(record.scheduled);
      while (k - state->completed.load(std::memory_order_acquire) >= kMaxInFlight &&
             !receiver_gone.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (receiver_gone.load(std::memory_order_acquire)) break;
      swapper.before_send(record.scheduled);
      record.sent = now_us();
      ids[k] = client.submit(p.queries[k % q]);
      published.store(k + 1, std::memory_order_release);
      published.notify_one();
      record.backlog = backlog_now(*state, t0, period_us);
    }
  } catch (const serve::net::NetError& error) {
    std::fprintf(stderr, "perfbench: send failed: %s\n", error.what());
  }
  published.store(published.load(std::memory_order_relaxed) | kStopped,
                  std::memory_order_release);
  published.notify_one();
  receiver.join();
  run.protocol_errors = p.tcp_server->stats().protocol_errors - errors_before;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  return cpus;
}

ServeCpus serve_cpus(std::size_t slice) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return {};
  return {.server = cpus[slice % cpus.size()],
          .in_process_generator = cpus[(slice + 1) % cpus.size()]};
}

CpuPin::CpuPin(int cpu) {
  CPU_ZERO(&saved_);
  pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

CpuPin::~CpuPin() { pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_); }

LoadRun run_open_loop(Prepared& p, const WorkloadSpec& spec, Transport transport, double rate,
                      double seconds) {
  const CpuPin pin(transport == Transport::kTcp ? p.cpus.server : p.cpus.in_process_generator);
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  auto state = std::make_shared<LoadState>(n);
  LoadRun run;
  run.offered_qps = rate;
  const double period_us = 1e6 / rate;
  if (transport == Transport::kTcp) {
    run_tcp(p, spec, run, state, period_us);
  } else {
    run_in_process(p, spec, state, period_us);
  }
  // Every answer is in (or its receiver gave up), so no callback touches
  // the records any more.
  run.records = std::move(state->records);
  return run;
}

Rung make_rung(const LoadRun& run, Tally& tally) {
  Rung rung;
  rung.offered_qps = run.offered_qps;
  rung.sent = run.records.size();
  double last_done = 0.0;
  std::size_t ok = 0;
  for (const OpenLoopRecord& record : run.records) {
    tally.op(record.ok);
    rung.backlog_max = std::max(rung.backlog_max, record.backlog);
    if (record.ok) {
      ++ok;
      last_done = std::max(last_done, record.done);
    }
  }
  for (std::size_t i = 0; i < run.protocol_errors; ++i) tally.op(false);
  rung.failed = rung.sent - ok + run.protocol_errors;
  rung.p99_us = run.protocol_errors > 0 ? kMissUs : quiet_p99(run.records);
  const double span_us = last_done - run.records.front().scheduled;
  rung.achieved_qps = ok > 0 && span_us > 0 ? static_cast<double>(ok) * 1e6 / span_us : 0.0;
  rung.backlog_growing =
      backlog_growing(run.records, std::max(32.0, run.offered_qps * kBacklogSlackUs / 1e6));
  return rung;
}

}  // namespace perfbench
