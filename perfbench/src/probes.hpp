// Outside-in instruments: everything here calls the library's public API
// and times it from the benchmark's side of the boundary.
//
//   * phase_digests / DigestLog — per-phase digests of canonical sink
//     records, the sink-equivalence gate against the sequential reference;
//   * SpanLog — in-memory spans keyed by phase id, written as Chrome
//     trace-event JSON at the end of a traced run;
//   * model_probe — a module-factory decorator timing every on_phase call
//     (the `model` layer);
//   * probe_channel — a distrib::Channel decorator for
//     TransportOptions::channel_wrapper, timing send/recv into a
//     ChannelLedger (`distrib/channel`);
//   * replay_scheduler — a single-thread replay through the public
//     core::Scheduler API with execute_vertex timed separately
//     (`core/scheduler`, `core/executor`);
//   * snapshot_us_p50 — Engine::snapshot_state after quiesce, at a cadence
//     (`core/checkpoint`);
//   * parallelism_probe — the 1/2/4-thread busy-loop calibration.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/program.hpp"
#include "core/sink_store.hpp"
#include "distrib/channel.hpp"
#include "model/module.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Percentile by nearest rank over a copy of `values` (q in [0, 1]).
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// The program's peak resident set for one pass, in MiB: ru_maxrss of a
/// forked child that runs `pass` once and exits. The child starts from this
/// process's state before any measured pass, so neither the benchmark's own
/// bookkeeping nor the allocator arenas that earlier repetitions' threads
/// leave behind count, and the figure does not grow with run length. Call
/// it while the process has a single thread; throws if the pass fails.
double peak_rss_mib(const std::function<void()>& pass);

// --- sink-equivalence gate -------------------------------------------------

/// digest[p] for p in 1..phases (index 0 unused): FNV-1a over the phase's
/// canonical sink records. Records beyond `phases` make the store invalid
/// and are folded into the last phase's digest.
std::vector<std::uint64_t> phase_digests(const df::core::SinkStore& sinks,
                                         std::uint64_t phases);

/// The per-phase digests of every pass of one length, in memory that does
/// not grow with the number of passes: the first pass's digests are kept,
/// and a later pass keeps only the phases where it differs from the first
/// (none, when the program is deterministic). The reference runs after
/// peak RSS is read; diverging() then counts each pass's phases that differ
/// from it.
class DigestLog {
 public:
  explicit DigestLog(std::uint64_t phases) : phases_(phases) {}
  std::uint64_t attempted() const { return passes_ * phases_; }
  void add(const df::core::SinkStore& sinks);
  /// Phases, summed over all passes, whose digest differs from `reference`
  /// (digests of phases 1..phases() at least).
  std::uint64_t diverging(const std::vector<std::uint64_t>& reference) const;

 private:
  struct Deviation {
    std::uint64_t phase;
    std::uint64_t digest;
  };
  std::uint64_t phases_;
  std::uint64_t passes_ = 0;
  std::vector<std::uint64_t> first_;
  std::vector<Deviation> deviations_;  // later passes, where they differ
};

// --- spans -----------------------------------------------------------------

class SpanLog {
 public:
  /// Only spans of phases <= max_phase are kept, so memory is bounded.
  explicit SpanLog(std::uint64_t max_phase) : max_phase_(max_phase) {}
  bool wants(std::uint64_t phase) const { return phase <= max_phase_; }
  void add(const char* name, const char* layer, std::uint64_t phase,
           std::int64_t start_ns, std::int64_t end_ns);
  /// Writes Chrome trace-event JSON ("X" events, one tid per thread).
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t phase;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t tid;
  };
  std::uint64_t max_phase_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- model layer -----------------------------------------------------------

struct ModelCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

/// Decorates module factories: every on_phase is timed into `counters`
/// and, for phases the log wants, recorded as a span. persist_state is
/// forwarded, so checkpoint images are unchanged.
FactoryWrap model_probe(ModelCounters& counters, SpanLog* log);

// --- channel layer ---------------------------------------------------------

/// Shared by every probe channel of one transport run: counts and times
/// sends, and the time readers wait in recv per frame.
class ChannelLedger {
 public:
  explicit ChannelLedger(SpanLog* log) : log_(log) {}

  std::uint64_t sends() const { return sends_.load(); }
  std::uint64_t frames_received() const { return recvs_.load(); }
  std::uint64_t recv_wait_ns() const { return recv_wait_ns_.load(); }
  std::vector<double> send_ns() const;

  void on_send(std::span<const std::uint8_t> frame, std::int64_t start,
               std::int64_t end);
  void on_recv(std::span<const std::uint8_t> frame, std::int64_t wait_start,
               std::int64_t end);

 private:
  SpanLog* log_;
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> recvs_{0};
  std::atomic<std::uint64_t> recv_wait_ns_{0};
  mutable std::mutex send_mutex_;
  std::vector<double> send_ns_;
};

/// A Channel decorator reporting to a ChannelLedger, for
/// TransportOptions::channel_wrapper.
std::unique_ptr<df::distrib::Channel> probe_channel(
    std::unique_ptr<df::distrib::Channel> inner, ChannelLedger& ledger);

// --- scheduler / executor layers -------------------------------------------

struct ReplayResult {
  std::uint64_t pairs = 0;
  std::uint64_t scheduler_ns = 0;  // start_phase + finish_execution calls
  std::uint64_t execute_ns = 0;    // execute_vertex calls (module included)
};

/// Runs `phases` phases of the workload single-threaded through the public
/// core::Scheduler with a window of `window` in-flight phases.
ReplayResult replay_scheduler(const df::core::Program& program,
                              const Workload& w, std::uint64_t seed,
                              std::uint64_t phases, std::size_t window);

// --- checkpoint layer ------------------------------------------------------

/// Runs `phases` phases on an engine with `options`, quiescing and
/// snapshotting every `cadence` phases; returns the median snapshot_state
/// time in µs. Only snapshot_state is timed: quiesce waits for the
/// in-flight phases, which is execution, not checkpoint work.
double snapshot_us_p50(const df::core::Program& program,
                       const df::core::EngineOptions& options,
                       const Workload& w, std::uint64_t seed,
                       std::uint64_t phases, std::uint64_t cadence);

// --- calibration -----------------------------------------------------------

/// Times for a fixed busy loop run by 1, 2 and 4 threads at once, each the
/// fastest of a few rounds, so a passing burst of load from other tenants
/// of the machine does not read as a lack of cores.
struct Calibration {
  double t1_s = 0.0;
  double t2_s = 0.0;
  double t4_s = 0.0;
  /// Busy-loop work completed per unit of the 1-thread time at 4 threads:
  /// 4 on four free cores, about 1 on one.
  double effective_cores() const { return t4_s > 0 ? 4.0 * t1_s / t4_s : 0; }
};
Calibration parallelism_probe();

/// The number of CPUs this process may run on.
int allowed_cpus();

}  // namespace perfbench
