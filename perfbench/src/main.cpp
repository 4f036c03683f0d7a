// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// what the metric itself needs; --trace 1 runs the per-layer probes
// (probes.hpp) and writes a Chrome trace file. Every pass's sink records are
// checked phase by phase against the sequential reference. The last line
// of standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is non-zero on any sink mismatch or error.
//
// Closed-loop passes repeat a fixed number of phases on fresh executors
// (every repetition sees the same inputs, so counts repeat exactly);
// open-loop passes run in half-second chunks on fresh engines. Each
// repetition or chunk is reduced to a few numbers as it ends, and sink
// digests go into a DigestLog, so the benchmark's own memory does not grow
// with run length. Peak RSS is taken from a child process that runs one
// repetition (and one chunk), so it measures the program alone.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "distrib/transport.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kWindow = 64;
constexpr std::size_t kMinReps = 3;
// Latency samples skip each open-loop chunk's first phases (ramp-up).
constexpr std::uint64_t kWarmupPhases = 256;
constexpr double kChunkSeconds = 0.5;
// A phase started more than this after its due time counts as late.
constexpr double kLateUs = 100.0;
// Spans are kept for the first phases of a traced pass only.
constexpr std::uint64_t kSpanPhases = 256;
constexpr std::uint64_t kReplayPhases = 4096;
constexpr std::uint64_t kSnapshotPhases = 2048;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  double value;
  const char* unit;
};

using Metrics = std::map<std::string, Metric>;

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Metrics diagnostics;  // printed on their own line, not part of the result
};

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m[name] = Metric{value, unit};
}

double per(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double elapsed_s(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

df::core::EngineOptions engine_options() {
  df::core::EngineOptions options;
  options.threads = kEngineThreads;
  options.max_inflight_phases = kWindow;
  return options;
}

df::distrib::TransportOptions transport_options(const Workload& w) {
  df::distrib::TransportOptions options;
  options.machines = w.machines;
  options.channel = w.socket ? df::distrib::ChannelKind::kSocket
                             : df::distrib::ChannelKind::kInProcess;
  options.engine_threads = 1;
  options.max_inflight_phases = kWindow;
  options.checkpoint_every = w.checkpoint_every;
  return options;
}

// --- reference and gate ------------------------------------------------------

struct Reference {
  std::vector<std::uint64_t> digests;
  double phases_per_s = 0.0;
};

Reference run_reference(const df::core::Program& program, const Workload& w,
                        std::uint64_t seed, std::uint64_t phases) {
  df::baseline::SequentialExecutor reference(program);
  df::core::CallbackFeed feed(
      [&w, seed](df::event::PhaseId p) { return events_for(w, seed, p); });
  reference.run(phases, &feed);
  Reference r;
  r.digests = phase_digests(reference.sinks(), phases);
  r.phases_per_s = reference.stats().phases_per_second();
  return r;
}

/// Counts attempted phases and phases whose sink records diverge from the
/// sequential reference.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(const DigestLog& log, const Reference& ref) {
    attempted += log.attempted();
    failed += log.diverging(ref.digests);
  }
};

// --- closed loop -------------------------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double phases_per_s = 0.0;
  df::core::ExecStats stats;
  df::distrib::TransportStats tstats;
  std::uint64_t sink_records = 0;
};

/// One engine closed-loop repetition. Set-up is the graph build and
/// numbering, executor construction and Engine::start(); then phases 1..K
/// are started back to back, each phase's events generated as it starts.
Rep engine_rep(const Workload& w, std::uint64_t seed, const FactoryWrap& wrap,
               SpanLog* log, DigestLog& digests) {
  Rep rep;
  const std::int64_t setup = now_ns();
  const df::core::Program program = build_program(w, seed, wrap);
  df::core::EngineOptions options = engine_options();
  // Traced repetitions sample the in-flight phase count for mean_inflight.
  options.sample_inflight = static_cast<bool>(wrap);
  df::core::Engine engine(program, options);
  engine.start();
  rep.setup_s = elapsed_s(setup);
  const std::uint64_t k = w.rep_phases;
  const std::int64_t start = now_ns();
  for (std::uint64_t p = 1; p <= k; ++p) {
    std::vector<df::event::ExternalEvent> events = events_for(w, seed, p);
    const std::int64_t call = log != nullptr ? now_ns() : 0;
    engine.start_phase(std::move(events));
    if (log != nullptr && log->wants(p)) {
      log->add("start_phase", "core/engine", p, call, now_ns());
    }
  }
  engine.finish();
  rep.phases_per_s = static_cast<double>(k) / elapsed_s(start);
  digests.add(engine.sinks());
  rep.stats = engine.stats();
  rep.sink_records = engine.sinks().size();
  return rep;
}

/// One transport closed-loop repetition over K phases. Set-up is the graph
/// build and numbering plus TransportEngine construction; the transport
/// creates its channels and threads inside run(), so that cost is part of
/// the measured phases. With a ledger, every channel is wrapped in a probe.
Rep transport_rep(const Workload& w, std::uint64_t seed,
                  const FactoryWrap& wrap, ChannelLedger* ledger,
                  DigestLog& digests) {
  Rep rep;
  const std::int64_t setup = now_ns();
  const df::core::Program program = build_program(w, seed, wrap);
  df::distrib::TransportOptions options = transport_options(w);
  if (ledger != nullptr) {
    options.channel_wrapper = [ledger](std::unique_ptr<df::distrib::Channel> c,
                                       std::size_t, std::size_t) {
      return probe_channel(std::move(c), *ledger);
    };
  }
  df::distrib::TransportEngine transport(program, options);
  rep.setup_s = elapsed_s(setup);
  df::core::CallbackFeed feed(
      [&w, seed](df::event::PhaseId p) { return events_for(w, seed, p); });
  const std::int64_t start = now_ns();
  transport.run(w.rep_phases, &feed);
  rep.phases_per_s = static_cast<double>(w.rep_phases) / elapsed_s(start);
  digests.add(transport.sinks());
  rep.stats = transport.stats();
  rep.tstats = transport.transport_stats();
  rep.sink_records = transport.sinks().size();
  return rep;
}

/// Repeats `one_rep` until `budget_s` has passed (at least kMinReps times).
template <typename F>
std::vector<Rep> repeat_for(double budget_s, F&& one_rep) {
  std::vector<Rep> reps;
  const std::int64_t start = now_ns();
  while (reps.size() < kMinReps || elapsed_s(start) < budget_s) {
    reps.push_back(one_rep());
  }
  return reps;
}

std::vector<double> rates(const std::vector<Rep>& reps) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(r.phases_per_s);
  return out;
}

/// The closed-loop throughput of a run: the median of its repetitions'
/// rates.
double closed_loop_rate(const std::vector<Rep>& reps) {
  return median(rates(reps));
}

/// Per-phase service time of each repetition (its wall time over its phase
/// count), in µs: the transport workloads' latency metrics, which are
/// inverse throughput, not per-phase latency. TransportEngine::run pulls
/// its whole feed before phase 1, so no transport phase has an arrival
/// time an open loop could pace.
std::vector<double> service_time_us(const std::vector<Rep>& reps) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(1e6 / r.phases_per_s);
  return out;
}

double median_setup_s(const std::vector<Rep>& reps) {
  std::vector<double> samples;
  for (const Rep& r : reps) samples.push_back(r.setup_s);
  return median(samples);
}

// --- open loop ---------------------------------------------------------------

/// One open-loop chunk, reduced to what the metrics need.
struct Chunk {
  double p50_us = 0.0;  // due -> retire latency, after the warm-up phases
  double p95_us = 0.0;
  double p99_us = 0.0;
  double start_phase_ns_p50 = 0.0;
};

struct OpenLoop {
  explicit OpenLoop(std::uint64_t chunk_phases)
      : chunk_phases(chunk_phases), digests(chunk_phases) {}
  std::uint64_t chunk_phases;
  std::vector<Chunk> chunks;
  DigestLog digests;
  std::uint64_t phases = 0;
  std::uint64_t blocked = 0;
  std::uint64_t late = 0;  // phases started more than kLateUs after due
  double max_late_us = 0.0;

  /// Latency is taken per chunk (each a fresh engine), then the median
  /// across chunks.
  double p50_us() const { return across_chunks(&Chunk::p50_us); }
  double p95_us() const { return across_chunks(&Chunk::p95_us); }
  double p99_us() const { return across_chunks(&Chunk::p99_us); }
  double start_phase_ns() const {
    return across_chunks(&Chunk::start_phase_ns_p50);
  }

 private:
  double across_chunks(double Chunk::*field) const {
    std::vector<double> values;
    for (const Chunk& c : chunks) values.push_back(c.*field);
    return median(values);
  }
};

/// Sleeps while the deadline is far (timer slack is tens of µs), then
/// yields, so workers sharing the CPU keep running while the generator
/// waits.
void wait_until(std::int64_t deadline_ns) {
  constexpr std::int64_t kSleepMarginNs = 150'000;
  for (std::int64_t now = now_ns(); now < deadline_ns; now = now_ns()) {
    if (deadline_ns - now > kSleepMarginNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(deadline_ns - now - kSleepMarginNs));
    } else {
      std::this_thread::yield();
    }
  }
}

/// One open-loop chunk on a fresh engine: phases due at a fixed rate,
/// started on the caller's thread. A phase's latency runs from its due time
/// to the first on_phase_complete callback that covers it.
void open_loop_chunk(const df::core::Program& program, const Workload& w,
                     std::uint64_t seed, OpenLoop& out, SpanLog* log) {
  const std::uint64_t n = out.chunk_phases;
  std::unique_ptr<std::atomic<std::int64_t>[]> retired(
      new std::atomic<std::int64_t>[n + 1]);
  for (std::uint64_t p = 0; p <= n; ++p) retired[p].store(0);
  std::atomic<std::uint64_t> covered{0};

  df::core::EngineOptions options = engine_options();
  options.on_phase_complete = [&retired, &covered](df::event::PhaseId c) {
    const std::int64_t now = now_ns();
    std::uint64_t seen = covered.load(std::memory_order_relaxed);
    while (seen < c) {
      if (covered.compare_exchange_weak(seen, c, std::memory_order_relaxed)) {
        for (std::uint64_t q = seen + 1; q <= c; ++q) {
          retired[q].store(now, std::memory_order_relaxed);
        }
        break;
      }
    }
  };
  df::core::Engine engine(program, options);
  engine.start();
  const double period_ns = 1e9 / w.open_rate;
  const std::int64_t origin = now_ns() + 1'000'000;
  std::vector<std::int64_t> due(n + 1, 0);
  std::vector<double> start_phase_ns(n);
  const bool first_chunk = out.chunks.empty();
  for (std::uint64_t p = 1; p <= n; ++p) {
    due[p] = origin + static_cast<std::int64_t>(
                          period_ns * static_cast<double>(p - 1));
    std::vector<df::event::ExternalEvent> events = events_for(w, seed, p);
    wait_until(due[p]);
    const bool blocks = p - 1 - engine.completed_phases() >= kWindow;
    const std::int64_t call = now_ns();
    engine.start_phase(std::move(events));
    const std::int64_t done = now_ns();
    const double late_us = static_cast<double>(call - due[p]) / 1e3;
    if (late_us > kLateUs) ++out.late;
    out.max_late_us = std::max(out.max_late_us, late_us);
    start_phase_ns[p - 1] = static_cast<double>(done - call);
    if (blocks) ++out.blocked;
    if (log != nullptr && first_chunk && log->wants(p)) {
      log->add("start_phase", "core/engine", p, call, done);
    }
  }
  engine.finish();
  std::vector<double> latency;
  for (std::uint64_t p = kWarmupPhases + 1; p <= n; ++p) {
    latency.push_back(static_cast<double>(retired[p].load() - due[p]) / 1e3);
  }
  out.chunks.push_back(Chunk{percentile(latency, 0.50),
                             percentile(latency, 0.95),
                             percentile(latency, 0.99),
                             median(start_phase_ns)});
  out.digests.add(engine.sinks());
  out.phases += n;
}

/// Open-loop chunks until `budget_s` has passed (at least two).
OpenLoop open_loop(const df::core::Program& program, const Workload& w,
                   std::uint64_t seed, double budget_s, SpanLog* log) {
  OpenLoop out(static_cast<std::uint64_t>(w.open_rate * kChunkSeconds));
  const std::int64_t start = now_ns();
  while (out.chunks.size() < 2 || elapsed_s(start) < budget_s) {
    open_loop_chunk(program, w, seed, out, log);
  }
  return out;
}

// --- per-layer metrics -------------------------------------------------------

/// Per-layer metrics both executors share: the scheduler replay, snapshot
/// timing, the baseline, and the counts of the first traced repetition.
void layer_metrics(Metrics& m, const Workload& w, std::uint64_t seed,
                   const Rep& traced, const ModelCounters& model,
                   double untraced_rate, double traced_rate,
                   const Reference& ref) {
  const double k = static_cast<double>(w.rep_phases);
  const df::core::ExecStats& s = traced.stats;
  const double pairs = static_cast<double>(s.executed_pairs);

  ModelCounters replay_model;
  const df::core::Program replay_program =
      build_program(w, seed, model_probe(replay_model, nullptr));
  const ReplayResult replay = replay_scheduler(
      replay_program, w, seed, std::min(kReplayPhases, w.rep_phases), kWindow);
  const double replay_pairs = static_cast<double>(replay.pairs);
  put(m, "core.scheduler.ns_per_pair",
      per(static_cast<double>(replay.scheduler_ns), replay_pairs), "ns");
  put(m, "core.executor.ns_per_pair",
      per(static_cast<double>(replay.execute_ns) -
              static_cast<double>(replay_model.ns.load()),
          replay_pairs),
      "ns");

  const double pairs_per_phase = pairs / k;
  put(m, "core.engine.overhead_ns_per_pair",
      per(1e9 / untraced_rate - 1e9 / ref.phases_per_s, pairs_per_phase),
      "ns");
  put(m, "core.engine.pairs_per_phase", pairs_per_phase, "count");
  put(m, "core.engine.msgs_per_phase",
      static_cast<double>(s.messages_delivered) / k, "count");
  put(m, "core.engine.bookkeeping_ns_per_pair",
      per(static_cast<double>(s.bookkeeping_ns), pairs), "ns");
  put(m, "core.engine.compute_ns_per_pair",
      per(static_cast<double>(s.compute_ns), pairs), "ns");
  put(m, "core.engine.mean_inflight", s.mean_inflight_phases, "phases");

  put(m, "model.calls_per_phase",
      static_cast<double>(model.calls.load()) / k, "count");
  put(m, "model.ns_per_call",
      per(static_cast<double>(model.ns.load()),
          static_cast<double>(model.calls.load())),
      "ns");
  put(m, "core.sink_store.records_per_phase",
      static_cast<double>(traced.sink_records) / k, "count");

  const std::uint64_t cadence =
      w.checkpoint_every != 0 ? w.checkpoint_every : kWindow;
  put(m, "core.checkpoint.snapshot_us",
      snapshot_us_p50(build_program(w, seed), engine_options(), w, seed,
                      kSnapshotPhases, cadence),
      "us");

  put(m, "baseline.seq_phases_per_s", ref.phases_per_s, "phases/s");
  put(m, "engine.speedup_vs_seq", untraced_rate / ref.phases_per_s, "ratio");
  put(m, "trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
}

// --- runs ----------------------------------------------------------------------

Outcome run_engine(const Workload& w, const Args& a, SpanLog* log) {
  Outcome out;
  Gate gate;
  Metrics& m = out.metrics;
  const df::core::Program program = build_program(w, a.seed);
  DigestLog closed(w.rep_phases);
  if (!a.trace) {
    const double rss = peak_rss_mib([&] {
      DigestLog scratch(w.rep_phases);
      engine_rep(w, a.seed, nullptr, nullptr, scratch);
      OpenLoop chunk(static_cast<std::uint64_t>(w.open_rate * kChunkSeconds));
      open_loop_chunk(program, w, a.seed, chunk, nullptr);
    });
    // The open loop gets the larger share: its percentiles vary more from
    // run to run than the closed-loop rate does.
    const std::vector<Rep> reps = repeat_for(a.seconds * 0.3, [&] {
      return engine_rep(w, a.seed, nullptr, nullptr, closed);
    });
    const OpenLoop open =
        open_loop(program, w, a.seed, a.seconds * 0.7, nullptr);
    const Reference ref = run_reference(
        program, w, a.seed, std::max(w.rep_phases, open.chunk_phases));
    gate.check(closed, ref);
    gate.check(open.digests, ref);

    put(m, "phases_per_s", closed_loop_rate(reps), "phases/s");
    put(m, "latency_p50_us", open.p50_us(), "us");
    put(m, "latency_p95_us", open.p95_us(), "us");
    put(m, "setup_s", median_setup_s(reps), "s");
    put(m, "peak_rss_mb", rss, "MiB");
    put(out.diagnostics, "latency_p99_us", open.p99_us(), "us");
    put(out.diagnostics, "open_loop_chunks",
        static_cast<double>(open.chunks.size()), "count");
    put(out.diagnostics, "closed_loop_reps", static_cast<double>(reps.size()),
        "count");
    put(out.diagnostics, "baseline.seq_phases_per_s", ref.phases_per_s,
        "phases/s");
  } else {
    const std::vector<Rep> untraced = repeat_for(a.seconds * 0.3, [&] {
      return engine_rep(w, a.seed, nullptr, nullptr, closed);
    });
    ModelCounters model;
    std::vector<Rep> traced;
    traced.push_back(
        engine_rep(w, a.seed, model_probe(model, log), log, closed));
    for (Rep& r : repeat_for(a.seconds * 0.2, [&] {
           ModelCounters scratch;
           return engine_rep(w, a.seed, model_probe(scratch, nullptr),
                             nullptr, closed);
         })) {
      traced.push_back(std::move(r));
    }
    const OpenLoop open = open_loop(program, w, a.seed, a.seconds * 0.3, log);
    const Reference ref = run_reference(
        program, w, a.seed, std::max(w.rep_phases, open.chunk_phases));
    gate.check(closed, ref);
    gate.check(open.digests, ref);

    layer_metrics(m, w, a.seed, traced.front(), model,
                  closed_loop_rate(untraced), closed_loop_rate(traced), ref);
    put(m, "core.engine.start_phase_ns", open.start_phase_ns(), "ns");
    put(m, "core.engine.start_phase_blocked_frac",
        static_cast<double>(open.blocked) / static_cast<double>(open.phases),
        "ratio");
    put(m, "loadgen.late_frac",
        static_cast<double>(open.late) / static_cast<double>(open.phases),
        "ratio");
    put(m, "loadgen.max_late_us", open.max_late_us, "us");
    // No transport in this workload: its layers do no work.
    for (const char* name :
         {"distrib.channel.sends_per_phase", "distrib.wire.frames_per_phase",
          "distrib.wire.deliveries_per_batch",
          "distrib.transport.remote_msgs_per_phase",
          "distrib.transport.duplicates_dropped", "core.checkpoint.count"}) {
      put(m, name, 0.0, "count");
    }
    put(m, "distrib.wire.bytes_per_phase", 0.0, "bytes");
    put(m, "distrib.channel.send_ns_p50", 0.0, "ns");
    put(m, "distrib.channel.recv_wait_ns_per_frame", 0.0, "ns");
    put(m, "core.checkpoint.bytes_per_checkpoint", 0.0, "bytes");
  }
  out.attempted = gate.attempted;
  out.failed = gate.failed;
  return out;
}

Outcome run_transport(const Workload& w, const Args& a, SpanLog* log) {
  Outcome out;
  Gate gate;
  Metrics& m = out.metrics;
  const df::core::Program program = build_program(w, a.seed);
  const std::uint64_t k = w.rep_phases;
  DigestLog closed(k);
  if (!a.trace) {
    const double rss = peak_rss_mib([&] {
      DigestLog scratch(k);
      transport_rep(w, a.seed, nullptr, nullptr, scratch);
    });
    const std::vector<Rep> reps = repeat_for(a.seconds, [&] {
      return transport_rep(w, a.seed, nullptr, nullptr, closed);
    });
    const Reference ref = run_reference(program, w, a.seed, k);
    gate.check(closed, ref);

    const std::vector<double> service_us = service_time_us(reps);
    put(m, "phases_per_s", closed_loop_rate(reps), "phases/s");
    put(m, "latency_p50_us", percentile(service_us, 0.50), "us");
    put(m, "latency_p95_us", percentile(service_us, 0.95), "us");
    put(m, "setup_s", median_setup_s(reps), "s");
    put(m, "peak_rss_mb", rss, "MiB");
    put(out.diagnostics, "closed_loop_reps", static_cast<double>(reps.size()),
        "count");
    put(out.diagnostics, "baseline.seq_phases_per_s", ref.phases_per_s,
        "phases/s");
  } else {
    const std::vector<Rep> untraced = repeat_for(a.seconds * 0.4, [&] {
      return transport_rep(w, a.seed, nullptr, nullptr, closed);
    });
    ModelCounters model;
    ChannelLedger ledger(log);
    std::vector<Rep> traced;
    traced.push_back(
        transport_rep(w, a.seed, model_probe(model, log), &ledger, closed));
    for (Rep& r : repeat_for(a.seconds * 0.3, [&] {
           ModelCounters scratch;
           ChannelLedger scratch_ledger(nullptr);
           return transport_rep(w, a.seed, model_probe(scratch, nullptr),
                                &scratch_ledger, closed);
         })) {
      traced.push_back(std::move(r));
    }
    const Reference ref = run_reference(program, w, a.seed, k);
    gate.check(closed, ref);

    layer_metrics(m, w, a.seed, traced.front(), model,
                  closed_loop_rate(untraced), closed_loop_rate(traced), ref);
    const double kd = static_cast<double>(k);
    const df::distrib::TransportStats& t = traced.front().tstats;
    put(m, "distrib.channel.sends_per_phase",
        static_cast<double>(ledger.sends()) / kd, "count");
    put(m, "distrib.channel.send_ns_p50", percentile(ledger.send_ns(), 0.5),
        "ns");
    put(m, "distrib.channel.recv_wait_ns_per_frame",
        per(static_cast<double>(ledger.recv_wait_ns()),
            static_cast<double>(ledger.frames_received())),
        "ns");
    put(m, "distrib.wire.frames_per_phase",
        static_cast<double>(t.frames_sent) / kd, "count");
    put(m, "distrib.wire.bytes_per_phase",
        static_cast<double>(t.bytes_sent) / kd, "bytes");
    put(m, "distrib.wire.deliveries_per_batch",
        per(static_cast<double>(t.batched_deliveries),
            static_cast<double>(t.batch_frames_sent)),
        "count");
    put(m, "distrib.transport.remote_msgs_per_phase",
        static_cast<double>(t.remote_messages) / kd, "count");
    put(m, "distrib.transport.duplicates_dropped",
        static_cast<double>(t.duplicates_dropped), "count");
    put(m, "core.checkpoint.count", static_cast<double>(t.checkpoints_taken),
        "count");
    put(m, "core.checkpoint.bytes_per_checkpoint",
        per(static_cast<double>(t.checkpoint_bytes),
            static_cast<double>(t.checkpoints_taken)),
        "bytes");
    // The transport's coordinators start phases themselves: there is no
    // caller-side start_phase and no open-loop generator to time.
    put(m, "core.engine.start_phase_ns", 0.0, "ns");
    put(m, "core.engine.start_phase_blocked_frac", 0.0, "ratio");
    put(m, "loadgen.late_frac", 0.0, "ratio");
    put(m, "loadgen.max_late_us", 0.0, "us");
  }
  out.attempted = gate.attempted;
  out.failed = gate.failed;
  return out;
}

// --- output ------------------------------------------------------------------

void print_metrics_object(const Metrics& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value, metric.unit);
    first = false;
  }
  std::printf("}");
}

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

int run(const Args& a) {
  const Workload w = find_workload(a.workload);
  // The calibration records what parallelism the host delivers, so no
  // figure is read as multicore scaling on a host that runs about one
  // thread at a time. The affinity is left as the caller set it.
  const Calibration cal = parallelism_probe();
  std::printf(
      "{\"calibration\": {\"busy_loop_s\": [%.6f, %.6f, %.6f], "
      "\"effective_cores\": %.3f, \"hw_concurrency\": %u, "
      "\"allowed_cpus\": %d}}\n",
      cal.t1_s, cal.t2_s, cal.t4_s, cal.effective_cores(),
      std::thread::hardware_concurrency(), allowed_cpus());
  std::fflush(stdout);

  SpanLog log(kSpanPhases);
  SpanLog* span_log = a.trace ? &log : nullptr;
  Outcome out = w.executor == Executor::kEngine ? run_engine(w, a, span_log)
                                                : run_transport(w, a, span_log);
  if (a.trace) {
    put(out.metrics, "calibration.effective_cores", cal.effective_cores(),
        "cores");
    put(out.metrics, "failed_frac",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "ratio");
    if (!a.trace_out.empty()) log.write(a.trace_out);
    for (const auto& [name, metric] : out.metrics) {
      std::printf("  %-42s %16.4f %s\n", name.c_str(), metric.value,
                  metric.unit);
    }
  }
  std::printf("{\"diagnostics\": ");
  print_metrics_object(out.diagnostics);
  std::printf("}\n");
  if (out.failed != 0) {
    std::fprintf(stderr,
                 "SINK MISMATCH: %llu of %llu phases diverge from the "
                 "sequential reference\n",
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted));
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": ",
      out.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed));
  print_metrics_object(out.metrics);
  std::printf("}\n");
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool ok = false;
  try {
    ok = perfbench::parse_args(argc, argv, args);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
