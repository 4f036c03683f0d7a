#include "probes.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/scheduler.hpp"
#include "distrib/wire.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
}

template <typename T>
void fnv_value(std::uint64_t& h, const T& v) {
  fnv(h, &v, sizeof v);
}

void hash_record(std::uint64_t& h, const df::core::SinkRecord& r) {
  fnv_value(h, r.vertex);
  fnv_value(h, r.port);
  const auto kind = static_cast<std::uint8_t>(r.value.kind());
  fnv_value(h, kind);
  switch (r.value.kind()) {
    case df::event::Value::Kind::kEmpty:
      break;
    case df::event::Value::Kind::kBool:
      fnv_value(h, static_cast<std::uint8_t>(r.value.as_bool()));
      break;
    case df::event::Value::Kind::kInt:
      fnv_value(h, r.value.as_int());
      break;
    case df::event::Value::Kind::kDouble:
      fnv_value(h, r.value.as_double());
      break;
    case df::event::Value::Kind::kString:
      fnv(h, r.value.as_string().data(), r.value.as_string().size());
      break;
    case df::event::Value::Kind::kVector:
      for (const double d : r.value.as_vector()) fnv_value(h, d);
      break;
  }
}

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

class TimedModule final : public df::model::Module {
 public:
  TimedModule(std::unique_ptr<df::model::Module> inner,
              ModelCounters& counters, SpanLog* log)
      : inner_(std::move(inner)), counters_(counters), log_(log) {}

  void on_phase(df::model::PhaseContext& ctx) override {
    const std::int64_t start = now_ns();
    inner_->on_phase(ctx);
    const std::int64_t end = now_ns();
    counters_.calls.fetch_add(1, std::memory_order_relaxed);
    counters_.ns.fetch_add(static_cast<std::uint64_t>(end - start),
                           std::memory_order_relaxed);
    if (log_ != nullptr && log_->wants(ctx.phase())) {
      log_->add("on_phase", "model", ctx.phase(), start, end);
    }
  }

  void persist_state(df::support::StateArchive& ar) override {
    inner_->persist_state(ar);
  }

 private:
  std::unique_ptr<df::model::Module> inner_;
  ModelCounters& counters_;
  SpanLog* log_;
};

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0
                 : std::min(values.size() - 1,
                            static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib(const std::function<void()>& pass) {
  std::fflush(nullptr);  // the child must not repeat buffered output
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    try {
      pass();
    } catch (...) {
      _exit(1);
    }
    _exit(0);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the peak-RSS pass failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::uint64_t> phase_digests(const df::core::SinkStore& sinks,
                                         std::uint64_t phases) {
  std::vector<std::uint64_t> digest(phases + 1, kFnvBasis);
  for (const df::core::SinkRecord& r : sinks.canonical()) {
    const std::uint64_t p = r.phase >= 1 && r.phase <= phases ? r.phase
                                                              : phases;
    if (p != r.phase) fnv_value(digest[p], r.phase);  // out of range
    hash_record(digest[p], r);
  }
  return digest;
}

void DigestLog::add(const df::core::SinkStore& sinks) {
  std::vector<std::uint64_t> digests = phase_digests(sinks, phases_);
  if (passes_++ == 0) {
    first_ = std::move(digests);
    return;
  }
  for (std::uint64_t p = 1; p <= phases_; ++p) {
    if (digests[p] != first_[p]) deviations_.push_back({p, digests[p]});
  }
}

std::uint64_t DigestLog::diverging(
    const std::vector<std::uint64_t>& reference) const {
  if (passes_ == 0) return 0;
  if (reference.size() <= phases_) return attempted();
  std::uint64_t first_diverging = 0;
  for (std::uint64_t p = 1; p <= phases_; ++p) {
    if (first_[p] != reference[p]) ++first_diverging;
  }
  // Every pass diverges where the first does, except where a deviation
  // moves it onto (or off) the reference.
  std::uint64_t diverging = passes_ * first_diverging;
  for (const Deviation& d : deviations_) {
    diverging -= first_[d.phase] != reference[d.phase] ? 1 : 0;
    diverging += d.digest != reference[d.phase] ? 1 : 0;
  }
  return diverging;
}

// --- SpanLog ----------------------------------------------------------------

void SpanLog::add(const char* name, const char* layer, std::uint64_t phase,
                  std::int64_t start_ns, std::int64_t end_ns) {
  const std::uint32_t tid = thread_ordinal();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, layer, phase, start_ns, end_ns, tid});
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"phase\":%llu}}",
                  first ? "" : ",\n", s.name, s.layer, s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.phase));
    out << buf;
    first = false;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

// --- model probe -------------------------------------------------------------

FactoryWrap model_probe(ModelCounters& counters, SpanLog* log) {
  return [&counters, log](
             df::model::ModuleFactory inner) -> df::model::ModuleFactory {
    return [inner = std::move(inner), &counters, log]() {
      return std::unique_ptr<df::model::Module>(
          std::make_unique<TimedModule>(inner(), counters, log));
    };
  };
}

// --- channel probe -----------------------------------------------------------

namespace {

/// The frame's phase, or 0 when the header does not decode.
std::uint64_t frame_phase(std::span<const std::uint8_t> frame) {
  df::distrib::wire::FrameHeader header;
  return df::distrib::wire::decode_header(frame, header) ==
                 df::distrib::wire::DecodeStatus::kOk
             ? header.phase
             : 0;
}

class ChannelProbe final : public df::distrib::Channel {
 public:
  ChannelProbe(std::unique_ptr<df::distrib::Channel> inner,
               ChannelLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  void send(std::span<const std::uint8_t> frame) override {
    const std::int64_t start = now_ns();
    inner_->send(frame);
    ledger_.on_send(frame, start, now_ns());
  }
  void close_send() override { inner_->close_send(); }
  bool recv(std::vector<std::uint8_t>& frame) override {
    const std::int64_t start = now_ns();
    const bool ok = inner_->recv(frame);
    if (ok) ledger_.on_recv(frame, start, now_ns());
    return ok;
  }
  void close_recv() override { inner_->close_recv(); }

 private:
  std::unique_ptr<df::distrib::Channel> inner_;
  ChannelLedger& ledger_;
};

}  // namespace

void ChannelLedger::on_send(std::span<const std::uint8_t> frame,
                            std::int64_t start, std::int64_t end) {
  sends_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    send_ns_.push_back(static_cast<double>(end - start));
  }
  const std::uint64_t phase = frame_phase(frame);
  if (log_ != nullptr && phase != 0 && log_->wants(phase)) {
    log_->add("channel.send", "distrib/channel", phase, start, end);
  }
}

void ChannelLedger::on_recv(std::span<const std::uint8_t> frame,
                            std::int64_t wait_start, std::int64_t end) {
  recvs_.fetch_add(1, std::memory_order_relaxed);
  recv_wait_ns_.fetch_add(static_cast<std::uint64_t>(end - wait_start),
                          std::memory_order_relaxed);
  const std::uint64_t phase = frame_phase(frame);
  if (log_ != nullptr && phase != 0 && log_->wants(phase)) {
    log_->add("channel.recv", "distrib/channel", phase, wait_start, end);
  }
}

std::vector<double> ChannelLedger::send_ns() const {
  std::lock_guard<std::mutex> lock(send_mutex_);
  return send_ns_;
}

std::unique_ptr<df::distrib::Channel> probe_channel(
    std::unique_ptr<df::distrib::Channel> inner, ChannelLedger& ledger) {
  return std::make_unique<ChannelProbe>(std::move(inner), ledger);
}

// --- scheduler replay ----------------------------------------------------------

ReplayResult replay_scheduler(const df::core::Program& program,
                              const Workload& w, std::uint64_t seed,
                              std::uint64_t phases, std::size_t window) {
  using df::core::Scheduler;
  df::core::ProgramInstance instance(program);
  Scheduler scheduler(instance.m());
  std::vector<df::event::InputBundle> bundles(instance.source_count());
  std::deque<Scheduler::ReadyPair> queue;
  std::vector<Scheduler::ReadyPair> ready;
  ReplayResult result;
  std::uint64_t p = 0;
  const auto drain_ready = [&] {
    for (Scheduler::ReadyPair& r : ready) queue.push_back(std::move(r));
    ready.clear();
  };
  while (true) {
    if (p < phases && scheduler.active_phase_count() < window) {
      ++p;
      for (df::event::InputBundle& b : bundles) b.clear();
      for (df::event::ExternalEvent& ev : events_for(w, seed, p)) {
        const std::uint32_t index = instance.internal_index(ev.vertex);
        bundles[index - 1].push_back(
            df::event::Message{ev.port, std::move(ev.value)});
      }
      const std::int64_t start = now_ns();
      scheduler.start_phase(p, bundles, ready);
      result.scheduler_ns += static_cast<std::uint64_t>(now_ns() - start);
      drain_ready();
      continue;
    }
    if (queue.empty()) break;
    Scheduler::ReadyPair pair = std::move(queue.front());
    queue.pop_front();
    std::int64_t start = now_ns();
    df::core::ExecutionResult out = df::core::execute_vertex(
        instance, pair.vertex, pair.phase, pair.bundle);
    std::int64_t end = now_ns();
    result.execute_ns += static_cast<std::uint64_t>(end - start);
    start = end;
    scheduler.finish_execution(pair.vertex, pair.phase, out.deliveries,
                               std::move(pair.bundle), ready);
    result.scheduler_ns += static_cast<std::uint64_t>(now_ns() - start);
    ++result.pairs;
    drain_ready();
  }
  if (p != phases || !scheduler.all_started_phases_complete()) {
    throw std::runtime_error("scheduler replay stalled before its last phase");
  }
  return result;
}

// --- checkpoint timing ---------------------------------------------------------

double snapshot_us_p50(const df::core::Program& program,
                       const df::core::EngineOptions& options,
                       const Workload& w, std::uint64_t seed,
                       std::uint64_t phases, std::uint64_t cadence) {
  df::core::Engine engine(program, options);
  engine.start();
  std::vector<double> us;
  for (std::uint64_t p = 1; p <= phases; ++p) {
    engine.start_phase(events_for(w, seed, p));
    if (p % cadence == 0) {
      engine.quiesce();
      const std::int64_t start = now_ns();
      const std::vector<std::uint8_t> image = engine.snapshot_state();
      us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
  }
  engine.finish();
  return median(us);
}

// --- calibration ---------------------------------------------------------------

namespace {

std::uint64_t busy_loop(std::uint64_t iterations, std::uint64_t salt) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ salt;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double timed_threads(std::size_t threads, std::uint64_t iterations) {
  std::atomic<std::uint64_t> sink{0};
  const std::int64_t start = now_ns();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, iterations, t] {
      sink.fetch_xor(busy_loop(iterations, t), std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace

Calibration parallelism_probe() {
  constexpr std::uint64_t kIterations = 20'000'000;
  constexpr int kRounds = 4;
  Calibration c;
  for (int round = 0; round < kRounds; ++round) {
    const double t1 = timed_threads(1, kIterations);
    const double t2 = timed_threads(2, kIterations);
    const double t4 = timed_threads(4, kIterations);
    c.t1_s = round == 0 ? t1 : std::min(c.t1_s, t1);
    c.t2_s = round == 0 ? t2 : std::min(c.t2_s, t2);
    c.t4_s = round == 0 ? t4 : std::min(c.t4_s, t4);
  }
  return c;
}

int allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  return CPU_COUNT(&allowed);
}

}  // namespace perfbench
