#include "workloads.hpp"

#include <stdexcept>

#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/logic.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using df::graph::VertexId;
using df::model::ModuleFactory;

// Fusion graph geometry: 128 sensors in 16 groups of 8. Each sensor feeds a
// moving average, then a change-only threshold detector; each group's
// detectors feed a quorum-2 majority gate, and the 16 gates feed one OR
// alarm — the only sink.
constexpr std::uint32_t kSensors = 128;
constexpr std::uint32_t kGroups = 16;
constexpr std::uint32_t kGroupSize = kSensors / kGroups;
constexpr std::size_t kAverageWindow = 4;
constexpr double kThreshold = 1.5;
// Inputs: each sensor reports N(0, 1) with this probability per phase.
// Phases come in episodes; an anomalous episode lifts one group's readings
// by kAnomalyLift for its first kAnomalyPhases phases.
constexpr double kReportProbability = 0.25;
constexpr std::uint64_t kEpisodePhases = 32;
constexpr std::uint64_t kAnomalyPhases = 6;
constexpr double kAnomalyProbability = 0.7;
constexpr double kAnomalyLift = 10.0;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  df::support::SplitMix64 m(a ^ (b * 0x9e3779b97f4a7c15ULL));
  m.next();
  return m.next();
}

ModuleFactory wrapped(const FactoryWrap& wrap, ModuleFactory f) {
  return wrap ? wrap(std::move(f)) : std::move(f);
}

// Zero-work forwarding graph: sources emit the phase number every phase,
// every interior vertex forwards the sum of its changed inputs (BusyWork
// with a grain of 0 never spins).
df::core::Program forwarding_program(const df::graph::Dag& shape,
                                     std::uint64_t seed,
                                     const FactoryWrap& wrap) {
  df::spec::GraphBuilder b;
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    ModuleFactory f =
        fan_in == 0
            ? df::model::factory_of<df::model::BusyWorkSource>(
                  std::uint64_t{0}, 1.0)
            : df::model::factory_of<df::model::BusyWorkModule>(
                  std::uint64_t{0}, fan_in, 1.0);
    ids.push_back(b.add(shape.name(v), wrapped(wrap, std::move(f))));
  }
  for (const df::graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed);
}

df::core::Program fusion_program(std::uint64_t seed, const FactoryWrap& wrap) {
  df::spec::GraphBuilder b;
  // Vertex ids are dense in add order; sensors are added first, so sensor s
  // has VertexId s (events_for relies on it).
  std::vector<VertexId> sensors;
  for (std::uint32_t s = 0; s < kSensors; ++s) {
    sensors.push_back(b.add(
        "sensor" + std::to_string(s),
        wrapped(wrap,
                df::model::factory_of<df::model::ExternalPassthroughSource>())));
  }
  std::vector<VertexId> detectors;
  for (std::uint32_t s = 0; s < kSensors; ++s) {
    const VertexId avg = b.add(
        "avg" + std::to_string(s),
        wrapped(wrap, df::model::factory_of<df::model::MovingAverageModule>(
                          kAverageWindow)));
    b.connect(sensors[s], 0, avg, 0);
    const VertexId det = b.add(
        "det" + std::to_string(s),
        wrapped(wrap,
                df::model::factory_of<df::model::ThresholdDetector>(kThreshold)));
    b.connect(avg, 0, det, 0);
    detectors.push_back(det);
  }
  std::vector<VertexId> gates;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    const VertexId gate = b.add(
        "gate" + std::to_string(g),
        wrapped(wrap, df::model::factory_of<df::model::MajorityGate>(
                          std::size_t{kGroupSize}, std::size_t{2})));
    for (std::uint32_t i = 0; i < kGroupSize; ++i) {
      b.connect(detectors[g * kGroupSize + i], 0, gate,
                static_cast<df::graph::Port>(i));
    }
    gates.push_back(gate);
  }
  const VertexId alarm = b.add(
      "alarm", wrapped(wrap, df::model::factory_of<df::model::OrGate>(
                                 std::size_t{kGroups})));
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    b.connect(gates[g], 0, alarm, static_cast<df::graph::Port>(g));
  }
  return std::move(b).build(seed);
}

// Repetition sizes keep one closed-loop repetition near 0.2-0.4 s. The
// open-loop rates were chosen from measured run-to-run spread:
//   * fig1_grain0 runs at about a quarter of its closed-loop capacity. At
//     half, a passing slowdown of the host queued phases behind each other
//     and the p95 of whole runs swung from 30 µs to milliseconds.
//   * fusion_stream runs at about half. At a quarter, the workers parked
//     between phases, and whether the second one woke on another core
//     (which the host's load decides) moved the p50 between about 115 and
//     185 µs from run to run.
const std::vector<Workload> kWorkloads = {
    // Pure scheduling: zero-work modules, no events, one engine.
    {.name = "fig1_grain0",
     .executor = Executor::kEngine,
     .graph = Graph::kFigure1,
     .rep_phases = 16384,
     .open_rate = 20000.0},
    // The paper's use case: sparse sensor events and real model code.
    {.name = "fusion_stream",
     .executor = Executor::kEngine,
     .graph = Graph::kFusion,
     .rep_phases = 2048,
     .open_rate = 4000.0},
    // Transport bound by egress batching, encode and socket syscalls.
    {.name = "layered_socket3",
     .executor = Executor::kTransport,
     .graph = Graph::kLayered,
     .rep_phases = 8192,
     .machines = 3,
     .socket = true},
    // Sparse in-process transport with quiesce + snapshot + sorted flush.
    {.name = "fusion_ckpt2",
     .executor = Executor::kTransport,
     .graph = Graph::kFusion,
     .rep_phases = 2048,
     .machines = 2,
     .checkpoint_every = 64},
};

}  // namespace

Workload find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

df::core::Program build_program(const Workload& w, std::uint64_t seed,
                                const FactoryWrap& wrap) {
  switch (w.graph) {
    case Graph::kFigure1: {
      df::support::Rng rng(3);
      return forwarding_program(df::graph::figure1_style_graph(rng), seed,
                                wrap);
    }
    case Graph::kLayered: {
      df::support::Rng rng(29);
      return forwarding_program(df::graph::layered(6, 4, 2, rng), seed, wrap);
    }
    case Graph::kFusion:
      break;
  }
  return fusion_program(seed, wrap);
}

std::vector<df::event::ExternalEvent> events_for(const Workload& w,
                                                 std::uint64_t seed,
                                                 std::uint64_t p) {
  std::vector<df::event::ExternalEvent> events;
  if (w.graph != Graph::kFusion) return events;
  const std::uint64_t episode = (p - 1) / kEpisodePhases;
  df::support::Rng episode_rng(mix(seed ^ 0xa11a5ULL, episode));
  const bool anomalous = episode_rng.next_bernoulli(kAnomalyProbability);
  const std::uint64_t group = episode_rng.next_below(kGroups);
  const bool lifted = anomalous && (p - 1) % kEpisodePhases < kAnomalyPhases;

  df::support::Rng rng(mix(seed, p));
  events.reserve(kSensors / 2);
  for (std::uint32_t s = 0; s < kSensors; ++s) {
    if (!rng.next_bernoulli(kReportProbability)) continue;
    double value = rng.next_normal();
    if (lifted && s / kGroupSize == group) value += kAnomalyLift;
    df::event::ExternalEvent& ev = events.emplace_back();
    ev.vertex = s;
    ev.value = value;
  }
  return events;
}

}  // namespace perfbench
