// The four benchmark workloads: their graphs, engine settings and seeded
// per-phase inputs.
//
// Every input is a pure function of (seed, phase), so any pass — the
// closed loop, the open loop, the transport's feed and the sequential
// reference — regenerates exactly the events it needs when a phase starts,
// and the benchmark's own memory does not grow with run length.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "event/message.hpp"
#include "model/module.hpp"

namespace perfbench {

enum class Executor { kEngine, kTransport };
enum class Graph { kFigure1, kLayered, kFusion };

struct Workload {
  std::string name;
  Executor executor = Executor::kEngine;
  Graph graph = Graph::kFigure1;
  /// Phases per closed-loop repetition (each repetition runs on a fresh
  /// executor, so every repetition sees the same inputs).
  std::uint64_t rep_phases = 0;
  /// Open-loop arrival rate in phases/s (engine workloads only).
  double open_rate = 0.0;
  /// Transport settings (transport workloads only).
  std::size_t machines = 0;
  bool socket = false;
  std::size_t checkpoint_every = 0;
};

/// Returns the named workload; throws std::invalid_argument on an unknown
/// name.
Workload find_workload(const std::string& name);

/// Wraps every module factory of a program (the per-layer model decorator).
using FactoryWrap =
    std::function<df::model::ModuleFactory(df::model::ModuleFactory)>;

/// Builds the workload's program: graph, numbering and module factories.
/// `seed` seeds the modules' rng streams; `wrap` (optional) decorates every
/// factory.
df::core::Program build_program(const Workload& w, std::uint64_t seed,
                                const FactoryWrap& wrap = nullptr);

/// Events for phase `p` (1-based) of the workload under `seed`. Only the
/// fusion graph takes external events; the others run off phase signals.
std::vector<df::event::ExternalEvent> events_for(const Workload& w,
                                                 std::uint64_t seed,
                                                 std::uint64_t p);

}  // namespace perfbench
