// Declarative scenario files: one self-contained description of a
// dissemination experiment — topology, channel, faults, node schedules,
// scheme geometry and trial parameters — in a dependency-free key=value
// section format (scenarios/*.scn, see docs/scenarios.md):
//
//   [scenario]
//   name = geo-sparse
//   scheme = lr-seluge
//   k = 8
//   n = 12
//   ...
//   [topology]
//   kind = geometric
//   nodes = 40
//   ...
//
// Parsing is strict (unknown sections/keys, malformed values and
// out-of-range parameters are errors naming the offending line), and every
// scenario re-serializes to a canonical form that parses back to the
// identical scenario — the golden-file contract the scenario tests pin.
//
// A parsed Scenario compiles into a core::ExperimentConfig
// (scenario_config), so anything that runs experiments — bench_campaign,
// the fig/table harnesses via --scenario=, tests, examples — can swap its
// hard-coded workload for a file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "sim/scenario/generators.h"

namespace lrs::scenario {

/// One scheduled node event (late join / early sleep), times in SimTime.
struct NodeEvent {
  NodeId node = 0;
  sim::SimTime at = 0;
};

/// A fully validated experiment description.
struct Scenario {
  // [scenario]
  std::string name;
  std::string description;
  core::Scheme scheme = core::Scheme::kLrSeluge;
  std::size_t image_size = 20 * 1024;
  std::size_t payload_size = 64;
  std::size_t k = 32;
  std::size_t n = 48;
  std::size_t k0 = 8;
  std::size_t n0 = 16;
  std::size_t delta = 0;
  erasure::CodecKind codec = erasure::CodecKind::kReedSolomon;
  std::uint8_t puzzle_strength = 8;
  bool greedy_scheduler = true;

  // [topology]
  sim::TopologySpec topo{};

  // [channel]
  sim::ChannelSpec channel{};

  // [faults] — the PR-3 fault plan plus node schedules layered on its
  // crash/reboot hooks: a late joiner is down from t=0 until its join time
  // (volatile state fresh at join), an early sleeper powers off at its
  // sleep time and never returns.
  sim::FaultPlan faults{};
  std::vector<NodeEvent> late_joiners;
  std::vector<NodeEvent> early_sleepers;

  // [trial]
  std::size_t repeats = 3;
  std::uint64_t seed = 1;
  double time_limit_s = 4.0 * 3600.0;
  bool check_invariants = true;
  /// Island-sharded execution (core/experiment.cc): each radio-connected
  /// component gets its own base station (the island's smallest id) and is
  /// simulated independently, optionally on LRS_JOBS workers. Deterministic:
  /// serial and parallel runs produce byte-identical results. Incompatible
  /// with [faults] (fault plans are whole-network schedules).
  bool islands = false;
  /// Receivers expected to finish (campaign pass criterion). Default — all
  /// receivers minus the early sleepers, which by construction cannot.
  /// Under `islands` every island contributes its own base, so a cells
  /// topology expects node_count - rows*cols completions.
  std::size_t expected_complete() const;
};

/// Parses scenario text. On failure returns nullopt and, when `error` is
/// non-null, a message naming the offending line. The result is fully
/// validated (ranges, cross-field consistency, node ids inside the
/// topology).
std::optional<Scenario> parse_scenario(const std::string& text,
                                       std::string* error);

/// Reads and parses a .scn file; errors are prefixed with the path.
std::optional<Scenario> load_scenario_file(const std::string& path,
                                           std::string* error);

/// Canonical serialization: fixed section/key order, minimal keys (only
/// those the selected topology kind / channel model / fault plan read),
/// shortest round-tripping number formatting. For every valid scenario s:
/// parse_scenario(canonical_scenario(s)) reproduces s exactly, and
/// canonicalization is idempotent.
std::string canonical_scenario(const Scenario& s);

/// Compiles the scenario into a runnable experiment configuration: copies
/// the topology spec, channel and fault plan (plus schedule crash events),
/// scheme geometry and trial parameters. A per-node channel given by
/// loss/loss_jitter/loss_seed is expanded into its explicit `per_node`
/// vector here, once, so every trial and island reads the same population.
core::ExperimentConfig scenario_config(const Scenario& s);

}  // namespace lrs::scenario
