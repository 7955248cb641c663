// Seed-sweeping fault-injection stress runner (ISSUE 3 tentpole).
//
// Sweeps an N-seed x fault-plan matrix through the parallel trial runner
// with the invariant observer attached: every combination must complete
// dissemination, reassemble the exact image, and run zero invariant
// violations. The fault layer is deterministic, so the first failing
// combination is reported as a one-line replay command
//
//   ./bench_stress --replay=<scheme>:<plan>:<seed>
//
// which reruns exactly that trial and prints its full diagnosis.
//
// Flags: --seeds=N (per plan; default 20 quick / 50 full), --jobs=J,
// --quick (LR-Seluge only, CI smoke), --scheme=lr-seluge|seluge|deluge
// (restrict the matrix), --replay=... (single-trial replay, exit 1 on
// failure), --trace=T.jsonl / --timeseries=TS.json (structured event
// trace of the first matrix cell's first seed — or of the replayed trial —
// see docs/observability.md). Writes BENCH_stress.json stamped with the
// run-provenance manifest (override with LRS_BENCH_JSON, skip with
// LRS_BENCH_JSON=none).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/experiment.h"
#include "core/provenance.h"
#include "core/run_trials.h"
#include "sim/faults.h"
#include "sim/trace.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Scheme;
using sim::kMillisecond;
using sim::kSecond;

struct NamedPlan {
  const char* name;
  sim::FaultPlan plan;
  // Plans that mutate frame bytes are only meaningful against schemes with
  // per-packet authentication: an unauthenticated scheme (Deluge) accepts
  // a corrupted payload into its image by design, which is the property
  // the paper argues against, not a harness failure.
  bool mutates = false;
};

std::vector<NamedPlan> fault_matrix() {
  std::vector<NamedPlan> m;
  {
    m.push_back({"clean", {}, false});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.05;
    p.corrupt_max_flips = 2;
    m.push_back({"corrupt-light", p, true});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.25;
    p.corrupt_max_flips = 8;
    m.push_back({"corrupt-heavy", p, true});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.15;
    p.corrupt_burst = true;
    p.corrupt_burst_len = 12;
    m.push_back({"corrupt-burst", p, true});
  }
  {
    sim::FaultPlan p;
    p.truncate_prob = 0.1;
    m.push_back({"truncate", p, true});
  }
  {
    sim::FaultPlan p;
    p.pad_prob = 0.1;
    p.max_pad = 16;
    m.push_back({"pad", p, true});
  }
  {
    sim::FaultPlan p;
    p.duplicate_prob = 0.2;
    p.max_copies = 3;
    m.push_back({"duplicate", p, false});
  }
  {
    sim::FaultPlan p;
    p.reorder_prob = 0.3;
    p.reorder_max_delay = 30 * kMillisecond;
    m.push_back({"reorder", p, false});
  }
  {
    sim::FaultPlan p;
    p.crashes.push_back({2, 1 * kSecond, 700 * kMillisecond});
    p.crashes.push_back({3, 2 * kSecond, 500 * kMillisecond});
    m.push_back({"crash", p, false});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.05;
    p.truncate_prob = 0.03;
    p.duplicate_prob = 0.05;
    p.reorder_prob = 0.1;
    p.reorder_max_delay = 20 * kMillisecond;
    p.crashes.push_back({2, 1 * kSecond, 500 * kMillisecond});
    m.push_back({"chaos", p, true});
  }
  return m;
}

/// Small, fast configuration (test-e2e scale): 8 pages of 8x32-byte blocks,
/// four receivers on a star, light uniform loss on top of the fault plan.
ExperimentConfig stress_config(Scheme scheme, const sim::FaultPlan& plan,
                               std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.params.payload_size = 32;
  c.params.k = 8;
  c.params.n = 12;
  c.params.k0 = 4;
  c.params.n0 = 8;
  c.params.puzzle_strength = 4;
  c.image_size = 2048;
  c.topo_spec.receivers = 4;
  c.seed = seed;
  c.channel = sim::ChannelSpec::uniform(0.05);
  c.timing.trickle.tau_low = 250 * kMillisecond;
  c.timing.trickle.tau_high = 8 * kSecond;
  c.faults = plan;
  c.check_invariants = true;
  return c;
}

bool trial_passed(const ExperimentResult& r) {
  return r.all_complete && r.images_match && r.invariant_violations == 0;
}

std::string diagnose(const ExperimentResult& r) {
  if (!r.all_complete) {
    return "incomplete: " + std::to_string(r.completed) + "/" +
           std::to_string(r.receivers) + " receivers finished";
  }
  if (!r.images_match) return "image mismatch on a completed receiver";
  if (r.invariant_violations > 0) return r.first_violation;
  return "ok";
}

std::optional<Scheme> parse_scheme(const std::string& name) {
  if (name == "deluge") return Scheme::kDeluge;
  if (name == "seluge") return Scheme::kSeluge;
  if (name == "lr-seluge") return Scheme::kLrSeluge;
  return std::nullopt;
}

struct CellResult {
  std::string scheme;
  std::string plan;
  std::size_t seeds = 0;
  std::size_t failures = 0;
  std::uint64_t tampered = 0;
  std::uint64_t drops = 0;
  std::uint64_t reboots = 0;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::string first_failure;  // replay command of the first failing seed
};

void write_json(const std::vector<CellResult>& cells, std::size_t combos,
                std::size_t failures, bool quick, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << "{\n  \"benchmark\": \"bench_stress\",\n"
      << "  \"provenance\": " << core::provenance_json("  ") << ",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"combos\": " << combos << ",\n"
      << "  \"failures\": " << failures << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "    {\"scheme\": \"" << c.scheme << "\", \"plan\": \"" << c.plan
        << "\", \"seeds\": " << c.seeds << ", \"failures\": " << c.failures
        << ", \"tampered_frames\": " << c.tampered
        << ", \"fault_drops\": " << c.drops << ", \"reboots\": " << c.reboots
        << ", \"invariant_checks\": " << c.checks
        << ", \"invariant_violations\": " << c.violations
        << ", \"first_failure\": \"" << c.first_failure << "\"}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << cells.size() << " matrix cells to " << path
            << "\n";
}

int replay(const std::string& spec, const sim::TraceExportConfig& trace) {
  // --replay=<scheme>:<plan>:<seed>
  const auto c1 = spec.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (c2 == std::string::npos) {
    std::cerr << "bad replay spec '" << spec
              << "' (want <scheme>:<plan>:<seed>)\n";
    return 2;
  }
  const std::string scheme_name = spec.substr(0, c1);
  const std::string plan_name = spec.substr(c1 + 1, c2 - c1 - 1);
  const std::uint64_t seed = std::strtoull(spec.c_str() + c2 + 1, nullptr, 10);

  const auto scheme = parse_scheme(scheme_name);
  if (!scheme) {
    std::cerr << "unknown scheme '" << scheme_name << "'\n";
    return 2;
  }
  const sim::FaultPlan* plan = nullptr;
  static const auto matrix = fault_matrix();
  for (const auto& np : matrix) {
    if (plan_name == np.name) plan = &np.plan;
  }
  if (!plan) {
    std::cerr << "unknown fault plan '" << plan_name << "'\n";
    return 2;
  }

  auto cfg = stress_config(*scheme, *plan, seed);
  cfg.trace = trace;
  const auto r = run_experiment(cfg);
  std::cout << "replay " << spec << "  faults=" << plan->describe() << "\n"
            << "  completed:  " << r.completed << "/" << r.receivers << "\n"
            << "  images:     " << (r.images_match ? "match" : "MISMATCH")
            << "\n"
            << "  tampered:   " << r.tampered_frames
            << "  drops: " << r.fault_drops << "  reboots: " << r.reboots
            << "\n"
            << "  invariants: " << r.invariant_checks << " checks, "
            << r.invariant_violations << " violations\n";
  if (!r.first_violation.empty()) {
    std::cout << "  first:      " << r.first_violation << "\n";
  }
  const bool ok = trial_passed(r);
  std::cout << (ok ? "PASS" : "FAIL: " + diagnose(r)) << "\n";
  return ok ? 0 : 1;
}

int run_sweep(int argc, char** argv) {
  Args args(argc, argv);
  const std::string replay_spec = args.get("replay", "");
  const bool quick = args.get_bool("quick", false);
  const std::string only_scheme = args.get("scheme", "");
  const long seeds_flag = args.get_int("seeds", quick ? 20 : 50);
  const long jobs_flag = args.get_int("jobs", 0);
  sim::TraceExportConfig trace;
  trace.events_path = args.get("trace", "");
  if (!trace.events_path.empty()) {
    trace.chrome_path = bench::chrome_trace_path(trace.events_path);
  }
  trace.timeseries_path = args.get("timeseries", "");
  const std::string metrics = args.get("metrics", "");
  const double metrics_heartbeat = args.get_double("metrics-heartbeat", 0.0);
  bool bad = seeds_flag < 1 || jobs_flag < 0;
  if (!only_scheme.empty() && !parse_scheme(only_scheme)) {
    std::cerr << "error: unknown scheme '" << only_scheme << "'\n";
    bad = true;
  }
  if (metrics_heartbeat < 0 || (metrics_heartbeat > 0 && metrics.empty())) {
    std::cerr << "error: --metrics-heartbeat needs --metrics=FILE and a"
                 " positive period\n";
    bad = true;
  }
  for (const auto& e : args.errors()) {
    std::cerr << "error: " << e << "\n";
    bad = true;
  }
  for (const auto& u : args.unknown()) {
    std::cerr << "error: unknown flag " << u << "\n";
    bad = true;
  }
  if (bad) {
    std::cerr << "usage: " << argv[0]
              << " [--seeds=N] [--jobs=J] [--quick] [--scheme=S]"
              << " [--replay=<scheme>:<plan>:<seed>]"
              << " [--trace=T.jsonl] [--timeseries=TS.json]"
              << " [--metrics=M.json] [--metrics-heartbeat=S]\n";
    return 2;
  }
  bench::arm_metrics_export(metrics, metrics_heartbeat);
  if (!replay_spec.empty()) return replay(replay_spec, trace);

  const std::size_t seeds = static_cast<std::size_t>(seeds_flag);
  const std::size_t jobs = static_cast<std::size_t>(jobs_flag);

  std::vector<Scheme> schemes;
  if (!only_scheme.empty()) {
    schemes.push_back(*parse_scheme(only_scheme));
  } else if (quick) {
    schemes = {Scheme::kLrSeluge};
  } else {
    schemes = {Scheme::kDeluge, Scheme::kSeluge, Scheme::kLrSeluge};
  }

  const auto matrix = fault_matrix();
  std::vector<CellResult> cells;
  std::size_t combos = 0, failures = 0;
  Table table({"scheme", "plan", "seeds", "fail", "tampered", "drops",
               "reboots", "inv_checks", "inv_viol"});

  for (const Scheme scheme : schemes) {
    const bool authenticated =
        scheme == Scheme::kSeluge || scheme == Scheme::kLrSeluge;
    for (const auto& np : matrix) {
      if (np.mutates && !authenticated) continue;
      auto base = stress_config(scheme, np.plan, 1);
      // The trace flags record the first matrix cell (seed routing — first
      // trial only, or every seed under all_trials — is run_trials').
      if (cells.empty()) base.trace = trace;
      const auto trials = core::run_trials(base, seeds, jobs);

      CellResult cell;
      cell.scheme = core::scheme_name(scheme);
      cell.plan = np.name;
      cell.seeds = seeds;
      for (std::size_t i = 0; i < trials.size(); ++i) {
        const auto& r = trials[i];
        ++combos;
        cell.tampered += r.tampered_frames;
        cell.drops += r.fault_drops;
        cell.reboots += r.reboots;
        cell.checks += r.invariant_checks;
        cell.violations += r.invariant_violations;
        if (!trial_passed(r)) {
          ++failures;
          ++cell.failures;
          std::ostringstream os;
          os << "--replay=" << cell.scheme << ":" << np.name << ":"
             << base.seed + i;
          if (cell.first_failure.empty()) {
            cell.first_failure = os.str();
            std::cerr << "FAIL " << cell.scheme << "/" << np.name << " seed "
                      << base.seed + i << " (" << diagnose(r)
                      << "); replay with: " << argv[0] << " " << os.str()
                      << "\n";
          }
        }
      }
      table.add_row({cell.scheme, cell.plan, std::to_string(cell.seeds),
                     std::to_string(cell.failures),
                     std::to_string(cell.tampered), std::to_string(cell.drops),
                     std::to_string(cell.reboots), std::to_string(cell.checks),
                     std::to_string(cell.violations)});
      cells.push_back(std::move(cell));
    }
  }

  std::cout << "\n== stress sweep: " << combos << " seed x fault combos, "
            << failures << " failures ==\n";
  table.print(std::cout);
  std::cout << "\n-- CSV --\n";
  table.print_csv(std::cout);
  std::cout.flush();

  const char* env = std::getenv("LRS_BENCH_JSON");
  const std::string path =
      env != nullptr && env[0] != '\0' ? env : "BENCH_stress.json";
  if (path != "none") write_json(cells, combos, failures, quick, path);

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lrs

int main(int argc, char** argv) { return lrs::run_sweep(argc, argv); }
