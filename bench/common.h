// Shared plumbing for the figure/table harnesses: each binary regenerates
// one table or figure of the paper's evaluation (§V-§VI), printing an
// aligned human-readable table plus machine-readable CSV, and writing a
// provenance-stamped BENCH_<name>.json artifact for cross-PR comparison.
#pragma once

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/provenance.h"
#include "core/run_trials.h"
#include "sim/scenario/scenario.h"
#include "sim/stats/stats.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs::bench {

/// Resets the kernel's RSS high-water mark ("5" into /proc/self/clear_refs,
/// proc(5)) so the next peak_rss_mb() call reports the peak since this
/// call rather than the process-lifetime maximum. The reset starts from
/// the process's current RSS, which still holds heap that earlier work
/// freed but malloc kept. Best-effort: a no-op on kernels without the
/// file, where readings fall back to the monotonic maximum.
inline void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
}

/// Peak RSS in MiB at KiB resolution: VmHWM from /proc/self/status (the
/// value reset_peak_rss clears), falling back to getrusage's ru_maxrss.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      try {
        return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
      } catch (...) {
        break;
      }
    }
  }
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Flags shared by every figure/table harness:
///   --repeats=R    seeds averaged per sweep point (default: the harness's
///                  historical seed count; --quick forces 1 unless given)
///   --jobs=J       worker threads for the trial runner (default: LRS_JOBS
///                  env or hardware concurrency)
///   --quick        shrink the sweep to a smoke-test subset — used by CI
///   --trace=P      record the structured event trace of the first trial
///                  to P (JSONL) plus a Chrome-trace twin at
///                  P-with-extension-.chrome.json
///   --timeseries=P write the sampled progress counters of the first trial
///                  to P (JSON)
///   --trace-all    trace every (config, trial) cell of the sweep to
///                  derived ".cN.tM" paths instead of only the first
///   --scenario=F   replace every sweep point's deployment environment
///                  (topology, channel, fault plan and node schedules) with
///                  the one declared in scenario file F (scenarios/*.scn,
///                  docs/scenarios.md) — the harness keeps sweeping its own
///                  scheme/parameter axis on the scenario's network
///   --metrics=M    enable the runtime metrics registry (sim/stats) and
///                  write its JSON export to M at exit ("-" = stdout);
///                  deterministic counters stay byte-identical across
///                  LRS_JOBS settings, timing columns do not
///   --metrics-heartbeat=S  with --metrics: print a progress line to
///                  stderr every S seconds (long-run liveness signal)
struct BenchOptions {
  std::size_t repeats = 3;
  std::size_t jobs = 0;  // 0 = core::default_jobs()
  bool quick = false;
  std::string trace;       // JSONL event-log path; empty = no trace
  std::string timeseries;  // progress time-series path; empty = none
  bool trace_all = false;
  std::string scenario;    // .scn file overriding the deployment; empty = none
  std::string metrics;     // metrics JSON export path; empty = disabled
  double metrics_heartbeat = 0.0;  // stderr heartbeat period, 0 = off
};

/// "t.jsonl" -> "t.chrome.json" (tag appended when there is no extension).
inline std::string chrome_trace_path(const std::string& events_path) {
  const auto slash = events_path.find_last_of('/');
  const auto dot = events_path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return events_path + ".chrome.json";
  }
  return events_path.substr(0, dot) + ".chrome.json";
}

/// The sim-layer export destinations encoded by the --trace/--timeseries
/// flags. Empty (disabled — the null-recorder fast path) when neither flag
/// was given.
inline sim::TraceExportConfig trace_config(const BenchOptions& opt) {
  sim::TraceExportConfig t;
  t.events_path = opt.trace;
  if (!opt.trace.empty()) t.chrome_path = chrome_trace_path(opt.trace);
  t.timeseries_path = opt.timeseries;
  t.all_trials = opt.trace_all;
  return t;
}

/// Arms the metrics registry per --metrics/--metrics-heartbeat: enables
/// recording, zeroes any registration-time residue, optionally starts the
/// heartbeat thread, and registers an atexit export so every exit path
/// (including std::exit from a later usage error) writes the file. Safe to
/// call with an empty path (no-op) and from raw-Args harnesses.
inline void arm_metrics_export(const std::string& path,
                               double heartbeat_period_s) {
  if (path.empty()) return;
  static std::string g_path;  // handler state: atexit takes no capture
  g_path = path;
  stats::Registry::instance().reset_values();
  stats::set_enabled(true);
  if (heartbeat_period_s > 0) stats::start_heartbeat(heartbeat_period_s);
  std::atexit([] {
    stats::write_metrics_json(g_path, core::provenance_json("  "));
  });
}

inline BenchOptions parse_bench_options(int argc, const char* const* argv,
                                        std::size_t default_repeats) {
  Args args(argc, argv);
  BenchOptions opt;
  opt.quick = args.get_bool("quick", false);
  const long repeats =
      args.get_int("repeats",
                   static_cast<long>(opt.quick ? 1 : default_repeats));
  const long jobs = args.get_int("jobs", 0);
  opt.trace = args.get("trace", "");
  opt.timeseries = args.get("timeseries", "");
  opt.trace_all = args.get_bool("trace-all", false);
  opt.scenario = args.get("scenario", "");
  opt.metrics = args.get("metrics", "");
  opt.metrics_heartbeat = args.get_double("metrics-heartbeat", 0.0);
  bool bad = repeats < 1 || jobs < 0;
  if (opt.trace_all && opt.trace.empty() && opt.timeseries.empty()) {
    std::cerr << "error: --trace-all needs --trace and/or --timeseries\n";
    bad = true;
  }
  if (opt.metrics_heartbeat < 0 ||
      (opt.metrics_heartbeat > 0 && opt.metrics.empty())) {
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
              << " [--repeats=R] [--jobs=J] [--quick] [--trace=T.jsonl]"
                 " [--timeseries=TS.json] [--trace-all]"
                 " [--scenario=F.scn] [--metrics=M.json]"
                 " [--metrics-heartbeat=S]\n";
    std::exit(2);
  }
  opt.repeats = static_cast<std::size_t>(repeats);
  opt.jobs = static_cast<std::size_t>(jobs);
  arm_metrics_export(opt.metrics, opt.metrics_heartbeat);
  return opt;
}

/// Transplants the scenario's deployment environment — topology spec,
/// channel/loss model, fault plan and node schedules — into `config`,
/// leaving the harness's scheme, coding geometry and timing untouched.
inline void apply_scenario_environment(core::ExperimentConfig& config,
                                       const scenario::Scenario& s) {
  core::ExperimentConfig env = scenario::scenario_config(s);
  config.topo_spec = std::move(env.topo_spec);
  config.channel = std::move(env.channel);
  config.faults = std::move(env.faults);
}

/// Loads opt.scenario (when set) or exits with the parse error — harness
/// startup, where a bad file should fail fast with the offending line.
inline std::optional<scenario::Scenario> load_bench_scenario(
    const BenchOptions& opt) {
  if (opt.scenario.empty()) return std::nullopt;
  std::string error;
  auto s = scenario::load_scenario_file(opt.scenario, &error);
  if (!s) {
    std::cerr << "error: " << error << "\n";
    std::exit(2);
  }
  return s;
}

/// Runs every config in the sweep through the parallel trial runner;
/// result i averages opt.repeats seeds of configs[i]. Trace flags apply to
/// the whole sweep: cell (config 0, trial 0) writes the exact requested
/// paths, other cells only under --trace-all (see sim::trace_for_trial).
/// Under --scenario=F.scn every sweep point runs on F's deployment.
inline std::vector<core::ExperimentResult> run_sweep(
    std::vector<core::ExperimentConfig> configs, const BenchOptions& opt) {
  if (const auto s = load_bench_scenario(opt)) {
    for (auto& c : configs) apply_scenario_environment(c, *s);
  }
  const sim::TraceExportConfig trace = trace_config(opt);
  for (auto& c : configs) c.trace = trace;
  return core::run_experiments_avg(configs, opt.repeats, opt.jobs);
}

/// Paper-scale defaults: 20 KB image, k = 32, n = 48 (rate 1.5), 64-byte
/// payloads, N = 20 receivers, Deluge Trickle constants.
inline core::ExperimentConfig paper_config(core::Scheme scheme) {
  core::ExperimentConfig c;
  c.scheme = scheme;
  c.params.payload_size = 64;
  c.params.k = 32;
  c.params.n = 48;
  c.params.k0 = 8;
  c.params.n0 = 16;
  c.params.puzzle_strength = 8;
  c.image_size = 20 * 1024;
  c.seed = 1;
  c.timing.trickle.tau_low = 2 * sim::kSecond;
  c.timing.trickle.tau_high = 60 * sim::kSecond;
  return c;
}

/// The paper's five metrics — plus received bytes (rx-side goodput) and an
/// explicit completion flag, so an incomplete run is visible instead of
/// silently reporting the time-limit as latency.
inline std::vector<std::string> metric_cells(
    const core::ExperimentResult& r) {
  return {format_num(static_cast<double>(r.data_packets)),
          format_num(static_cast<double>(r.snack_packets)),
          format_num(static_cast<double>(r.adv_packets)),
          format_num(static_cast<double>(r.total_bytes)),
          format_num(static_cast<double>(r.received_bytes)),
          format_num(r.latency_s, 1),
          r.all_complete ? "true" : "false"};
}

inline const std::vector<std::string> kMetricHeader = {
    "data_pkts", "snack_pkts", "adv_pkts",  "total_bytes",
    "recv_bytes", "latency_s",  "completed"};

inline void print_table(const std::string& title, const Table& table) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  std::cout << "\n-- CSV --\n";
  table.print_csv(std::cout);
  std::cout.flush();
}

/// True when a CSV cell can be emitted as a bare JSON token (number or
/// boolean) rather than a quoted string.
inline bool json_bare_cell(const std::string& s) {
  if (s == "true" || s == "false") return true;
  if (s.empty()) return false;
  std::size_t i = s[0] == '-' ? 1 : 0;
  if (i >= s.size()) return false;
  bool digit = false, dot = false;
  for (; i < s.size(); ++i) {
    if (s[i] >= '0' && s[i] <= '9') {
      digit = true;
    } else if (s[i] == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digit;
}

/// Writes the harness result table as BENCH_<name>.json, stamped with the
/// run-provenance manifest (core/provenance.h) plus harness-level facts
/// (repeats, sweep shape). Honors the LRS_BENCH_JSON convention shared
/// with the microbenchmarks: a path overrides the default, "none" skips.
inline void write_bench_json(
    const std::string& name, const Table& table,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  const char* env = std::getenv("LRS_BENCH_JSON");
  const std::string path =
      env != nullptr && env[0] != '\0' ? env : "BENCH_" + name + ".json";
  if (path == "none") return;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"bench\": \"" << name << "\",\n";
  out << "  \"provenance\": " << core::provenance_json("  ", extra) << ",\n";
  out << "  \"columns\": [";
  const auto& header = table.header();
  for (std::size_t c = 0; c < header.size(); ++c) {
    out << (c ? ", " : "") << "\"" << header[c] << "\"";
  }
  out << "],\n  \"rows\": [\n";
  const auto& rows = table.row_data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << "    [";
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c) out << ", ";
      if (json_bare_cell(rows[r][c])) {
        out << rows[r][c];
      } else {
        out << "\"" << rows[r][c] << "\"";
      }
    }
    out << "]" << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Standard provenance extras for a sweep harness: seed averaging shape.
inline std::vector<std::pair<std::string, std::string>> sweep_extras(
    const BenchOptions& opt, std::uint64_t seed_base = 1) {
  return {{"seed_base", std::to_string(seed_base)},
          {"repeats", std::to_string(opt.repeats)},
          {"quick", opt.quick ? "true" : "false"}};
}

}  // namespace lrs::bench
