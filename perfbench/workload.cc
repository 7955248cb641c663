// Workload process of the benchmark: runs one generated plan (see run.py,
// which writes it from the workload seed) and writes raw measurements for
// the generator to turn into metrics.
//
//   lrs_workload <plan.txt> <out.txt>
//
// The plan is one directive per line:
//
//   kind trials|fleet      which loop to run
//   trace 0|1              1: enable the lrs-metrics-v1 registry for the
//                          timed phase and export it
//   jobs J                 worker threads of the fleet pool
//   setups S               (trials) set-up repetitions; the last one's
//                          config is used
//   scenario PATH          (trials) generated .scn file
//   warmup SEED            (trials) untimed dissemination in each set-up
//   seeds A B C ...        (trials) one timed dissemination per seed
//   probe N                (trials, traced) re-run the first N seeds
//                          stopped at t = 1 us: their registry export is
//                          the source-side share of each dissemination
//   rung warmup|timed      (fleet) starts a new engine
//   tenant NAME CODEC VERSION DELTA IMAGE SEED CELLS RMIN RMAX LOSS
//                          (fleet) one tenant of the current rung
//
// Output lines (host times in ns: NS on the steady clock, CPU_NS the CPU
// time of the thread running a trial, or of the process over a rung):
//
//   setup NS
//   span ID PARENT NAME START END       the benchmark's own spans
//   dissem NS CPU_NS COMPLETED EXPECTED MATCH LATENCY_S DATA SNACK ADV BYTES
//          EVENTS
//   rung NS CPU_NS CELLS STEALS
//   tenant CELLS CONVERGED IMAGES_OK LATENCY_MAX_S DATA SNACK BYTES EVENTS
//   run NS                              wall time of the timed phase
//   probe N                             seeds the probe re-ran
//
// With trace 1 the registry export of the timed phase goes to
// <out>.metrics.json and that of the probe to <out>.probe.json.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "erasure/code.h"
#include "fleet/engine.h"
#include "sim/scenario/generators.h"
#include "sim/scenario/scenario.h"
#include "sim/stats/stats.h"

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Spans the benchmark records around its own calls into each layer. Kept
/// in memory, written at exit; the parent is the innermost open span.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& spans, std::string name) : spans_(spans) {
      id_ = spans_.open(std::move(name));
    }
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t id_;
  };

  void write(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "span " << i << ' ' << s.parent << ' ' << s.name << ' '
          << s.start << ' ' << s.end << '\n';
    }
  }

 private:
  struct Span {
    std::string name;
    long parent;
    std::int64_t start;
    std::int64_t end;
  };

  std::size_t open(std::string name) {
    const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    spans_.push_back({std::move(name), parent, now_ns(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end = now_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

struct Plan {
  std::string kind;
  bool trace = false;
  std::size_t jobs = 1;
  std::size_t setups = 1;
  std::string scenario;
  std::optional<std::uint64_t> warmup;
  std::vector<std::uint64_t> seeds;
  std::size_t probe = 0;
  struct Rung {
    bool warmup = false;
    std::vector<lrs::fleet::TenantSpec> tenants;
  };
  std::vector<Rung> rungs;
};

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error(msg);
}

lrs::fleet::TenantSpec parse_tenant(std::istringstream& in) {
  lrs::fleet::TenantSpec spec;
  std::string codec;
  unsigned version = 0;
  int delta = 0;
  in >> spec.name >> codec >> version >> delta >> spec.image_size >>
      spec.seed >> spec.cells >> spec.receivers_min >> spec.receivers_max >>
      spec.loss_p;
  if (!in) fail("malformed tenant line");
  const auto kind = lrs::erasure::parse_codec_kind(codec);
  if (!kind) fail("unknown codec " + codec);
  // The fixed part of the fleet tenant mix: the small LR-Seluge geometry
  // and tight Trickle timing of bench_fleet, so the cells converge in
  // simulated seconds.
  spec.params.codec = *kind;
  spec.params.version = static_cast<lrs::Version>(version);
  spec.params.payload_size = 32;
  spec.params.k = 8;
  spec.params.n = 12;
  spec.params.k0 = 4;
  spec.params.n0 = 8;
  spec.params.puzzle_strength = 4;
  spec.delta = delta != 0;
  spec.delta_page_size = 256;
  spec.timing.trickle.tau_low = 250 * lrs::sim::kMillisecond;
  spec.timing.trickle.tau_high = 4 * lrs::sim::kSecond;
  spec.time_limit = 600LL * lrs::sim::kSecond;
  return spec;
}

Plan read_plan(const std::string& path) {
  std::ifstream file(path);
  if (!file) fail("cannot read plan " + path);
  Plan plan;
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream in(line);
    std::string key;
    if (!(in >> key)) continue;
    if (key == "kind") {
      in >> plan.kind;
    } else if (key == "trace") {
      int t = 0;
      in >> t;
      plan.trace = t != 0;
    } else if (key == "jobs") {
      in >> plan.jobs;
    } else if (key == "setups") {
      in >> plan.setups;
    } else if (key == "scenario") {
      in >> plan.scenario;
    } else if (key == "warmup") {
      std::uint64_t s = 0;
      in >> s;
      plan.warmup = s;
    } else if (key == "seeds") {
      std::uint64_t s = 0;
      while (in >> s) plan.seeds.push_back(s);
      in.clear();
    } else if (key == "probe") {
      in >> plan.probe;
    } else if (key == "rung") {
      std::string role;
      in >> role;
      plan.rungs.push_back({role == "warmup", {}});
    } else if (key == "tenant") {
      if (plan.rungs.empty()) fail("tenant line before any rung line");
      plan.rungs.back().tenants.push_back(parse_tenant(in));
      continue;
    } else {
      fail("unknown plan directive " + key);
    }
    if (!in) fail("malformed plan line: " + line);
  }
  if (plan.jobs < 1 || plan.setups < 1) fail("jobs and setups must be >= 1");
  return plan;
}

void export_registry(const std::string& path) {
  if (!lrs::stats::write_metrics_json(path, "null")) {
    fail("cannot write " + path);
  }
}

void run_trials_plan(const Plan& plan, const std::string& out_path,
                     std::ostream& out, Spans& spans) {
  if (plan.seeds.empty()) fail("trials plan without seeds");
  lrs::core::ExperimentConfig config;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < plan.setups; ++i) {
    const std::int64_t t0 = now_ns();
    Spans::Scope setup(spans, "setup");
    {
      Spans::Scope s(spans, "scenario.load");
      std::string error;
      const auto scn =
          lrs::scenario::load_scenario_file(plan.scenario, &error);
      if (!scn) fail(error);
      config = lrs::scenario::scenario_config(*scn);
      expected = scn->expected_complete();
    }
    {
      Spans::Scope s(spans, "sim.build_topology");
      const lrs::sim::Topology topo =
          lrs::sim::build_topology(config.topo_spec);
      if (topo.size() != config.topo_spec.node_count()) {
        fail("topology has the wrong node count");
      }
    }
    if (plan.warmup) {
      Spans::Scope s(spans, "warmup");
      lrs::core::ExperimentConfig c = config;
      c.seed = *plan.warmup;
      lrs::core::run_experiment(c);
    }
    out << "setup " << now_ns() - t0 << '\n';
  }

  if (plan.trace) lrs::stats::set_enabled(true);
  lrs::stats::Registry::instance().reset_values();
  {
    const std::int64_t t0 = now_ns();
    Spans::Scope run(spans, "run");
    for (const std::uint64_t seed : plan.seeds) {
      lrs::core::ExperimentConfig c = config;
      c.seed = seed;
      const std::int64_t d0 = now_ns();
      const std::int64_t c0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      lrs::core::ExperimentResult r;
      {
        Spans::Scope s(spans, "core.run_experiment");
        r = lrs::core::run_experiment(c);
      }
      out << "dissem " << now_ns() - d0 << ' '
          << cpu_ns(CLOCK_THREAD_CPUTIME_ID) - c0 << ' ' << r.completed << ' '
          << expected << ' ' << (r.images_match ? 1 : 0) << ' '
          << r.latency_s << ' ' << r.data_packets << ' ' << r.snack_packets
          << ' ' << r.adv_packets << ' ' << r.total_bytes << ' '
          << r.events_executed << '\n';
    }
    out << "run " << now_ns() - t0 << '\n';
  }
  if (!plan.trace) return;
  export_registry(out_path + ".metrics.json");

  // Source-side share: the same dissemination stopped before any frame is
  // received does the identical signing and encoding work.
  lrs::stats::Registry::instance().reset_values();
  const std::size_t probes = std::min(plan.probe, plan.seeds.size());
  {
    Spans::Scope probe(spans, "probe");
    for (std::size_t i = 0; i < probes; ++i) {
      lrs::core::ExperimentConfig c = config;
      c.seed = plan.seeds[i];
      c.time_limit = lrs::sim::kMicrosecond;
      lrs::core::run_experiment(c);
    }
  }
  out << "probe " << probes << '\n';
  export_registry(out_path + ".probe.json");
}

void run_fleet_plan(const Plan& plan, const std::string& out_path,
                    std::ostream& out, Spans& spans) {
  std::vector<std::unique_ptr<lrs::fleet::FleetEngine>> engines;
  std::unique_ptr<lrs::fleet::FleetEngine> warmup;
  for (const Plan::Rung& rung : plan.rungs) {
    if (rung.tenants.empty()) fail("rung without tenants");
    const std::int64_t t0 = now_ns();
    auto engine = std::make_unique<lrs::fleet::FleetEngine>();
    {
      Spans::Scope setup(spans, rung.warmup ? "warmup" : "setup");
      Spans::Scope s(spans, "fleet.prepare");
      for (const auto& spec : rung.tenants) engine->add_tenant(spec);
      engine->prepare();
    }
    if (rung.warmup) {
      warmup = std::move(engine);
      continue;
    }
    out << "setup " << now_ns() - t0 << '\n';
    engines.push_back(std::move(engine));
  }
  if (engines.empty()) fail("fleet plan without timed rungs");
  if (warmup) {
    Spans::Scope s(spans, "warmup");
    warmup->run(plan.jobs);
  }

  if (plan.trace) lrs::stats::set_enabled(true);
  lrs::stats::Registry::instance().reset_values();
  const std::int64_t t0 = now_ns();
  {
    Spans::Scope run(spans, "run");
    for (auto& engine : engines) {
      const std::int64_t r0 = now_ns();
      const std::int64_t c0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
      lrs::fleet::FleetReport report;
      {
        Spans::Scope s(spans, "fleet.run");
        report = engine->run(plan.jobs);
      }
      out << "rung " << now_ns() - r0 << ' '
          << cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - c0 << ' ' << report.cells
          << ' ' << report.steals << '\n';
      for (const auto& t : report.tenants) {
        out << "tenant " << t.cells << ' ' << t.converged_cells << ' '
            << (t.images_ok ? 1 : 0) << ' ' << t.latency_max_s << ' '
            << t.data_packets << ' ' << t.snack_packets << ' '
            << t.total_bytes << ' ' << t.events << '\n';
      }
    }
  }
  out << "run " << now_ns() - t0 << '\n';
  if (plan.trace) export_registry(out_path + ".metrics.json");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: " << argv[0] << " <plan.txt> <out.txt>\n";
    return 2;
  }
  try {
    const Plan plan = read_plan(argv[1]);
    std::ofstream out(argv[2]);
    if (!out) fail(std::string("cannot write ") + argv[2]);
    out.precision(17);
    Spans spans;
    if (plan.kind == "trials") {
      run_trials_plan(plan, argv[2], out, spans);
    } else if (plan.kind == "fleet") {
      run_fleet_plan(plan, argv[2], out, spans);
    } else {
      fail("unknown kind " + plan.kind);
    }
    spans.write(out);
    out.flush();
    if (!out) fail(std::string("write error on ") + argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "lrs_workload: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
