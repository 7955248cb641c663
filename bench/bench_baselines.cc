// The design-space matrix the paper's introduction frames (§I): before
// LR-Seluge, schemes were EITHER loss-resilient OR attack-resilient.
//
//                       |  not loss-resilient  |  loss-resilient
//   ----------------------------------------------------------------
//   not attack-resilient|  Deluge              |  Rateless Deluge
//   attack-resilient    |  Seluge              |  LR-Seluge
//
// This harness disseminates the same 20 KB image with all five schemes
// across loss rates and reports the paper's metrics plus the security
// column (are packets authenticated on arrival?). Expected shape:
// Rateless Deluge and LR-Seluge track each other on loss resilience
// (rateless slightly ahead — it never runs out of fresh packets and
// carries no hash overhead), Seluge and Deluge degrade steeply, and only
// the right column of the bottom row survives the attack benches.
#include "bench/common.h"

namespace lrs::bench {
namespace {

void run(const BenchOptions& opt) {
  const std::vector<double> losses =
      opt.quick ? std::vector<double>{0.2}
                : std::vector<double>{0.0, 0.1, 0.2, 0.3};
  std::vector<core::ExperimentConfig> configs;
  std::vector<std::vector<std::string>> prefixes;
  for (double p : losses) {
    for (auto scheme :
         {core::Scheme::kDeluge, core::Scheme::kRatelessDeluge,
          core::Scheme::kSluice, core::Scheme::kSeluge,
          core::Scheme::kLrSeluge}) {
      auto cfg = paper_config(scheme);
      cfg.channel = sim::ChannelSpec::uniform(p);
      const char* secure =
          scheme == core::Scheme::kSeluge ||
                  scheme == core::Scheme::kLrSeluge
              ? "yes"
              : (scheme == core::Scheme::kSluice ? "integrity-only" : "no");
      configs.push_back(cfg);
      prefixes.push_back(
          {format_num(p, 2), core::scheme_name(scheme), secure});
    }
  }
  const auto results = run_sweep(configs, opt);

  Table t({"p", "scheme", "secure", "data_pkts", "snack_pkts",
           "total_bytes", "recv_bytes", "latency_s", "completed"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::vector<std::string> row = prefixes[i];
    row.push_back(format_num(static_cast<double>(r.data_packets)));
    row.push_back(format_num(static_cast<double>(r.snack_packets)));
    row.push_back(format_num(static_cast<double>(r.total_bytes)));
    row.push_back(format_num(static_cast<double>(r.received_bytes)));
    row.push_back(format_num(r.latency_s, 1));
    row.push_back(r.all_complete ? "true" : "false");
    t.add_row(std::move(row));
  }
  print_table("Baseline matrix: all five schemes (one-hop, N=20, 20 KB, " +
                  std::to_string(opt.repeats) + " seeds)",
              t);
  write_bench_json("baselines", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  lrs::bench::run(lrs::bench::parse_bench_options(argc, argv, 3));
  return 0;
}
