// Ablation: LR-Seluge's greedy round-robin scheduler vs serving the plain
// union of requests (Deluge's policy) on otherwise identical erasure-coded
// dissemination.
//
// The greedy scheduler stops serving each neighbor after its *distance*
// (packets still needed to decode) reaches zero instead of transmitting
// everything it asked for — the union policy over-serves because an
// LR-Seluge SNACK requests every still-useful index, of which only
// distance-many are required. Expected shape: greedy sends fewer data
// packets at every loss rate, with the gap widening as loss (and therefore
// request size) grows.
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
    for (bool greedy : {true, false}) {
      auto cfg = paper_config(core::Scheme::kLrSeluge);
      cfg.params.lr_greedy_scheduler = greedy;
      cfg.channel = sim::ChannelSpec::uniform(p);
      configs.push_back(cfg);
      prefixes.push_back({format_num(p, 2), greedy ? "greedy-rr" : "union"});
    }
  }
  const auto results = run_sweep(configs, opt);

  std::vector<std::string> header{"p", "scheduler"};
  header.insert(header.end(), kMetricHeader.begin(), kMetricHeader.end());
  Table t(std::move(header));
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> row = prefixes[i];
    for (auto& cell : metric_cells(results[i])) row.push_back(cell);
    t.add_row(std::move(row));
  }
  print_table(
      "Ablation: greedy round-robin vs union scheduling "
      "(LR-Seluge, one-hop, N=20, " +
          std::to_string(opt.repeats) + " seeds)",
      t);
  write_bench_json("ablation_scheduler", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  lrs::bench::run(lrs::bench::parse_bench_options(argc, argv, 3));
  return 0;
}
