// Figure 4(a)-(e): impact of the packet-loss rate p on LR-Seluge vs Seluge.
//
// One-hop cell, N = 20 receivers, 20 KB image, losses injected per
// reception with probability p (paper §VI-B.1). The five panels are the
// five metric columns. Expected shape: both schemes' costs grow with p;
// LR-Seluge is slightly MORE expensive at p <= 0.01 (erasure redundancy
// plus per-page hash block shrink page capacity) and substantially cheaper
// for p > 0.01 — the paper reports up to ~44% lower total communication
// and ~48% lower latency.
#include "bench/common.h"

namespace lrs::bench {
namespace {

void run(const BenchOptions& opt) {
  const std::vector<double> losses =
      opt.quick ? std::vector<double>{0.1}
                : std::vector<double>{0.0, 0.01, 0.05, 0.1, 0.15,
                                      0.2, 0.3, 0.4};
  std::vector<core::ExperimentConfig> configs;
  std::vector<std::vector<std::string>> prefixes;
  for (double p : losses) {
    for (auto scheme : {core::Scheme::kSeluge, core::Scheme::kLrSeluge}) {
      auto cfg = paper_config(scheme);
      cfg.channel = sim::ChannelSpec::uniform(p);
      configs.push_back(cfg);
      prefixes.push_back({format_num(p, 2), core::scheme_name(scheme)});
    }
  }
  const auto results = run_sweep(configs, opt);

  std::vector<std::string> header{"p", "scheme"};
  header.insert(header.end(), kMetricHeader.begin(), kMetricHeader.end());
  Table t(std::move(header));
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> row = prefixes[i];
    for (auto& cell : metric_cells(results[i])) row.push_back(cell);
    t.add_row(std::move(row));
  }
  print_table("Fig. 4: impact of loss rate p (one-hop, N=20, 20 KB image, " +
                  std::to_string(opt.repeats) + " seeds)",
              t);
  write_bench_json("fig4_loss_rate", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  lrs::bench::run(lrs::bench::parse_bench_options(argc, argv, 3));
  return 0;
}
