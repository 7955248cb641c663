// Figure 5(a)-(e): impact of the number of local receivers N at p = 0.1.
//
// Expected shape: Seluge's data and SNACK costs grow markedly with N (each
// extra receiver demands its exact missing packets); LR-Seluge is far less
// sensitive because any k' of n packets complete a page, so one broadcast
// burst serves everyone. The paper additionally observes Seluge's latency
// creeping up with N while LR-Seluge's slightly decreases (more requesters
// -> the first SNACK for each page fires sooner).
#include "bench/common.h"

namespace lrs::bench {
namespace {

void run(const BenchOptions& opt) {
  const std::vector<std::size_t> counts =
      opt.quick ? std::vector<std::size_t>{8, 20}
                : std::vector<std::size_t>{4, 8, 12, 16, 20, 24, 28, 32};
  std::vector<core::ExperimentConfig> configs;
  std::vector<std::vector<std::string>> prefixes;
  for (std::size_t n_recv : counts) {
    for (auto scheme : {core::Scheme::kSeluge, core::Scheme::kLrSeluge}) {
      auto cfg = paper_config(scheme);
      cfg.topo_spec.receivers = n_recv;
      cfg.channel = sim::ChannelSpec::uniform(0.1);
      configs.push_back(cfg);
      prefixes.push_back({format_num(static_cast<double>(n_recv)),
                          core::scheme_name(scheme)});
    }
  }
  const auto results = run_sweep(configs, opt);

  std::vector<std::string> header{"N", "scheme"};
  header.insert(header.end(), kMetricHeader.begin(), kMetricHeader.end());
  Table t(std::move(header));
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> row = prefixes[i];
    for (auto& cell : metric_cells(results[i])) row.push_back(cell);
    t.add_row(std::move(row));
  }
  print_table("Fig. 5: impact of receiver count N (one-hop, p=0.1, 20 KB, " +
                  std::to_string(opt.repeats) + " seeds)",
              t);
  write_bench_json("fig5_density", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  lrs::bench::run(lrs::bench::parse_bench_options(argc, argv, 3));
  return 0;
}
