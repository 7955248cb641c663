// Table III: multi-hop dissemination over the low-density 15x15 grid
// (the paper's 15-15-medium-mica2-grid.txt topology) with heavy bursty RF
// noise. Wider spacing means fewer, weaker links: more hops, more gray-
// zone losses, higher absolute costs for both schemes — with LR-Seluge
// still ahead on every metric.
#include "bench/common.h"

namespace lrs::bench {
namespace {

void run(const BenchOptions& opt) {
  std::vector<core::ExperimentConfig> configs;
  std::vector<std::string> names;
  for (auto scheme : {core::Scheme::kSeluge, core::Scheme::kLrSeluge}) {
    auto cfg = paper_config(scheme);
    const std::size_t side = opt.quick ? 5 : 15;
    // Medium spacing: sparser, weaker links.
    cfg.topo_spec = sim::TopologySpec::grid(side, side, 20.0);
    cfg.channel = sim::ChannelSpec::gilbert_elliott();
    cfg.time_limit = 3600LL * sim::kSecond;
    configs.push_back(cfg);
    names.push_back(core::scheme_name(scheme));
  }
  const auto results = run_sweep(configs, opt);

  std::vector<std::string> header{"scheme", "completed_nodes"};
  header.insert(header.end(), kMetricHeader.begin(), kMetricHeader.end());
  header.push_back("radio_energy_j");
  Table t(std::move(header));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::vector<std::string> row{
        names[i], format_num(static_cast<double>(r.completed)) + "/" +
                      format_num(static_cast<double>(r.receivers))};
    for (auto& cell : metric_cells(r)) row.push_back(cell);
    row.push_back(format_num(
        (r.tx_energy_mj + r.rx_energy_mj + r.listen_energy_mj) / 1000.0, 1));
    t.add_row(std::move(row));
  }
  print_table("Table III: " + std::string(opt.quick ? "5x5" : "15x15") +
                  " medium grid (heavy noise, 20 KB, " +
                  std::to_string(opt.repeats) + " seeds)",
              t);
  write_bench_json("table3_multihop_medium", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  lrs::bench::run(lrs::bench::parse_bench_options(argc, argv, 2));
  return 0;
}
