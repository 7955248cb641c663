// Figure 3: analytical vs simulated data-packet transmissions for ONE page
// in a one-hop cell.
//
//  (a) vs packet-loss rate p (N = 10 receivers)
//  (b) vs number of receivers N (p = 0.2)
//
// Series: Seluge analytic (Theorem-1 closed form), Seluge simulated,
// ACK-based LR-Seluge analytic bound (Monte Carlo of the exact process),
// LR-Seluge simulated. Simulated values exclude hash-page (page 0) packets
// so they are comparable with the single-content-page models. Expected
// shape: simulation tracks the analytic curves; LR-Seluge stays below the
// ACK bound's neighborhood and far below Seluge once p grows; the ACK
// bound steps up when one coding round stops sufficing
// (P[Bin(n,1-p) >= k'] collapsing).
#include <iostream>

#include "analysis/one_hop.h"
#include "bench/common.h"

namespace lrs::bench {
namespace {

core::ExperimentConfig one_page_config(core::Scheme scheme, double p,
                                       std::size_t receivers) {
  core::ExperimentConfig c = paper_config(scheme);
  // Size the image to exactly one content page.
  c.image_size = c.params.k * c.params.payload_size;  // page g capacity
  c.topo_spec.receivers = receivers;
  c.channel = sim::ChannelSpec::uniform(p);
  return c;
}

double content_data(const core::ExperimentResult& r) {
  return static_cast<double>(r.data_packets) -
         static_cast<double>(r.page0_data_packets);
}

void part_a(const BenchOptions& opt) {
  const std::size_t kReceivers = 10;
  const auto base = paper_config(core::Scheme::kLrSeluge);
  const std::vector<double> losses =
      opt.quick
          ? std::vector<double>{0.0, 0.2, 0.4}
          : std::vector<double>{0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35,
                                0.4, 0.45};

  // Two configs (Seluge, LR-Seluge) per loss point, one shared sweep.
  std::vector<core::ExperimentConfig> configs;
  for (double p : losses) {
    configs.push_back(one_page_config(core::Scheme::kSeluge, p, kReceivers));
    configs.push_back(one_page_config(core::Scheme::kLrSeluge, p,
                                      kReceivers));
  }
  const auto results = run_sweep(configs, opt);

  Table t({"p", "seluge_analytic", "seluge_sim", "acklr_analytic",
           "lr_sim", "one_round_prob"});
  for (std::size_t i = 0; i < losses.size(); ++i) {
    const double p = losses[i];
    analysis::AckLrModel model;
    model.k_prime = base.params.k;
    model.n = base.params.n;
    model.receivers = kReceivers;
    model.loss = p;
    model.trials = 5000;
    t.add_row({format_num(p, 2),
               format_num(analysis::seluge_expected_data_tx(
                   base.params.k, kReceivers, p), 1),
               format_num(content_data(results[2 * i]), 1),
               format_num(model.evaluate(), 1),
               format_num(content_data(results[2 * i + 1]), 1),
               format_num(analysis::one_round_completion_probability(
                   base.params.k, base.params.n, p), 3)});
  }
  print_table("Fig. 3(a): data packets per page vs loss rate (N=10)", t);
  write_bench_json("fig3a_analysis", t, sweep_extras(opt));
}

void part_b(const BenchOptions& opt) {
  const double kLoss = 0.2;
  const auto base = paper_config(core::Scheme::kLrSeluge);
  const std::vector<std::size_t> counts =
      opt.quick ? std::vector<std::size_t>{5, 20}
                : std::vector<std::size_t>{1, 5, 10, 15, 20, 25, 30};

  std::vector<core::ExperimentConfig> configs;
  for (std::size_t n_recv : counts) {
    configs.push_back(one_page_config(core::Scheme::kSeluge, kLoss, n_recv));
    configs.push_back(one_page_config(core::Scheme::kLrSeluge, kLoss,
                                      n_recv));
  }
  const auto results = run_sweep(configs, opt);

  Table t({"N", "seluge_analytic", "seluge_sim", "acklr_analytic", "lr_sim"});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::size_t n_recv = counts[i];
    analysis::AckLrModel model;
    model.k_prime = base.params.k;
    model.n = base.params.n;
    model.receivers = n_recv;
    model.loss = kLoss;
    model.trials = 5000;
    t.add_row({format_num(static_cast<double>(n_recv)),
               format_num(analysis::seluge_expected_data_tx(
                   base.params.k, n_recv, kLoss), 1),
               format_num(content_data(results[2 * i]), 1),
               format_num(model.evaluate(), 1),
               format_num(content_data(results[2 * i + 1]), 1)});
  }
  print_table("Fig. 3(b): data packets per page vs receivers (p=0.2)", t);
  write_bench_json("fig3b_analysis", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  const auto opt = lrs::bench::parse_bench_options(argc, argv, 5);
  lrs::bench::part_a(opt);
  // --trace/--timeseries apply to part (a) only; a second traced sweep
  // would overwrite part (a)'s files at the same paths.
  auto opt_b = opt;
  opt_b.trace.clear();
  opt_b.timeseries.clear();
  opt_b.trace_all = false;
  lrs::bench::part_b(opt_b);
  return 0;
}
