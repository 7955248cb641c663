// Figure 6(a)-(e): impact of the erasure-coding rate n/k on LR-Seluge.
//
// k is fixed at 32 while n sweeps; each loss rate gets its own series.
// Expected shape (paper §VI-B.3): introducing redundancy sharply cuts
// SNACK and data traffic (the paper cites -70.5% SNACKs and -30% data at
// p=0.1, n=56); pushing n further brings costs back up because the n*8
// bytes of next-page hashes ride inside every page, shrinking per-page
// image capacity and adding pages.
//
// The sweep also carries a codec axis {rs, lrc}: LRC's weaker-than-MDS
// threshold (k' = k + g - 1) costs extra packets at every rate, and the
// codec column lets the campaign quantify that premium point-by-point
// against the MDS baseline.
#include "bench/common.h"

namespace lrs::bench {
namespace {

void run(const BenchOptions& opt) {
  const std::vector<double> losses =
      opt.quick ? std::vector<double>{0.1} : std::vector<double>{0.05, 0.1,
                                                                 0.2};
  const std::vector<std::size_t> rates =
      opt.quick ? std::vector<std::size_t>{32, 48, 64}
                : std::vector<std::size_t>{32, 36, 40, 44, 48, 52, 56, 60,
                                           64};
  struct Codec {
    erasure::CodecKind kind;
    const char* name;
  };
  const Codec codecs[] = {
      {erasure::CodecKind::kReedSolomon, "rs"},
      {erasure::CodecKind::kLrc, "lrc"},
  };
  std::vector<core::ExperimentConfig> configs;
  std::vector<std::vector<std::string>> prefixes;
  for (const auto& codec : codecs) {
    for (double p : losses) {
      for (std::size_t n : rates) {
        auto cfg = paper_config(core::Scheme::kLrSeluge);
        cfg.params.codec = codec.kind;
        cfg.params.n = n;
        cfg.channel = sim::ChannelSpec::uniform(p);
        // Page count from the capacity math (mirrors the builder).
        const std::size_t mid =
            cfg.params.k * cfg.params.payload_size - n * 8;
        const std::size_t last = cfg.params.k * cfg.params.payload_size;
        const std::size_t pages =
            cfg.image_size <= last
                ? 1
                : 1 + (cfg.image_size - last + mid - 1) / mid;
        configs.push_back(cfg);
        prefixes.push_back({codec.name, format_num(p, 2),
                            format_num(static_cast<double>(n)),
                            format_num(static_cast<double>(n) / 32.0, 2),
                            format_num(static_cast<double>(pages))});
      }
    }
  }
  const auto results = run_sweep(configs, opt);

  std::vector<std::string> header{"codec", "p", "n", "rate", "pages"};
  header.insert(header.end(), kMetricHeader.begin(), kMetricHeader.end());
  Table t(std::move(header));
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> row = prefixes[i];
    for (auto& cell : metric_cells(results[i])) row.push_back(cell);
    t.add_row(std::move(row));
  }
  print_table("Fig. 6: impact of coding rate n/k (one-hop, N=20, k=32, " +
                  std::to_string(opt.repeats) + " seeds)",
              t);
  write_bench_json("fig6_coding_rate", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  lrs::bench::run(lrs::bench::parse_bench_options(argc, argv, 3));
  return 0;
}
