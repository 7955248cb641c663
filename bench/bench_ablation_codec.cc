// Ablation: the erasure-code instance behind LR-Seluge.
//
//  * rs     — systematic Cauchy Reed-Solomon, MDS: any k' = k packets
//             decode deterministically.
//  * rlc2   — systematic random linear code over GF(2) (XOR-only — what a
//             mica2-class mote would actually run); decoding needs rank k,
//             so the nominal threshold carries delta extra packets.
//  * rlc256 — random linear code over GF(256); near-MDS with cheap-ish
//             arithmetic.
//  * lrc    — pyramid locally repairable code: k' = k + g - 1 (39 at the
//             paper geometry), trading extra SNACK traffic for cheap
//             single-erasure repair.
//
// Expected shape: RS is the traffic floor; rlc2 pays
// a small overhead (its k' = k + delta inflates both the distance math and
// the occasional decode failure retry); rlc256 sits in between; lrc pays
// the largest deterministic k' premium. This quantifies the paper's
// "k' > k" remark in §VI-B.1. The k' column reports each codec's actual
// decode_threshold(), not k + delta.
#include "bench/common.h"

namespace lrs::bench {
namespace {

void run(const BenchOptions& opt) {
  struct Variant {
    erasure::CodecKind kind;
    std::size_t delta;
    const char* name;
  };
  const Variant variants[] = {
      {erasure::CodecKind::kReedSolomon, 0, "rs"},
      {erasure::CodecKind::kRlcGf256, 1, "rlc256"},
      {erasure::CodecKind::kRlcGf2, 2, "rlc2"},
      {erasure::CodecKind::kLt, 16, "lt(n=64)"},
      {erasure::CodecKind::kLrc, 0, "lrc"},
  };
  const std::vector<double> losses =
      opt.quick ? std::vector<double>{0.1} : std::vector<double>{0.0, 0.1,
                                                                 0.2};
  std::vector<core::ExperimentConfig> configs;
  std::vector<std::vector<std::string>> prefixes;
  for (double p : losses) {
    for (const auto& v : variants) {
      auto cfg = paper_config(core::Scheme::kLrSeluge);
      cfg.params.codec = v.kind;
      cfg.params.delta = v.delta;
      // LT's peeling decoder needs substantial headroom at k = 32; give it
      // a wider packet window so the threshold stays below n.
      if (v.kind == erasure::CodecKind::kLt) cfg.params.n = 64;
      cfg.channel = sim::ChannelSpec::uniform(p);
      configs.push_back(cfg);
      // Report the codec's real threshold (LRC's k' = k + g - 1 is a
      // property of the construction, not of delta).
      const auto code = erasure::make_code_cached(
          v.kind, cfg.params.k, cfg.params.n, v.delta, cfg.params.code_seed);
      prefixes.push_back(
          {format_num(p, 2), v.name,
           format_num(static_cast<double>(code->decode_threshold()))});
    }
  }
  const auto results = run_sweep(configs, opt);

  Table t({"p", "codec", "k'", "data_pkts", "snack_pkts", "total_bytes",
           "recv_bytes", "latency_s", "completed"});
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
  print_table("Ablation: erasure codec (LR-Seluge, one-hop, N=20, " +
                  std::to_string(opt.repeats) + " seeds)",
              t);
  write_bench_json("ablation_codec", t, sweep_extras(opt));
}

}  // namespace
}  // namespace lrs::bench

int main(int argc, char** argv) {
  lrs::bench::run(lrs::bench::parse_bench_options(argc, argv, 3));
  return 0;
}
