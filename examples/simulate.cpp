// General-purpose dissemination simulator CLI — every experiment in the
// paper (and beyond) from one command line.
//
//   ./examples/simulate --scheme lr-seluge --loss 0.2 --receivers 20
//   ./examples/simulate --scheme seluge --topo grid --spacing 10 --noise
//   ./examples/simulate --codec rlc2 --delta 2 --n 64 --image-kb 40 --seeds 5
//
// The second line runs Table II conditions (the grid defaults to 15x15).
// Run with --help for the full flag list.
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "core/provenance.h"
#include "sim/stats/stats.h"
#include "util/args.h"

using namespace lrs;
using namespace lrs::core;

namespace {

void usage() {
  std::printf(
      "usage: simulate [flags]\n"
      "  --scheme S      deluge | rateless | seluge | lr-seluge (default)\n"
      "  --topo T        star (default) | grid\n"
      "  --receivers N   one-hop receivers (star, default 20)\n"
      "  --rows R --cols C --spacing D   grid geometry (default 15x15x10)\n"
      "  --loss P        i.i.d. app-layer loss probability (default 0.1)\n"
      "  --noise         Gilbert-Elliott bursty noise instead of i.i.d.\n"
      "  --image-kb KB   image size (default 20)\n"
      "  --k K --n N     erasure geometry (default 32/48)\n"
      "  --payload B     packet payload bytes (default 64)\n"
      "  --codec C       rs (default) | rlc2 | rlc256 | lt | lrc,\n"
      "                  with --delta D (rlc/lt headroom)\n"
      "  --union-sched   serve with the union scheduler (ablation)\n"
      "  --leap          LEAP-style per-source SNACK authentication\n"
      "  --seeds S       runs to average (default 1), --seed base seed\n"
      "  --limit SECONDS simulated-time budget (default 3600)\n"
      "  --trace P       structured event trace of the first run: JSONL to\n"
      "                  P plus a Chrome-trace twin at P's .chrome.json\n"
      "  --timeseries P  sampled progress counters (JSON) of the first run\n"
      "  --metrics P     runtime metrics/profiling JSON to P ('-' = stdout)\n"
      "  --metrics-heartbeat S   with --metrics: stderr progress line\n"
      "                  every S seconds\n"
      "  (trace and metrics format spec: docs/observability.md)\n");
}

std::optional<Scheme> parse_scheme(const std::string& s) {
  if (s == "deluge") return Scheme::kDeluge;
  if (s == "rateless") return Scheme::kRatelessDeluge;
  if (s == "seluge") return Scheme::kSeluge;
  if (s == "lr-seluge" || s == "lr") return Scheme::kLrSeluge;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  if (args.get_bool("help", false)) {
    usage();
    return 0;
  }

  ExperimentConfig cfg;
  const auto scheme = parse_scheme(args.get("scheme", "lr-seluge"));
  if (!scheme) {
    std::fprintf(stderr, "unknown --scheme\n");
    usage();
    return 2;
  }
  cfg.scheme = *scheme;
  const bool grid = args.get("topo", "star") == "grid";
  const auto receivers =
      static_cast<std::size_t>(args.get_int("receivers", 20));
  const auto rows = static_cast<std::size_t>(args.get_int("rows", 15));
  const auto cols = static_cast<std::size_t>(args.get_int("cols", 15));
  const double spacing = args.get_double("spacing", 10.0);
  cfg.topo_spec = grid ? sim::TopologySpec::grid(rows, cols, spacing)
                       : sim::TopologySpec::star(receivers);
  // --noise replaces the uniform --loss with Gilbert-Elliott bursts.
  const double loss = args.get_double("loss", 0.1);
  cfg.channel = args.get_bool("noise", false)
                    ? sim::ChannelSpec::gilbert_elliott()
                    : sim::ChannelSpec::uniform(loss);
  cfg.image_size = static_cast<std::size_t>(args.get_int("image-kb", 20)) *
                   1024;
  cfg.params.k = static_cast<std::size_t>(args.get_int("k", 32));
  cfg.params.n = static_cast<std::size_t>(args.get_int("n", 48));
  cfg.params.payload_size =
      static_cast<std::size_t>(args.get_int("payload", 64));
  cfg.params.delta = static_cast<std::size_t>(args.get_int("delta", 0));
  cfg.params.puzzle_strength = 8;
  cfg.params.lr_greedy_scheduler = !args.get_bool("union-sched", false);
  cfg.params.leap_snack_auth = args.get_bool("leap", false);
  const auto codec = erasure::parse_codec_kind(args.get("codec", "rs"));
  if (!codec) {
    std::fprintf(stderr, "unknown --codec\n");
    return 2;
  }
  cfg.params.codec = *codec;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.time_limit = args.get_int("limit", 3600) * sim::kSecond;
  const auto seeds = static_cast<std::size_t>(args.get_int("seeds", 1));
  cfg.trace.events_path = args.get("trace", "");
  if (!cfg.trace.events_path.empty()) {
    const std::string& p = cfg.trace.events_path;
    const auto dot = p.find_last_of('.');
    cfg.trace.chrome_path =
        (dot == std::string::npos || p.find('/', dot) != std::string::npos
             ? p
             : p.substr(0, dot)) +
        ".chrome.json";
  }
  cfg.trace.timeseries_path = args.get("timeseries", "");
  const std::string metrics = args.get("metrics", "");
  const double metrics_heartbeat = args.get_double("metrics-heartbeat", 0.0);

  if (metrics_heartbeat < 0 || (metrics_heartbeat > 0 && metrics.empty())) {
    std::fprintf(stderr,
                 "--metrics-heartbeat needs --metrics P and a positive"
                 " period\n");
    return 2;
  }
  if (!args.errors().empty() || !args.unknown().empty()) {
    for (const auto& e : args.errors()) std::fprintf(stderr, "%s\n", e.c_str());
    for (const auto& u : args.unknown())
      std::fprintf(stderr, "unknown flag %s\n", u.c_str());
    usage();
    return 2;
  }

  if (!metrics.empty()) {
    stats::Registry::instance().reset_values();
    stats::set_enabled(true);
    if (metrics_heartbeat > 0) stats::start_heartbeat(metrics_heartbeat);
  }

  const auto r = run_experiment_avg(cfg, seeds);
  std::printf("scheme=%s complete=%zu/%zu images_ok=%s\n",
              scheme_name(cfg.scheme), r.completed, r.receivers,
              r.images_match ? "yes" : "NO");
  std::printf("data=%lu snack=%lu adv=%lu signature=%lu packets\n",
              static_cast<unsigned long>(r.data_packets),
              static_cast<unsigned long>(r.snack_packets),
              static_cast<unsigned long>(r.adv_packets),
              static_cast<unsigned long>(r.sig_packets));
  std::printf("total_bytes=%lu latency=%.2fs collisions=%lu\n",
              static_cast<unsigned long>(r.total_bytes), r.latency_s,
              static_cast<unsigned long>(r.collisions));
  std::printf("hash_checks=%lu sig_checks=%lu auth_failures=%lu\n",
              static_cast<unsigned long>(r.hash_verifications),
              static_cast<unsigned long>(r.signature_verifications),
              static_cast<unsigned long>(r.auth_failures));
  // After the summary so that with --metrics - the document is the
  // trailing block of stdout (matching the bench harnesses' at-exit
  // export order).
  if (!metrics.empty()) {
    stats::write_metrics_json(metrics, core::provenance_json("  "));
  }
  return r.all_complete ? 0 : 1;
}
