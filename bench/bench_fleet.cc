// Fleet-engine throughput and convergence ladder (ISSUE 10 tentpole).
//
// Drives the multi-tenant campaign engine (src/fleet) through a tenants x
// cells ladder — up to 16 tenants and 1024 concurrent one-hop cells in one
// process — mixing codecs (rs / lrc), image versions and at
// least one delta-image tenant per rung, and reports per-tenant completion,
// aggregate events/sec, per-tenant load imbalance and peak RSS.
//
//   ./bench_fleet                 # full ladder: 4x16, 8x32, 16x64 cells
//   ./bench_fleet --quick         # CI tier: one 8-tenant, 64-cell rung
//   ./bench_fleet --jobs=8        # worker count (default LRS_JOBS)
//
// Column contract (docs/fleet.md): every column up to and including
// "images_ok" is a pure function of the rung's tenant specs and must be
// byte-identical for any worker count — CI diffs them serial vs LRS_JOBS=8.
// That includes "imbalance": max/mean per-cell event load, derived from
// deterministic event counts. The trailing wall_s / events_per_sec /
// peak_rss_mb / steals columns are machine- and schedule-dependent and are
// excluded from determinism comparisons (steals is the work-stealing
// pool's successful-steal count — Gauge territory, never a Counter).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "fleet/engine.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs {
namespace {

/// One rung of the ladder: `tenants` tenants with `cells_per_tenant` cells
/// each (total = product).
struct Rung {
  std::size_t tenants;
  std::size_t cells_per_tenant;
};

const std::vector<Rung> kLadder = {{4, 16}, {8, 32}, {16, 64}};
const std::vector<Rung> kQuickLadder = {{8, 8}};

/// Tenant `t` of a rung: small LR-Seluge geometry (fast cells), codec
/// cycling rs / lrc / rs, versions 1-3, image sizes 1-2.5 KB, heterogeneous 4-12 receiver stars, and every fifth
/// tenant a delta-image tenant (previous version's image patched to this
/// one, only changed pages disseminated).
fleet::TenantSpec tenant_spec(std::size_t rung_index, std::size_t t,
                              std::size_t cells_per_tenant) {
  fleet::TenantSpec spec;
  {
    std::string id = std::to_string(t);
    if (id.size() < 2) id.insert(id.begin(), '0');
    spec.name = "t" + id;
  }
  spec.params.payload_size = 32;
  spec.params.k = 8;
  spec.params.n = 12;
  spec.params.k0 = 4;
  spec.params.n0 = 8;
  spec.params.puzzle_strength = 4;
  spec.delta = (t % 5) == 4;
  spec.params.version =
      spec.delta ? 2 : static_cast<Version>(1 + t % 3);
  const erasure::CodecKind kCodecs[] = {erasure::CodecKind::kReedSolomon,
                                        erasure::CodecKind::kLrc,
                                        erasure::CodecKind::kReedSolomon};
  spec.params.codec = kCodecs[t % 3];
  spec.image_size = 1024 + 512 * (t % 4);
  spec.seed = 1 + 1000 * rung_index + t;
  spec.cells = cells_per_tenant;
  spec.receivers_min = 4;
  spec.receivers_max = 12;
  spec.loss_p = 0.01 + 0.02 * static_cast<double>(t % 3);
  spec.delta_page_size = 256;
  // Tight Trickle so the tiny images converge in simulated seconds; the
  // harness prices engine throughput, not Deluge's idle advertisement tail.
  spec.timing.trickle.tau_low = 250 * sim::kMillisecond;
  spec.timing.trickle.tau_high = 4 * sim::kSecond;
  spec.time_limit = 600LL * sim::kSecond;
  return spec;
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const long jobs_flag = args.get_int("jobs", 0);
  const std::string metrics = args.get("metrics", "");
  const double metrics_heartbeat = args.get_double("metrics-heartbeat", 0.0);

  bool bad = jobs_flag < 0;
  if (metrics_heartbeat < 0 || (metrics_heartbeat > 0 && metrics.empty())) {
    std::cerr << "error: --metrics-heartbeat needs --metrics=FILE and a"
                 " positive period\n";
    bad = true;
  }
  for (const auto& e : args.errors()) {
    std::cerr << "error: " << e << "\n";
    bad = true;
  }
  for (const auto& u : args.unknown()) {
    std::cerr << "error: unknown flag " << u << "\n";
    bad = true;
  }
  if (!args.positional().empty()) {
    std::cerr << "error: bench_fleet takes no positional arguments\n";
    bad = true;
  }
  if (bad) {
    std::cerr << "usage: " << argv[0]
              << " [--quick] [--jobs=J] [--metrics=M.json]"
                 " [--metrics-heartbeat=S]\n";
    return 2;
  }
  bench::arm_metrics_export(metrics, metrics_heartbeat);

  const std::vector<Rung>& ladder = quick ? kQuickLadder : kLadder;

  Table table({"rung", "tenants", "cells", "tenant", "codec", "version",
               "delta", "receivers", "converged", "events",
               "max_cell_events", "imbalance", "data_pkts", "snack_pkts",
               "total_bytes", "latency_s", "images_ok", "wall_s",
               "events_per_sec", "peak_rss_mb", "steals"});

  bool all_converged = true;
  for (std::size_t ri = 0; ri < ladder.size(); ++ri) {
    const Rung& rung = ladder[ri];
    const std::string rung_name = std::to_string(rung.tenants) + "x" +
                                  std::to_string(rung.cells_per_tenant);

    fleet::FleetEngine engine;
    for (std::size_t t = 0; t < rung.tenants; ++t) {
      engine.add_tenant(tenant_spec(ri, t, rung.cells_per_tenant));
    }
    engine.prepare();

    bench::reset_peak_rss();
    const auto t0 = std::chrono::steady_clock::now();
    const fleet::FleetReport report =
        engine.run(static_cast<std::size_t>(jobs_flag));
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    const double rss = bench::peak_rss_mb();

    for (const fleet::TenantResult& tr : report.tenants) {
      if (tr.phase != fleet::TenantPhase::kConverged) {
        all_converged = false;
        std::cerr << "FAIL " << rung_name << "/" << tr.name << ": "
                  << fleet::phase_name(tr.phase) << " ("
                  << tr.converged_cells << "/" << tr.cells
                  << " cells converged)\n";
      }
      // Per-tenant rows carry only deterministic cells; the rung-level
      // timing numbers live on the ALL row so they appear exactly once.
      table.add_row({rung_name, std::to_string(rung.tenants),
                     std::to_string(report.cells), tr.name,
                     erasure::codec_kind_name(tr.codec), std::to_string(tr.version),
                     tr.delta ? "true" : "false",
                     std::to_string(tr.receivers),
                     std::to_string(tr.converged_cells) + "/" +
                         std::to_string(tr.cells),
                     std::to_string(tr.events),
                     std::to_string(tr.max_cell_events),
                     format_num(tr.imbalance(), 3),
                     std::to_string(tr.data_packets),
                     std::to_string(tr.snack_packets),
                     std::to_string(tr.total_bytes),
                     format_num(tr.latency_max_s, 1),
                     tr.images_ok ? "true" : "false", "", "", "", ""});
    }

    std::size_t converged = 0;
    std::uint64_t data = 0, snack = 0, bytes = 0;
    std::size_t receivers = 0;
    double latency = 0.0;
    bool images_ok = true;
    for (const fleet::TenantResult& tr : report.tenants) {
      converged += tr.converged_cells;
      receivers += tr.receivers;
      data += tr.data_packets;
      snack += tr.snack_packets;
      bytes += tr.total_bytes;
      latency = std::max(latency, tr.latency_max_s);
      images_ok = images_ok && tr.images_ok;
    }
    table.add_row({rung_name, std::to_string(rung.tenants),
                   std::to_string(report.cells), "ALL", "-", "0", "false",
                   std::to_string(receivers),
                   std::to_string(converged) + "/" +
                       std::to_string(report.cells),
                   std::to_string(report.events),
                   std::to_string(report.max_cell_events),
                   format_num(report.imbalance(), 3), std::to_string(data),
                   std::to_string(snack), std::to_string(bytes),
                   format_num(latency, 1), images_ok ? "true" : "false",
                   format_num(wall, 3),
                   format_num(static_cast<double>(report.events) / wall),
                   format_num(rss, 3), std::to_string(report.steals)});
  }

  bench::print_table("fleet engine ladder", table);

  std::vector<std::pair<std::string, std::string>> extras = {
      {"quick", quick ? "true" : "false"},
      {"jobs", std::to_string(jobs_flag)}};
  bench::write_bench_json("fleet", table, extras);
  return all_converged ? 0 : 1;
}

}  // namespace
}  // namespace lrs

int main(int argc, char** argv) { return lrs::run(argc, argv); }
