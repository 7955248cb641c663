// Microbenchmarks for the erasure-coding substrate: GF(256) inner loops
// across every dispatched kernel, matrix inversion, and full-page
// encode/decode for the paper's geometry (k=32, n=48, 64-byte blocks) —
// the per-page computational price of loss resilience.
//
// Besides the google-benchmark console table, the binary runs a self-timed
// sweep of kernels x (k, n, payload) and writes machine-readable results to
// BENCH_micro_erasure.json (override the path with LRS_BENCH_JSON, skip with
// LRS_BENCH_JSON=none) so successive PRs have a perf trajectory to track.
// The sweep also covers the LRC backend: encode/decode per geometry, the
// local-repair fast path and Monte Carlo local-repair hit rates at the
// Fig. 6 loss points, plus RS decode at the paper geometry by erased-data
// count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/gf256_kernels.h"
#include "core/provenance.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/rng.h"

namespace {

using namespace lrs;
using namespace lrs::erasure;

std::vector<Bytes> random_blocks(std::size_t k, std::size_t len,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(len);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return blocks;
}

// ---------------------------------------------------------------------------
// google-benchmark table: per-kernel addmul plus codec-level encode/decode.
// ---------------------------------------------------------------------------

void BM_Gf256Addmul(benchmark::State& state, const std::string& kernel_name,
                    std::size_t len) {
  const Gf256Kernel* kernel = gf256_find_kernel(kernel_name);
  if (kernel == nullptr) {
    state.SkipWithError("kernel unavailable on this CPU");
    return;
  }
  Bytes dst(len, 3), src(len, 7);
  for (auto _ : state) {
    kernel->addmul(dst.data(), src.data(), len, 0x8e);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_MatrixInvert(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  MatrixGf256 m(n, n);
  do {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        m.set(r, c, static_cast<std::uint8_t>(rng.uniform(256)));
  } while (!m.inverted().has_value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.inverted());
  }
}
BENCHMARK(BM_MatrixInvert)->Arg(8)->Arg(32);

void encode_bench(benchmark::State& state, CodecKind kind,
                  std::size_t delta) {
  auto code = make_code(kind, 32, 48, delta, 42);
  const auto blocks = random_blocks(32, 64, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code->encode(blocks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * 64);
}

void decode_bench(benchmark::State& state, CodecKind kind,
                  std::size_t delta) {
  auto code = make_code(kind, 32, 48, delta, 42);
  const auto blocks = random_blocks(32, 64, 3);
  const auto encoded = code->encode(blocks);
  // Worst-ish case: all parity-heavy tail shares.
  std::vector<Share> shares;
  const std::size_t take = code->decode_threshold() + 2;
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t idx = 48 - 1 - i;
    shares.push_back({idx, encoded[idx]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code->decode(shares));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * 64);
}

void BM_RsEncode(benchmark::State& s) { encode_bench(s, CodecKind::kReedSolomon, 0); }
void BM_RsDecode(benchmark::State& s) { decode_bench(s, CodecKind::kReedSolomon, 0); }
void BM_Rlc2Encode(benchmark::State& s) { encode_bench(s, CodecKind::kRlcGf2, 2); }
void BM_Rlc2Decode(benchmark::State& s) { decode_bench(s, CodecKind::kRlcGf2, 2); }
void BM_Rlc256Encode(benchmark::State& s) { encode_bench(s, CodecKind::kRlcGf256, 1); }
void BM_Rlc256Decode(benchmark::State& s) { decode_bench(s, CodecKind::kRlcGf256, 1); }
void BM_LrcEncode(benchmark::State& s) { encode_bench(s, CodecKind::kLrc, 0); }
void BM_LrcDecode(benchmark::State& s) { decode_bench(s, CodecKind::kLrc, 0); }

BENCHMARK(BM_RsEncode);
BENCHMARK(BM_RsDecode);
BENCHMARK(BM_Rlc2Encode);
BENCHMARK(BM_Rlc2Decode);
BENCHMARK(BM_Rlc256Encode);
BENCHMARK(BM_Rlc256Decode);
BENCHMARK(BM_LrcEncode);
BENCHMARK(BM_LrcDecode);

void BM_LrcLocalRepairDecode(benchmark::State& state) {
  // The cheap path the LRC exists for: one data block missing, its group's
  // local parity present — repair touches 5 blocks instead of a 32-wide
  // solve.
  auto code = make_lrc_code(32, 48);
  const auto blocks = random_blocks(32, 64, 5);
  const auto encoded = code->encode(blocks);
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 32; ++i)
    if (i != 6) shares.push_back({i, encoded[i]});
  shares.push_back({32 + 1, encoded[32 + 1]});  // local parity of group 1
  for (auto _ : state) {
    benchmark::DoNotOptimize(code->decode(shares));
  }
}
BENCHMARK(BM_LrcLocalRepairDecode);

void BM_SystematicFastPathDecode(benchmark::State& state) {
  auto code = make_rs_code(32, 48);
  const auto blocks = random_blocks(32, 64, 4);
  const auto encoded = code->encode(blocks);
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 32; ++i) shares.push_back({i, encoded[i]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(code->decode(shares));
  }
}
BENCHMARK(BM_SystematicFastPathDecode);

void BM_CodecCacheHit(benchmark::State& state) {
  make_code_cached(CodecKind::kReedSolomon, 32, 48, 0, 0);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_code_cached(CodecKind::kReedSolomon, 32, 48, 0, 0));
  }
}
BENCHMARK(BM_CodecCacheHit);

void BM_CodecConstructUncached(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_rs_code(32, 48));
  }
}
BENCHMARK(BM_CodecConstructUncached);

void register_kernel_benchmarks() {
  for (const auto& name : gf256_available_kernels()) {
    for (std::size_t len : {64u, 1024u}) {
      const std::string bench_name =
          "BM_Gf256Addmul/kernel=" + name + "/len=" + std::to_string(len);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [name, len](benchmark::State& s) { BM_Gf256Addmul(s, name, len); });
    }
  }
}

// ---------------------------------------------------------------------------
// Self-timed JSON sweep: kernels x (k, n, payload) -> BENCH_micro_erasure.json
// ---------------------------------------------------------------------------

struct SweepResult {
  std::string name;
  double mb_per_s;
  double ns_per_op;
};

/// Times fn (which processes `bytes` payload bytes per call): three
/// repetitions of ~150 ms each after a calibration warmup, keeping the
/// fastest — the standard defense against scheduler/steal-time noise on
/// shared CI machines. Returns {MB/s, ns/op}.
template <typename Fn>
SweepResult time_op(const std::string& name, std::size_t bytes, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  // Warmup + iteration calibration.
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (elapsed > 0.02 || iters > (1u << 24)) break;
    iters *= 4;
  }
  double best_ns_per_op = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::size_t done = 0;
    double elapsed = 0;
    do {
      for (std::size_t i = 0; i < iters; ++i) fn();
      done += iters;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < 0.15);
    const double ns_per_op = elapsed * 1e9 / static_cast<double>(done);
    if (rep == 0 || ns_per_op < best_ns_per_op) best_ns_per_op = ns_per_op;
  }
  const double mb_per_s =
      static_cast<double>(bytes) * 1e3 / best_ns_per_op;
  return {name, mb_per_s, best_ns_per_op};
}

struct SweepConfig {
  std::size_t k, n, payload;
};

std::vector<SweepResult> run_sweep() {
  std::vector<SweepResult> results;
  const SweepConfig configs[] = {
      {32, 48, 64},    // the paper's page geometry
      {16, 24, 32},    // small pages / page-0-like
      {64, 128, 256},  // scaled-up workload
  };
  const std::string active = gf256_kernel().name;
  for (const auto& name : gf256_available_kernels()) {
    if (!gf256_set_kernel(name)) continue;
    const Gf256Kernel* kernel = gf256_find_kernel(name);

    // Raw addmul at a few buffer sizes.
    for (std::size_t len : {64u, 256u, 4096u}) {
      Bytes dst(len, 3), src(len, 7);
      results.push_back(time_op(
          "gf256_addmul/kernel=" + name + "/len=" + std::to_string(len), len,
          [&] {
            kernel->addmul(dst.data(), src.data(), len, 0x8e);
            benchmark::DoNotOptimize(dst.data());
          }));
    }

    // Full RS encode + parity-heavy decode per geometry.
    for (const auto& cfg : configs) {
      const std::string suffix = "/kernel=" + name +
                                 "/k=" + std::to_string(cfg.k) +
                                 "/n=" + std::to_string(cfg.n) +
                                 "/len=" + std::to_string(cfg.payload);
      auto code = make_rs_code(cfg.k, cfg.n);
      const auto blocks = random_blocks(cfg.k, cfg.payload, 2);
      const std::size_t page_bytes = cfg.k * cfg.payload;
      results.push_back(time_op("rs_encode" + suffix, page_bytes, [&] {
        benchmark::DoNotOptimize(code->encode(blocks));
      }));

      const auto encoded = code->encode(blocks);
      std::vector<Share> shares;
      for (std::size_t i = 0; i < cfg.k; ++i) {
        const std::size_t idx = cfg.n - 1 - i;
        shares.push_back({idx, encoded[idx]});
      }
      results.push_back(time_op("rs_decode" + suffix, page_bytes, [&] {
        benchmark::DoNotOptimize(code->decode(shares));
      }));
    }
  }
  gf256_set_kernel(active);
  return results;
}

/// LRC rows: encode/decode under the active kernel, the local-repair fast
/// path, and Monte Carlo local-repair hit rates under the Fig. 6 loss
/// points. These run once (not per kernel): LRC's hot loops go through the
/// same dispatched addmul as RS.
void append_codec_sweep(std::vector<SweepResult>& results) {
  const SweepConfig configs[] = {
      {32, 48, 64},
      {16, 24, 32},
      {64, 128, 256},
  };
  for (const auto& cfg : configs) {
    const std::string suffix = "/k=" + std::to_string(cfg.k) +
                               "/n=" + std::to_string(cfg.n) +
                               "/len=" + std::to_string(cfg.payload);
    auto code = make_lrc_code(cfg.k, cfg.n);
    const auto blocks = random_blocks(cfg.k, cfg.payload, 2);
    const std::size_t page_bytes = cfg.k * cfg.payload;
    results.push_back(time_op("lrc_encode" + suffix, page_bytes, [&] {
      benchmark::DoNotOptimize(code->encode(blocks));
    }));

    // Parity-heavy decode at the codec's own threshold.
    const auto encoded = code->encode(blocks);
    std::vector<Share> shares;
    for (std::size_t i = 0; i < code->decode_threshold(); ++i) {
      const std::size_t idx = cfg.n - 1 - i;
      shares.push_back({idx, encoded[idx]});
    }
    results.push_back(time_op("lrc_decode" + suffix, page_bytes, [&] {
      benchmark::DoNotOptimize(code->decode(shares));
    }));
  }

  // LRC local-repair fast path at the paper geometry: one erased data block
  // repaired from its group alone.
  {
    auto code = make_lrc_code(32, 48);
    const auto blocks = random_blocks(32, 64, 5);
    const auto encoded = code->encode(blocks);
    std::vector<Share> shares;
    for (std::size_t i = 0; i < 32; ++i)
      if (i != 6) shares.push_back({i, encoded[i]});
    shares.push_back({32 + 1, encoded[32 + 1]});
    results.push_back(
        time_op("lrc_decode_local_repair/k=32/n=48/len=64", 32 * 64, [&] {
          benchmark::DoNotOptimize(code->decode(shares));
        }));
  }
}

/// RS decode at the paper geometry by erased-data count e: k-e data shares
/// plus e parity shares, the systematic solve's cost axis (e*(k-e) + e^2 row
/// addmuls plus an e x e inverse). Active kernel only.
void append_rs_erasure_sweep(std::vector<SweepResult>& results) {
  auto code = make_rs_code(32, 48);
  const auto blocks = random_blocks(32, 64, 7);
  const auto encoded = code->encode(blocks);
  for (std::size_t erased : {0u, 1u, 4u, 16u}) {
    // Erase every other data block from the front, substitute the first
    // parity shares.
    std::vector<Share> shares;
    for (std::size_t i = 0; i < 32; ++i) {
      if (i % 2 == 0 && i / 2 < erased) continue;
      shares.push_back({i, encoded[i]});
    }
    for (std::size_t p = 0; p < erased; ++p)
      shares.push_back({32 + p, encoded[32 + p]});
    results.push_back(time_op(
        "rs/decode/k=32,n=48/erased=" + std::to_string(erased), 32 * 64, [&] {
          benchmark::DoNotOptimize(code->decode(shares));
        }));
  }
}

/// Monte Carlo local-repair hit rate: i.i.d. packet loss at the Fig. 6
/// points, decode from the survivors, count how often the page completed
/// without a k-wide solve. The counters live in the process-wide metrics
/// registry, so each loss point resets them before its trial loop.
void append_local_repair_rates(std::vector<SweepResult>& results) {
  stats::set_enabled(true);
  auto& reg = stats::Registry::instance();
  stats::Counter& decodes = reg.counter("erasure.lrc.decodes");
  stats::Counter& local_only = reg.counter("erasure.lrc.local_only_decodes");
  const struct {
    double p;
    const char* label;
  } losses[] = {{0.05, "0.05"}, {0.1, "0.1"}, {0.2, "0.2"}};
  for (const auto& loss : losses) {
    auto code = make_lrc_code(32, 48);
    decodes.reset();
    local_only.reset();
    const auto blocks = random_blocks(32, 64, 6);
    const auto encoded = code->encode(blocks);
    Rng rng(static_cast<std::uint64_t>(loss.p * 1000) + 9);
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
      std::vector<Share> shares;
      for (std::size_t i = 0; i < 48; ++i) {
        if (rng.uniform(10000) < static_cast<std::size_t>(loss.p * 10000))
          continue;
        shares.push_back({i, encoded[i]});
      }
      benchmark::DoNotOptimize(code->decode(shares));
    }
    const double rate =
        decodes.value() == 0
            ? 0.0
            : static_cast<double>(local_only.value()) /
                  static_cast<double>(decodes.value());
    results.push_back({"lrc_local_repair_rate/p=" + std::string(loss.label) +
                           "/k=32/n=48",
                       rate, static_cast<double>(decodes.value())});
  }
}

/// Speedup rows: the fastest available kernel vs the reference oracle for
/// the paper config — the acceptance metric this bench exists to
/// demonstrate. "Fastest" is empirical (best measured MB/s per op), not
/// positional, so one noisy measurement window cannot misreport the ISA
/// ranking.
void append_speedups(std::vector<SweepResult>& results) {
  for (const char* op : {"rs_encode", "rs_decode", "gf256_addmul"}) {
    const std::string key = std::string(op) == "gf256_addmul"
                                ? std::string(op) + "/kernel=%s/len=64"
                                : std::string(op) + "/kernel=%s/k=32/n=48/len=64";
    auto find = [&](const std::string& kernel) -> const SweepResult* {
      std::string want = key;
      want.replace(want.find("%s"), 2, kernel);
      for (const auto& r : results) {
        if (r.name == want) return &r;
      }
      return nullptr;
    };
    const SweepResult* ref = find("ref");
    if (ref == nullptr || ref->mb_per_s <= 0) continue;
    const SweepResult* best = nullptr;
    std::string best_name;
    for (const auto& kernel : gf256_available_kernels()) {
      if (kernel == "ref") continue;
      const SweepResult* r = find(kernel);
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    if (best == nullptr) continue;
    results.push_back({std::string(op) + "/speedup/" + best_name + "_vs_ref",
                       best->mb_per_s / ref->mb_per_s, 0.0});
  }
}

void write_json(const std::vector<SweepResult>& results,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << "{\n  \"benchmark\": \"bench_micro_erasure\",\n"
      << "  \"provenance\": " << core::provenance_json("  ") << ",\n"
      << "  \"active_kernel\": \"" << gf256_kernel().name << "\",\n"
      << "  \"kernels\": [";
  const auto names = gf256_available_kernels();
  for (std::size_t i = 0; i < names.size(); ++i)
    out << (i ? ", " : "") << '"' << names[i] << '"';
  out << "],\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", ";
    if (r.name.find("/speedup/") != std::string::npos) {
      out << "\"speedup\": " << r.mb_per_s;
    } else if (r.name.find("_rate/") != std::string::npos) {
      // Monte Carlo rows: ns_per_op carries the sample count.
      out << "\"rate\": " << r.mb_per_s
          << ", \"decodes\": " << static_cast<std::size_t>(r.ns_per_op);
    } else {
      out << "\"mb_per_s\": " << r.mb_per_s
          << ", \"ns_per_op\": " << r.ns_per_op;
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << results.size() << " sweep results to " << path
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const char* env = std::getenv("LRS_BENCH_JSON");
  const std::string path =
      env != nullptr && env[0] != '\0' ? env : "BENCH_micro_erasure.json";
  if (path == "none") return 0;
  auto results = run_sweep();
  append_codec_sweep(results);
  append_rs_erasure_sweep(results);
  append_local_repair_rates(results);
  append_speedups(results);
  write_json(results, path);
  return 0;
}
