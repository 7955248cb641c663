// Microbenchmarks for the cryptographic substrate (google-benchmark):
// SHA-256 throughput across every dispatched kernel (scalar reference,
// unrolled, SHA-NI, multi-buffer SIMD), packet hashes, HMAC, Merkle
// build/path/verify, WOTS keygen/sign/verify, puzzle solve/verify. These
// are the per-packet and per-image costs a sensor node pays (paper §III
// cites 1.12 s for one ECDSA verification on a Tmote Sky — our WOTS
// substitute is measured here).
//
// Besides the google-benchmark console table, the binary runs a self-timed
// sweep of kernels x message sizes x batch widths and writes
// machine-readable results to BENCH_micro_crypto.json (override the path
// with LRS_BENCH_JSON, skip with LRS_BENCH_JSON=none) so successive PRs
// have a perf trajectory to track. The sweep ends with whole-operation
// signing rows: WOTS keygen/sign/verify and the per-trial MultiKeySigner.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/puzzle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/wots.h"
#include "core/provenance.h"
#include "util/rng.h"

namespace {

using namespace lrs;
using namespace lrs::crypto;

Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(view(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(16384);

void BM_PacketHash(benchmark::State& state) {
  const Bytes packet = random_bytes(77, 2);  // typical data-frame preimage
  for (auto _ : state) {
    benchmark::DoNotOptimize(packet_hash(view(packet)));
  }
}
BENCHMARK(BM_PacketHash);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = random_bytes(16, 3);
  const Bytes msg = random_bytes(32, 4);  // control packet
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(view(key), view(msg)));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_MerkleBuild(benchmark::State& state) {
  const std::size_t leaves = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> data;
  for (std::size_t i = 0; i < leaves; ++i) data.push_back(random_bytes(72, i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::build(data));
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(8)->Arg(16)->Arg(64);

void BM_MerkleVerify(benchmark::State& state) {
  std::vector<Bytes> data;
  for (std::size_t i = 0; i < 16; ++i) data.push_back(random_bytes(72, i));
  const auto tree = MerkleTree::build(data);
  const auto path = tree.auth_path(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MerkleTree::compute_root(view(data[5]), 5, path));
  }
}
BENCHMARK(BM_MerkleVerify);

void BM_WotsKeygen(benchmark::State& state) {
  const Bytes seed = random_bytes(32, 5);
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(WotsKeyPair::generate(view(seed), index++));
  }
}
BENCHMARK(BM_WotsKeygen);

void BM_WotsSign(benchmark::State& state) {
  const Bytes seed = random_bytes(32, 6);
  const Bytes msg = random_bytes(40, 7);
  std::uint64_t index = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto kp = WotsKeyPair::generate(view(seed), index++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(kp.sign(view(msg)));
  }
}
BENCHMARK(BM_WotsSign);

void BM_WotsVerify(benchmark::State& state) {
  const Bytes seed = random_bytes(32, 8);
  const Bytes msg = random_bytes(40, 9);
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const auto sig = kp.sign(view(msg));
  const auto pk = kp.public_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(WotsKeyPair::verify(pk, view(msg), sig));
  }
}
BENCHMARK(BM_WotsVerify);

void BM_CertifiedVerify(benchmark::State& state) {
  const Bytes seed = random_bytes(32, 10);
  const Bytes msg = random_bytes(40, 11);
  MultiKeySigner signer(view(seed), 2);
  const auto sig = signer.sign(view(msg));
  const auto root = signer.root_public_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiKeySigner::verify(root, view(msg), sig));
  }
}
BENCHMARK(BM_CertifiedVerify);

void BM_PuzzleSolve(benchmark::State& state) {
  const auto strength = static_cast<std::uint8_t>(state.range(0));
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const Bytes msg = random_bytes(48, nonce++);
    benchmark::DoNotOptimize(solve_puzzle(view(msg), strength));
  }
}
BENCHMARK(BM_PuzzleSolve)->Arg(8)->Arg(12);

void BM_PuzzleVerify(benchmark::State& state) {
  const Bytes msg = random_bytes(48, 12);
  const auto sol = solve_puzzle(view(msg), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_puzzle(view(msg), sol));
  }
}
BENCHMARK(BM_PuzzleVerify);

void BM_Sha256Kernel(benchmark::State& state, const std::string& kernel_name,
                     std::size_t len) {
  if (!sha256_set_kernel(kernel_name)) {
    state.SkipWithError("kernel unavailable on this CPU");
    return;
  }
  const Bytes data = random_bytes(len, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(view(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
  sha256_set_kernel("auto");
}

void register_kernel_benchmarks() {
  for (const auto& name : sha256_available_kernels()) {
    for (std::size_t len : {64u, 1024u}) {
      const std::string bench_name =
          "BM_Sha256Kernel/kernel=" + name + "/len=" + std::to_string(len);
      benchmark::RegisterBenchmark(
          bench_name.c_str(), [name, len](benchmark::State& s) {
            BM_Sha256Kernel(s, name, len);
          });
    }
  }
}

// ---------------------------------------------------------------------------
// Self-timed JSON sweep: kernels x message sizes x batch widths
//   -> BENCH_micro_crypto.json
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
  const double mb_per_s = static_cast<double>(bytes) * 1e3 / best_ns_per_op;
  return {name, mb_per_s, best_ns_per_op};
}

std::vector<SweepResult> run_sweep() {
  std::vector<SweepResult> results;

  // One-shot digest throughput per single-stream kernel x message size:
  // 32 B Merkle-node-scale preimages, 64 B packet-hash-scale preimages,
  // then bulk sizes where the compression loop dominates padding.
  for (const auto& name : sha256_available_kernels()) {
    if (!sha256_set_kernel(name)) continue;
    for (std::size_t len : {32u, 64u, 256u, 1024u, 16384u}) {
      const Bytes msg = random_bytes(len, 31);
      results.push_back(time_op(
          "sha256/kernel=" + name + "/len=" + std::to_string(len), len, [&] {
            benchmark::DoNotOptimize(Sha256::hash(view(msg)));
          }));
    }
  }
  sha256_set_kernel("auto");

  // Raw block compression, identical total work (8 blocks): single-stream
  // kernels chew 8 sequential blocks of one message; batch kernels chew 8
  // independent one-block lanes. This isolates the kernel from padding and
  // buffer management.
  {
    const Bytes data = random_bytes(8 * 64, 41);
    for (const auto& name : sha256_available_kernels()) {
      const Sha256Kernel* kernel = sha256_find_kernel(name);
      std::uint32_t state[8];
      std::memcpy(state, kSha256Init, sizeof(state));
      results.push_back(
          time_op("sha256_compress/kernel=" + name + "/blocks=8", 8 * 64,
                  [&] {
                    kernel->compress(state, data.data(), 8);
                    benchmark::DoNotOptimize(state);
                  }));
    }
    for (const auto& name : sha256_available_batch_kernels()) {
      const Sha256BatchKernel* kernel = sha256_find_batch_kernel(name);
      std::uint32_t states[8 * 8];
      const std::uint8_t* ptrs[8];
      for (std::size_t i = 0; i < 8; ++i) {
        std::memcpy(states + 8 * i, kSha256Init, sizeof(kSha256Init));
        ptrs[i] = data.data() + 64 * i;
      }
      results.push_back(
          time_op("sha256_compress_batch/kernel=" + name + "/count=8",
                  8 * 64, [&] {
                    kernel->compress_batch(states, ptrs, 8);
                    benchmark::DoNotOptimize(states);
                  }));
    }
  }

  // End-to-end hash_batch across batch widths (64 B messages — the packet
  // preimage scale) under the auto-selected kernels.
  for (std::size_t width : {4u, 8u, 16u, 48u}) {
    std::vector<Bytes> msgs;
    std::vector<ByteView> views;
    for (std::size_t i = 0; i < width; ++i) {
      msgs.push_back(random_bytes(64, 51 + i));
    }
    for (const auto& m : msgs) views.push_back(view(m));
    std::vector<Sha256Digest> out(width);
    results.push_back(time_op(
        "hash_batch/width=" + std::to_string(width) + "/len=64", width * 64,
        [&] {
          hash_batch(views.data(), width, out.data());
          benchmark::DoNotOptimize(out.data());
        }));
  }

  // The two hot paths the batch layer serves, batch vs pinned-scalar:
  // hashing one page's worth of packet preimages (48 x 77 B) and building
  // the page-0 Merkle tree (64 x 72 B leaves).
  {
    std::vector<Bytes> preimages;
    std::vector<ByteView> views;
    for (std::size_t i = 0; i < 48; ++i) {
      preimages.push_back(random_bytes(77, 61 + i));
    }
    for (const auto& m : preimages) views.push_back(view(m));
    std::vector<PacketHash> out(48);
    std::vector<Bytes> leaves;
    for (std::size_t i = 0; i < 64; ++i) {
      leaves.push_back(random_bytes(72, 71 + i));
    }
    for (const char* mode : {"batch", "scalar"}) {
      // "ref" pins the scalar oracle and disables the batch path; "auto"
      // restores CPUID selection.
      sha256_set_kernel(std::string(mode) == "scalar" ? "ref" : "auto");
      results.push_back(time_op(
          std::string("packet_hash_batch/width=48/mode=") + mode, 48 * 77,
          [&] {
            packet_hash_batch(views.data(), 48, out.data());
            benchmark::DoNotOptimize(out.data());
          }));
      results.push_back(time_op(
          std::string("merkle_build/leaves=64/mode=") + mode, 64 * 72, [&] {
            benchmark::DoNotOptimize(MerkleTree::build(leaves));
          }));
    }
    sha256_set_kernel("auto");
  }

  // Signing-side costs under the auto-selected kernels: one WOTS key (18
  // chains x 255 steps), one signature from a fresh copy of a key (keys are
  // one-time), one verification, and the per-trial source signer —
  // constructing a height-2 MultiKeySigner (4 keys + Merkle tree) and
  // issuing its first signature, as core/experiment.cc does per trial.
  // Rows carry ns_per_op only.
  {
    const Bytes seed = random_bytes(32, 81);
    const Bytes msg = random_bytes(40, 82);
    std::uint64_t index = 0;
    results.push_back(time_op("wots/keygen", 0, [&] {
      benchmark::DoNotOptimize(WotsKeyPair::generate(view(seed), index++));
    }));
    const WotsKeyPair fresh = WotsKeyPair::generate(view(seed), 0);
    results.push_back(time_op("wots/sign", 0, [&] {
      WotsKeyPair kp = fresh;
      benchmark::DoNotOptimize(kp.sign(view(msg)));
    }));
    WotsKeyPair signing = fresh;
    const WotsSignature sig = signing.sign(view(msg));
    results.push_back(time_op("wots/verify", 0, [&] {
      benchmark::DoNotOptimize(
          WotsKeyPair::verify(fresh.public_key(), view(msg), sig));
    }));
    results.push_back(time_op("multikey/height=2", 0, [&] {
      MultiKeySigner signer(view(seed), 2);
      benchmark::DoNotOptimize(signer.sign(view(msg)));
    }));
  }
  return results;
}

/// Speedup rows: the fastest available kernel vs the scalar reference
/// oracle — the acceptance metric this bench exists to demonstrate.
/// "Fastest" is empirical (best measured MB/s), not positional, so one
/// noisy measurement window cannot misreport the ISA ranking.
void append_speedups(std::vector<SweepResult>& results) {
  auto find = [&](const std::string& want) -> const SweepResult* {
    for (const auto& r : results) {
      if (r.name == want) return &r;
    }
    return nullptr;
  };

  // One-shot digest speedup at the packet-preimage scale and in bulk.
  for (std::size_t len : {64u, 16384u}) {
    const std::string suffix = "/len=" + std::to_string(len);
    const SweepResult* ref = find("sha256/kernel=ref" + suffix);
    if (ref == nullptr || ref->mb_per_s <= 0) continue;
    const SweepResult* best = nullptr;
    std::string best_name;
    for (const auto& kernel : sha256_available_kernels()) {
      if (kernel == "ref") continue;
      const SweepResult* r = find("sha256/kernel=" + kernel + suffix);
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    if (best == nullptr) continue;
    results.push_back({"sha256/speedup/" + best_name + "_vs_ref" + suffix,
                       best->mb_per_s / ref->mb_per_s, 0.0});
  }

  // Block-compression speedup: best single or batch kernel vs ref, same
  // 8-block workload.
  {
    const SweepResult* ref = find("sha256_compress/kernel=ref/blocks=8");
    const SweepResult* best = nullptr;
    std::string best_name;
    for (const auto& kernel : sha256_available_kernels()) {
      if (kernel == "ref") continue;
      const SweepResult* r =
          find("sha256_compress/kernel=" + kernel + "/blocks=8");
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    for (const auto& kernel : sha256_available_batch_kernels()) {
      const SweepResult* r =
          find("sha256_compress_batch/kernel=" + kernel + "/count=8");
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    if (ref != nullptr && ref->mb_per_s > 0 && best != nullptr) {
      results.push_back({"sha256_compress/speedup/" + best_name + "_vs_ref",
                         best->mb_per_s / ref->mb_per_s, 0.0});
    }
  }

  // End-to-end hot paths, batch vs pinned scalar.
  for (const char* op : {"packet_hash_batch/width=48", "merkle_build/leaves=64"}) {
    const SweepResult* scalar = find(std::string(op) + "/mode=scalar");
    const SweepResult* batch = find(std::string(op) + "/mode=batch");
    if (scalar == nullptr || batch == nullptr || scalar->mb_per_s <= 0)
      continue;
    results.push_back({std::string(op) + "/speedup/batch_vs_scalar",
                       batch->mb_per_s / scalar->mb_per_s, 0.0});
  }
}

void write_json(const std::vector<SweepResult>& results,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  const Sha256BatchKernel* batch = sha256_batch_kernel();
  out << "{\n  \"benchmark\": \"bench_micro_crypto\",\n"
      << "  \"provenance\": " << core::provenance_json("  ") << ",\n"
      << "  \"active_kernel\": \"" << sha256_kernel().name << "\",\n"
      << "  \"active_batch_kernel\": \""
      << (batch != nullptr ? batch->name : "none") << "\",\n"
      << "  \"kernels\": [";
  const auto names = sha256_available_kernels();
  for (std::size_t i = 0; i < names.size(); ++i)
    out << (i ? ", " : "") << '"' << names[i] << '"';
  out << "],\n  \"batch_kernels\": [";
  const auto batch_names = sha256_available_batch_kernels();
  for (std::size_t i = 0; i < batch_names.size(); ++i)
    out << (i ? ", " : "") << '"' << batch_names[i] << '"';
  out << "],\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", ";
    if (r.name.find("/speedup/") != std::string::npos) {
      out << "\"speedup\": " << r.mb_per_s;
    } else if (r.mb_per_s == 0) {
      // Whole-operation rows (signing): no payload, so no throughput.
      out << "\"ns_per_op\": " << r.ns_per_op;
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
      env != nullptr && env[0] != '\0' ? env : "BENCH_micro_crypto.json";
  if (path == "none") return 0;
  auto results = run_sweep();
  append_speedups(results);
  write_json(results, path);
  return 0;
}
