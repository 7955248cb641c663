// Runtime-dispatched SHA-256 compression kernels: the inner loop behind
// every authenticator in the system (packet hashes, the hash page, the
// Merkle tree, HMAC, WOTS, puzzles).
//
// Mirrors the GF(256) kernel layer in erasure/gf256_kernels.{h,cc}. Four
// implementation tiers are compiled in (availability permitting):
//  * "ref"      — the original rolled scalar compression loop. Kept forever
//                 as the differential-testing oracle; never removed, never
//                 "improved".
//  * "unrolled" — portable block-unrolled scalar kernel: all 64 rounds
//                 spelled out with the message schedule kept in a rotating
//                 16-word window, no per-round array traffic.
//  * "shani"    — x86 SHA-NI path (sha256rnds2/sha256msg1/sha256msg2),
//                 two rounds per instruction.
//  * Multi-buffer SIMD ("mb4"/"mb8") — 4-way SSE2 / 8-way AVX2 transposed
//                 kernels that compress one block of 4 or 8 *independent*
//                 messages at once; each vector lane carries one message's
//                 state. Only reachable through the batch entry points —
//                 single-stream hashing has no lane-parallelism to exploit.
//                 A "shani" batch adapter (a loop over the SHA-NI kernel)
//                 outranks both where the CPU has SHA extensions.
//
// The active single-stream kernel is chosen once, at first use, by CPUID
// feature probing (best available wins); tests and benchmarks reach the
// others through sha256_set_kernel. The batch kernel is probed
// independently (SHA-NI loop > mb8 > mb4 > scalar loop).
// All kernels are byte-identical (enforced by tests/test_sha256.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lrs::crypto {

/// One single-stream SHA-256 implementation. `compress` folds `blocks`
/// consecutive 64-byte blocks into `state` (8 words, host order).
struct Sha256Kernel {
  const char* name;
  void (*compress)(std::uint32_t* state, const std::uint8_t* data,
                   std::size_t blocks);
};

/// One multi-buffer implementation: folds one 64-byte block from each of
/// `count` independent messages into `count` separate states. `states` is
/// count contiguous 8-word state vectors; `data[i]` points at message i's
/// next block. `lanes` is the native vector width — callers may pass any
/// `count`, the kernel loops in groups of `lanes` and falls back to the
/// active single-stream kernel for the remainder.
struct Sha256BatchKernel {
  const char* name;
  std::size_t lanes;
  void (*compress_batch)(std::uint32_t* states,
                         const std::uint8_t* const* data, std::size_t count);
};

/// The active single-stream kernel. First call performs the CPUID selection
/// and logs the choice once.
const Sha256Kernel& sha256_kernel();

/// The active multi-buffer kernel, or nullptr when none beats the
/// single-stream path on this CPU (or sha256_set_kernel pinned a scalar
/// kernel, which also pins batch hashing to it for reproducible A/B runs).
const Sha256BatchKernel* sha256_batch_kernel();

/// Single-stream kernels compiled in AND runnable on this CPU, fastest
/// last. Always contains at least {"ref", "unrolled"}.
std::vector<std::string> sha256_available_kernels();

/// Batch kernels runnable on this CPU (may be empty on non-x86).
std::vector<std::string> sha256_available_batch_kernels();

/// Looks up a single-stream kernel by name; nullptr when unknown or not
/// runnable on this CPU. "auto" is not a kernel name.
const Sha256Kernel* sha256_find_kernel(const std::string& name);

/// Looks up a batch kernel by name ("mb4", "mb8", "shani"); nullptr when
/// unknown or not runnable on this CPU.
const Sha256BatchKernel* sha256_find_batch_kernel(const std::string& name);

/// Forces the active single-stream kernel ("auto" re-runs CPUID selection,
/// which also re-enables the batch path). Forcing "ref"/"unrolled" disables
/// the multi-buffer batch path so differential tests exercise the scalar
/// batch loop. Returns false — leaving the selection unchanged — when the
/// name is unknown or the CPU lacks the required ISA.
bool sha256_set_kernel(const std::string& name);

/// The initial SHA-256 chaining value (FIPS 180-4 §5.3.3).
inline constexpr std::uint32_t kSha256Init[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace lrs::crypto
