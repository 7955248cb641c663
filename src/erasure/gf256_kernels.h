// Runtime-dispatched GF(256) bulk kernels: the addmul/scale inner loops
// behind every erasure encode and decode.
//
// Three implementation tiers are compiled in (availability permitting):
//  * "ref"   — the original branchy log/exp scalar loop. Kept forever as the
//              differential-testing oracle; never removed, never "improved".
//  * "table" — portable fallback: one row of a lazily built 64 KB full
//              multiplication table per coefficient, so the per-byte work is
//              a single load + xor with no branch, unrolled 8 bytes per
//              iteration.
//  * "ssse3" / "avx2" — the classic low/high-nibble pshufb split-table
//              technique (as in ISA-L and Jerasure): two 16-entry product
//              tables per coefficient, 16 or 32 bytes per shuffle step.
//
// The active kernel is chosen once, at first use, by CPUID feature probing
// (best available wins) and logged once at kInfo. Tests and benchmarks reach
// every other runnable kernel through gf256_set_kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lrs::erasure {

/// One GF(256) bulk-arithmetic implementation. All kernels implement
/// identical semantics (verified byte-for-byte by tests/test_gf256_kernels):
///   addmul: dst[i] ^= coeff * src[i]   (no-op when coeff == 0)
///   scale:  dst[i]  = coeff * dst[i]   (zero-fill when coeff == 0)
struct Gf256Kernel {
  const char* name;
  void (*addmul)(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                 std::uint8_t coeff);
  void (*scale)(std::uint8_t* dst, std::size_t len, std::uint8_t coeff);
};

/// The active kernel. First call performs the CPUID selection and logs the
/// choice once.
const Gf256Kernel& gf256_kernel();

/// Kernels compiled in AND runnable on this CPU, fastest last. Always
/// contains at least {"ref", "table"}.
std::vector<std::string> gf256_available_kernels();

/// Looks up a kernel by name; nullptr when unknown or not runnable on this
/// CPU. "auto" is not a kernel name (use gf256_set_kernel for that).
const Gf256Kernel* gf256_find_kernel(const std::string& name);

/// Forces the active kernel ("auto" re-runs CPUID selection). Returns false
/// — leaving the active kernel unchanged — when the name is unknown or the
/// CPU lacks the required ISA. Intended for tests and benchmarks; simulation
/// code should rely on the startup selection.
bool gf256_set_kernel(const std::string& name);

/// The 256x256 full multiplication table (row c holds c*x for x in 0..255),
/// lazily built on first use and shared by the table/SIMD kernels. Exposed
/// so tests can cross-check it against Gf256::mul.
const std::uint8_t* gf256_mul_table();

namespace detail {

/// log values of nonzero elements are <= 254; log[0] gets this sentinel so
/// that exp[log[a] + log[b]] indexes the zeroed tail of exp[] — and thus
/// correctly evaluates to 0 — whenever a or b is 0, instead of the silent
/// `0 * x == x` the old `log[0] = 0` convention produced in unguarded code.
inline constexpr std::uint16_t kLogZeroSentinel = 512;
/// Covers the worst-case index log[0] + log[0] == 1024.
inline constexpr std::size_t kExpSize = 1056;

/// Shared log/exp tables (generator 0x03, AES polynomial 0x11b), used by
/// both the scalar Gf256 entry points and the reference kernel. exp[] is
/// doubled (indices [255,510)) to skip a mod-255 in products and zero-padded
/// beyond so the log[0] sentinel propagates zeros.
struct Gf256Tables {
  std::uint16_t log[256];
  std::uint8_t exp[kExpSize];
};

const Gf256Tables& gf256_tables();

}  // namespace detail

}  // namespace lrs::erasure
