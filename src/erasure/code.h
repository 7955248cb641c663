// Fixed-rate k-n-k' erasure codes (paper §II-C, §IV-B).
//
// A code transforms k equal-length blocks into n >= k encoded blocks such
// that the originals can be recovered from (almost) any k' encoded blocks.
// LR-Seluge preloads the *same instance* on every node so any node can
// regenerate the exact n packets of a page it has decoded and serve them.
//
// Four families are provided:
//  * ReedSolomonCode — systematic Cauchy-matrix RS over GF(256). MDS:
//    deterministically decodable from ANY k blocks (k' == k).
//  * RlcCode — systematic random linear code over GF(2) or GF(256) with
//    pseudorandom parity rows derived from a public seed. Decoding succeeds
//    once the received coefficient rows reach rank k; the nominal k'
//    (k + delta) is what the protocol advertises in SNACK distance math.
//  * LrcCode — pyramid-style Locally Repairable Code: the k data blocks
//    split into g local groups, each protected by one local parity, plus
//    global Cauchy parities. A single erasure inside a group repairs from
//    the group alone (no k-wide solve); any k + g - 1 blocks decode
//    deterministically (weaker than MDS — see lrc_code.cc).
//  * LtCode — fixed-rate LT code with a peeling decoder.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace lrs::erasure {

/// One received encoded block: its index in [0, n) plus its bytes.
struct Share {
  std::size_t index;
  Bytes data;
};

class ErasureCode {
 public:
  virtual ~ErasureCode() = default;

  virtual std::size_t k() const = 0;
  virtual std::size_t n() const = 0;
  /// Nominal decode threshold k': the number of distinct encoded blocks
  /// after which decode() succeeds (always, for MDS codes; with high
  /// probability otherwise). k <= k' <= n.
  virtual std::size_t decode_threshold() const = 0;

  /// Encodes k equal-length blocks into n encoded blocks. Systematic codes
  /// return the originals as the first k outputs.
  virtual std::vector<Bytes> encode(
      const std::vector<Bytes>& blocks) const = 0;

  /// Recovers the k original blocks from a subset of encoded blocks.
  /// Returns nullopt when the subset is insufficient (protocol keeps
  /// requesting). Duplicate indices are tolerated and ignored.
  virtual std::optional<std::vector<Bytes>> decode(
      const std::vector<Share>& shares) const = 0;

  virtual std::string name() const = 0;
};

/// MDS Reed-Solomon instance; requires k <= n <= 255.
std::unique_ptr<ErasureCode> make_rs_code(std::size_t k, std::size_t n);

/// GF(2) random linear code; `delta` is the nominal decode overhead
/// (k' = k + delta). Parity rows derive from `seed` so all nodes agree.
std::unique_ptr<ErasureCode> make_rlc_gf2(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed);

/// GF(256) random linear code; near-MDS (failure prob ~2^-8 per extra
/// block), nominal k' = k + delta (delta may be 0).
std::unique_ptr<ErasureCode> make_rlc_gf256(std::size_t k, std::size_t n,
                                            std::size_t delta,
                                            std::uint64_t seed);

/// Fixed-rate LT code (robust soliton degrees, peeling decoder); genuinely
/// probabilistic decode threshold — the paper's "k' > k" archetype.
std::unique_ptr<ErasureCode> make_lt_code(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed);

/// Pyramid-style Locally Repairable Code; requires k <= n <= 255. The k data
/// blocks split into lrc_group_count(k, n) groups, each with one local
/// parity; the remaining parities are global Cauchy rows. Deterministic
/// decode from any k + g - 1 blocks (k' == k + g - 1); a single missing data
/// block whose group parity survived repairs from its group alone.
std::unique_ptr<ErasureCode> make_lrc_code(std::size_t k, std::size_t n);

/// Number of local parity groups the LRC construction uses for (k, n): the
/// largest divisor of k that is <= (n - k) / 2, or 0 when n - k < 2 (too few
/// parities for locality to pay — all parities are plain global RS rows).
std::size_t lrc_group_count(std::size_t k, std::size_t n);

/// Parses "rs", "rlc2", "rlc256", "lt", "lrc" — used by example/bench CLI
/// flags and scenario files. codec_kind_name is its inverse.
enum class CodecKind { kReedSolomon, kRlcGf2, kRlcGf256, kLt, kLrc };
std::optional<CodecKind> parse_codec_kind(const std::string& name);
const char* codec_kind_name(CodecKind kind);
std::unique_ptr<ErasureCode> make_code(CodecKind kind, std::size_t k,
                                       std::size_t n, std::size_t delta,
                                       std::uint64_t seed);

/// Process-wide cache of immutable codec instances keyed by
/// (kind, k, n, delta, seed). LR-Seluge preloads the *same* code instance on
/// every node, so all receivers of a simulation — and every page and Monte
/// Carlo trial of the bench harnesses — can share one generator matrix
/// instead of rebuilding the Cauchy/RLC construction per node. Codecs are
/// deterministic and stateless after construction, hence safe to share.
/// Seed-independent kinds (Reed-Solomon, LRC) canonicalize delta/seed in
/// the key, so all spellings share one instance.
/// Thread-safe; entries live for the process lifetime (a handful of small
/// matrices).
std::shared_ptr<const ErasureCode> make_code_cached(CodecKind kind,
                                                    std::size_t k,
                                                    std::size_t n,
                                                    std::size_t delta,
                                                    std::uint64_t seed);

/// Number of distinct codec instances currently cached.
std::size_t codec_cache_size();

/// Drops every cached codec (outstanding shared_ptrs stay valid). For tests.
void codec_cache_clear();

}  // namespace lrs::erasure
