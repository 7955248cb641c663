#include "erasure/code.h"

#include <map>
#include <mutex>
#include <tuple>

namespace lrs::erasure {

std::optional<CodecKind> parse_codec_kind(const std::string& name) {
  if (name == "rs") return CodecKind::kReedSolomon;
  if (name == "rlc2") return CodecKind::kRlcGf2;
  if (name == "rlc256") return CodecKind::kRlcGf256;
  if (name == "lt") return CodecKind::kLt;
  if (name == "lrc") return CodecKind::kLrc;
  // Retired XOR-schedule backend: same Cauchy generator, so RS emits the
  // identical codewords older plans and .scn files were written against.
  if (name == "xorsched") return CodecKind::kReedSolomon;
  return std::nullopt;
}

const char* codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kReedSolomon: return "rs";
    case CodecKind::kRlcGf2: return "rlc2";
    case CodecKind::kRlcGf256: return "rlc256";
    case CodecKind::kLt: return "lt";
    case CodecKind::kLrc: return "lrc";
  }
  return "?";
}

std::unique_ptr<ErasureCode> make_code(CodecKind kind, std::size_t k,
                                       std::size_t n, std::size_t delta,
                                       std::uint64_t seed) {
  switch (kind) {
    case CodecKind::kReedSolomon:
      return make_rs_code(k, n);
    case CodecKind::kRlcGf2:
      return make_rlc_gf2(k, n, delta, seed);
    case CodecKind::kRlcGf256:
      return make_rlc_gf256(k, n, delta, seed);
    case CodecKind::kLt:
      return make_lt_code(k, n, delta, seed);
    case CodecKind::kLrc:
      return make_lrc_code(k, n);
  }
  return nullptr;
}

namespace {

using CacheKey =
    std::tuple<CodecKind, std::size_t, std::size_t, std::size_t,
               std::uint64_t>;

struct CodecCache {
  std::mutex mu;
  std::map<CacheKey, std::shared_ptr<const ErasureCode>> entries;
};

CodecCache& codec_cache() {
  static CodecCache c;
  return c;
}

}  // namespace

std::shared_ptr<const ErasureCode> make_code_cached(CodecKind kind,
                                                    std::size_t k,
                                                    std::size_t n,
                                                    std::size_t delta,
                                                    std::uint64_t seed) {
  if (kind == CodecKind::kReedSolomon || kind == CodecKind::kLrc) {
    // These constructions ignore delta and seed; canonicalize so all
    // spellings share one generator matrix.
    delta = 0;
    seed = 0;
  }
  const CacheKey key{kind, k, n, delta, seed};
  auto& cache = codec_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) return it->second;
  }
  // Build outside the lock — generator construction is the expensive part
  // the cache exists to amortize. A racing builder loses to try_emplace.
  std::shared_ptr<const ErasureCode> built =
      make_code(kind, k, n, delta, seed);
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.entries.try_emplace(key, std::move(built)).first->second;
}

std::size_t codec_cache_size() {
  auto& cache = codec_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.entries.size();
}

void codec_cache_clear() {
  auto& cache = codec_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
}

}  // namespace lrs::erasure
