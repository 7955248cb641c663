// Cross-codec conformance suite: one parameterized battery every CodecKind
// must pass, plus exhaustive erasure-pattern enumeration for the
// deterministic codecs on every small geometry.
//
// The key observation behind the differential checks: every backend is
// byte-wise GF(256)-linear — RS/LRC by construction, rlc256 with
// random coefficients, rlc2/LT with {0,1} coefficients (XOR is GF(256)
// multiplication by 1). So the effective n x k generator of ANY codec can be
// recovered by probing with unit single-byte blocks, and both encode and
// decode can be checked against plain reference matrix arithmetic:
//  * encode(blocks) must equal G x blocks computed with scalar Gf256 ops;
//  * decode success implies the received rows span rank k, and the payload
//    must match a reference Gauss-Jordan solve over the probed rows;
//  * for full-elimination decoders the converse holds too: rank k received
//    rows guarantee decode (LT's peeling decoder is deliberately weaker).
// Rank over GF(256) of a {0,1} matrix equals its GF(2) rank (rank is
// invariant under field extension), so one oracle serves every codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>

#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "util/rng.h"

namespace lrs::erasure {
namespace {

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

std::vector<Share> pick_shares(const std::vector<Bytes>& encoded,
                               const std::vector<std::size_t>& indices) {
  std::vector<Share> shares;
  for (auto i : indices) shares.push_back({i, encoded[i]});
  return shares;
}

/// Random size-`take` subset of [0, n).
std::vector<std::size_t> random_subset(std::size_t n, std::size_t take,
                                       Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (std::size_t i = 0; i < take; ++i)
    std::swap(idx[i], idx[i + rng.uniform(n - i)]);
  idx.resize(take);
  return idx;
}

/// Recovers the effective generator by encoding unit single-byte blocks:
/// G[i][j] is byte 0 of encoded block i when data block j is {1}.
MatrixGf256 probe_generator(const ErasureCode& code) {
  const std::size_t k = code.k(), n = code.n();
  MatrixGf256 g(n, k);
  std::vector<Bytes> blocks(k, Bytes{0});
  for (std::size_t j = 0; j < k; ++j) {
    blocks[j][0] = 1;
    const auto enc = code.encode(blocks);
    for (std::size_t i = 0; i < n; ++i) g.set(i, j, enc[i][0]);
    blocks[j][0] = 0;
  }
  return g;
}

std::size_t subset_rank(const MatrixGf256& g,
                        const std::vector<std::size_t>& rows) {
  MatrixGf256 sub(rows.size(), g.cols());
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t c = 0; c < g.cols(); ++c) sub.set(r, c, g.at(rows[r], c));
  return sub.rank();
}

/// Reference decode: Gauss-Jordan over the probed generator rows.
std::optional<std::vector<Bytes>> reference_solve(
    const MatrixGf256& g, const std::vector<Bytes>& encoded,
    const std::vector<std::size_t>& rows) {
  const std::size_t k = g.cols();
  const std::size_t len = encoded.front().size();
  Gf256Eliminator elim(k, len);
  for (auto i : rows) {
    elim.add(g.row(i), view(encoded[i]));
    if (elim.complete()) break;
  }
  if (!elim.complete()) return std::nullopt;
  return elim.solve();
}

// ---------------------------------------------------------------------------
// The parameterized battery
// ---------------------------------------------------------------------------

struct CodecSpec {
  CodecKind kind;
  const char* label;
  std::size_t delta;     // nominal overhead for the probabilistic kinds
  bool deterministic;    // decode at k' guaranteed
  bool full_elimination; // decode succeeds whenever received rows reach rank k
  bool systematic;       // first k encoded blocks are the originals
};

const CodecSpec kSpecs[] = {
    {CodecKind::kReedSolomon, "rs", 0, true, true, true},
    {CodecKind::kRlcGf2, "rlc2", 2, false, true, true},
    {CodecKind::kRlcGf256, "rlc256", 1, false, true, true},
    // LT is deliberately non-systematic: every output is a soliton-degree
    // XOR, the paper's genuinely rateless archetype.
    {CodecKind::kLt, "lt", 6, false, false, false},
    {CodecKind::kLrc, "lrc", 0, true, true, true},
};

class CodecConformance : public ::testing::TestWithParam<CodecSpec> {
 protected:
  std::unique_ptr<ErasureCode> make(std::size_t k, std::size_t n,
                                    std::uint64_t seed = 7) const {
    return make_code(GetParam().kind, k, n, GetParam().delta, seed);
  }
};

TEST_P(CodecConformance, NameParsesBackAndThresholdInBounds) {
  auto code = make(8, 16);
  EXPECT_EQ(parse_codec_kind(code->name()), GetParam().kind);
  EXPECT_GE(code->decode_threshold(), code->k());
  EXPECT_LE(code->decode_threshold(), code->n());
  EXPECT_EQ(code->k(), 8u);
  EXPECT_EQ(code->n(), 16u);
}

TEST_P(CodecConformance, SystematicPrefix) {
  auto code = make(8, 16);
  const auto blocks = random_blocks(8, 16, 21);
  const auto encoded = code->encode(blocks);
  ASSERT_EQ(encoded.size(), 16u);
  if (!GetParam().systematic) GTEST_SKIP() << "non-systematic by design";
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(encoded[i], blocks[i]);
}

TEST_P(CodecConformance, DuplicateSharesChangeNothing) {
  auto code = make(8, 16);
  const auto blocks = random_blocks(8, 16, 22);
  const auto encoded = code->encode(blocks);
  const std::vector<std::size_t> distinct{0, 1, 2, 3, 10, 11, 12, 13};
  const std::vector<std::size_t> withdups{10, 10, 0,  1, 2,  10, 3,
                                          10, 11, 12, 13, 13, 0};
  const auto a = code->decode(pick_shares(encoded, distinct));
  const auto b = code->decode(pick_shares(encoded, withdups));
  EXPECT_EQ(a, b);
  // Duplicates alone never reach k distinct blocks.
  EXPECT_FALSE(
      code->decode(pick_shares(encoded, {5, 5, 5, 5, 5, 5, 5, 5, 5}))
          .has_value());
}

TEST_P(CodecConformance, ThresholdHonesty) {
  auto code = make(8, 16);
  const auto blocks = random_blocks(8, 16, 23);
  const auto encoded = code->encode(blocks);
  Rng rng(24);
  const std::size_t kp = code->decode_threshold();
  int successes = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto idx = random_subset(16, kp, rng);
    const auto decoded = code->decode(pick_shares(encoded, idx));
    if (decoded.has_value()) {
      EXPECT_EQ(*decoded, blocks);
      ++successes;
    }
  }
  if (GetParam().deterministic) {
    EXPECT_EQ(successes, trials) << "k' is a guarantee for " << code->name();
  } else {
    // Probabilistic codecs advertise k' as a high-probability threshold; the
    // protocol keeps collecting on a miss. Floors match the per-codec tests.
    EXPECT_GE(successes, trials / 5);
  }
}

TEST_P(CodecConformance, BelowKDistinctAlwaysNullopt) {
  auto code = make(8, 16);
  const auto blocks = random_blocks(8, 16, 25);
  const auto encoded = code->encode(blocks);
  EXPECT_FALSE(code->decode({}).has_value());
  EXPECT_FALSE(code->decode(pick_shares(encoded, {3})).has_value());
  EXPECT_FALSE(
      code->decode(pick_shares(encoded, {0, 1, 2, 3, 4, 5, 6})).has_value());
  EXPECT_FALSE(
      code->decode(pick_shares(encoded, {9, 10, 11, 12, 13, 14, 15}))
          .has_value());
}

TEST_P(CodecConformance, RoundTripsAcrossBlockSizes) {
  // Full share set always decodes (systematic prefix guarantees rank k), so
  // this isolates payload handling: 1-byte, word-aligned, odd, sub-word
  // tails, and multi-KB blocks.
  for (std::size_t len : {std::size_t{1}, std::size_t{16}, std::size_t{37},
                          std::size_t{255}, std::size_t{1024}}) {
    auto code = make(8, 16);
    const auto blocks = random_blocks(8, len, 26 + len);
    const auto encoded = code->encode(blocks);
    for (const auto& e : encoded) EXPECT_EQ(e.size(), len);
    std::vector<std::size_t> all(16);
    std::iota(all.begin(), all.end(), 0);
    const auto decoded = code->decode(pick_shares(encoded, all));
    ASSERT_TRUE(decoded.has_value()) << "len " << len;
    EXPECT_EQ(*decoded, blocks) << "len " << len;
  }
}

TEST_P(CodecConformance, EncodeIsGeneratorMatrixMultiply) {
  auto code = make(8, 16);
  const MatrixGf256 g = probe_generator(*code);
  if (GetParam().systematic) {
    // Systematic prefix shows up as an identity block.
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = 0; j < 8; ++j)
        EXPECT_EQ(g.at(i, j), i == j ? 1 : 0);
  }
  const auto blocks = random_blocks(8, 24, 27);
  const auto encoded = code->encode(blocks);
  for (std::size_t i = 0; i < 16; ++i) {
    Bytes expect(24, 0);
    for (std::size_t j = 0; j < 8; ++j) {
      for (std::size_t b = 0; b < 24; ++b) {
        expect[b] = Gf256::add(expect[b], Gf256::mul(g.at(i, j),
                                                     blocks[j][b]));
      }
    }
    EXPECT_EQ(encoded[i], expect) << "encoded block " << i;
  }
}

TEST_P(CodecConformance, DecodeMatchesReferenceMatrixSolve) {
  // Random receive subsets at (8,16), then a sweep over every erased-data
  // count e = 0..min(k, n-k) at (8,16) and at the paper geometry (32,48):
  // k-e data shares plus e parity shares in shuffled order; the same with
  // duplicates interleaved; and with more than k distinct shares, where
  // erased data shares arrive after the first k.
  const struct {
    std::size_t k, n;
  } geometries[] = {{8, 16}, {32, 48}};
  Rng rng(29);
  for (const auto& geo : geometries) {
    const std::size_t k = geo.k, n = geo.n;
    auto code = make(k, n);
    const MatrixGf256 g = probe_generator(*code);
    const auto blocks = random_blocks(k, 24, 28);
    const auto encoded = code->encode(blocks);
    auto check = [&](const std::vector<std::size_t>& idx) {
      const auto decoded = code->decode(pick_shares(encoded, idx));
      const auto reference = reference_solve(g, encoded, idx);
      if (decoded.has_value()) {
        // Whatever the codec returned must be exactly the reference solution.
        ASSERT_TRUE(reference.has_value()) << "k=" << k << " n=" << n;
        EXPECT_EQ(*decoded, *reference) << "k=" << k << " n=" << n;
        EXPECT_EQ(*decoded, blocks) << "k=" << k << " n=" << n;
      } else if (GetParam().full_elimination) {
        // Full-elimination decoders fail only when the rows genuinely do
        // not span; LT's peeling decoder is allowed to give up earlier.
        EXPECT_FALSE(reference.has_value()) << "k=" << k << " n=" << n;
        EXPECT_LT(subset_rank(g, idx), k) << "k=" << k << " n=" << n;
      }
    };

    if (k == 8) {
      for (int t = 0; t < 20; ++t) {
        const std::size_t take = k + rng.uniform(n - k + 1);  // k .. n shares
        check(random_subset(n, take, rng));
      }
    }

    for (std::size_t e = 0; e <= std::min(k, n - k); ++e) {
      for (int t = 0; t < 3; ++t) {
        // random_subset(m, m) is a uniform permutation of [0, m).
        const auto data = random_subset(k, k, rng);
        auto parity = random_subset(n - k, n - k, rng);
        for (auto& p : parity) p += k;
        std::vector<std::size_t> idx(data.begin() + e, data.end());
        idx.insert(idx.end(), parity.begin(), parity.begin() + e);
        const auto order = random_subset(idx.size(), idx.size(), rng);
        std::vector<std::size_t> shuffled;
        for (auto o : order) shuffled.push_back(idx[o]);
        check(shuffled);

        std::vector<std::size_t> dups = shuffled;
        for (int d = 0; d < 4; ++d) {
          const auto at = dups.begin() + rng.uniform(dups.size() + 1);
          dups.insert(at, shuffled[rng.uniform(shuffled.size())]);
        }
        check(dups);

        std::vector<std::size_t> late = shuffled;
        late.insert(late.end(), data.begin(), data.begin() + e);
        if (e < n - k) late.push_back(parity[e]);
        check(late);
      }
    }
  }
}

std::string spec_name(const ::testing::TestParamInfo<CodecSpec>& info) {
  return info.param.label;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecConformance,
                         ::testing::ValuesIn(kSpecs), spec_name);

// ---------------------------------------------------------------------------
// Exhaustive erasure patterns, n <= 12
// ---------------------------------------------------------------------------

std::vector<std::size_t> mask_to_rows(unsigned mask, std::size_t n) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i)
    if (mask & (1u << i)) rows.push_back(i);
  return rows;
}

/// Checks decode of `code` against the MDS/locality contract on EVERY
/// receive subset of size >= k:
///  * success must match "probed generator rows reach rank k" exactly
///    (iff for full-elimination decoders);
///  * subsets of size >= decode_threshold() must all succeed;
///  * every success must reproduce the original blocks.
void exhaustive_patterns(const ErasureCode& code, const MatrixGf256& g,
                         bool threshold_guaranteed = true) {
  const std::size_t k = code.k(), n = code.n();
  const std::size_t kp = code.decode_threshold();
  const auto blocks = random_blocks(k, 2, k * 1000 + n);
  const auto encoded = code.encode(blocks);
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    const auto s = static_cast<std::size_t>(std::popcount(mask));
    if (s < k) continue;
    const auto rows = mask_to_rows(mask, n);
    const bool spans = subset_rank(g, rows) == k;
    const auto decoded = code.decode(pick_shares(encoded, rows));
    if (threshold_guaranteed && s >= kp) {
      ASSERT_TRUE(spans) << code.name() << " k=" << k << " n=" << n
                         << " mask=" << mask
                         << ": threshold-sized subset must span";
    }
    ASSERT_EQ(decoded.has_value(), spans)
        << code.name() << " k=" << k << " n=" << n << " mask=" << mask;
    if (decoded.has_value()) {
      ASSERT_EQ(*decoded, blocks)
          << code.name() << " k=" << k << " n=" << n << " mask=" << mask;
    }
  }
}

TEST(ExhaustivePatterns, RsIsMdsOnEveryGeometry) {
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t k = 1; k <= n; ++k) {
      auto rs = make_rs_code(k, n);
      exhaustive_patterns(*rs, probe_generator(*rs));
    }
  }
}

TEST(ExhaustivePatterns, LrcLocalityContractOnEveryGeometry) {
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t k = 1; k <= n; ++k) {
      auto lrc = make_lrc_code(k, n);
      const std::size_t g = lrc_group_count(k, n);
      EXPECT_EQ(lrc->decode_threshold(), g > 0 ? k + g - 1 : k)
          << "k=" << k << " n=" << n;
      exhaustive_patterns(*lrc, probe_generator(*lrc));
    }
  }
}

TEST(ExhaustivePatterns, RlcSeedSweptOnSmallGeometries) {
  const std::pair<std::size_t, std::size_t> geos[] = {{4, 8}, {5, 10}};
  for (const auto kind : {CodecKind::kRlcGf2, CodecKind::kRlcGf256}) {
    for (const auto& [k, n] : geos) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        // RLC's k' is a high-probability threshold, not a guarantee: keep
        // the success-iff-rank contract but drop the threshold assertion.
        auto code = make_code(kind, k, n, 2, seed);
        exhaustive_patterns(*code, probe_generator(*code),
                            /*threshold_guaranteed=*/false);
      }
    }
  }
}

TEST(ExhaustivePatterns, LtSeedSweptDecodeImpliesSpanning) {
  // Peeling is one-directional: success implies the rows span AND the
  // payload is right; failures on spanning subsets are allowed. Every
  // full-set subset must still decode.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::size_t k = 4, n = 12;
    auto code = make_lt_code(k, n, 4, seed);
    const MatrixGf256 g = probe_generator(*code);
    const auto blocks = random_blocks(k, 2, 900 + seed);
    const auto encoded = code->encode(blocks);
    std::size_t successes = 0;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      const auto s = static_cast<std::size_t>(std::popcount(mask));
      if (s < k) continue;
      const auto rows = mask_to_rows(mask, n);
      const auto decoded = code->decode(pick_shares(encoded, rows));
      if (decoded.has_value()) {
        ASSERT_EQ(subset_rank(g, rows), k) << "seed " << seed;
        ASSERT_EQ(*decoded, blocks) << "seed " << seed;
        ++successes;
      } else {
        ASSERT_LT(s, n) << "full set must decode, seed " << seed;
      }
    }
    EXPECT_GT(successes, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lrs::erasure
