// GF(256) field axioms, matrix algebra, and erasure-code properties:
// exhaustive loss patterns for small codes, randomized patterns for the
// paper's parameters, MDS guarantees for Reed-Solomon and rank behavior
// for the random linear codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <numeric>
#include <string>
#include <thread>

#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/rng.h"

namespace lrs::erasure {
namespace {

// ---------------------------------------------------------------------------
// GF(256)
// ---------------------------------------------------------------------------

TEST(Gf256Test, MultiplicationCommutesAndAssociates) {
  Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.uniform(256));
    const auto b = static_cast<std::uint8_t>(rng.uniform(256));
    const auto c = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_EQ(Gf256::mul(a, b), Gf256::mul(b, a));
    EXPECT_EQ(Gf256::mul(a, Gf256::mul(b, c)),
              Gf256::mul(Gf256::mul(a, b), c));
  }
}

TEST(Gf256Test, DistributesOverAddition) {
  Rng rng(2);
  for (int t = 0; t < 2000; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.uniform(256));
    const auto b = static_cast<std::uint8_t>(rng.uniform(256));
    const auto c = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)),
              Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
  }
}

TEST(Gf256Test, IdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(Gf256::mul(v, 1), v);
    EXPECT_EQ(Gf256::mul(v, 0), 0);
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(Gf256::mul(v, Gf256::inv(v)), 1) << a;
    EXPECT_EQ(Gf256::div(v, v), 1) << a;
  }
}

TEST(Gf256Test, ZeroHasNoInverse) {
  EXPECT_THROW(Gf256::inv(0), std::logic_error);
  EXPECT_THROW(Gf256::div(1, 0), std::logic_error);
}

TEST(Gf256Test, KnownAesProducts) {
  // From the AES specification: {53} * {CA} = {01}.
  EXPECT_EQ(Gf256::mul(0x53, 0xCA), 0x01);
  EXPECT_EQ(Gf256::mul(0x02, 0x80), 0x1b);  // x * x^7 = x^8 = 0x1b
}

TEST(Gf256Test, PowMatchesRepeatedMultiplication) {
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.uniform(255) + 1);
    const unsigned e = static_cast<unsigned>(rng.uniform(16));
    std::uint8_t expect = 1;
    for (unsigned i = 0; i < e; ++i) expect = Gf256::mul(expect, a);
    EXPECT_EQ(Gf256::pow(a, e), expect);
  }
}

TEST(Gf256Test, AddmulMatchesScalarLoop) {
  Rng rng(4);
  Bytes dst(64), src(64);
  for (auto& b : dst) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.uniform(256));
  const std::uint8_t c = 0x8e;
  Bytes expect = dst;
  for (std::size_t i = 0; i < 64; ++i)
    expect[i] = Gf256::add(expect[i], Gf256::mul(src[i], c));
  Gf256::addmul(MutByteView(dst.data(), dst.size()), view(src), c);
  EXPECT_EQ(dst, expect);
}

// ---------------------------------------------------------------------------
// MatrixGf256
// ---------------------------------------------------------------------------

TEST(MatrixTest, IdentityInvertsToItself) {
  const auto id = MatrixGf256::identity(5);
  EXPECT_EQ(id.inverted().value(), id);
}

TEST(MatrixTest, RandomMatrixTimesInverseIsIdentity) {
  Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    MatrixGf256 m(6, 6);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 6; ++c)
        m.set(r, c, static_cast<std::uint8_t>(rng.uniform(256)));
    auto inv = m.inverted();
    if (!inv) continue;  // singular random draw
    EXPECT_EQ(m.multiply(*inv), MatrixGf256::identity(6));
    EXPECT_EQ(inv->multiply(m), MatrixGf256::identity(6));
  }
}

TEST(MatrixTest, SingularMatrixReported) {
  MatrixGf256 m(3, 3);
  // Row 2 = row 0 + row 1.
  m.set(0, 0, 1);
  m.set(0, 1, 2);
  m.set(1, 1, 3);
  m.set(1, 2, 4);
  m.set(2, 0, 1);
  m.set(2, 1, Gf256::add(2, 3));
  m.set(2, 2, 4);
  EXPECT_FALSE(m.inverted().has_value());
  EXPECT_EQ(m.rank(), 2u);
}

TEST(MatrixTest, RankOfTallMatrix) {
  MatrixGf256 m(4, 2);
  m.set(0, 0, 1);
  m.set(1, 1, 1);
  m.set(2, 0, 5);
  m.set(3, 1, 9);
  EXPECT_EQ(m.rank(), 2u);
}

// ---------------------------------------------------------------------------
// Gf2Eliminator
// ---------------------------------------------------------------------------

TEST(Gf2EliminatorTest, SolvesIdentitySystem) {
  Gf2Eliminator e(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    BitVec c(3);
    c.set(i);
    Bytes payload{static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i)};
    EXPECT_TRUE(e.add(c, view(payload)));
  }
  ASSERT_TRUE(e.complete());
  const auto sol = e.solve();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(sol[i][0], i);
}

TEST(Gf2EliminatorTest, RedundantEquationNotInnovative) {
  Gf2Eliminator e(2, 1);
  BitVec c01(2, true);
  Bytes sum{3};
  EXPECT_TRUE(e.add(c01, view(sum)));
  EXPECT_FALSE(e.add(c01, view(sum)));
  EXPECT_EQ(e.rank(), 1u);
}

TEST(Gf2EliminatorTest, SolvesMixedSystem) {
  // x0 ^ x1 = 3, x1 = 2  ->  x0 = 1.
  Gf2Eliminator e(2, 1);
  BitVec both(2, true);
  BitVec second(2);
  second.set(1);
  Bytes b3{3}, b2{2};
  EXPECT_TRUE(e.add(both, view(b3)));
  EXPECT_TRUE(e.add(second, view(b2)));
  ASSERT_TRUE(e.complete());
  const auto sol = e.solve();
  EXPECT_EQ(sol[0][0], 1);
  EXPECT_EQ(sol[1][0], 2);
}

// ---------------------------------------------------------------------------
// Erasure codes: shared property helpers
// ---------------------------------------------------------------------------

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

TEST(RsCode, SystematicPrefix) {
  auto code = make_rs_code(4, 8);
  const auto blocks = random_blocks(4, 16, 1);
  const auto encoded = code->encode(blocks);
  ASSERT_EQ(encoded.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(encoded[i], blocks[i]);
}

TEST(RsCode, ExhaustiveLossPatternsSmall) {
  // Every subset of exactly k=3 out of n=6 shares must decode (MDS).
  auto code = make_rs_code(3, 6);
  const auto blocks = random_blocks(3, 8, 2);
  const auto encoded = code->encode(blocks);
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5};
  std::vector<bool> mask(6, false);
  std::fill(mask.begin(), mask.begin() + 3, true);
  std::sort(mask.begin(), mask.end());
  do {
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < 6; ++i)
      if (mask[i]) chosen.push_back(i);
    const auto decoded = code->decode(pick_shares(encoded, chosen));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, blocks);
  } while (std::next_permutation(mask.begin(), mask.end()));
}

TEST(RsCode, InsufficientSharesReturnNullopt) {
  auto code = make_rs_code(4, 8);
  const auto blocks = random_blocks(4, 8, 3);
  const auto encoded = code->encode(blocks);
  EXPECT_FALSE(code->decode(pick_shares(encoded, {0, 5, 7})).has_value());
  EXPECT_FALSE(code->decode({}).has_value());
}

TEST(RsCode, DuplicateSharesIgnored) {
  auto code = make_rs_code(3, 6);
  const auto blocks = random_blocks(3, 8, 4);
  const auto encoded = code->encode(blocks);
  // Three copies of share 5 plus shares 0,1: exactly k distinct.
  auto decoded =
      code->decode(pick_shares(encoded, {5, 5, 5, 0, 1}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, blocks);
  // Duplicates alone are not enough.
  EXPECT_FALSE(code->decode(pick_shares(encoded, {5, 5, 5})).has_value());
}

TEST(RsCode, PaperScaleRandomPatterns) {
  auto code = make_rs_code(32, 48);
  const auto blocks = random_blocks(32, 64, 5);
  const auto encoded = code->encode(blocks);
  Rng rng(6);
  for (int t = 0; t < 25; ++t) {
    std::vector<std::size_t> idx(48);
    std::iota(idx.begin(), idx.end(), 0);
    // Random k-subset.
    for (std::size_t i = 0; i < 32; ++i) {
      std::swap(idx[i], idx[i + rng.uniform(48 - i)]);
    }
    idx.resize(32);
    const auto decoded = code->decode(pick_shares(encoded, idx));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, blocks);
  }
}

TEST(RsCode, DecodeCountsErasedDataBlocks) {
  // erasure.rs.decode.erased sums the erased data blocks each decode
  // actually solved; present data shares copy through uncounted.
  stats::set_enabled(true);
  stats::Counter& erased =
      stats::Registry::instance().counter("erasure.rs.decode.erased");
  auto code = make_rs_code(8, 16);
  const auto blocks = random_blocks(8, 16, 9);
  const auto encoded = code->encode(blocks);
  const std::uint64_t before = erased.value();
  EXPECT_EQ(code->decode(pick_shares(encoded, {0, 1, 2, 3, 4, 5, 6, 7}))
                .value(),
            blocks);
  EXPECT_EQ(erased.value(), before);
  // Data 1, 4 and 6 erased; the late data share 4 is past the first k.
  EXPECT_EQ(code->decode(pick_shares(encoded, {12, 0, 2, 3, 9, 5, 7, 15, 4}))
                .value(),
            blocks);
  EXPECT_EQ(erased.value(), before + 3);
  stats::set_enabled(false);
}

TEST(RsCode, ParityOnlyDecodes) {
  auto code = make_rs_code(4, 12);
  const auto blocks = random_blocks(4, 8, 7);
  const auto encoded = code->encode(blocks);
  const auto decoded = code->decode(pick_shares(encoded, {8, 9, 10, 11}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, blocks);
}

TEST(RsCode, RejectsBadParameters) {
  EXPECT_THROW(make_rs_code(5, 4), std::logic_error);
  EXPECT_THROW(make_rs_code(0, 4), std::logic_error);
  EXPECT_THROW(make_rs_code(10, 300), std::logic_error);
}

TEST(RsCode, KEqualsNDegenerates) {
  auto code = make_rs_code(3, 3);
  const auto blocks = random_blocks(3, 4, 8);
  const auto encoded = code->encode(blocks);
  EXPECT_EQ(encoded, blocks);
  EXPECT_EQ(code->decode(pick_shares(encoded, {0, 1, 2})).value(), blocks);
}

// Parameterized sweep: MDS property across geometries.
class RsGeometry
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RsGeometry, DecodesFromAnyKRandomSubset) {
  const auto [k, n] = GetParam();
  auto code = make_rs_code(k, n);
  EXPECT_EQ(code->decode_threshold(), k);
  const auto blocks = random_blocks(k, 24, k * 100 + n);
  const auto encoded = code->encode(blocks);
  Rng rng(k * 7 + n);
  for (int t = 0; t < 10; ++t) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < k; ++i)
      std::swap(idx[i], idx[i + rng.uniform(n - i)]);
    idx.resize(k);
    const auto decoded = code->decode(pick_shares(encoded, idx));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, blocks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsGeometry,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 2},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{8, 16},
                      std::pair<std::size_t, std::size_t>{16, 24},
                      std::pair<std::size_t, std::size_t>{32, 40},
                      std::pair<std::size_t, std::size_t>{32, 56},
                      std::pair<std::size_t, std::size_t>{32, 64},
                      std::pair<std::size_t, std::size_t>{64, 128}));

// ---------------------------------------------------------------------------
// Random linear codes
// ---------------------------------------------------------------------------

class RlcBothFields : public ::testing::TestWithParam<CodecKind> {};

TEST_P(RlcBothFields, SystematicAndDecodesFromAllSystematic) {
  auto code = make_code(GetParam(), 8, 16, 2, 99);
  const auto blocks = random_blocks(8, 16, 9);
  const auto encoded = code->encode(blocks);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(encoded[i], blocks[i]);
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(code->decode(pick_shares(encoded, idx)).value(), blocks);
}

TEST_P(RlcBothFields, DecodesFromParityHeavySubsets) {
  auto code = make_code(GetParam(), 8, 24, 2, 100);
  const auto blocks = random_blocks(8, 16, 10);
  const auto encoded = code->encode(blocks);
  Rng rng(11);
  int successes = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    // Take threshold-many random shares.
    std::vector<std::size_t> idx(24);
    std::iota(idx.begin(), idx.end(), 0);
    const std::size_t take = code->decode_threshold();
    for (std::size_t i = 0; i < take; ++i)
      std::swap(idx[i], idx[i + rng.uniform(24 - i)]);
    idx.resize(take);
    auto decoded = code->decode(pick_shares(encoded, idx));
    if (decoded) {
      EXPECT_EQ(*decoded, blocks);
      ++successes;
    }
  }
  // Probabilistic: with delta=2 overhead the failure rate must be small.
  EXPECT_GE(successes, trials * 2 / 3);
}

TEST_P(RlcBothFields, AllSharesAlwaysDecode) {
  auto code = make_code(GetParam(), 8, 20, 2, 101);
  const auto blocks = random_blocks(8, 16, 12);
  const auto encoded = code->encode(blocks);
  std::vector<std::size_t> idx(20);
  std::iota(idx.begin(), idx.end(), 0);
  EXPECT_EQ(code->decode(pick_shares(encoded, idx)).value(), blocks);
}

TEST_P(RlcBothFields, DeterministicAcrossInstances) {
  // Two nodes constructing the same code instance from the preloaded seed
  // must produce identical packets (required for hash chaining).
  auto a = make_code(GetParam(), 8, 20, 2, 77);
  auto b = make_code(GetParam(), 8, 20, 2, 77);
  const auto blocks = random_blocks(8, 16, 13);
  EXPECT_EQ(a->encode(blocks), b->encode(blocks));
}

TEST_P(RlcBothFields, DifferentSeedsDifferentParity) {
  auto a = make_code(GetParam(), 8, 20, 2, 1);
  auto b = make_code(GetParam(), 8, 20, 2, 2);
  const auto blocks = random_blocks(8, 16, 14);
  EXPECT_NE(a->encode(blocks), b->encode(blocks));
}

INSTANTIATE_TEST_SUITE_P(Fields, RlcBothFields,
                         ::testing::Values(CodecKind::kRlcGf2,
                                           CodecKind::kRlcGf256));

TEST(CodecRegistry, ParsesNames) {
  EXPECT_EQ(parse_codec_kind("rs"), CodecKind::kReedSolomon);
  EXPECT_EQ(parse_codec_kind("rlc2"), CodecKind::kRlcGf2);
  EXPECT_EQ(parse_codec_kind("rlc256"), CodecKind::kRlcGf256);
  EXPECT_FALSE(parse_codec_kind("fountain").has_value());
}

TEST(CodecRegistry, EveryKindRoundTripsThroughItsName) {
  for (const auto kind : {CodecKind::kReedSolomon, CodecKind::kRlcGf2,
                          CodecKind::kRlcGf256, CodecKind::kLt,
                          CodecKind::kLrc}) {
    const std::string name = codec_kind_name(kind);
    EXPECT_EQ(parse_codec_kind(name), kind) << name;
    EXPECT_EQ(codec_kind_name(*parse_codec_kind(name)), name);
    EXPECT_EQ(make_code(kind, 8, 16, 2, 1)->name(), name);
  }
}

TEST(CodecRegistry, ThresholdReflectsDelta) {
  EXPECT_EQ(make_code(CodecKind::kReedSolomon, 8, 16, 2, 1)->decode_threshold(),
            8u);
  EXPECT_EQ(make_code(CodecKind::kRlcGf2, 8, 16, 2, 1)->decode_threshold(),
            10u);
  EXPECT_EQ(make_code(CodecKind::kRlcGf256, 8, 16, 0, 1)->decode_threshold(),
            8u);
}

}  // namespace
}  // namespace lrs::erasure
// NOTE: LT-code tests appended; see lt_code.cc for the codec itself.
namespace lrs::erasure {
namespace {

std::vector<Bytes> lt_blocks(std::size_t k, std::size_t len,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(len);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return blocks;
}

TEST(LtCode, FullSetAlwaysDecodes) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto code = make_lt_code(16, 32, 6, seed);
    const auto blocks = lt_blocks(16, 24, seed);
    const auto encoded = code->encode(blocks);
    std::vector<Share> shares;
    for (std::size_t i = 0; i < 32; ++i) shares.push_back({i, encoded[i]});
    const auto decoded = code->decode(shares);
    ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
    EXPECT_EQ(*decoded, blocks);
  }
}

TEST(LtCode, DeterministicAcrossInstances) {
  auto a = make_lt_code(16, 32, 6, 77);
  auto b = make_lt_code(16, 32, 6, 77);
  const auto blocks = lt_blocks(16, 24, 9);
  EXPECT_EQ(a->encode(blocks), b->encode(blocks));
}

TEST(LtCode, ThresholdDecodesWithReasonableProbability) {
  auto code = make_lt_code(32, 64, 16, 5);
  const auto blocks = lt_blocks(32, 16, 6);
  const auto encoded = code->encode(blocks);
  Rng rng(7);
  int success = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::size_t> idx(64);
    std::iota(idx.begin(), idx.end(), 0);
    const std::size_t take = code->decode_threshold();
    for (std::size_t i = 0; i < take; ++i)
      std::swap(idx[i], idx[i + rng.uniform(64 - i)]);
    idx.resize(take);
    std::vector<Share> shares;
    for (auto i : idx) shares.push_back({i, encoded[i]});
    auto d = code->decode(shares);
    if (d) {
      EXPECT_EQ(*d, blocks);
      ++success;
    }
  }
  // Probabilistic by nature; the protocol just keeps collecting on a miss.
  EXPECT_GE(success, trials / 3);
}

TEST(LtCode, InsufficientSharesFailSoft) {
  auto code = make_lt_code(16, 32, 4, 11);
  const auto blocks = lt_blocks(16, 8, 12);
  const auto encoded = code->encode(blocks);
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 4; ++i) shares.push_back({i, encoded[i]});
  EXPECT_FALSE(code->decode(shares).has_value());
  EXPECT_FALSE(code->decode({}).has_value());
}

TEST(LtCode, RegistryExposesIt) {
  EXPECT_EQ(parse_codec_kind("lt"), CodecKind::kLt);
  auto code = make_code(CodecKind::kLt, 8, 24, 4, 3);
  EXPECT_EQ(code->name(), "lt");
  EXPECT_EQ(code->decode_threshold(), 12u);
}

}  // namespace
}  // namespace lrs::erasure
// NOTE: LRC + XOR-schedule backend tests (PR 8): golden parity bytes, local
// repair stats, decode fuzz, and codec-cache canonicalization/thread tests.
namespace lrs::erasure {
namespace {

std::vector<Bytes> pattern_blocks(std::size_t k, std::size_t len) {
  std::vector<Bytes> blocks(k);
  for (std::size_t j = 0; j < k; ++j) {
    blocks[j].resize(len);
    for (std::size_t i = 0; i < len; ++i)
      blocks[j][i] = static_cast<std::uint8_t>(j * 16 + i);
  }
  return blocks;
}

std::string to_hex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (auto v : b) {
    s.push_back(kDigits[v >> 4]);
    s.push_back(kDigits[v & 0xf]);
  }
  return s;
}

TEST(RsCode, GoldenParityBytes) {
  auto code = make_rs_code(4, 8);
  const auto encoded = code->encode(pattern_blocks(4, 8));
  EXPECT_EQ(to_hex(encoded[4]), "74471221b88bdeed");
  EXPECT_EQ(to_hex(encoded[5]), "695a0f3ca596c3f0");
  EXPECT_EQ(to_hex(encoded[6]), "4e7d281b82b1e4d7");
  EXPECT_EQ(to_hex(encoded[7]), "536035069facf9ca");
}

TEST(LrcCode, GroupCountRule) {
  // Largest divisor of k that is <= (n-k)/2; 0 when fewer than 2 parities.
  EXPECT_EQ(lrc_group_count(32, 48), 8u);  // paper geometry -> k' = 39
  EXPECT_EQ(lrc_group_count(8, 16), 4u);   // hash page -> k' = 11
  EXPECT_EQ(lrc_group_count(4, 8), 2u);
  EXPECT_EQ(lrc_group_count(7, 16), 1u);  // prime k, small parity budget
  EXPECT_EQ(lrc_group_count(6, 12), 3u);
  EXPECT_EQ(lrc_group_count(5, 6), 0u);  // one parity: plain RS row
  EXPECT_EQ(lrc_group_count(5, 5), 0u);  // no parity at all
}

TEST(LrcCode, ThresholdMatchesGeometry) {
  EXPECT_EQ(make_lrc_code(32, 48)->decode_threshold(), 39u);
  EXPECT_EQ(make_lrc_code(8, 16)->decode_threshold(), 11u);
  EXPECT_EQ(make_lrc_code(5, 6)->decode_threshold(), 5u);
}

TEST(LrcCode, GoldenParityBytes) {
  // Freezes the pyramid construction for (k=4, n=8): g=2 local parities
  // (masked Cauchy row 0) then 2 global rows. A change here is a wire-format
  // break for every deployed image.
  auto code = make_lrc_code(4, 8);
  const auto encoded = code->encode(pattern_blocks(4, 8));
  EXPECT_EQ(to_hex(encoded[4]), "04397e43f0cd8ab7");  // local, group {0,1}
  EXPECT_EQ(to_hex(encoded[5]), "a68ff4dd022b5079");  // local, group {2,3}
  EXPECT_EQ(to_hex(encoded[6]), "854014d1bc792de8");  // global row 1
  EXPECT_EQ(to_hex(encoded[7]), "98f858380363c3a3");  // global row 2
}

TEST(LrcCode, LocalParitiesOnlySpanTheirGroup) {
  // Local parity of group 0 must be a function of blocks {0,1} alone.
  auto code = make_lrc_code(4, 8);
  auto blocks = pattern_blocks(4, 8);
  const auto before = code->encode(blocks);
  blocks[2][0] ^= 0xff;  // outside group 0, inside group 1
  const auto after = code->encode(blocks);
  EXPECT_EQ(before[4], after[4]);  // group-0 local unchanged
  EXPECT_NE(before[5], after[5]);  // group-1 local moved
  EXPECT_NE(before[6], after[6]);  // globals see every block
}

TEST(LrcCode, LocalRepairCountsAndResets) {
  // The counters live in the process-wide metrics registry now: enable the
  // registry and zero any residue left by earlier tests in this binary.
  stats::set_enabled(true);
  auto& reg = stats::Registry::instance();
  stats::Counter& decodes = reg.counter("erasure.lrc.decodes");
  stats::Counter& local_repairs = reg.counter("erasure.lrc.local_repairs");
  stats::Counter& local_only = reg.counter("erasure.lrc.local_only_decodes");
  stats::Counter& full_solves = reg.counter("erasure.lrc.full_solves");
  for (stats::Counter* c : {&decodes, &local_repairs, &local_only,
                            &full_solves})
    c->reset();
  auto code = make_lrc_code(8, 16);  // g=4, groups of 2, locals at 8..11
  const auto blocks = pattern_blocks(8, 12);
  const auto encoded = code->encode(blocks);

  // Drop data 3 (group 1); its local parity 9 completes the page locally.
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 8; ++i)
    if (i != 3) shares.push_back({i, encoded[i]});
  shares.push_back({9, encoded[9]});
  EXPECT_EQ(code->decode(shares).value(), blocks);
  EXPECT_EQ(decodes.value(), 1u);
  EXPECT_EQ(local_repairs.value(), 1u);
  EXPECT_EQ(local_only.value(), 1u);
  EXPECT_EQ(full_solves.value(), 0u);

  // Drop both blocks of group 0: local repair cannot fire, full solve runs.
  shares.clear();
  for (std::size_t i = 2; i < 8; ++i) shares.push_back({i, encoded[i]});
  for (std::size_t i = 8; i < 13; ++i) shares.push_back({i, encoded[i]});
  EXPECT_EQ(code->decode(shares).value(), blocks);
  EXPECT_EQ(decodes.value(), 2u);
  EXPECT_EQ(full_solves.value(), 1u);

  decodes.reset();
  local_repairs.reset();
  EXPECT_EQ(decodes.value(), 0u);
  EXPECT_EQ(local_repairs.value(), 0u);

  // Failed decodes are not counted as decodes.
  EXPECT_FALSE(code->decode({}).has_value());
  EXPECT_EQ(decodes.value(), 0u);
}

TEST(XorschedCode, RegistryExposesIt) {
  // The retired XOR-schedule spelling still parses, as the RS code it was
  // byte-identical to.
  EXPECT_EQ(parse_codec_kind("xorsched"), CodecKind::kReedSolomon);
  EXPECT_EQ(parse_codec_kind("lrc"), CodecKind::kLrc);
  auto xs = make_code(*parse_codec_kind("xorsched"), 8, 16, 3, 99);
  EXPECT_EQ(xs->name(), "rs");
  EXPECT_EQ(xs->decode_threshold(), 8u);  // MDS: delta ignored
  auto lrc = make_code(CodecKind::kLrc, 8, 16, 3, 99);
  EXPECT_EQ(lrc->name(), "lrc");
  EXPECT_EQ(lrc->decode_threshold(), 11u);
}

// ---------------------------------------------------------------------------
// Deterministic decode fuzz: malformed shares must return nullopt or throw
// std::logic_error (LRS_CHECK), never read out of bounds.
// ---------------------------------------------------------------------------

TEST(DecodeFuzz, MalformedSharesFailCleanly) {
  const CodecKind kinds[] = {CodecKind::kReedSolomon, CodecKind::kRlcGf2,
                             CodecKind::kRlcGf256,    CodecKind::kLt,
                             CodecKind::kLrc};
  for (std::size_t ki = 0; ki < std::size(kinds); ++ki) {
    auto code = make_code(kinds[ki], 8, 16, 2, 5);
    std::vector<Bytes> blocks(8);
    Rng init(1000 + ki);
    for (auto& b : blocks) {
      b.resize(12);
      for (auto& v : b) v = static_cast<std::uint8_t>(init.uniform(256));
    }
    const auto encoded = code->encode(blocks);
    Rng rng(2000 + ki);
    int clean = 0, thrown = 0;
    for (int t = 0; t < 300; ++t) {
      // Random subset with duplicates allowed, then one random corruption.
      std::vector<Share> shares;
      const std::size_t cnt = rng.uniform(20);
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::size_t idx = rng.uniform(16);
        shares.push_back({idx, encoded[idx]});
      }
      if (!shares.empty()) {
        auto& victim = shares[rng.uniform(shares.size())];
        switch (rng.uniform(4)) {
          case 0:
            break;  // clean subset
          case 1:  // truncated block
            victim.data.resize(rng.uniform(victim.data.size() + 1));
            break;
          case 2:  // oversized block
            victim.data.resize(victim.data.size() + 1 + rng.uniform(32),
                               0xAB);
            break;
          case 3:  // out-of-range index
            victim.index = 16 + rng.uniform(1000);
            break;
        }
      }
      try {
        const auto decoded = code->decode(shares);
        if (decoded.has_value()) {
          ASSERT_EQ(decoded->size(), 8u);
          for (const auto& b : *decoded) ASSERT_FALSE(b.empty());
        }
        ++clean;
      } catch (const std::logic_error&) {
        ++thrown;  // LRS_CHECK rejection is the contract for malformed input
      }
    }
    EXPECT_GT(clean, 0) << "kind " << ki;
    EXPECT_GT(thrown, 0) << "kind " << ki;
  }
}

// ---------------------------------------------------------------------------
// Codec cache: canonicalization of the seed-independent kinds, and the
// thread-hammer the TSan CI job runs.
// ---------------------------------------------------------------------------

TEST(CodecCache, CanonicalizesLrcAndXorschedSpellings) {
  codec_cache_clear();
  auto a = make_code_cached(CodecKind::kLrc, 8, 16, 0, 0);
  auto b = make_code_cached(CodecKind::kLrc, 8, 16, 3, 0xdeadbeef);
  EXPECT_EQ(a.get(), b.get());
  auto c = make_code_cached(CodecKind::kReedSolomon, 8, 16, 0, 0);
  auto d = make_code_cached(*parse_codec_kind("xorsched"), 8, 16, 7, 42);
  EXPECT_EQ(c.get(), d.get());
  EXPECT_NE(a.get(), c.get());  // kinds stay distinct entries
  EXPECT_EQ(codec_cache_size(), 2u);
  codec_cache_clear();
}

TEST(CodecCache, ThreadHammerSharedInstances) {
  // Many threads resolve differing spellings of the same canonical codecs
  // and decode through the shared LRC instance (the registry stat counters
  // are the only mutable state). Run under TSan in CI.
  codec_cache_clear();
  stats::set_enabled(true);
  auto& reg = stats::Registry::instance();
  stats::Counter& decodes = reg.counter("erasure.lrc.decodes");
  stats::Counter& local_repairs = reg.counter("erasure.lrc.local_repairs");
  decodes.reset();
  local_repairs.reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::vector<Bytes> blocks(8);
  for (std::size_t j = 0; j < 8; ++j) blocks[j] = Bytes(16, std::uint8_t(j));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &blocks, &failures] {
      for (int i = 0; i < kIters; ++i) {
        auto lrc = make_code_cached(CodecKind::kLrc, 8, 16,
                                    static_cast<std::size_t>(i % 3),
                                    static_cast<std::uint64_t>(t));
        auto rs = make_code_cached(CodecKind::kReedSolomon, 8, 16,
                                   static_cast<std::size_t>(i % 2),
                                   static_cast<std::uint64_t>(t * 31 + i));
        const auto enc = lrc->encode(blocks);
        std::vector<Share> shares;
        for (std::size_t s = 1; s < 8; ++s) shares.push_back({s, enc[s]});
        shares.push_back({8, enc[8]});  // local parity of group {0,1}
        const auto dec = lrc->decode(shares);
        if (!dec.has_value() || *dec != blocks) failures.fetch_add(1);
        const auto enc2 = rs->encode(blocks);
        if (enc2.size() != 16) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(codec_cache_size(), 2u);
  EXPECT_EQ(decodes.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(local_repairs.value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  codec_cache_clear();
}

}  // namespace
}  // namespace lrs::erasure
