// Unit tests for the util substrate: bit vectors, serialization, RNG,
// hex, statistics and table formatting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>

#include "util/bitvec.h"
#include "util/buffer.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lrs {
namespace {

// ---------------------------------------------------------------------------
// BitVec
// ---------------------------------------------------------------------------

TEST(BitVec, StartsCleared) {
  BitVec v(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  for (std::size_t i = 0; i < 70; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SetAndClearAcrossWordBoundary) {
  BitVec v(130);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(129);
  EXPECT_EQ(v.count(), 4u);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  v.clear(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVec, SetAllRespectsSize) {
  BitVec v(67, true);
  EXPECT_EQ(v.count(), 67u);
  v.clear_all();
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVec, UnionIntersectionSubtract) {
  BitVec a(10), b(10);
  a.set(1);
  a.set(3);
  b.set(3);
  b.set(5);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
  BitVec c = a;
  c.subtract(b);
  EXPECT_TRUE(c.get(1));
  EXPECT_FALSE(c.get(3));
}

TEST(BitVec, XorIsSymmetricDifference) {
  BitVec a(8), b(8);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  a ^= b;
  EXPECT_TRUE(a.get(1));
  EXPECT_FALSE(a.get(2));
  EXPECT_TRUE(a.get(3));
}

TEST(BitVec, FirstSetLinearAndCyclic) {
  BitVec v(10);
  EXPECT_FALSE(v.first_set().has_value());
  v.set(7);
  v.set(2);
  EXPECT_EQ(v.first_set().value(), 2u);
  EXPECT_EQ(v.first_set(3).value(), 7u);
  EXPECT_EQ(v.first_set_cyclic(8).value(), 2u);
  EXPECT_EQ(v.first_set_cyclic(7).value(), 7u);
}

TEST(BitVec, RoundTripsThroughBytes) {
  BitVec v(19);
  v.set(0);
  v.set(8);
  v.set(18);
  const Bytes raw = v.to_bytes();
  EXPECT_EQ(raw.size(), 3u);
  EXPECT_EQ(BitVec::from_bytes(view(raw), 19), v);
}

TEST(BitVec, SizeMismatchThrows) {
  BitVec a(4), b(5);
  EXPECT_THROW(a |= b, std::logic_error);
  EXPECT_THROW(a.get(4), std::logic_error);
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

TEST(Buffer, IntegerRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(view(w.data()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, SizedBytesRoundTrip) {
  Writer w;
  const Bytes payload{1, 2, 3, 4, 5};
  w.sized_bytes(view(payload));
  Reader r(view(w.data()));
  EXPECT_EQ(r.sized_bytes(), payload);
}

TEST(Buffer, TruncatedInputFailsSoft) {
  Writer w;
  w.u16(300);
  Reader r(view(w.data()));
  EXPECT_FALSE(r.try_u32().has_value());
  // try_* must not consume on failure paths that matter: a fresh reader
  // still parses the u16.
  Reader r2(view(w.data()));
  EXPECT_EQ(r2.try_u16().value(), 300);
}

TEST(Buffer, SizedBytesWithLyingLengthFails) {
  Writer w;
  w.u16(100);  // claims 100 bytes follow
  w.u8(1);
  Reader r(view(w.data()));
  EXPECT_FALSE(r.try_sized_bytes().has_value());
}

TEST(Buffer, ThrowingAccessorsThrowOnTruncation) {
  Bytes empty;
  Reader r(view(empty));
  EXPECT_THROW(r.u32(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(13), 13u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(99);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(3);
  double total = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i)
    total += static_cast<double>(rng.geometric(0.25));
  EXPECT_NEAR(total / trials, 4.0, 0.1);
}

// Golden stream for a fixed seed. Every simulation outcome depends on
// these exact values, so a change to the generator or to the draw helpers
// (their arithmetic, or how the compiler inlines it) shows up here first.
// uniform01() is compared by bit pattern, and bernoulli(0.3) outcomes are
// packed one bit per draw (bit i = draw i).
TEST(Rng, GoldenStream) {
  constexpr std::uint64_t kNext[64] = {
      0x1def33ece6145786ULL, 0x4bab03c77b41885dULL, 0x50cf5301b64c873cULL,
      0xc6090b3e0ecb3e2eULL, 0xfe06136eaf1b46fdULL, 0x769f8b62af573c9eULL,
      0x4bdc8fdb3f6c8bb3ULL, 0xe3be1492d707938cULL, 0x46782e68f1152c6eULL,
      0xe75836b1422fc6c9ULL, 0x635d3b8d1697ac44ULL, 0x3aa5d468e9f9a480ULL,
      0x5c585c6e980e38a8ULL, 0x6c0f64cd9d6ada7bULL, 0x9cbb3987ad5d951dULL,
      0x421803abc56f74e3ULL, 0x5884bae4364cbe89ULL, 0x093b05f4ef19a915ULL,
      0xfa97a7769c6aab0dULL, 0xab95d09f73e88916ULL, 0x6cb510b25713d5d3ULL,
      0xf0734590250fa05dULL, 0x57e408ec31b0a9dfULL, 0xed3aa5d37539789eULL,
      0xaf9c50a0d2a9299eULL, 0xb425acd39b151115ULL, 0x92c42fc8a5d4140aULL,
      0xdeb017617e883ceaULL, 0xe3b99b3cb48889ffULL, 0x7e5a2262a4841691ULL,
      0xa2919465756bc75cULL, 0xe314eae8029a068cULL, 0xca986b1578570887ULL,
      0x0cb9c6be31b21767ULL, 0x8d4b8a66967e3f27ULL, 0xfc833f6d5dad5b59ULL,
      0x41456005d34b0071ULL, 0x2035d87a21f95fc2ULL, 0x9781c294a44559aaULL,
      0xb931bf8eebdc9813ULL, 0x02fa9c0ee10f9f13ULL, 0x9137d7b9b214f895ULL,
      0xd8893c791f7589afULL, 0xed1489545564ab8fULL, 0x3f2e988fc9654c1dULL,
      0x8a997d3cfc194f64ULL, 0x213ba3c2cdbd4d3cULL, 0x3e509fac35ff949eULL,
      0x91c40e357181b0c7ULL, 0x03b05e10e78d2cd0ULL, 0xc47b20ddf9b166cbULL,
      0x237b02676ae42d58ULL, 0xf81dee829f78471cULL, 0x6dc56cfe573b0578ULL,
      0x425b473285e05acaULL, 0x695e203b7169fb60ULL, 0xa6b8c0f10e53785cULL,
      0x51dc9a4f0640af6eULL, 0x0d88966fc1a8bf23ULL, 0x1a363fe174211b6bULL,
      0x0fe5b6b44ac701baULL, 0x25255e074d259794ULL, 0x77a109315df1efcaULL,
      0x7aa76029a18a79c9ULL,
  };
  constexpr std::uint64_t kUniform01Bits[64] = {
      0x3fbdef33ece61450ULL, 0x3fd2eac0f1ded062ULL, 0x3fd433d4c06d9320ULL,
      0x3fe8c12167c1d967ULL, 0x3fefc0c26dd5e368ULL, 0x3fdda7e2d8abd5ceULL,
      0x3fd2f723f6cfdb22ULL, 0x3fec77c2925ae0f2ULL, 0x3fd19e0b9a3c454aULL,
      0x3feceb06d62845f8ULL, 0x3fd8d74ee345a5eaULL, 0x3fcd52ea3474fcd0ULL,
      0x3fd716171ba6038eULL, 0x3fdb03d933675ab6ULL, 0x3fe3976730f5abb2ULL,
      0x3fd08600eaf15bdcULL, 0x3fd6212eb90d932eULL, 0x3fa2760be9de3350ULL,
      0x3fef52f4eed38d55ULL, 0x3fe572ba13ee7d11ULL, 0x3fdb2d442c95c4f4ULL,
      0x3fee0e68b204a1f4ULL, 0x3fd5f9023b0c6c2aULL, 0x3feda754ba6ea72fULL,
      0x3fe5f38a141a5525ULL, 0x3fe684b59a7362a2ULL, 0x3fe25885f914ba82ULL,
      0x3febd602ec2fd107ULL, 0x3fec773367969111ULL, 0x3fdf968898a92104ULL,
      0x3fe452328caead78ULL, 0x3fec629d5d005340ULL, 0x3fe9530d62af0ae1ULL,
      0x3fa9738d7c636420ULL, 0x3fe1a9714cd2cfc7ULL, 0x3fef9067edabb5abULL,
      0x3fd051580174d2c0ULL, 0x3fc01aec3d10fcacULL, 0x3fe2f038529488abULL,
      0x3fe72637f1dd7b93ULL, 0x3f87d4e077087cc0ULL, 0x3fe226faf736429fULL,
      0x3feb11278f23eeb1ULL, 0x3feda2912a8aac95ULL, 0x3fcf974c47e4b2a4ULL,
      0x3fe1532fa79f8329ULL, 0x3fc09dd1e166dea4ULL, 0x3fcf284fd61affc8ULL,
      0x3fe23881c6ae3036ULL, 0x3f8d82f0873c6940ULL, 0x3fe88f641bbf362cULL,
      0x3fc1bd8133b57214ULL, 0x3fef03bdd053ef08ULL, 0x3fdb715b3f95cec0ULL,
      0x3fd096d1cca17816ULL, 0x3fda57880edc5a7eULL, 0x3fe4d7181e21ca6fULL,
      0x3fd4772693c1902aULL, 0x3fab112cdf835170ULL, 0x3fba363fe1742118ULL,
      0x3fafcb6d68958e00ULL, 0x3fc292af03a692c8ULL, 0x3fdde8424c577c7aULL,
      0x3fdea9d80a68629eULL,
  };
  constexpr std::uint64_t kBernoulli03 = 0x3c4ad13200028943ULL;

  Rng next_rng(20110620);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(next_rng.next(), kNext[i]) << i;

  Rng u01_rng(20110620);
  for (int i = 0; i < 64; ++i) {
    const double u = u01_rng.uniform01();
    std::uint64_t bits;
    std::memcpy(&bits, &u, sizeof bits);
    EXPECT_EQ(bits, kUniform01Bits[i]) << i;
  }

  Rng bern_rng(20110620);
  std::uint64_t outcomes = 0;
  for (int i = 0; i < 64; ++i) {
    if (bern_rng.bernoulli(0.3)) outcomes |= std::uint64_t{1} << i;
  }
  EXPECT_EQ(outcomes, kBernoulli03);
}

TEST(Rng, ForkedStreamsAreIndependentlySeeded) {
  Rng parent(10);
  Rng a = parent.fork();
  Rng b = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Hex
// ---------------------------------------------------------------------------

TEST(Hex, EncodesLowercase) {
  const Bytes data{0x00, 0xff, 0xa5};
  EXPECT_EQ(to_hex(view(data)), "00ffa5");
}

TEST(Hex, DecodesBothCases) {
  EXPECT_EQ(from_hex("00FFa5").value(), (Bytes{0x00, 0xff, 0xa5}));
}

TEST(Hex, RejectsOddLengthAndBadChars) {
  EXPECT_FALSE(from_hex("abc").has_value());
  EXPECT_FALSE(from_hex("zz").has_value());
}

TEST(Hex, RoundTrip) {
  Bytes data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(from_hex(to_hex(view(data))).value(), data);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(CounterSet, AddsAndMerges) {
  CounterSet a, b;
  a.add("x");
  a.add("x", 2);
  b.add("y", 5);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 3u);
  EXPECT_EQ(a.get("y"), 5u);
  EXPECT_EQ(a.get("missing"), 0u);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, RendersAlignedAndCsv) {
  Table t({"a", "long header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row(std::vector<double>{1.5, 2.0, 3.25});
  std::ostringstream human, csv;
  t.print(human);
  t.print_csv(csv);
  EXPECT_NE(human.str().find("long header"), std::string::npos);
  EXPECT_EQ(csv.str(), "a,long header,c\n1,2,3\n1.50,2,3.25\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::logic_error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"x"});
  t.add_row({std::string("a,\"b\"")});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "x\n\"a,\"\"b\"\"\"\n");
}

}  // namespace
}  // namespace lrs
