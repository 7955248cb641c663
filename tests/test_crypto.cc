// HMAC (RFC 4231 vectors), Merkle tree, WOTS / multi-key signatures and the
// message-specific puzzle.
#include <gtest/gtest.h>

#include <string>

#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/puzzle.h"
#include "crypto/sha256_kernels.h"
#include "crypto/wots.h"
#include "sim/stats/stats.h"
#include "util/hex.h"

namespace lrs::crypto {
namespace {

Bytes str_bytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// HMAC-SHA256
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(view(key), view(str_bytes("Hi There")));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac = hmac_sha256(
      view(str_bytes("Jefe")), view(str_bytes("what do ya want for nothing?")));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const auto mac = hmac_sha256(view(key), view(data));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      view(key), view(str_bytes("Test Using Larger Than Block-Size Key - "
                                "Hash Key First")));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(ControlMac, VerifiesAndRejectsTamper) {
  const Bytes key{1, 2, 3};
  const Bytes msg{9, 9, 9};
  const ControlMac mac = control_mac(view(key), view(msg));
  EXPECT_TRUE(verify_control_mac(view(key), view(msg), mac));
  Bytes other{9, 9, 8};
  EXPECT_FALSE(verify_control_mac(view(key), view(other), mac));
  const Bytes wrong_key{1, 2, 4};
  EXPECT_FALSE(verify_control_mac(view(wrong_key), view(msg), mac));
}

// ---------------------------------------------------------------------------
// Packet hashes
// ---------------------------------------------------------------------------

TEST(PacketHashTest, IsPrefixOfSha256) {
  const Bytes data{1, 2, 3};
  const auto full = Sha256::hash(view(data));
  const auto trunc = packet_hash(view(data));
  for (std::size_t i = 0; i < kPacketHashSize; ++i)
    EXPECT_EQ(trunc[i], full[i]);
}

TEST(PacketHashTest, ReadAtOffset) {
  Bytes buf(24, 0);
  const PacketHash h = packet_hash(view(Bytes{7}));
  std::copy(h.begin(), h.end(), buf.begin() + 8);
  EXPECT_TRUE(equal(read_packet_hash(view(buf), 8), h));
  EXPECT_THROW(read_packet_hash(view(buf), 20), std::logic_error);
}

// ---------------------------------------------------------------------------
// Merkle tree
// ---------------------------------------------------------------------------

std::vector<Bytes> make_leaves(std::size_t count) {
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < count; ++i)
    leaves.push_back(Bytes{static_cast<std::uint8_t>(i), 0x55,
                           static_cast<std::uint8_t>(i * 7)});
  return leaves;
}

TEST(Merkle, EveryLeafVerifiesAgainstRoot) {
  for (std::size_t count : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto leaves = make_leaves(count);
    const auto tree = MerkleTree::build(leaves);
    EXPECT_EQ(tree.leaf_count(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto path = tree.auth_path(i);
      EXPECT_EQ(path.size(), tree.depth());
      EXPECT_TRUE(equal(
          MerkleTree::compute_root(view(leaves[i]), i, path), tree.root()))
          << "count=" << count << " leaf=" << i;
    }
  }
}

TEST(Merkle, TamperedLeafFails) {
  const auto leaves = make_leaves(8);
  const auto tree = MerkleTree::build(leaves);
  Bytes forged = leaves[3];
  forged[0] ^= 1;
  EXPECT_FALSE(equal(
      MerkleTree::compute_root(view(forged), 3, tree.auth_path(3)),
      tree.root()));
}

TEST(Merkle, WrongIndexFails) {
  const auto leaves = make_leaves(8);
  const auto tree = MerkleTree::build(leaves);
  EXPECT_FALSE(equal(
      MerkleTree::compute_root(view(leaves[3]), 4, tree.auth_path(3)),
      tree.root()));
}

TEST(Merkle, TamperedPathFails) {
  const auto leaves = make_leaves(8);
  const auto tree = MerkleTree::build(leaves);
  auto path = tree.auth_path(5);
  path[1][0] ^= 1;
  EXPECT_FALSE(
      equal(MerkleTree::compute_root(view(leaves[5]), 5, path), tree.root()));
}

TEST(Merkle, NonPowerOfTwoRejected) {
  EXPECT_THROW(MerkleTree::build(make_leaves(3)), std::logic_error);
  EXPECT_THROW(MerkleTree::build({}), std::logic_error);
}

TEST(Merkle, LeafAndNodeDomainsSeparated) {
  // A leaf containing exactly the encoding of two child hashes must not
  // collide with the internal node above them.
  const auto leaves = make_leaves(2);
  const auto tree = MerkleTree::build(leaves);
  const PacketHash l0 = MerkleTree::leaf_hash(view(leaves[0]));
  const PacketHash l1 = MerkleTree::leaf_hash(view(leaves[1]));
  Bytes concat;
  append(concat, l0);
  append(concat, l1);
  EXPECT_FALSE(equal(MerkleTree::leaf_hash(view(concat)),
                     MerkleTree::node_hash(l0, l1)));
}

// ---------------------------------------------------------------------------
// WOTS
// ---------------------------------------------------------------------------

TEST(Wots, SignVerifyRoundTrip) {
  const Bytes seed{1, 2, 3, 4};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const Bytes msg = str_bytes("new code image v2");
  const auto sig = kp.sign(view(msg));
  EXPECT_TRUE(WotsKeyPair::verify(kp.public_key(), view(msg), sig));
}

TEST(Wots, WrongMessageFails) {
  const Bytes seed{1, 2, 3, 4};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const auto sig = kp.sign(view(str_bytes("genuine")));
  EXPECT_FALSE(WotsKeyPair::verify(kp.public_key(), view(str_bytes("forged")),
                                   sig));
}

TEST(Wots, TamperedSignatureFails) {
  const Bytes seed{9};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const Bytes msg = str_bytes("m");
  auto sig = kp.sign(view(msg));
  sig.chains[5][0] ^= 1;
  EXPECT_FALSE(WotsKeyPair::verify(kp.public_key(), view(msg), sig));
}

TEST(Wots, KeyReuseRefused) {
  const Bytes seed{7};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  kp.sign(view(str_bytes("one")));
  EXPECT_THROW(kp.sign(view(str_bytes("two"))), std::logic_error);
}

TEST(Wots, DistinctIndicesGiveDistinctKeys) {
  const Bytes seed{7};
  auto a = WotsKeyPair::generate(view(seed), 0);
  auto b = WotsKeyPair::generate(view(seed), 1);
  EXPECT_FALSE(equal(a.public_key(), b.public_key()));
}

TEST(Wots, SignatureSerializationRoundTrip) {
  const Bytes seed{3};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const Bytes msg = str_bytes("x");
  const auto sig = kp.sign(view(msg));
  const Bytes raw = sig.serialize();
  EXPECT_EQ(raw.size(), WotsSignature::kSerializedSize);
  const auto back = WotsSignature::deserialize(view(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(WotsKeyPair::verify(kp.public_key(), view(msg), *back));
}

TEST(Wots, ChainStepCounterCountsEveryWalk) {
  // crypto.wots.chain_steps: 255 steps per chain to generate a key, one
  // step per message/checksum digit to sign, and the remaining 255 - digit
  // steps per chain to verify.
  stats::set_enabled(true);
  stats::Counter& steps =
      stats::Registry::instance().counter("crypto.wots.chain_steps");
  const std::uint64_t before = steps.value();
  auto kp = WotsKeyPair::generate(view(Bytes{4}), 0);
  EXPECT_EQ(steps.value(), before + kWotsLen * 255);

  const Bytes msg = str_bytes("chunked");
  const Sha256Digest d = Sha256::hash(view(msg));
  std::uint64_t digits = 0;
  std::uint64_t remaining = 0;
  unsigned checksum = 0;
  for (std::size_t i = 0; i < kWotsLen1; ++i) {
    digits += d[i];
    remaining += 255 - d[i];
    checksum += 255 - d[i];
  }
  for (const unsigned digit : {(checksum >> 8) & 0xff, checksum & 0xff}) {
    digits += digit;
    remaining += 255 - digit;
  }
  const auto sig = kp.sign(view(msg));
  EXPECT_EQ(steps.value(), before + kWotsLen * 255 + digits);
  EXPECT_TRUE(WotsKeyPair::verify(kp.public_key(), view(msg), sig));
  EXPECT_EQ(steps.value(), before + kWotsLen * 255 + digits + remaining);
  stats::set_enabled(false);
}

// ---------------------------------------------------------------------------
// MultiKeySigner
// ---------------------------------------------------------------------------

TEST(MultiKeySigner, SignsUpToCapacityThenThrows) {
  const Bytes seed{1};
  MultiKeySigner signer(view(seed), 2);
  EXPECT_EQ(signer.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    const Bytes msg{static_cast<std::uint8_t>(i)};
    const auto sig = signer.sign(view(msg));
    EXPECT_TRUE(
        MultiKeySigner::verify(signer.root_public_key(), view(msg), sig));
  }
  const Bytes msg{99};
  EXPECT_THROW(signer.sign(view(msg)), std::runtime_error);
}

TEST(MultiKeySigner, CrossMessageForgeryFails) {
  const Bytes seed{2};
  MultiKeySigner signer(view(seed), 1);
  const auto sig = signer.sign(view(Bytes{1}));
  EXPECT_FALSE(MultiKeySigner::verify(signer.root_public_key(), view(Bytes{2}),
                                      sig));
}

TEST(MultiKeySigner, ForeignKeyRejected) {
  const Bytes seed_a{3}, seed_b{4};
  MultiKeySigner alice(view(seed_a), 1);
  MultiKeySigner mallory(view(seed_b), 1);
  const Bytes msg{7};
  const auto sig = mallory.sign(view(msg));
  // Mallory's signature verifies under her root but not Alice's.
  EXPECT_TRUE(
      MultiKeySigner::verify(mallory.root_public_key(), view(msg), sig));
  EXPECT_FALSE(
      MultiKeySigner::verify(alice.root_public_key(), view(msg), sig));
}

TEST(MultiKeySigner, SerializationRoundTrip) {
  const Bytes seed{5};
  MultiKeySigner signer(view(seed), 3);
  const Bytes msg = str_bytes("image metadata || root");
  const auto sig = signer.sign(view(msg));
  const auto back = CertifiedSignature::deserialize(view(sig.serialize()));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(
      MultiKeySigner::verify(signer.root_public_key(), view(msg), *back));
}

TEST(MultiKeySigner, TruncatedSerializationRejected) {
  const Bytes seed{6};
  MultiKeySigner signer(view(seed), 1);
  Bytes raw = signer.sign(view(Bytes{1})).serialize();
  raw.resize(raw.size() - 1);
  EXPECT_FALSE(CertifiedSignature::deserialize(view(raw)).has_value());
}

// Known answer for the simulator's signer (the seed core/experiment.cc
// uses): pins key generation, Merkle certification and the WOTS chain walk
// byte for byte on every SHA-256 kernel — which the round-trip tests above
// cannot see, since a consistently wrong chain function still verifies.
TEST(MultiKeySigner, KnownAnswerOnEveryKernel) {
  struct KernelGuard {
    ~KernelGuard() { sha256_set_kernel("auto"); }
  } guard;
  const Bytes seed{0x11, 0x22, 0x33, 0x44};
  const Bytes msg{1, 2, 3, 4, 5};
  for (const auto& name : sha256_available_kernels()) {
    ASSERT_TRUE(sha256_set_kernel(name)) << name;
    MultiKeySigner signer(view(seed), 2);
    const auto& root = signer.root_public_key();
    EXPECT_EQ(to_hex(ByteView(root.data(), root.size())), "396060122c158ce9")
        << name;
    const auto sig = signer.sign(view(msg));
    const Sha256Digest d = Sha256::hash(view(sig.serialize()));
    EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
              "c74e1780d7264e7ea61b50ac355f1dd9b6dde893c00e427ef2deb0ec92e2bb81")
        << name;
    EXPECT_TRUE(MultiKeySigner::verify(root, view(msg), sig)) << name;
  }
}

// core/experiment.cc builds the key tree once and signs each trial with a
// copy: the copy must sign like a freshly built signer, and must leave the
// original's one-time keys unused.
TEST(MultiKeySigner, CopySignsLikeFreshSigner) {
  const Bytes seed{0x11, 0x22, 0x33, 0x44};
  const Bytes msg = str_bytes("image metadata || root");
  const MultiKeySigner prototype(view(seed), 2);
  for (int trial = 0; trial < 2; ++trial) {
    MultiKeySigner copy = prototype;
    MultiKeySigner fresh(view(seed), 2);
    const auto sig = copy.sign(view(msg));
    EXPECT_EQ(sig.key_index, 0u);
    EXPECT_EQ(sig.serialize(), fresh.sign(view(msg)).serialize());
    EXPECT_EQ(copy.signatures_issued(), 1u);
    EXPECT_EQ(prototype.signatures_issued(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Puzzle
// ---------------------------------------------------------------------------

TEST(Puzzle, SolveThenVerify) {
  const Bytes msg = str_bytes("signature packet body");
  const auto sol = solve_puzzle(view(msg), 12);
  EXPECT_TRUE(verify_puzzle(view(msg), sol));
}

TEST(Puzzle, WrongMessageFails) {
  const Bytes msg = str_bytes("genuine");
  const auto sol = solve_puzzle(view(msg), 12);
  EXPECT_FALSE(verify_puzzle(view(str_bytes("forged!")), sol));
}

TEST(Puzzle, RandomSolutionAlmostNeverValid) {
  const Bytes msg = str_bytes("target");
  int valid = 0;
  for (std::uint64_t s = 0; s < 200; ++s) {
    PuzzleSolution guess{16, s * 7919 + 1};
    valid += verify_puzzle(view(msg), guess);
  }
  EXPECT_LE(valid, 1);
}

TEST(Puzzle, StrengthZeroAlwaysPasses) {
  const Bytes msg = str_bytes("m");
  PuzzleSolution sol{0, 12345};
  EXPECT_TRUE(verify_puzzle(view(msg), sol));
}

TEST(Puzzle, AbsurdStrengthRejected) {
  const Bytes msg = str_bytes("m");
  PuzzleSolution sol{200, 0};
  EXPECT_FALSE(verify_puzzle(view(msg), sol));
  EXPECT_THROW(solve_puzzle(view(msg), 200), std::logic_error);
}

TEST(Puzzle, SerializationRoundTrip) {
  PuzzleSolution sol{13, 0xdeadbeefcafeULL};
  const auto back = PuzzleSolution::deserialize(view(sol.serialize()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->strength, 13);
  EXPECT_EQ(back->solution, 0xdeadbeefcafeULL);
}

}  // namespace
}  // namespace lrs::crypto
