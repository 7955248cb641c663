// Hash-based digital signatures: Winternitz one-time signatures (WOTS) plus
// a small Merkle-certified multi-key scheme ("XMSS-lite").
//
// The paper assumes the base station owns an ECDSA key pair and that a node
// can afford roughly one signature verification per code image (1.12 s on a
// Tmote Sky). We substitute a from-scratch hash-based scheme with the same
// protocol interface — sign the Merkle root of the hash page once per image,
// verify once per image — because it is genuinely implementable and testable
// without big-integer/elliptic-curve machinery while preserving every
// security property the protocol relies on (existential unforgeability of
// the root signature). DESIGN.md documents the substitution.
//
// Parameters: chains over SHA-256, Winternitz w = 256 (byte chunks), message
// digests truncated to 16 bytes -> 16 message chains + 2 checksum chains,
// 32-byte chain values. Signature = 18 * 32 = 576 bytes.
//
// A WOTS key signs exactly one message. MultiKeySigner certifies 2^h WOTS
// public keys under a single Merkle root so one preloaded verification key
// covers up to 2^h code-image versions, mirroring deployments that must
// disseminate many images over the network's lifetime.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "util/types.h"

namespace lrs::crypto {

inline constexpr std::size_t kWotsMsgBytes = 16;   // truncated digest signed
inline constexpr std::size_t kWotsChainBytes = 32; // chain element size
inline constexpr std::size_t kWotsLen1 = kWotsMsgBytes;  // one chain per byte
inline constexpr std::size_t kWotsLen2 = 2;        // checksum chains (max 4080)
inline constexpr std::size_t kWotsLen = kWotsLen1 + kWotsLen2;

struct WotsSignature {
  std::array<std::array<std::uint8_t, kWotsChainBytes>, kWotsLen> chains;

  Bytes serialize() const;
  static std::optional<WotsSignature> deserialize(ByteView data);
  static constexpr std::size_t kSerializedSize = kWotsLen * kWotsChainBytes;
};

/// Compressed WOTS public key (hash of all chain tops).
using WotsPublicKey = Sha256Digest;

class WotsKeyPair {
 public:
  /// Deterministically derives a key pair from `seed` and `index`
  /// (index lets MultiKeySigner derive many independent keys).
  static WotsKeyPair generate(ByteView seed, std::uint64_t index);

  const WotsPublicKey& public_key() const { return pk_; }

  /// Signs `message` (hashed and truncated internally). One-time: the pair
  /// remembers use and refuses to sign twice.
  WotsSignature sign(ByteView message);

  static bool verify(const WotsPublicKey& pk, ByteView message,
                     const WotsSignature& sig);

 private:
  WotsKeyPair() = default;

  std::array<std::array<std::uint8_t, kWotsChainBytes>, kWotsLen> sk_;
  WotsPublicKey pk_;
  bool used_ = false;
};

/// A signature under a MultiKeySigner: the WOTS signature, the WOTS public
/// key that produced it, its index, and the Merkle path certifying that key
/// under the preloaded root.
struct CertifiedSignature {
  std::uint32_t key_index = 0;
  WotsPublicKey wots_pk{};
  std::vector<PacketHash> cert_path;
  WotsSignature sig{};

  Bytes serialize() const;
  static std::optional<CertifiedSignature> deserialize(ByteView data);
};

class MultiKeySigner {
 public:
  /// Generates 2^height WOTS key pairs from `seed` and certifies them under
  /// a single Merkle root (the network-preloaded verification key).
  MultiKeySigner(ByteView seed, std::size_t height);

  /// The value preloaded on every sensor node before deployment.
  const PacketHash& root_public_key() const { return tree_.root(); }
  std::size_t capacity() const { return keys_.size(); }
  std::size_t signatures_issued() const { return next_; }

  /// Signs with the next unused WOTS key. Throws std::runtime_error once
  /// capacity is exhausted.
  CertifiedSignature sign(ByteView message);

  /// Certificate path to the root, then the WOTS chains (~2,000 hashes).
  /// Pure in its arguments, so a receiver population checking one
  /// signature packet memoizes the verdict per run (proto::SignatureMemo).
  static bool verify(const PacketHash& root_public_key, ByteView message,
                     const CertifiedSignature& sig);

 private:
  std::vector<WotsKeyPair> keys_;
  MerkleTree tree_;
  std::size_t next_ = 0;
};

}  // namespace lrs::crypto
