#include "crypto/wots.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/sha256_kernels.h"
#include "sim/stats/stats.h"
#include "util/buffer.h"
#include "util/check.h"

namespace lrs::crypto {

namespace {

using Chain = std::array<std::uint8_t, kWotsChainBytes>;

/// Walks every chain in lockstep: chain i advances steps[i] times from v[i].
/// A step hashes one 32-byte value, which SHA-256 pads into exactly one
/// 64-byte block (value, 0x80, zeros, 256-bit length), so each round is one
/// compression per live chain from the initial state — batched through the
/// multi-buffer kernel when one is active, else the single-stream kernel.
/// Digests equal Sha256::hash of the value, step for step. Every walk —
/// key generation, signing, verification — adds its steps to the
/// deterministic counter crypto.wots.chain_steps.
void walk_chains(std::array<Chain, kWotsLen>& v,
                 const std::array<unsigned, kWotsLen>& steps) {
  static stats::Timer& timer =
      stats::Registry::instance().timer("crypto.wots.chain");
  static stats::Counter& steps_counter =
      stats::Registry::instance().counter("crypto.wots.chain_steps");
  stats::TimerScope scope(timer);
  steps_counter.add(
      std::accumulate(steps.begin(), steps.end(), std::uint64_t{0}));

  constexpr std::uint64_t kBitLen = kWotsChainBytes * 8;
  std::array<std::array<std::uint8_t, 64>, kWotsLen> blocks{};
  for (std::size_t i = 0; i < kWotsLen; ++i) {
    std::copy(v[i].begin(), v[i].end(), blocks[i].begin());
    blocks[i][kWotsChainBytes] = 0x80;
    for (int b = 0; b < 8; ++b)
      blocks[i][56 + b] = static_cast<std::uint8_t>(kBitLen >> (8 * (7 - b)));
  }
  const unsigned rounds = *std::max_element(steps.begin(), steps.end());
  const Sha256BatchKernel* batch = sha256_batch_kernel();
  const Sha256Kernel& single = sha256_kernel();
  std::array<std::uint32_t, 8 * kWotsLen> states;
  std::array<const std::uint8_t*, kWotsLen> ptrs;
  std::array<std::size_t, kWotsLen> live;
  for (unsigned round = 0; round < rounds; ++round) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < kWotsLen; ++i) {
      if (steps[i] <= round) continue;
      std::copy_n(kSha256Init, 8, &states[8 * count]);
      ptrs[count] = blocks[i].data();
      live[count++] = i;
    }
    if (batch != nullptr) {
      batch->compress_batch(states.data(), ptrs.data(), count);
    } else {
      for (std::size_t j = 0; j < count; ++j)
        single.compress(&states[8 * j], ptrs[j], 1);
    }
    // The digest, big-endian, becomes the next step's value. Word stores
    // rather than byte stores: this write-back costs as much as the
    // compression otherwise.
    for (std::size_t j = 0; j < count; ++j) {
      std::uint8_t* out = blocks[live[j]].data();
      for (std::size_t w = 0; w < 8; ++w) {
        std::uint32_t x = states[8 * j + w];
        if constexpr (std::endian::native == std::endian::little)
          x = __builtin_bswap32(x);
        std::memcpy(out + 4 * w, &x, sizeof(x));
      }
    }
  }
  for (std::size_t i = 0; i < kWotsLen; ++i)
    std::copy_n(blocks[i].begin(), kWotsChainBytes, v[i].begin());
}

/// Message digest -> len1 byte chunks + len2 checksum chunks, all in [0,255].
std::array<unsigned, kWotsLen> message_chunks(ByteView message) {
  const Sha256Digest d = Sha256::hash(message);
  std::array<unsigned, kWotsLen> chunks{};
  unsigned checksum = 0;
  for (std::size_t i = 0; i < kWotsLen1; ++i) {
    chunks[i] = d[i];
    checksum += 255 - d[i];
  }
  // checksum <= 16 * 255 = 4080, fits in two base-256 digits.
  chunks[kWotsLen1] = (checksum >> 8) & 0xff;
  chunks[kWotsLen1 + 1] = checksum & 0xff;
  return chunks;
}

WotsPublicKey compress_tops(
    const std::array<Chain, kWotsLen>& tops) {
  Sha256 h;
  for (const auto& t : tops) h.update(ByteView(t.data(), t.size()));
  return h.finalize();
}

}  // namespace

Bytes WotsSignature::serialize() const {
  Bytes out;
  out.reserve(kSerializedSize);
  for (const auto& c : chains) out.insert(out.end(), c.begin(), c.end());
  return out;
}

std::optional<WotsSignature> WotsSignature::deserialize(ByteView data) {
  if (data.size() < kSerializedSize) return std::nullopt;
  WotsSignature sig;
  std::size_t off = 0;
  for (auto& c : sig.chains) {
    std::memcpy(c.data(), data.data() + off, kWotsChainBytes);
    off += kWotsChainBytes;
  }
  return sig;
}

WotsKeyPair WotsKeyPair::generate(ByteView seed, std::uint64_t index) {
  WotsKeyPair kp;
  for (std::size_t i = 0; i < kWotsLen; ++i) {
    // sk_i = HMAC(seed, index || i): deterministic, independent per chain.
    Writer w;
    w.u64(index);
    w.u64(i);
    const Sha256Digest d = hmac_sha256(seed, view(w.data()));
    std::copy_n(d.begin(), kWotsChainBytes, kp.sk_[i].begin());
  }
  std::array<Chain, kWotsLen> tops = kp.sk_;
  std::array<unsigned, kWotsLen> steps;
  steps.fill(255);
  walk_chains(tops, steps);
  kp.pk_ = compress_tops(tops);
  return kp;
}

WotsSignature WotsKeyPair::sign(ByteView message) {
  LRS_CHECK_MSG(!used_, "WOTS key reuse would forfeit security");
  used_ = true;
  const auto chunks = message_chunks(message);
  WotsSignature sig;
  sig.chains = sk_;
  walk_chains(sig.chains, chunks);
  return sig;
}

bool WotsKeyPair::verify(const WotsPublicKey& pk, ByteView message,
                         const WotsSignature& sig) {
  const auto chunks = message_chunks(message);
  std::array<Chain, kWotsLen> tops = sig.chains;
  std::array<unsigned, kWotsLen> remaining;
  for (std::size_t i = 0; i < kWotsLen; ++i) remaining[i] = 255 - chunks[i];
  walk_chains(tops, remaining);
  return equal(compress_tops(tops), pk);
}

Bytes CertifiedSignature::serialize() const {
  Writer w;
  w.u32(key_index);
  w.bytes(ByteView(wots_pk.data(), wots_pk.size()));
  w.u8(static_cast<std::uint8_t>(cert_path.size()));
  for (const auto& h : cert_path) w.bytes(ByteView(h.data(), h.size()));
  w.bytes(view(sig.serialize()));
  return std::move(w).take();
}

std::optional<CertifiedSignature> CertifiedSignature::deserialize(
    ByteView data) {
  Reader r(data);
  CertifiedSignature out;
  auto idx = r.try_u32();
  if (!idx) return std::nullopt;
  out.key_index = *idx;
  auto pk = r.try_bytes(out.wots_pk.size());
  if (!pk) return std::nullopt;
  std::copy(pk->begin(), pk->end(), out.wots_pk.begin());
  auto depth = r.try_u8();
  if (!depth || *depth > 32) return std::nullopt;
  for (unsigned i = 0; i < *depth; ++i) {
    auto h = r.try_bytes(kPacketHashSize);
    if (!h) return std::nullopt;
    PacketHash ph;
    std::copy(h->begin(), h->end(), ph.begin());
    out.cert_path.push_back(ph);
  }
  auto sig_bytes = r.try_bytes(WotsSignature::kSerializedSize);
  if (!sig_bytes) return std::nullopt;
  auto sig = WotsSignature::deserialize(view(*sig_bytes));
  if (!sig) return std::nullopt;
  out.sig = *sig;
  return out;
}

MultiKeySigner::MultiKeySigner(ByteView seed, std::size_t height)
    : tree_(MerkleTree::build([&] {
        LRS_CHECK(height <= 16);
        std::vector<Bytes> leaves;
        const std::size_t count = std::size_t{1} << height;
        leaves.reserve(count);
        keys_.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          keys_.push_back(WotsKeyPair::generate(seed, i));
          const auto& pk = keys_.back().public_key();
          leaves.emplace_back(pk.begin(), pk.end());
        }
        return leaves;
      }())) {}

CertifiedSignature MultiKeySigner::sign(ByteView message) {
  if (next_ >= keys_.size())
    throw std::runtime_error("MultiKeySigner: all one-time keys consumed");
  CertifiedSignature out;
  out.key_index = static_cast<std::uint32_t>(next_);
  out.wots_pk = keys_[next_].public_key();
  out.cert_path = tree_.auth_path(next_);
  out.sig = keys_[next_].sign(message);
  ++next_;
  return out;
}

bool MultiKeySigner::verify(const PacketHash& root_public_key,
                            ByteView message, const CertifiedSignature& sig) {
  // 1. The WOTS public key must be certified under the preloaded root.
  const PacketHash root = MerkleTree::compute_root(
      ByteView(sig.wots_pk.data(), sig.wots_pk.size()), sig.key_index,
      sig.cert_path);
  if (!equal(root, root_public_key)) return false;
  // 2. The WOTS signature must verify under that key.
  return WotsKeyPair::verify(sig.wots_pk, message, sig.sig);
}

}  // namespace lrs::crypto
