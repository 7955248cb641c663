#include "proto/scheme.h"

#include "crypto/puzzle.h"
#include "crypto/wots.h"

namespace lrs::proto {

namespace {

bool certificate_holds(const crypto::PacketHash& root_pk, ByteView frame) {
  const auto packet = SignaturePacket::parse(frame);
  if (!packet) return false;
  const auto cert =
      crypto::CertifiedSignature::deserialize(view(packet->signature));
  return cert && crypto::MultiKeySigner::verify(
                     root_pk, view(packet->signed_message()), *cert);
}

}  // namespace

bool SignatureMemo::certified(const crypto::PacketHash& root_pk,
                              ByteView frame) {
  std::string key(root_pk.begin(), root_pk.end());
  key.append(frame.begin(), frame.end());
  if (const auto it = verdicts_.find(key); it != verdicts_.end())
    return it->second;
  const bool ok = certificate_holds(root_pk, frame);
  if (verdicts_.size() >= kCapacity) verdicts_.clear();
  verdicts_.emplace(std::move(key), ok);
  return ok;
}

std::optional<SignaturePacket> check_signature(
    ByteView frame, const CommonParams& params,
    const crypto::PacketHash& root_pk, sim::NodeMetrics& m,
    SignatureMemo* memo) {
  auto packet = SignaturePacket::parse(frame);
  if (!packet || packet->meta.version != params.version) {
    m.auth_failures += 1;
    return std::nullopt;
  }
  // Weak authenticator first: one hash gates the expensive verification.
  // The required strength is the preloaded one — the field in the packet
  // is attacker-controlled and must not weaken the check.
  if (packet->puzzle.strength < params.puzzle_strength ||
      !crypto::verify_puzzle(view(packet->signed_message()), packet->puzzle)) {
    m.puzzle_rejections += 1;
    return std::nullopt;
  }
  m.signature_verifications += 1;
  if (!(memo ? memo->certified(root_pk, frame)
             : certificate_holds(root_pk, frame))) {
    m.auth_failures += 1;
    return std::nullopt;
  }
  return packet;
}

}  // namespace lrs::proto
