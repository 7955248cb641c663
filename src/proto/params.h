// Shared configuration for all three dissemination schemes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "erasure/code.h"
#include "sim/time.h"
#include "sim/trickle.h"
#include "util/types.h"

namespace lrs::proto {

class SchemeState;   // proto/scheme.h
struct RxFanoutMemo; // proto/engine.h

/// The default preloaded keys: bytes [0, 4) are the cluster key, [4, 8)
/// the LEAP master secret. Defined out of line (params.cc) because GCC 12
/// reports a braced byte list in a default member initializer as
/// maybe-uninitialized wherever the constructor is inlined.
extern const std::uint8_t kDefaultKeyBytes[8];

/// Geometry and crypto parameters preloaded on every node before deployment
/// (paper §IV-B): the erasure-code instances, packet sizes and keys. Only
/// the image content, its hash chain and the signed root travel over the
/// air.
struct CommonParams {
  Version version = 1;

  /// Data payload bytes per packet (excluding protocol headers). Every
  /// encoded block is exactly this long.
  std::size_t payload_size = 64;

  /// Content-page code: k original blocks -> n encoded packets.
  std::size_t k = 32;
  std::size_t n = 48;

  /// Hash-page code: k0 blocks -> n0 = 2^d encoded packets (Merkle leaves).
  std::size_t k0 = 8;
  std::size_t n0 = 16;

  /// Nominal decode overhead for probabilistic codes (k' = k + delta).
  std::size_t delta = 0;
  erasure::CodecKind codec = erasure::CodecKind::kReedSolomon;
  std::uint64_t code_seed = 0x5e1f6e;

  /// Weak-authenticator difficulty on the signature packet.
  std::uint8_t puzzle_strength = 12;

  /// Ablation switch: serve LR-Seluge pages with the greedy round-robin
  /// tracking-table scheduler (the paper's design, default) or fall back
  /// to Deluge's union scheduler to quantify the scheduler's contribution.
  bool lr_greedy_scheduler = true;

  /// Cluster key authenticating advertisement/SNACK packets.
  Bytes cluster_key = Bytes(kDefaultKeyBytes, kDefaultKeyBytes + 4);

  /// §IV-E future-work extension: authenticate SNACKs with LEAP-style
  /// per-source keys instead of the shared cluster key. The MAC then
  /// *identifies* the sender, so the denial-of-receipt budget cannot be
  /// evaded by rotating claimed node IDs — with a single cluster key any
  /// compromised node can speak as anyone.
  bool leap_snack_auth = false;
  /// Master secret the per-source keys derive from (models LEAP's
  /// pairwise establishment; an attacker holds only its own derived key).
  Bytes leap_master = Bytes(kDefaultKeyBytes + 4, kDefaultKeyBytes + 8);
};

/// Engine pacing knobs. Defaults follow Deluge-style constants scaled so a
/// 20 KB dissemination finishes in minutes of simulated time.
struct EngineTiming {
  sim::TrickleParams trickle{};  // tau_low=1s, tau_high=60s, kappa=2

  /// Random delay before sending a SNACK after deciding to request.
  sim::SimTime snack_delay_max = 50 * sim::kMillisecond;
  /// Quiet period after the last useful data packet before re-requesting
  /// the remainder of the page (Deluge re-requests when the stream ends).
  sim::SimTime stream_gap = 40 * sim::kMillisecond;
  sim::SimTime stream_gap_jitter = 40 * sim::kMillisecond;
  /// Retry period when nothing is heard at all (lost SNACK, busy server).
  sim::SimTime snack_retry = 300 * sim::kMillisecond;
  /// Extra random jitter on the retry.
  sim::SimTime snack_retry_jitter = 150 * sim::kMillisecond;
  /// Hold-back after overhearing traffic for an earlier page: neighbors
  /// are behind, let them catch up so bursts stay shared (lockstep).
  sim::SimTime lockstep_delay = 350 * sim::kMillisecond;
  /// SNACK retries against one server before trying another.
  int max_snack_retries = 8;
  /// Hard ceiling on how long suppression/lockstep deferrals may postpone
  /// the next SNACK after the previous one. Without it, an adversary
  /// replaying old-page or duplicate data packets could stall receivers
  /// indefinitely (each overheard packet pushing the request out again).
  sim::SimTime max_snack_deferral = 4 * sim::kSecond;

  /// Pacing gap between successive served data packets (lets requests in).
  sim::SimTime data_gap = 3 * sim::kMillisecond;
  /// How long a sender pools SNACKs before starting to serve: concurrent
  /// requesters then share one burst instead of spawning mini-bursts.
  sim::SimTime serve_aggregation = 45 * sim::kMillisecond;

  /// Base-station delay before the initial signature broadcast.
  sim::SimTime signature_boot_delay = 50 * sim::kMillisecond;
  /// Minimum spacing between signature rebroadcasts by one node.
  sim::SimTime signature_rebroadcast_min_gap = 1 * sim::kSecond;
};

struct EngineConfig {
  EngineTiming timing{};
  bool is_base_station = false;

  /// LEAP-style per-source SNACK authentication (CommonParams mirrors).
  bool leap_snack_auth = false;
  Bytes leap_master;

  /// Multi-image support: when set, a node that learns of a NEWER image
  /// version (signature packet or advertisement) builds a fresh receiver
  /// state for it and abandons the old image once the new signature
  /// verifies. Versions only move forward — downgrade replays are ignored.
  std::function<std::unique_ptr<SchemeState>(Version)> scheme_factory;

  /// Denial-of-receipt mitigation (paper §IV-E): per neighbor and page,
  /// stop honoring SNACKs after `dor_limit_factor * k'` requested packets.
  bool dor_mitigation = true;
  std::size_t dor_limit_factor = 8;

  /// Shared receive-side verification memo, one per simulator (nullable,
  /// not owned; wired by the experiment harness). Lets the nodes of one
  /// single-threaded simulation verify each broadcast frame once per
  /// transmission instead of once per receiver. See RxFanoutMemo.
  RxFanoutMemo* rx_memo = nullptr;
};

}  // namespace lrs::proto
