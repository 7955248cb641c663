// LR-Seluge image preprocessing and node state (paper §IV-C, §IV-E).
//
// Base-station side (Fig. 1): working backwards from page g, each page's
// k plaintext blocks — the image slice plus, for pages below g, the n hash
// images of the *next* page's encoded packets — are erasure-coded into n
// packets. The hash page M0 (the n hashes of page 1's packets) is itself
// erasure-coded with a k0-n0-k0' code into n0 = 2^d packets protected by a
// Merkle tree (Fig. 2) whose root is signed.
//
// Receiver side: after verifying the signature packet (root + geometry),
// any k0' authenticated page-0 packets decode M0, yielding the hash images
// of page 1's n packets; any k' authenticated page-1 packets decode page 1,
// yielding page 2's hashes; and so on. Every data packet is authenticated
// with a single hash the moment it arrives, yet any k' of the n packets
// complete a page — loss resilience plus immediate authentication.
//
// A node that decoded a page can regenerate all n of its packets (the code
// instances are preloaded and deterministic), so it serves exactly the
// packets its neighbors ask for; the most recently served page is cached.
// Decoded pages are the only copy of the hash chain a node keeps: each
// packet hash is read back from the page (or M0) that carried it.
#pragma once

#include <memory>

#include "crypto/hash.h"
#include "crypto/wots.h"
#include "proto/params.h"
#include "proto/scheme.h"

namespace lrs::core {

/// Base-station side: preprocesses `image` and signs the Merkle root with
/// `signer` (consumes one one-time key).
std::unique_ptr<proto::SchemeState> make_lr_source(
    const proto::CommonParams& params, const Bytes& image,
    crypto::MultiKeySigner& signer);

/// Receiver side: only the preloaded code instances and verification root.
std::unique_ptr<proto::SchemeState> make_lr_receiver(
    const proto::CommonParams& params,
    const crypto::PacketHash& root_public_key);

/// Geometry sanity check shared with the facade: params must leave room for
/// the per-page hash block (k * payload > n * hash size).
void validate_lr_params(const proto::CommonParams& params);

}  // namespace lrs::core
