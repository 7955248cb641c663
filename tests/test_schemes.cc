// Scheme state machines driven directly (no network): preprocessing,
// page-by-page authentication, erasure decoding, serving/re-encoding,
// tamper rejection and image reassembly for Deluge, Seluge and LR-Seluge.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.h"
#include "core/lr_image.h"
#include "crypto/wots.h"
#include "crypto/puzzle.h"
#include "proto/deluge.h"
#include "proto/packet.h"
#include "proto/scheme.h"
#include "proto/seluge.h"
#include "sim/stats/stats.h"
#include "util/rng.h"

namespace lrs {
namespace {

using core::make_lr_receiver;
using core::make_lr_source;
using proto::CommonParams;
using proto::DataStatus;
using proto::SchemeState;

CommonParams small_params() {
  CommonParams p;
  p.payload_size = 32;
  p.k = 8;
  p.n = 12;
  p.k0 = 4;
  p.n0 = 8;
  p.puzzle_strength = 4;  // keep preprocessing fast in tests
  return p;
}

Bytes test_image(std::size_t size, std::uint64_t seed = 7) {
  return core::make_test_image(size, seed);
}

const Bytes kSeed{0xaa, 0xbb};

/// Pumps every packet of every page from `src` into `dst` in index order.
/// Returns the number of packets dst accepted (stored or completing).
std::size_t pump_all(SchemeState& src, SchemeState& dst,
                     sim::NodeMetrics& m) {
  std::size_t accepted = 0;
  if (src.signature_frame()) {
    EXPECT_TRUE(dst.on_signature(view(*src.signature_frame()), m));
  }
  const std::uint32_t pages = src.num_pages();
  for (std::uint32_t p = 0; p < pages; ++p) {
    for (std::uint32_t j = 0; j < src.packets_in_page(p); ++j) {
      if (dst.pages_complete() > p) break;
      auto payload = src.packet_payload(p, j);
      EXPECT_TRUE(payload.has_value());
      const auto status = dst.on_data(p, j, view(*payload), m);
      EXPECT_NE(status, DataStatus::kRejected)
          << "page " << p << " idx " << j;
      if (status != DataStatus::kStale) ++accepted;
    }
  }
  return accepted;
}

// ---------------------------------------------------------------------------
// Deluge
// ---------------------------------------------------------------------------

TEST(DelugeScheme, FullTransferReassemblesImage) {
  const auto params = small_params();
  const Bytes image = test_image(2000);
  auto src = proto::make_deluge_source(params, image);
  auto dst = proto::make_deluge_receiver(params, image.size());
  sim::NodeMetrics m;

  EXPECT_TRUE(src->image_complete());
  EXPECT_FALSE(dst->image_complete());
  EXPECT_FALSE(dst->needs_signature());
  pump_all(*src, *dst, m);
  ASSERT_TRUE(dst->image_complete());
  EXPECT_EQ(dst->assemble_image(), image);
}

TEST(DelugeScheme, AcceptsAnyWellFormedPayload) {
  // The security gap: Deluge stores forged content without complaint.
  const auto params = small_params();
  auto dst = proto::make_deluge_receiver(params, 2000);
  sim::NodeMetrics m;
  const Bytes forged(params.payload_size, 0xee);
  EXPECT_EQ(dst->on_data(0, 0, view(forged), m), DataStatus::kStored);
  EXPECT_EQ(m.auth_failures, 0u);
}

TEST(DelugeScheme, RejectsWrongSizeAndOutOfRange) {
  const auto params = small_params();
  auto dst = proto::make_deluge_receiver(params, 2000);
  sim::NodeMetrics m;
  EXPECT_EQ(dst->on_data(0, 0, view(Bytes(5, 1)), m), DataStatus::kRejected);
  EXPECT_EQ(dst->on_data(0, 99, view(Bytes(params.payload_size, 1)), m),
            DataStatus::kRejected);
}

TEST(DelugeScheme, DuplicateAndFuturePageAreStale) {
  const auto params = small_params();
  const Bytes image = test_image(2000);
  auto src = proto::make_deluge_source(params, image);
  auto dst = proto::make_deluge_receiver(params, image.size());
  sim::NodeMetrics m;
  const auto payload = src->packet_payload(0, 0).value();
  EXPECT_EQ(dst->on_data(0, 0, view(payload), m), DataStatus::kStored);
  EXPECT_EQ(dst->on_data(0, 0, view(payload), m), DataStatus::kStale);
  EXPECT_EQ(dst->on_data(3, 0, view(payload), m), DataStatus::kStale);
}

TEST(DelugeScheme, RequestBitsTrackMissing) {
  const auto params = small_params();
  const Bytes image = test_image(2000);
  auto src = proto::make_deluge_source(params, image);
  auto dst = proto::make_deluge_receiver(params, image.size());
  sim::NodeMetrics m;
  EXPECT_EQ(dst->request_bits(0).count(), params.k);
  dst->on_data(0, 3, view(src->packet_payload(0, 3).value()), m);
  const auto bits = dst->request_bits(0);
  EXPECT_EQ(bits.count(), params.k - 1);
  EXPECT_FALSE(bits.get(3));
}

// ---------------------------------------------------------------------------
// Seluge
// ---------------------------------------------------------------------------

struct SelugeFixture {
  CommonParams params = small_params();
  Bytes image = test_image(2000, 11);
  crypto::MultiKeySigner signer{view(kSeed), 2};
  std::unique_ptr<SchemeState> src =
      proto::make_seluge_source(params, image, signer);
  std::unique_ptr<SchemeState> dst =
      proto::make_seluge_receiver(params, signer.root_public_key());
  sim::NodeMetrics m;
};

TEST(SelugeScheme, FullTransferReassemblesImage) {
  SelugeFixture f;
  EXPECT_TRUE(f.src->image_complete());
  EXPECT_TRUE(f.dst->needs_signature());
  EXPECT_FALSE(f.dst->bootstrapped());
  pump_all(*f.src, *f.dst, f.m);
  ASSERT_TRUE(f.dst->image_complete());
  EXPECT_EQ(f.dst->assemble_image(), f.image);
  EXPECT_GT(f.m.hash_verifications, 0u);
  EXPECT_EQ(f.m.signature_verifications, 1u);
  EXPECT_EQ(f.m.auth_failures, 0u);
}

TEST(SelugeScheme, DataUselessBeforeSignature) {
  SelugeFixture f;
  const auto payload = f.src->packet_payload(0, 0).value();
  EXPECT_EQ(f.dst->on_data(0, 0, view(payload), f.m), DataStatus::kStale);
  EXPECT_EQ(f.dst->pages_complete(), 0u);
}

TEST(SelugeScheme, ForgedSignatureRejectedByPuzzleOrSig) {
  SelugeFixture f;
  // Garbage frame.
  Bytes junk{4, 1, 2, 3};
  EXPECT_FALSE(f.dst->on_signature(view(junk), f.m));
  // Valid structure, bad puzzle: rejected before signature verification.
  proto::SignaturePacket forged;
  forged.meta.version = f.params.version;
  forged.meta.content_pages = 3;
  forged.meta.image_size = 100;
  forged.root.fill(1);
  forged.puzzle = {f.params.puzzle_strength, 0xbad};
  forged.signature = Bytes(600, 0);
  const auto before = f.m.signature_verifications;
  if (!crypto::verify_puzzle(view(forged.signed_message()), forged.puzzle)) {
    EXPECT_FALSE(f.dst->on_signature(view(forged.serialize()), f.m));
    EXPECT_EQ(f.m.signature_verifications, before);
    EXPECT_GE(f.m.puzzle_rejections, 1u);
  }
  // Puzzle solved but signature forged: rejected after one verification.
  forged.puzzle = crypto::solve_puzzle(view(forged.signed_message()),
                                       f.params.puzzle_strength);
  forged.signature = Bytes(600, 0);
  EXPECT_FALSE(f.dst->on_signature(view(forged.serialize()), f.m));
  EXPECT_FALSE(f.dst->bootstrapped());
}

TEST(SelugeScheme, TamperedHashPagePacketRejected) {
  SelugeFixture f;
  f.dst->on_signature(view(*f.src->signature_frame()), f.m);
  Bytes payload = f.src->packet_payload(0, 0).value();
  payload[0] ^= 1;
  EXPECT_EQ(f.dst->on_data(0, 0, view(payload), f.m), DataStatus::kRejected);
  EXPECT_GE(f.m.auth_failures, 1u);
}

TEST(SelugeScheme, TamperedContentPacketRejected) {
  SelugeFixture f;
  f.dst->on_signature(view(*f.src->signature_frame()), f.m);
  for (std::uint32_t j = 0; j < f.src->packets_in_page(0); ++j)
    f.dst->on_data(0, j, view(f.src->packet_payload(0, j).value()), f.m);
  ASSERT_EQ(f.dst->pages_complete(), 1u);
  Bytes payload = f.src->packet_payload(1, 2).value();
  payload[5] ^= 0x80;
  EXPECT_EQ(f.dst->on_data(1, 2, view(payload), f.m), DataStatus::kRejected);
  // The genuine packet still goes through afterwards.
  EXPECT_EQ(f.dst->on_data(1, 2,
                           view(f.src->packet_payload(1, 2).value()), f.m),
            DataStatus::kStored);
}

TEST(SelugeScheme, PacketSplicedToOtherPositionRejected) {
  SelugeFixture f;
  f.dst->on_signature(view(*f.src->signature_frame()), f.m);
  const auto p0 = f.src->packet_payload(0, 0).value();
  EXPECT_EQ(f.dst->on_data(0, 1, view(p0), f.m), DataStatus::kRejected);
}

TEST(SelugeScheme, ReceiverCanServeAfterCompleting) {
  SelugeFixture f;
  pump_all(*f.src, *f.dst, f.m);
  ASSERT_TRUE(f.dst->image_complete());
  auto third = proto::make_seluge_receiver(f.params,
                                           f.signer.root_public_key());
  sim::NodeMetrics m2;
  pump_all(*f.dst, *third, m2);
  ASSERT_TRUE(third->image_complete());
  EXPECT_EQ(third->assemble_image(), f.image);
}

TEST(SelugeScheme, SingleContentPageImage) {
  auto params = small_params();
  const Bytes image = test_image(100, 12);  // fits one page
  crypto::MultiKeySigner signer(view(kSeed), 1);
  auto src = proto::make_seluge_source(params, image, signer);
  auto dst = proto::make_seluge_receiver(params, signer.root_public_key());
  sim::NodeMetrics m;
  pump_all(*src, *dst, m);
  ASSERT_TRUE(dst->image_complete());
  EXPECT_EQ(dst->assemble_image(), image);
}

// ---------------------------------------------------------------------------
// LR-Seluge
// ---------------------------------------------------------------------------

struct LrFixture {
  explicit LrFixture(CommonParams p = small_params(),
                     std::size_t image_size = 2000)
      : params(p),
        image(test_image(image_size, 13)),
        signer(view(kSeed), 2),
        src(make_lr_source(params, image, signer)),
        dst(make_lr_receiver(params, signer.root_public_key())) {}

  CommonParams params;
  Bytes image;
  crypto::MultiKeySigner signer;
  std::unique_ptr<SchemeState> src;
  std::unique_ptr<SchemeState> dst;
  sim::NodeMetrics m;
};

TEST(LrScheme, FullTransferReassemblesImage) {
  LrFixture f;
  pump_all(*f.src, *f.dst, f.m);
  ASSERT_TRUE(f.dst->image_complete());
  EXPECT_EQ(f.dst->assemble_image(), f.image);
  EXPECT_GT(f.m.decode_operations, 0u);
}

TEST(LrScheme, DecodesFromAnyThresholdSubset) {
  // Drop the first n-k' packets of every page: the tail still decodes.
  LrFixture f;
  ASSERT_TRUE(f.dst->on_signature(view(*f.src->signature_frame()), f.m));
  const std::uint32_t pages = f.src->num_pages();
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::size_t count = f.src->packets_in_page(p);
    const std::size_t threshold = f.src->decode_threshold(p);
    // Feed only the LAST `threshold` packets.
    for (std::size_t j = count - threshold; j < count; ++j) {
      const auto st = f.dst->on_data(
          p, static_cast<std::uint32_t>(j),
          view(f.src->packet_payload(p, static_cast<std::uint32_t>(j))
                   .value()),
          f.m);
      EXPECT_NE(st, DataStatus::kRejected);
    }
    EXPECT_EQ(f.dst->pages_complete(), p + 1) << "page " << p;
  }
  ASSERT_TRUE(f.dst->image_complete());
  EXPECT_EQ(f.dst->assemble_image(), f.image);
}

TEST(LrScheme, RandomThresholdSubsetsDecode) {
  LrFixture f;
  Rng rng(99);
  ASSERT_TRUE(f.dst->on_signature(view(*f.src->signature_frame()), f.m));
  const std::uint32_t pages = f.src->num_pages();
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::size_t count = f.src->packets_in_page(p);
    // Feed packets in random order until the page completes.
    std::vector<std::uint32_t> order(count);
    for (std::size_t j = 0; j < count; ++j)
      order[j] = static_cast<std::uint32_t>(j);
    for (std::size_t j = 0; j + 1 < count; ++j)
      std::swap(order[j], order[j + rng.uniform(count - j)]);
    std::size_t fed = 0;
    for (auto j : order) {
      if (f.dst->pages_complete() > p) break;
      f.dst->on_data(p, j, view(f.src->packet_payload(p, j).value()), f.m);
      ++fed;
    }
    EXPECT_EQ(f.dst->pages_complete(), p + 1);
    EXPECT_EQ(fed, f.src->decode_threshold(p)) << "MDS: exactly k' packets";
  }
}

TEST(LrScheme, TamperedPacketRejectedEveryPage) {
  LrFixture f;
  ASSERT_TRUE(f.dst->on_signature(view(*f.src->signature_frame()), f.m));
  // Page 0 (Merkle-verified).
  Bytes p0 = f.src->packet_payload(0, 0).value();
  p0[1] ^= 1;
  EXPECT_EQ(f.dst->on_data(0, 0, view(p0), f.m), DataStatus::kRejected);
  // Complete page 0 honestly, then tamper a content packet.
  for (std::uint32_t j = 0; j < f.src->packets_in_page(0); ++j) {
    if (f.dst->pages_complete() > 0) break;
    f.dst->on_data(0, j, view(f.src->packet_payload(0, j).value()), f.m);
  }
  ASSERT_GE(f.dst->pages_complete(), 1u);
  Bytes p1 = f.src->packet_payload(1, 5).value();
  p1[0] ^= 0x40;
  EXPECT_EQ(f.dst->on_data(1, 5, view(p1), f.m), DataStatus::kRejected);
  EXPECT_GE(f.m.auth_failures, 2u);
}

TEST(LrScheme, SplicedIndexRejected) {
  LrFixture f;
  ASSERT_TRUE(f.dst->on_signature(view(*f.src->signature_frame()), f.m));
  const auto payload = f.src->packet_payload(0, 2).value();
  EXPECT_EQ(f.dst->on_data(0, 3, view(payload), f.m), DataStatus::kRejected);
}

TEST(LrScheme, CompletedReceiverServesByReencoding) {
  // B completes from A (which itself decoded from the base station),
  // exercising page re-encoding and Merkle path regeneration end-to-end.
  LrFixture f;
  pump_all(*f.src, *f.dst, f.m);
  ASSERT_TRUE(f.dst->image_complete());

  auto third = make_lr_receiver(f.params, f.signer.root_public_key());
  sim::NodeMetrics m2;
  ASSERT_TRUE(third->on_signature(view(f.dst->signature_frame().value()), m2));
  const std::uint32_t pages = f.dst->num_pages();
  for (std::uint32_t p = 0; p < pages; ++p) {
    // Serve from the TAIL so B must use re-encoded parity packets.
    const std::size_t count = f.dst->packets_in_page(p);
    for (std::size_t j = count; j-- > 0;) {
      if (third->pages_complete() > p) break;
      const auto payload =
          f.dst->packet_payload(p, static_cast<std::uint32_t>(j));
      ASSERT_TRUE(payload.has_value());
      EXPECT_NE(third->on_data(p, static_cast<std::uint32_t>(j),
                               view(*payload), m2),
                DataStatus::kRejected);
    }
  }
  ASSERT_TRUE(third->image_complete());
  EXPECT_EQ(third->assemble_image(), f.image);
}

TEST(LrScheme, ReencodedPacketsMatchBaseStation) {
  // The hash chain only works if every node regenerates bit-identical
  // packets; compare a completed receiver's packets with the source's.
  LrFixture f;
  pump_all(*f.src, *f.dst, f.m);
  ASSERT_TRUE(f.dst->image_complete());
  for (std::uint32_t p = 0; p < f.src->num_pages(); ++p) {
    for (std::uint32_t j = 0; j < f.src->packets_in_page(p); ++j) {
      EXPECT_EQ(f.dst->packet_payload(p, j), f.src->packet_payload(p, j))
          << "page " << p << " idx " << j;
    }
  }
}

// Straggler checks read each packet hash from where it was authenticated
// (M0 for page 1, the previous page's decoded tail otherwise); on a
// receiver that decoded the chain and on a clone of the base station they
// must accept exactly the source's packets at their own positions.
TEST(LrScheme, StoredPacketChecksUseDecodedHashes) {
  LrFixture f;
  pump_all(*f.src, *f.dst, f.m);
  ASSERT_TRUE(f.dst->image_complete());
  const std::unique_ptr<SchemeState> clone = f.src->clone_source();
  ASSERT_NE(clone, nullptr);

  const std::uint32_t g = f.src->num_pages() - 1;
  ASSERT_GE(g, 3u);
  for (const SchemeState* node : {f.dst.get(), clone.get()}) {
    sim::NodeMetrics m;
    for (const std::uint32_t p : {0u, 1u, g / 2, g}) {
      const auto count = static_cast<std::uint32_t>(f.src->packets_in_page(p));
      for (std::uint32_t j = 0; j < count; ++j) {
        const Bytes payload = f.src->packet_payload(p, j).value();
        EXPECT_TRUE(node->verify_stored_packet(p, j, view(payload), m))
            << "page " << p << " idx " << j;
        Bytes flipped = payload;
        flipped[j % flipped.size()] ^= 0x01;
        EXPECT_FALSE(node->verify_stored_packet(p, j, view(flipped), m))
            << "page " << p << " idx " << j;
        EXPECT_FALSE(
            node->verify_stored_packet(p, (j + 1) % count, view(payload), m))
            << "page " << p << " idx " << j;
      }
    }
    const Bytes last = f.src->packet_payload(g, 0).value();
    for (std::uint32_t p = node->pages_complete(); p < g + 3; ++p) {
      EXPECT_FALSE(node->verify_stored_packet(p, 0, view(last), m)) << p;
    }
  }

  // A receiver partway through the chain only vouches for the pages it
  // has decoded.
  auto partial = make_lr_receiver(f.params, f.signer.root_public_key());
  sim::NodeMetrics m;
  ASSERT_TRUE(partial->on_signature(view(*f.src->signature_frame()), m));
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (std::uint32_t j = 0; partial->pages_complete() == p; ++j) {
      partial->on_data(p, j, view(f.src->packet_payload(p, j).value()), m);
    }
  }
  for (std::uint32_t p = 0; p <= g; ++p) {
    const Bytes payload = f.src->packet_payload(p, 0).value();
    EXPECT_EQ(partial->verify_stored_packet(p, 0, view(payload), m), p < 3)
        << "page " << p;
  }
}

TEST(LrScheme, FuturePagePacketsAreStale) {
  LrFixture f;
  ASSERT_TRUE(f.dst->on_signature(view(*f.src->signature_frame()), f.m));
  const auto payload = f.src->packet_payload(1, 0).value();
  EXPECT_EQ(f.dst->on_data(1, 0, view(payload), f.m), DataStatus::kStale);
}

TEST(LrScheme, WorksWithRlcCodecs) {
  for (auto codec : {erasure::CodecKind::kRlcGf2,
                     erasure::CodecKind::kRlcGf256}) {
    CommonParams p = small_params();
    p.codec = codec;
    p.delta = 2;
    LrFixture f(p);
    pump_all(*f.src, *f.dst, f.m);
    ASSERT_TRUE(f.dst->image_complete());
    EXPECT_EQ(f.dst->assemble_image(), f.image);
  }
}

TEST(LrScheme, PaperScaleParameters) {
  CommonParams p;  // defaults: k=32, n=48, payload 64
  p.puzzle_strength = 4;
  LrFixture f(p, 20 * 1024);
  pump_all(*f.src, *f.dst, f.m);
  ASSERT_TRUE(f.dst->image_complete());
  EXPECT_EQ(f.dst->assemble_image(), f.image);
}

TEST(LrScheme, HigherRateNeedsMorePages) {
  // Fig. 6 mechanism: larger n shrinks per-page capacity.
  CommonParams p56 = small_params();
  CommonParams p12 = small_params();
  p56.n = 16;
  crypto::MultiKeySigner s1(view(kSeed), 1), s2(view(kSeed), 1);
  const Bytes image = test_image(3000, 14);
  auto src_wide = make_lr_source(p56, image, s1);
  auto src_narrow = make_lr_source(p12, image, s2);
  EXPECT_GT(src_wide->num_pages(), src_narrow->num_pages());
}

TEST(LrScheme, RejectsGeometryWhereHashesDontFit) {
  CommonParams p = small_params();
  p.k = 2;
  p.n = 12;  // 12 * 8 = 96 hash bytes > 2 * 32 page bytes
  EXPECT_THROW(core::validate_lr_params(p), std::logic_error);
}

// ---------------------------------------------------------------------------
// Signature-verdict memo
// ---------------------------------------------------------------------------

TEST(SignatureMemo, VerdictKeyedByRootAndFrame) {
  stats::set_enabled(true);
  const stats::Timer& walks =
      stats::Registry::instance().timer("crypto.wots.chain");
  const CommonParams params = small_params();
  crypto::MultiKeySigner a(view(kSeed), 1);
  crypto::MultiKeySigner b(view(Bytes{0xcc}), 1);
  const auto src = make_lr_source(params, test_image(1500), a);
  const Bytes frame = *src->signature_frame();

  proto::SignatureMemo memo;
  std::uint64_t before = walks.calls();
  EXPECT_TRUE(memo.certified(a.root_public_key(), view(frame)));
  EXPECT_EQ(walks.calls(), before + 1);
  EXPECT_TRUE(memo.certified(a.root_public_key(), view(frame)));
  EXPECT_EQ(walks.calls(), before + 1);  // answered by the memo

  // Same frame, other root: the certificate path fails, whatever the memo
  // holds for root A.
  EXPECT_FALSE(memo.certified(b.root_public_key(), view(frame)));

  // One bit flipped in the WOTS chains: a new key, re-verified, rejected.
  Bytes flipped = frame;
  flipped.back() ^= 0x01;
  before = walks.calls();
  EXPECT_FALSE(memo.certified(a.root_public_key(), view(flipped)));
  EXPECT_EQ(walks.calls(), before + 1);
  EXPECT_TRUE(memo.certified(a.root_public_key(), view(frame)));

  // Receivers sharing the memo are still charged one verification each.
  sim::NodeMetrics m;
  auto rx_a = make_lr_receiver(params, a.root_public_key());
  auto rx_b = make_lr_receiver(params, b.root_public_key());
  EXPECT_TRUE(rx_a->on_signature(view(frame), m, &memo));
  EXPECT_FALSE(rx_b->on_signature(view(frame), m, &memo));
  EXPECT_EQ(m.signature_verifications, 2u);
  EXPECT_EQ(m.auth_failures, 1u);
  stats::set_enabled(false);
}

}  // namespace
}  // namespace lrs
