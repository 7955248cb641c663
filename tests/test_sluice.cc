// Sluice baseline: page-level deferred authentication — correct transfer
// on honest channels, and the buffer-pollution DoS the paper's §VII
// critique predicts (one forged packet per page forces a whole-page
// discard).
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "crypto/wots.h"
#include "proto/sluice.h"

namespace lrs {
namespace {

using proto::CommonParams;
using proto::DataStatus;

CommonParams small_params() {
  CommonParams p;
  p.payload_size = 32;
  p.k = 8;
  p.puzzle_strength = 4;
  return p;
}

struct Fixture {
  explicit Fixture(std::size_t image_size = 2000)
      : params(small_params()),
        image(core::make_test_image(image_size, 21)),
        signer(view(Bytes{3}), 1),
        src(proto::make_sluice_source(params, image, signer)),
        dst(proto::make_sluice_receiver(params, signer.root_public_key())) {}

  void bootstrap() {
    ASSERT_TRUE(dst->on_signature(view(src->signature_frame().value()), m));
  }

  void feed_page(std::uint32_t page) {
    for (std::uint32_t j = 0; j < params.k; ++j) {
      if (dst->pages_complete() > page) break;
      dst->on_data(page, j, view(src->packet_payload(page, j).value()), m);
    }
  }

  CommonParams params;
  Bytes image;
  crypto::MultiKeySigner signer;
  std::unique_ptr<proto::SchemeState> src;
  std::unique_ptr<proto::SchemeState> dst;
  sim::NodeMetrics m;
};

TEST(SluiceScheme, HonestTransferIsByteExact) {
  Fixture f;
  f.bootstrap();
  for (std::uint32_t p = 0; p < f.src->num_pages(); ++p) f.feed_page(p);
  ASSERT_TRUE(f.dst->image_complete());
  EXPECT_EQ(f.dst->assemble_image(), f.image);
  EXPECT_EQ(f.m.page_discards, 0u);
  // Page-level auth: ONE hash per page, not per packet.
  EXPECT_EQ(f.m.hash_verifications, f.src->num_pages());
}

TEST(SluiceScheme, SingleForgedPacketPoisonsWholePage) {
  Fixture f;
  f.bootstrap();
  // The forged packet is ACCEPTED (deferred auth cannot tell).
  const Bytes forged(f.params.payload_size, 0x66);
  EXPECT_EQ(f.dst->on_data(0, 3, view(forged), f.m), DataStatus::kStored);
  // Genuine packet for the occupied slot bounces off.
  EXPECT_EQ(f.dst->on_data(0, 3, view(f.src->packet_payload(0, 3).value()),
                           f.m),
            DataStatus::kStale);
  // Page completes ... and fails wholesale.
  f.feed_page(0);
  EXPECT_EQ(f.dst->pages_complete(), 0u);
  EXPECT_EQ(f.m.page_discards, 1u);
  // Every buffered packet — including 7 genuine ones — was thrown away.
  EXPECT_EQ(f.dst->request_bits(0).count(), f.params.k);
}

TEST(SluiceScheme, RecoversAfterDiscardWhenAttackerGoesAway) {
  Fixture f;
  f.bootstrap();
  const Bytes forged(f.params.payload_size, 0x66);
  f.dst->on_data(0, 3, view(forged), f.m);
  f.feed_page(0);
  ASSERT_EQ(f.m.page_discards, 1u);
  // Clean re-delivery succeeds.
  for (std::uint32_t p = 0; p < f.src->num_pages(); ++p) f.feed_page(p);
  ASSERT_TRUE(f.dst->image_complete());
  EXPECT_EQ(f.dst->assemble_image(), f.image);
}

TEST(SluiceScheme, PersistentAttackerStallsForever) {
  // One forged packet per page round = permanent denial of service.
  Fixture f;
  f.bootstrap();
  const Bytes forged(f.params.payload_size, 0x66);
  for (int round = 0; round < 20; ++round) {
    // The attacker races the base station to the first still-missing slot.
    const auto missing = f.dst->request_bits(0).first_set();
    ASSERT_TRUE(missing.has_value());
    f.dst->on_data(0, static_cast<std::uint32_t>(*missing), view(forged),
                   f.m);
    f.feed_page(0);
  }
  EXPECT_EQ(f.dst->pages_complete(), 0u);
  EXPECT_EQ(f.m.page_discards, 20u);
}

TEST(SluiceScheme, ForgedSignatureRejected) {
  Fixture f;
  crypto::MultiKeySigner mallory(view(Bytes{9}), 1);
  auto forged = proto::make_sluice_source(f.params,
                                          core::make_test_image(500, 9),
                                          mallory);
  EXPECT_FALSE(
      f.dst->on_signature(view(forged->signature_frame().value()), f.m));
  EXPECT_FALSE(f.dst->bootstrapped());
}

TEST(SluiceScheme, TamperedChainPageRejectedAtCompletion) {
  Fixture f;
  f.bootstrap();
  f.feed_page(0);
  ASSERT_EQ(f.dst->pages_complete(), 1u);
  // Page 1 with one bit flipped completes but fails the chained hash.
  for (std::uint32_t j = 0; j < f.params.k; ++j) {
    Bytes payload = f.src->packet_payload(1, j).value();
    if (j == 0) payload[4] ^= 1;
    f.dst->on_data(1, j, view(payload), f.m);
  }
  EXPECT_EQ(f.dst->pages_complete(), 1u);
  EXPECT_EQ(f.m.page_discards, 1u);
}

TEST(SluiceScheme, EndToEndSimulationUnderLoss) {
  core::ExperimentConfig cfg;
  cfg.scheme = core::Scheme::kSluice;
  cfg.params = small_params();
  cfg.image_size = 2048;
  cfg.topo_spec.receivers = 5;
  cfg.channel = sim::ChannelSpec::uniform(0.2);
  cfg.timing.trickle.tau_low = 250 * sim::kMillisecond;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
}

TEST(SluiceScheme, SingleContentPageImage) {
  Fixture f(100);
  f.bootstrap();
  EXPECT_EQ(f.src->num_pages(), 1u);
  f.feed_page(0);
  ASSERT_TRUE(f.dst->image_complete());
  EXPECT_EQ(f.dst->assemble_image(), f.image);
}

}  // namespace
}  // namespace lrs
