// Rateless Deluge baseline: GF(256) incremental elimination, unbounded
// coefficient windows, fresh-packet service, end-to-end dissemination and
// its (deliberate) lack of packet authentication.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "proto/rateless.h"
#include "util/rng.h"

namespace lrs {
namespace {

using proto::CommonParams;
using proto::DataStatus;

CommonParams small_params() {
  CommonParams p;
  p.payload_size = 32;
  p.k = 8;
  p.n = 12;
  return p;
}

// ---------------------------------------------------------------------------
// Gf256Eliminator
// ---------------------------------------------------------------------------

TEST(Gf256EliminatorTest, SolvesIdentitySystem) {
  erasure::Gf256Eliminator e(3, 2);
  for (std::uint8_t i = 0; i < 3; ++i) {
    Bytes row(3, 0);
    row[i] = 1;
    Bytes payload{i, static_cast<std::uint8_t>(i * 2)};
    EXPECT_TRUE(e.add(view(row), view(payload)));
  }
  ASSERT_TRUE(e.complete());
  const auto sol = e.solve();
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(sol[i][0], i);
}

TEST(Gf256EliminatorTest, SolvesRandomDenseSystem) {
  Rng rng(1);
  const std::size_t k = 8, len = 16;
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(len);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  erasure::Gf256Eliminator e(k, len);
  while (!e.complete()) {
    Bytes row(k);
    for (auto& c : row) c = static_cast<std::uint8_t>(rng.uniform(256));
    Bytes payload(len, 0);
    for (std::size_t j = 0; j < k; ++j)
      erasure::Gf256::addmul(MutByteView(payload.data(), len),
                             view(blocks[j]), row[j]);
    e.add(view(row), view(payload));
  }
  EXPECT_EQ(e.solve(), blocks);
}

TEST(Gf256EliminatorTest, RedundantRowsNotInnovative) {
  erasure::Gf256Eliminator e(2, 1);
  Bytes r1{1, 2}, p1{5};
  Bytes r2{2, 4}, p2{10};  // 2 * equation 1
  EXPECT_TRUE(e.add(view(r1), view(p1)));
  EXPECT_FALSE(e.add(view(r2), view(p2)));
  EXPECT_EQ(e.rank(), 1u);
}

TEST(Gf256EliminatorTest, SolveBeforeCompleteThrows) {
  erasure::Gf256Eliminator e(2, 1);
  Bytes r{1, 0}, p{1};
  e.add(view(r), view(p));
  EXPECT_THROW(e.solve(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Rateless scheme state
// ---------------------------------------------------------------------------

TEST(RatelessScheme, SystematicTransferReassembles) {
  const auto params = small_params();
  const Bytes image = core::make_test_image(1500, 5);
  auto src = proto::make_rateless_source(params, image);
  auto dst = proto::make_rateless_receiver(params, image.size());
  sim::NodeMetrics m;
  for (std::uint32_t p = 0; p < src->num_pages(); ++p) {
    for (std::uint32_t j = 0; j < params.k; ++j) {
      if (dst->pages_complete() > p) break;
      dst->on_data(p, j, view(src->packet_payload(p, j).value()), m);
    }
  }
  ASSERT_TRUE(dst->image_complete());
  EXPECT_EQ(dst->assemble_image(), image);
}

TEST(RatelessScheme, ParityOnlyTransferReassembles) {
  // Feed ONLY coded combinations (no systematic packets) from arbitrary
  // window positions — the rateless property.
  const auto params = small_params();
  const Bytes image = core::make_test_image(1500, 6);
  auto src = proto::make_rateless_source(params, image);
  auto dst = proto::make_rateless_receiver(params, image.size());
  sim::NodeMetrics m;
  const auto window =
      static_cast<std::uint32_t>(proto::kRatelessWindowFactor * params.k);
  for (std::uint32_t p = 0; p < src->num_pages(); ++p) {
    for (std::uint32_t j = window - 1; j >= params.k; --j) {
      if (dst->pages_complete() > p) break;
      dst->on_data(p, j, view(src->packet_payload(p, j).value()), m);
    }
    EXPECT_EQ(dst->pages_complete(), p + 1) << "page " << p;
  }
  EXPECT_EQ(dst->assemble_image(), image);
}

TEST(RatelessScheme, DecodesFromAboutKPackets) {
  // Dense GF(256) combinations are innovative with overwhelming
  // probability: rank k is reached within k + 1 packets almost always.
  const auto params = small_params();
  const Bytes image = core::make_test_image(400, 7);
  auto src = proto::make_rateless_source(params, image);
  auto dst = proto::make_rateless_receiver(params, image.size());
  sim::NodeMetrics m;
  std::uint32_t fed = 0;
  for (std::uint32_t j = params.k; dst->pages_complete() == 0; ++j) {
    dst->on_data(0, j, view(src->packet_payload(0, j).value()), m);
    ++fed;
  }
  EXPECT_LE(fed, params.k + 2);
}

TEST(RatelessScheme, SenderHasFreshPacketsBeyondK) {
  const auto params = small_params();
  const Bytes image = core::make_test_image(400, 8);
  auto src = proto::make_rateless_source(params, image);
  const auto a = src->packet_payload(0, 20).value();
  const auto b = src->packet_payload(0, 21).value();
  EXPECT_NE(a, b);
  // Deterministic regeneration: same index -> same packet.
  EXPECT_EQ(src->packet_payload(0, 20).value(), a);
}

TEST(RatelessScheme, AcceptsForgedPayloads) {
  // The insecurity that motivates LR-Seluge: garbage parses fine and even
  // poisons the decoder.
  const auto params = small_params();
  auto dst = proto::make_rateless_receiver(params, 1500);
  sim::NodeMetrics m;
  const Bytes forged(params.payload_size, 0xba);
  EXPECT_NE(dst->on_data(0, 9, view(forged), m), DataStatus::kRejected);
  EXPECT_EQ(m.auth_failures, 0u);
}

TEST(RatelessScheme, EndToEndSimulation) {
  core::ExperimentConfig cfg;
  cfg.scheme = core::Scheme::kRatelessDeluge;
  cfg.params = small_params();
  cfg.image_size = 2048;
  cfg.topo_spec.receivers = 5;
  cfg.channel = sim::ChannelSpec::uniform(0.25);
  cfg.timing.trickle.tau_low = 250 * sim::kMillisecond;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
}

TEST(RatelessScheme, MoreLossResilientThanDeluge) {
  core::ExperimentConfig rateless;
  rateless.scheme = core::Scheme::kRatelessDeluge;
  core::ExperimentConfig deluge;
  deluge.scheme = core::Scheme::kDeluge;
  for (auto* cfg : {&rateless, &deluge}) {
    cfg->params = small_params();
    cfg->params.payload_size = 64;
    cfg->params.k = 16;
    cfg->image_size = 6 * 1024;
    cfg->topo_spec.receivers = 8;
    cfg->channel = sim::ChannelSpec::uniform(0.3);
    cfg->timing.trickle.tau_low = 250 * sim::kMillisecond;
  }
  const auto r1 = run_experiment_avg(rateless, 3);
  const auto r2 = run_experiment_avg(deluge, 3);
  ASSERT_TRUE(r1.all_complete && r2.all_complete);
  EXPECT_LT(r1.data_packets, r2.data_packets);
}

}  // namespace
}  // namespace lrs
