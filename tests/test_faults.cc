// Fault-injection layer: unit tests for every FaultModel, corruption
// property tests for the erasure codecs (a corrupted packet must fail the
// packet_hash gate, never decode into a wrong image), end-to-end
// dissemination under fault plans with the invariant observer attached, and
// the crash-reboot regression of ISSUE 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/experiment.h"
#include "crypto/hash.h"
#include "erasure/code.h"
#include "proto/packet.h"
#include "sim/faults.h"
#include "util/rng.h"

namespace lrs {
namespace {

using sim::CrashEvent;
using sim::FaultAction;
using sim::FaultPlan;
using sim::kMillisecond;
using sim::kSecond;

Bytes test_frame(std::size_t size) {
  Bytes f(size);
  for (std::size_t i = 0; i < size; ++i) {
    f[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return f;
}

// --- fault model units ------------------------------------------------------

TEST(CorruptionFault, AlwaysMutatesAtProbabilityOne) {
  auto fault = sim::make_corruption_fault({1.0, 4, false, 8});
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    Bytes frame = test_frame(40);
    const Bytes original = frame;
    FaultAction action;
    fault->apply(0, 1, 0, frame, action, rng);
    EXPECT_TRUE(action.tampered);
    EXPECT_EQ(frame.size(), original.size());
    EXPECT_NE(frame, original);
  }
}

TEST(CorruptionFault, FlipsNeverCancelOut) {
  // Regression: with-replacement bit flips can land on the same bit an even
  // number of times and cancel, leaving the frame intact but marked
  // tampered — which trips the tamper-rejection invariant when the
  // untouched frame then authenticates. Small frame makes collisions
  // likely; every application must still change it.
  auto fault = sim::make_corruption_fault({1.0, 8, false, 8});
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    Bytes frame = test_frame(4);
    const Bytes original = frame;
    FaultAction action;
    fault->apply(0, 1, 0, frame, action, rng);
    ASSERT_NE(frame, original) << "iteration " << i;
  }
}

TEST(CorruptionFault, BurstMutatesContiguousRun) {
  auto fault = sim::make_corruption_fault({1.0, 4, true, 6});
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    Bytes frame = test_frame(64);
    const Bytes original = frame;
    FaultAction action;
    fault->apply(0, 1, 0, frame, action, rng);
    EXPECT_TRUE(action.tampered);
    std::size_t first = 64, last = 0, changed = 0;
    for (std::size_t j = 0; j < frame.size(); ++j) {
      if (frame[j] != original[j]) {
        first = std::min(first, j);
        last = j;
        ++changed;
      }
    }
    ASSERT_GT(changed, 0u);
    EXPECT_LE(last - first + 1, 6u);
    // Every byte inside the burst changed (xor with nonzero).
    EXPECT_EQ(changed, last - first + 1);
  }
}

TEST(CorruptionFault, DeterministicUnderSeed) {
  for (const bool burst : {false, true}) {
    auto a = sim::make_corruption_fault({0.5, 4, burst, 8});
    auto b = sim::make_corruption_fault({0.5, 4, burst, 8});
    Rng ra(42), rb(42);
    for (int i = 0; i < 100; ++i) {
      Bytes fa = test_frame(32), fb = test_frame(32);
      FaultAction aa, ab;
      a->apply(0, 1, 0, fa, aa, ra);
      b->apply(0, 1, 0, fb, ab, rb);
      EXPECT_EQ(fa, fb);
      EXPECT_EQ(aa.tampered, ab.tampered);
    }
  }
}

TEST(TruncationFault, TruncatesToShorterLength) {
  auto fault = sim::make_truncation_fault({1.0, 0.0, 0});
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Bytes frame = test_frame(40);
    FaultAction action;
    fault->apply(0, 1, 0, frame, action, rng);
    EXPECT_TRUE(action.tampered);
    EXPECT_LT(frame.size(), 40u);
  }
}

TEST(TruncationFault, PadsWithGarbage) {
  auto fault = sim::make_truncation_fault({0.0, 1.0, 16});
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Bytes frame = test_frame(40);
    const Bytes original = frame;
    FaultAction action;
    fault->apply(0, 1, 0, frame, action, rng);
    EXPECT_TRUE(action.tampered);
    ASSERT_GT(frame.size(), 40u);
    EXPECT_LE(frame.size(), 40u + 16u);
    EXPECT_TRUE(std::equal(original.begin(), original.end(), frame.begin()));
  }
}

TEST(DuplicationFault, EmitsBoundedCopies) {
  auto fault = sim::make_duplication_fault({1.0, 4});
  Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 100; ++i) {
    Bytes frame = test_frame(16);
    FaultAction action;
    fault->apply(0, 1, 0, frame, action, rng);
    EXPECT_FALSE(action.tampered);  // duplicates carry identical bytes
    EXPECT_GE(action.copies, 2u);
    EXPECT_LE(action.copies, 4u);
    seen.insert(action.copies);
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(ReorderFault, DelayBounded) {
  auto fault = sim::make_reorder_fault({1.0, 30 * kMillisecond});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Bytes frame = test_frame(16);
    FaultAction action;
    fault->apply(0, 1, 0, frame, action, rng);
    EXPECT_GE(action.delay, 1);
    EXPECT_LE(action.delay, 30 * kMillisecond);
  }
}

TEST(CrashFault, DownExactlyInsideWindows) {
  auto fault = sim::make_crash_fault(
      {{2, 1 * kSecond, 500 * kMillisecond}, {3, 4 * kSecond, 1 * kSecond}});
  EXPECT_FALSE(fault->is_down(2, 999 * kMillisecond));
  EXPECT_TRUE(fault->is_down(2, 1 * kSecond));
  EXPECT_TRUE(fault->is_down(2, 1499 * kMillisecond));
  EXPECT_FALSE(fault->is_down(2, 1500 * kMillisecond));
  EXPECT_FALSE(fault->is_down(3, 1 * kSecond));
  EXPECT_TRUE(fault->is_down(3, 4500 * kMillisecond));
  EXPECT_FALSE(fault->is_down(1, 1 * kSecond));
  EXPECT_EQ(fault->crash_events().size(), 2u);
}

TEST(FaultChain, ComposesMutationsCopiesAndWindows) {
  std::vector<std::unique_ptr<sim::FaultModel>> models;
  models.push_back(sim::make_corruption_fault({1.0, 2, false, 8}));
  models.push_back(sim::make_duplication_fault({1.0, 3}));
  models.push_back(
      sim::make_crash_fault({{1, 2 * kSecond, 1 * kSecond}}));
  auto chain = sim::make_fault_chain(std::move(models));

  Rng rng(11);
  Bytes frame = test_frame(32);
  const Bytes original = frame;
  FaultAction action;
  chain->apply(0, 1, 0, frame, action, rng);
  EXPECT_TRUE(action.tampered);
  EXPECT_NE(frame, original);
  EXPECT_GE(action.copies, 2u);
  EXPECT_TRUE(chain->is_down(1, 2500 * kMillisecond));
  EXPECT_FALSE(chain->is_down(1, 3500 * kMillisecond));
  EXPECT_EQ(chain->crash_events().size(), 1u);
}

TEST(FaultPlanTest, AnyAndFactory) {
  FaultPlan none;
  EXPECT_FALSE(none.any());
  EXPECT_EQ(sim::make_fault_model(none), nullptr);
  EXPECT_EQ(none.describe(), "none");

  FaultPlan plan;
  plan.corrupt_prob = 0.25;
  plan.crashes.push_back({1, kSecond, kSecond});
  EXPECT_TRUE(plan.any());
  EXPECT_NE(sim::make_fault_model(plan), nullptr);
  EXPECT_NE(plan.describe().find("corrupt"), std::string::npos);
  EXPECT_NE(plan.describe().find("crash"), std::string::npos);
}

// --- erasure corruption properties (ISSUE 3 satellite 1) --------------------
//
// The dissemination path authenticates every LR-Seluge packet by comparing
// crypto::packet_hash over (version, page, index, payload) against the
// verified hash chain. For each codec and every corruption pattern the
// fault layer can emit, a mutated payload must fail that gate — and a
// decode fed only gate-passing shares must reproduce the original blocks.

struct CodecCase {
  const char* name;
  erasure::CodecKind kind;
};

class ErasureCorruption : public ::testing::TestWithParam<CodecCase> {};

std::vector<Bytes> make_blocks(std::size_t k, std::size_t size,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(size);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return blocks;
}

crypto::PacketHash share_hash(std::uint32_t index, const Bytes& payload) {
  proto::DataPacket probe;
  probe.version = 1;
  probe.page = 1;
  probe.index = index;
  probe.payload = payload;
  return crypto::packet_hash(view(probe.hash_preimage()));
}

TEST_P(ErasureCorruption, CorruptedSharesFailHashAndCleanDecodeSurvives) {
  const auto& tc = GetParam();
  const std::size_t k = 8, n = 14, payload = 48;
  const std::size_t delta = tc.kind == erasure::CodecKind::kLt ? 4 : 2;
  const auto code = erasure::make_code(tc.kind, k, n, delta, 0xbeef);
  const auto blocks = make_blocks(k, payload, 77);
  const auto encoded = code->encode(blocks);
  ASSERT_EQ(encoded.size(), n);

  // Sender-side ground truth: the per-packet hash images.
  std::vector<crypto::PacketHash> hashes(n);
  for (std::size_t j = 0; j < n; ++j) {
    hashes[j] = share_hash(static_cast<std::uint32_t>(j), encoded[j]);
  }

  // Every corruption pattern the fault layer can emit.
  std::vector<std::unique_ptr<sim::FaultModel>> patterns;
  patterns.push_back(sim::make_corruption_fault({1.0, 1, false, 8}));
  patterns.push_back(sim::make_corruption_fault({1.0, 8, false, 8}));
  patterns.push_back(sim::make_corruption_fault({1.0, 4, true, 12}));
  patterns.push_back(sim::make_truncation_fault({1.0, 0.0, 0}));
  patterns.push_back(sim::make_truncation_fault({0.0, 1.0, 16}));

  Rng rng(123);
  for (auto& pattern : patterns) {
    for (std::size_t j = 0; j < n; ++j) {
      Bytes mutated = encoded[j];
      FaultAction action;
      pattern->apply(0, 1, 0, mutated, action, rng);
      ASSERT_TRUE(action.tampered);
      // The authentication gate rejects every corrupted packet.
      EXPECT_FALSE(crypto::equal(
          share_hash(static_cast<std::uint32_t>(j), mutated), hashes[j]))
          << tc.name << " share " << j;
    }
  }

  // Decoding from gate-passing (clean) shares reproduces the original —
  // use the LAST decode_threshold shares so non-systematic paths run too.
  std::vector<erasure::Share> shares;
  for (std::size_t j = n - code->decode_threshold(); j < n; ++j) {
    ASSERT_TRUE(crypto::equal(
        share_hash(static_cast<std::uint32_t>(j), encoded[j]), hashes[j]));
    shares.push_back({j, encoded[j]});
  }
  const auto decoded = code->decode(shares);
  if (tc.kind == erasure::CodecKind::kReedSolomon) {
    ASSERT_TRUE(decoded.has_value());
  }
  if (decoded) {
    EXPECT_EQ(*decoded, blocks) << tc.name;
  } else {
    // Probabilistic codes may need more shares — all of them must do.
    std::vector<erasure::Share> all;
    for (std::size_t j = 0; j < n; ++j) all.push_back({j, encoded[j]});
    const auto full = code->decode(all);
    ASSERT_TRUE(full.has_value()) << tc.name;
    EXPECT_EQ(*full, blocks) << tc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ErasureCorruption,
    ::testing::Values(CodecCase{"rs", erasure::CodecKind::kReedSolomon},
                      CodecCase{"rlc2", erasure::CodecKind::kRlcGf2},
                      CodecCase{"rlc256", erasure::CodecKind::kRlcGf256},
                      CodecCase{"lt", erasure::CodecKind::kLt}),
    [](const auto& info) { return std::string(info.param.name); });

// --- end-to-end under fault plans -------------------------------------------

core::ExperimentConfig fault_config(core::Scheme scheme) {
  core::ExperimentConfig c;
  c.scheme = scheme;
  c.params.payload_size = 32;
  c.params.k = 8;
  c.params.n = 12;
  c.params.k0 = 4;
  c.params.n0 = 8;
  c.params.puzzle_strength = 4;
  c.image_size = 2048;
  c.topo_spec.receivers = 4;
  c.seed = 1;
  c.timing.trickle.tau_low = 250 * kMillisecond;
  c.timing.trickle.tau_high = 8 * kSecond;
  c.check_invariants = true;
  return c;
}

TEST(FaultE2E, LrSelugeCompletesUnderCorruption) {
  auto cfg = fault_config(core::Scheme::kLrSeluge);
  cfg.faults.corrupt_prob = 0.1;
  cfg.faults.corrupt_max_flips = 8;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete) << r.completed << "/" << r.receivers;
  EXPECT_TRUE(r.images_match);
  EXPECT_GT(r.tampered_frames, 0u);
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
}

TEST(FaultE2E, LrSelugeCompletesUnderChaosPlan) {
  auto cfg = fault_config(core::Scheme::kLrSeluge);
  cfg.faults.corrupt_prob = 0.05;
  cfg.faults.truncate_prob = 0.03;
  cfg.faults.duplicate_prob = 0.05;
  cfg.faults.reorder_prob = 0.1;
  cfg.faults.reorder_max_delay = 20 * kMillisecond;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete) << r.completed << "/" << r.receivers;
  EXPECT_TRUE(r.images_match);
  EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
}

TEST(FaultE2E, DeterministicUnderFaultPlan) {
  auto cfg = fault_config(core::Scheme::kLrSeluge);
  cfg.faults.corrupt_prob = 0.08;
  cfg.faults.duplicate_prob = 0.05;
  cfg.faults.reorder_prob = 0.1;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_EQ(a.data_packets, b.data_packets);
  EXPECT_EQ(a.snack_packets, b.snack_packets);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.tampered_frames, b.tampered_frames);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
}

TEST(FaultE2E, FaultFreeRunUnchangedByInvariantObserver) {
  // The observer is passive: metrics with and without it are identical.
  auto cfg = fault_config(core::Scheme::kLrSeluge);
  cfg.check_invariants = false;
  const auto plain = run_experiment(cfg);
  cfg.check_invariants = true;
  const auto observed = run_experiment(cfg);
  EXPECT_EQ(plain.data_packets, observed.data_packets);
  EXPECT_EQ(plain.snack_packets, observed.snack_packets);
  EXPECT_EQ(plain.total_bytes, observed.total_bytes);
  EXPECT_DOUBLE_EQ(plain.latency_s, observed.latency_s);
  EXPECT_GT(observed.invariant_checks, 0u);
  EXPECT_EQ(observed.invariant_violations, 0u) << observed.first_violation;
}

// --- crash-reboot regression (ISSUE 3 satellite 3) --------------------------

class CrashReboot : public ::testing::TestWithParam<core::Scheme> {};

TEST_P(CrashReboot, RebootedReceiverStillCompletesUnderGilbertElliott) {
  auto cfg = fault_config(GetParam());
  cfg.channel = sim::ChannelSpec::gilbert_elliott();
  // Mid-transfer outages on two receivers; frontier must survive both.
  cfg.faults.crashes.push_back({2, 1 * kSecond, 700 * kMillisecond});
  cfg.faults.crashes.push_back({3, 2 * kSecond, 500 * kMillisecond});
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete) << r.completed << "/" << r.receivers;
  EXPECT_TRUE(r.images_match);
  EXPECT_EQ(r.reboots, 2u);
  EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
}

INSTANTIATE_TEST_SUITE_P(Schemes, CrashReboot,
                         ::testing::Values(core::Scheme::kDeluge,
                                           core::Scheme::kSeluge,
                                           core::Scheme::kLrSeluge),
                         [](const auto& info) {
                           std::string s = core::scheme_name(info.param);
                           s.erase(std::remove(s.begin(), s.end(), '-'),
                                   s.end());
                           return s;
                         });

}  // namespace
}  // namespace lrs
