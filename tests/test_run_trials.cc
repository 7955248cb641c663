// The parallel trial runner must be a drop-in replacement for the
// historical serial loop: identical per-trial results, identical
// aggregates, regardless of thread count or scheduling order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/experiment.h"
#include "core/run_trials.h"

namespace lrs::core {
namespace {

ExperimentConfig small_config(Scheme scheme, double loss, std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.image_size = 4 * 1024;  // small image keeps the test fast
  c.topo_spec.receivers = 5;
  c.channel = sim::ChannelSpec::uniform(loss);
  c.seed = seed;
  return c;
}

void expect_equal(const ExperimentResult& a, const ExperimentResult& b,
                  const char* what) {
  EXPECT_EQ(a.all_complete, b.all_complete) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.receivers, b.receivers) << what;
  EXPECT_EQ(a.data_packets, b.data_packets) << what;
  EXPECT_EQ(a.page0_data_packets, b.page0_data_packets) << what;
  EXPECT_EQ(a.snack_packets, b.snack_packets) << what;
  EXPECT_EQ(a.adv_packets, b.adv_packets) << what;
  EXPECT_EQ(a.sig_packets, b.sig_packets) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  EXPECT_EQ(a.latency_s, b.latency_s) << what;  // bitwise: same arithmetic
  EXPECT_EQ(a.collisions, b.collisions) << what;
  EXPECT_EQ(a.hash_verifications, b.hash_verifications) << what;
  EXPECT_EQ(a.signature_verifications, b.signature_verifications) << what;
  EXPECT_EQ(a.auth_failures, b.auth_failures) << what;
  EXPECT_EQ(a.tx_energy_mj, b.tx_energy_mj) << what;
  EXPECT_EQ(a.rx_energy_mj, b.rx_energy_mj) << what;
  EXPECT_EQ(a.listen_energy_mj, b.listen_energy_mj) << what;
  EXPECT_EQ(a.received_bytes, b.received_bytes) << what;
  EXPECT_EQ(a.events_executed, b.events_executed) << what;
  EXPECT_EQ(a.images_match, b.images_match) << what;
}

TEST(RunTrials, TrialIUsesSeedPlusI) {
  const auto cfg = small_config(Scheme::kLrSeluge, 0.2, 77);
  const auto trials = run_trials(cfg, 3, 1);
  ASSERT_EQ(trials.size(), 3u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    auto c = cfg;
    c.seed = cfg.seed + i;
    expect_equal(trials[i], run_experiment(c), "derived seed");
  }
}

TEST(RunTrials, ParallelMatchesSerialPerTrial) {
  const auto cfg = small_config(Scheme::kLrSeluge, 0.3, 42);
  const auto serial = run_trials(cfg, 4, 1);
  const auto parallel = run_trials(cfg, 4, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_equal(serial[i], parallel[i], "jobs=1 vs jobs=4");
  }
  expect_equal(aggregate_trials(serial), aggregate_trials(parallel),
               "aggregate");
}

TEST(RunTrials, AggregateMatchesRunExperimentAvg) {
  // run_experiment_avg is itself built on run_trials now, but pin the
  // contract anyway: an explicit serial run folded through
  // aggregate_trials equals the public averaging entry point.
  const auto cfg = small_config(Scheme::kSeluge, 0.1, 9);
  const auto avg = run_experiment_avg(cfg, 3);
  expect_equal(aggregate_trials(run_trials(cfg, 3, 1)), avg, "avg");
}

TEST(RunTrials, GridRunnerMatchesPerConfigAveraging) {
  std::vector<ExperimentConfig> configs = {
      small_config(Scheme::kLrSeluge, 0.0, 5),
      small_config(Scheme::kSeluge, 0.2, 5),
      small_config(Scheme::kLrSeluge, 0.4, 11),
  };
  const auto grid = run_experiments_avg(configs, 2, 3);
  ASSERT_EQ(grid.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_equal(grid[i], run_experiment_avg(configs[i], 2), "grid");
  }
}

TEST(RunTrials, DefaultJobsHonorsEnvOverride) {
  ::setenv("LRS_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3u);
  ::setenv("LRS_JOBS", "0", 1);  // invalid: must fall back, stay >= 1
  EXPECT_GE(default_jobs(), 1u);
  ::setenv("LRS_JOBS", "junk", 1);
  EXPECT_GE(default_jobs(), 1u);
  ::unsetenv("LRS_JOBS");
  EXPECT_GE(default_jobs(), 1u);
}

TEST(RunTrials, ZeroRepeatsIsRejected) {
  const auto cfg = small_config(Scheme::kLrSeluge, 0.0, 1);
  EXPECT_THROW(run_trials(cfg, 0, 2), std::logic_error);
}

// ---------------------------------------------------------------------------
// Island-sharded execution (core/experiment.cc + sim/partition.h)
// ---------------------------------------------------------------------------

/// 2x3 lattice of radio-isolated cells, 4 nodes each: six islands, six
/// bases, every receiver two radio hops at most from its island's base.
ExperimentConfig cells_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = Scheme::kLrSeluge;
  c.image_size = 4 * 1024;
  // 30x30 boxes, diagonal < outer radius: every cell placement is
  // connected on the first try.
  c.topo_spec = {.kind = sim::TopologyKind::kCells, .rows = 2, .cols = 3,
                 .nodes = 24, .width = 30.0, .height = 30.0, .seed = 7};
  c.channel = sim::ChannelSpec::uniform(0.1);
  c.seed = seed;
  c.islands = true;
  c.check_invariants = true;  // per-island observers must merge cleanly
  return c;
}

TEST(IslandExecutor, WorkerCountNeverChangesTheResult) {
  const auto cfg = cells_config(5);
  ::setenv("LRS_JOBS", "1", 1);
  const auto serial = run_experiment(cfg);
  ::setenv("LRS_JOBS", "4", 1);
  const auto parallel = run_experiment(cfg);
  ::unsetenv("LRS_JOBS");
  expect_equal(serial, parallel, "island jobs=1 vs jobs=4");
  EXPECT_TRUE(serial.all_complete);
  EXPECT_TRUE(serial.images_match);
  // Six islands, six bases: 24 - 6 receivers.
  EXPECT_EQ(serial.receivers, 18u);
  EXPECT_EQ(serial.completed, 18u);
  EXPECT_EQ(serial.invariant_violations, 0u);
  EXPECT_GT(serial.invariant_checks, 0u);
}

TEST(IslandExecutor, ConnectedTopologyTakesTheClassicPath) {
  auto cfg = small_config(Scheme::kLrSeluge, 0.2, 3);
  const auto classic = run_experiment(cfg);
  cfg.islands = true;  // a star is one island: must match classic exactly
  ::setenv("LRS_JOBS", "4", 1);
  const auto island = run_experiment(cfg);
  ::unsetenv("LRS_JOBS");
  expect_equal(classic, island, "classic vs islands on connected topology");
}

TEST(IslandExecutor, SecureSchemesShareOneRootAcrossIslands) {
  // Seluge receivers verify the per-island signature against the single
  // preloaded root; >4 islands also exercises the taller one-time-key tree.
  auto cfg = cells_config(11);
  cfg.scheme = Scheme::kSeluge;
  cfg.check_invariants = false;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
  EXPECT_GT(r.signature_verifications, 0u);
  EXPECT_EQ(r.auth_failures, 0u);
}

}  // namespace
}  // namespace lrs::core
