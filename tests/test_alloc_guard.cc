// Allocation-count guards for the simulator hot path (ISSUE 6 satellite).
//
// The calendar queue's contract is that schedule / cancel / pop are
// allocation-free in steady state: events live in a recycled slab,
// closures are stored inline (EventFn), and bucket heaps reuse their
// capacity once warmed. This file enforces that contract with a global
// operator-new hook:
//
//  - a synthetic self-rescheduling event loop must perform ZERO heap
//    allocations once warmed up, and
//  - a full star-scenario experiment must stay under a per-event
//    allocation budget, so protocol-layer regressions (per-packet copies,
//    per-MAC key material, per-verify preimage buffers) show up as a test
//    failure rather than a silent throughput loss, and
//  - a completed LR-Seluge receiver must retain about one image's worth of
//    heap, so a return to per-block page storage or duplicated hash
//    tables shows up as a test failure rather than a larger RSS at scale.
//
// The hook counts every allocation in the process and tracks live bytes
// (malloc_usable_size), so measurements are deltas around single-threaded
// regions only.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/experiment.h"
#include "core/lr_image.h"
#include "crypto/wots.h"
#include "sim/event_queue.h"
#include "sim/stats/stats.h"
#include "sim/time.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_live_bytes{0};

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

void* track(void* p) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void* counted_alloc(std::size_t size) {
  if (void* p = std::malloc(size == 0 ? 1 : size)) return track(p);
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return track(p);
}

void counted_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Replaceable global allocation functions ([new.delete]); the nothrow and
// placement forms funnel through these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace lrs {
namespace {

// A self-rescheduling closure: fires, counts, and schedules its own copy
// `period` later. Small enough for EventFn's inline storage by
// construction (static_assert in EventFn enforces it).
struct PeriodicLoop {
  sim::EventQueue* q;
  std::uint64_t* fired;
  sim::SimTime period;

  void operator()() const {
    ++*fired;
    q->schedule_at(q->now() + period, *this);
  }
};

// Like PeriodicLoop, but additionally exercises the cancel path every
// firing: schedules a victim event and immediately cancels it, so slot
// acquire/release and stale-ref discard run inside the measured region.
struct CancellingLoop {
  sim::EventQueue* q;
  std::uint64_t* fired;
  sim::SimTime period;

  void operator()() const {
    ++*fired;
    std::uint64_t* count = fired;
    sim::EventToken victim = q->schedule_at(
        q->now() + 10 * sim::kMillisecond, [count] { ++*count; });
    ASSERT_TRUE(q->cancel(victim));
    q->schedule_at(q->now() + period, *this);
  }
};

// A Trickle-like timer pair, the shape of the protocol's MAINTAIN state:
// every firing cancels the interval-end timer armed last time (by then it
// is still epochs away, so it sits in level 1), arms a new one two periods
// out and fires again one period out. Periods are whole epochs (8–14,
// ~34–59 s), so every firing lands in the same level-0 bucket.
struct TrickleLikeLoop {
  sim::EventQueue* q;
  std::uint64_t* fired;
  sim::EventToken* interval_end;
  sim::SimTime period;

  void operator()() const {
    ++*fired;
    if (*interval_end) {
      ASSERT_TRUE(q->cancel(*interval_end));
    }
    *interval_end = q->schedule_at(q->now() + 2 * period, [] {});
    q->schedule_at(q->now() + period, *this);
  }
};

TEST(AllocGuard, SteadyStateEventLoopAllocatesNothing) {
  sim::EventQueue q;
  std::uint64_t fired = 0;

  // Periods sweep the wheel but divide the 2^10 us bucket width (or the
  // whole 2^22 us epoch), so the bucket-occupancy pattern repeats every
  // epoch and every vector's high-water mark is reached during warm-up.
  // (Unaligned periods — say 0.7 ms — drift phase against the buckets for
  // the ~hour-long lcm of period and epoch, sporadically setting new
  // per-bucket high-water marks; that growth is amortized zero but not
  // zero in any finite window.) The half-width loop touches every bucket
  // twice per epoch; the epoch-length loop always lands in level 1 and
  // cascades back, and the Trickle-like loops cancel level-1 residents.
  constexpr sim::SimTime kWidth = 1 << 10;
  constexpr sim::SimTime kEpoch = kWidth << 12;
  constexpr int kTrickles = 16;
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth / 2});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kEpoch});
  q.schedule_at(0, CancellingLoop{&q, &fired, kWidth});
  sim::EventToken interval_ends[kTrickles];
  std::uint64_t trickle_fired = 0;
  for (int i = 0; i < kTrickles; ++i) {
    q.schedule_at(static_cast<sim::SimTime>(i) * 200 * kWidth + 77,
                  TrickleLikeLoop{&q, &trickle_fired, &interval_ends[i],
                                  (8 + i % 7) * kEpoch});
  }

  // Warm-up: ~4 events/ms means 600k events cover ~150 s of simulated
  // time, several firings of every Trickle-like loop and dozens of
  // epochs, so every vector reaches its steady-state capacity.
  for (int i = 0; i < 600000; ++i) ASSERT_TRUE(q.run_next());

  const std::uint64_t fired_before = fired;
  const std::uint64_t trickle_before = trickle_fired;
  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());
  const std::uint64_t allocs = alloc_count() - allocs_before;

  // Interval ends are always cancelled, so every run is a counted
  // firing; the ~50 s window sees about one of each Trickle-like loop.
  EXPECT_GE(trickle_fired - trickle_before, 8u);
  EXPECT_EQ(fired - fired_before + trickle_fired - trickle_before, 200000u);
  EXPECT_EQ(allocs, 0u) << "steady-state schedule/cancel/pop must not "
                           "touch the heap";
}

TEST(AllocGuard, OverflowBurstsReuseHeapCapacityOnceWarmed) {
  // A burst of far-future events lands entirely in the overflow heap
  // (every target is more than 64 epochs, ~268 s, ahead), then the drain
  // cascades them through level 1 into level 0's bucket heaps. The first
  // burst may grow the heap's backing store and the per-bucket vectors; a
  // second, identical burst-and-drain cycle must find all of that
  // capacity recycled and allocate nothing.
  constexpr sim::SimTime kWidth = 1 << 10;
  constexpr sim::SimTime kEpoch = kWidth << 12;
  constexpr int kBurst = 4096;

  sim::EventQueue q;
  std::uint64_t fired = 0;
  const auto burst_and_drain = [&] {
    // Epoch-align the burst so both cycles hit the same bucket phase;
    // otherwise the second cycle can set a new per-bucket high-water
    // mark and legitimately allocate once.
    const sim::SimTime base = (q.now() / kEpoch + 66) * kEpoch;
    for (int i = 0; i < kBurst; ++i) {
      // Hostile order: stride the targets across three epochs so
      // consecutive pushes alternate between heap regions.
      const sim::SimTime at = base + (i % 3) * kEpoch + i * kWidth / 4;
      q.schedule_at(at, [&fired] { ++fired; });
    }
    while (q.run_next()) {
    }
  };

  burst_and_drain();  // warm-up: establishes high-water capacity
  stats::set_enabled(true);
  const std::uint64_t overflow_before =
      stats::Registry::instance().counter("sim.queue.overflow_push").value();
  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before = alloc_count();
  burst_and_drain();
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::uint64_t overflow_pushes =
      stats::Registry::instance().counter("sim.queue.overflow_push").value() -
      overflow_before;
  stats::set_enabled(false);

  EXPECT_EQ(overflow_pushes, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(fired - fired_before, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(allocs, 0u) << "a warmed overflow heap must absorb repeat "
                           "bursts without touching the allocator";
}

TEST(AllocGuard, StarScenarioStaysUnderPerEventBudget) {
  core::ExperimentConfig cfg;
  cfg.scheme = core::Scheme::kLrSeluge;
  cfg.params.payload_size = 32;
  cfg.params.k = 8;
  cfg.params.n = 12;
  cfg.params.k0 = 4;
  cfg.params.n0 = 8;
  cfg.params.puzzle_strength = 4;
  cfg.image_size = 4096;
  cfg.topo_spec.receivers = 20;
  cfg.seed = 1;
  cfg.timing.trickle.tau_low = 250 * sim::kMillisecond;
  cfg.timing.trickle.tau_high = 8 * sim::kSecond;

  // One-shot setup work (topology, hash tree, key schedules, node
  // construction) swamps a short run, so measure the MARGINAL rate: run
  // the same scenario at two image sizes and divide the allocation delta
  // by the event delta. Setup costs cancel; what remains is the
  // per-event steady-state rate.
  const std::uint64_t allocs0 = alloc_count();
  const core::ExperimentResult small = core::run_experiment(cfg);
  const std::uint64_t allocs_small = alloc_count() - allocs0;

  cfg.image_size = 16384;
  const std::uint64_t allocs1 = alloc_count();
  const core::ExperimentResult large = core::run_experiment(cfg);
  const std::uint64_t allocs_large = alloc_count() - allocs1;

  ASSERT_TRUE(small.all_complete);
  ASSERT_TRUE(large.all_complete);
  ASSERT_GT(large.events_executed, small.events_executed);
  const double per_event =
      static_cast<double>(allocs_large - allocs_small) /
      static_cast<double>(large.events_executed - small.events_executed);

  // Measured ~19 marginal allocations/event for this scenario after the
  // hot-path rewrite. The rate is star-specific: a one-hop star delivers
  // every transmission to all 20 receivers in a single end-of-TX event,
  // and each receiver's accepted packet is protocol-required storage (its
  // own Bytes copy, decoder share, serialization buffer) — the lossy
  // multi-hop grids run ~6/event. A 25/event ceiling gives headroom for
  // protocol growth while still catching a return of per-event queue,
  // per-MAC key-prep, or per-verify preimage allocations, each of which
  // adds several allocations to every one of those 20 deliveries.
  EXPECT_LT(per_event, 25.0)
      << "marginal allocations/event=" << per_event
      << " (allocs " << allocs_small << " -> " << allocs_large
      << ", events " << small.events_executed << " -> "
      << large.events_executed << ")";
}

TEST(AllocGuard, EnabledMetricsRecordingAllocatesNothing) {
  // The metrics hot path (sim/stats): registry lookup may allocate ONCE
  // per name; recording through the returned references must never touch
  // the heap, enabled or not.
  auto& reg = lrs::stats::Registry::instance();
  lrs::stats::Counter& c = reg.counter("allocguard.counter");
  lrs::stats::Histogram& h = reg.histogram("allocguard.hist");
  lrs::stats::Timer& t = reg.timer("allocguard.timer");
  lrs::stats::set_enabled(true);
  c.add();  // warm-up: first records touch every atomic once
  h.record(1);
  { lrs::stats::TimerScope scope(t); }

  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < 100000; ++i) {
    c.add();
    h.record(static_cast<std::uint64_t>(i) * 2654435761u);
    lrs::stats::TimerScope scope(t);
  }
  const std::uint64_t allocs = alloc_count() - allocs_before;
  lrs::stats::set_enabled(false);

  EXPECT_EQ(c.value(), 100001u);
  EXPECT_EQ(allocs, 0u) << "enabled metrics recording must not allocate";
}

TEST(AllocGuard, MetricsEnabledEventLoopAllocatesNothing) {
  // The SteadyStateEventLoop contract must survive metrics collection: the
  // queue's counter/histogram instrumentation runs on every schedule /
  // cancel / pop when the registry is enabled, and must stay heap-free.
  lrs::stats::set_enabled(true);
  sim::EventQueue q;
  std::uint64_t fired = 0;
  constexpr sim::SimTime kWidth = 1 << 10;
  constexpr sim::SimTime kEpoch = kWidth << 12;
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth / 2});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kEpoch});
  q.schedule_at(0, CancellingLoop{&q, &fired, kWidth});

  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());

  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());
  const std::uint64_t allocs = alloc_count() - allocs_before;
  lrs::stats::set_enabled(false);

  EXPECT_EQ(fired - fired_before, 200000u);
  EXPECT_EQ(allocs, 0u) << "metrics-enabled schedule/cancel/pop must not "
                           "touch the heap";
}

TEST(AllocGuard, CompletedReceiverRetainsAboutOneImage) {
  // The geo-10k geometry: a 1,024-byte image in six content pages of
  // k=8 32-byte blocks, n=12, plus the k0=4/n0=8 hash page.
  proto::CommonParams params;
  params.payload_size = 32;
  params.k = 8;
  params.n = 12;
  params.k0 = 4;
  params.n0 = 8;
  params.puzzle_strength = 4;
  const Bytes image = core::make_test_image(1024, 1);
  const Bytes seed{0x11, 0x22, 0x33, 0x44};
  crypto::MultiKeySigner signer(view(seed), 2);
  auto src = core::make_lr_source(params, image, signer);
  auto rx = core::make_lr_receiver(params, signer.root_public_key());

  sim::NodeMetrics m;
  ASSERT_TRUE(rx->on_signature(view(*src->signature_frame()), m));
  for (std::uint32_t p = 0; p < src->num_pages(); ++p) {
    for (std::uint32_t j = 0; rx->pages_complete() == p; ++j) {
      ASSERT_LT(j, src->packets_in_page(p));
      rx->on_data(p, j, view(*src->packet_payload(p, j)), m);
    }
  }
  ASSERT_TRUE(rx->image_complete());
  ASSERT_EQ(rx->assemble_image(), image);
  // A completed receiver serves its neighbors, so its serve cache is full.
  ASSERT_TRUE(rx->packet_payload(src->num_pages() - 1, 0).has_value());

  const std::int64_t before = live_bytes();
  rx.reset();
  const std::int64_t retained = before - live_bytes();

  // The decoded pages (1,536 bytes), M0 (96), one served page (384), the
  // 672-byte signature frame and the object itself measure 3,128 usable
  // bytes on glibc x86-64; per-block page storage with duplicated hash
  // tables measured 6,576.
  EXPECT_LT(retained, 4500) << "completed receiver retains " << retained
                            << " heap bytes";
}

}  // namespace
}  // namespace lrs
