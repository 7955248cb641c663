// Simulator substrate: event queue ordering/cancellation, Trickle timer,
// topologies, channel models, and the CSMA radio (delivery, loss,
// collisions, half-duplex).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "sim/trickle.h"

namespace lrs::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, TiesRunInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(7, [&order, i] { order.push_back(i); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelledEventSkipped) {
  EventQueue q;
  bool ran = false;
  auto token = q.schedule_at(5, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(token));
  while (q.run_next()) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelReturnsFalseForNullAndStaleTokens) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventToken{}));
  auto token = q.schedule_at(5, [] {});
  EXPECT_TRUE(q.run_next());
  EXPECT_FALSE(q.cancel(token));  // already fired
  auto token2 = q.schedule_at(7, [] {});
  EXPECT_TRUE(q.cancel(token2));
  EXPECT_FALSE(q.cancel(token2));  // already cancelled
}

TEST(EventQueueTest, RunUntilStopsAtLimit) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] { ++count; });
  q.schedule_at(20, [&] { ++count; });
  q.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 20);
}

TEST(EventQueueTest, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run_next();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_at(q.now() + 1, [&] { ++fired; });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PeekSkipsCancelled) {
  EventQueue q;
  auto token = q.schedule_at(5, [] {});
  q.schedule_at(9, [] {});
  q.cancel(token);
  EXPECT_EQ(q.peek_time().value(), 9);
}

// pending() and empty() report exact live counts: scheduling increments,
// firing and cancelling decrement immediately — lazily discarded queue
// entries are never visible.
TEST(EventQueueTest, PendingAndEmptyAreExact) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);

  auto a = q.schedule_at(5, [] {});
  auto b = q.schedule_at(10, [] {});
  q.schedule_at(15, [] {});
  EXPECT_EQ(q.pending(), 3u);

  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.pending(), 2u);  // exact despite the stale entry still queued
  EXPECT_FALSE(q.empty());

  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.cancel(a));  // fired already; count unchanged
  EXPECT_EQ(q.pending(), 1u);

  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next());
}

// The peek/cancel/run contract: an event cancelled after peek_time()
// reported it — but before run_next() — never fires; run_next() falls
// through to the next live event, and run_until() never resurrects it.
TEST(EventQueueTest, CancelBetweenPeekAndRunSuppressesTheEvent) {
  EventQueue q;
  std::vector<int> fired;
  auto first = q.schedule_at(5, [&] { fired.push_back(5); });
  q.schedule_at(9, [&] { fired.push_back(9); });

  EXPECT_EQ(q.peek_time().value(), 5);  // reports the soon-to-be-cancelled
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(q.peek_time().value(), 9);

  EXPECT_TRUE(q.run_next());  // skips the stale entry, fires 9
  EXPECT_EQ(fired, (std::vector<int>{9}));
  EXPECT_EQ(q.now(), 9);
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueueTest, RunUntilWithInterleavedCancels) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventToken> tokens;
  for (int t = 1; t <= 8; ++t) {
    tokens.push_back(q.schedule_at(t * 10, [&fired, t] { fired.push_back(t); }));
  }
  // Event 2 cancels 3 (later, same run window), event 4 cancels 7 (beyond
  // the window), 1 is cancelled up front after a peek reported it.
  EXPECT_EQ(q.peek_time().value(), 10);
  q.cancel(tokens[0]);
  q.schedule_at(20, [&] { q.cancel(tokens[2]); });
  q.schedule_at(40, [&] { q.cancel(tokens[6]); });

  EXPECT_EQ(q.run_until(50), 5u);  // events 2, 4, 5 + the two cancellers
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 5}));
  EXPECT_EQ(q.now(), 50);
  EXPECT_EQ(q.pending(), 2u);  // 6 and 8 remain; 7 is gone for good

  EXPECT_EQ(q.run_until(100), 2u);
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 5, 6, 8}));
  // Queue drained: now() advances to the limit.
  EXPECT_EQ(q.now(), 100);
  EXPECT_TRUE(q.empty());
}

// Far-future events ride the overflow heap past the calendar's horizon and
// still fire in exact (time, seq) order after the wheel re-anchors.
TEST(EventQueueTest, FarFutureEventsPreserveOrderAcrossReanchor) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3600 * kSecond, [&] { order.push_back(4); });
  q.schedule_at(2 * kSecond, [&] { order.push_back(1); });
  q.schedule_at(3600 * kSecond, [&] { order.push_back(5); });  // same-time tie
  q.schedule_at(60 * kSecond, [&] { order.push_back(2); });
  q.schedule_at(600 * kSecond, [&] { order.push_back(3); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.now(), 3600 * kSecond);
}

TEST(EventQueueTest, SlotReuseDoesNotConfuseOldTokens) {
  EventQueue q;
  int fired = 0;
  auto stale = q.schedule_at(1, [&] { ++fired; });
  EXPECT_TRUE(q.run_next());  // slot is recycled...
  auto fresh = q.schedule_at(2, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(stale));  // ...but the old token cannot touch it
  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.cancel(fresh) == false);
}

// The wheel covers ~4.19 s of lookahead; everything later waits in the
// overflow heap for a re-anchor sweep. Schedule in an order hostile to
// both structures — far windows first, near fill-ins later, a tie deep in
// overflow, one event just past the first horizon — and demand exact
// global (time, seq) order across every sweep.
TEST(EventQueueTest, OverflowHorizonCrossingsFireInGlobalOrder) {
  EventQueue q;
  std::vector<int> order;
  struct Ev {
    SimTime at;
    int id;
  };
  const std::vector<Ev> evs = {
      {9 * kSecond, 6},  {18 * kSecond, 8},
      {1 * kSecond, 1},  {4 * kSecond + kSecond / 2, 4},
      {2 * kSecond, 2},  {9 * kSecond, 7},  // tie with id 6: seq decides
      {4 * kSecond, 3},  {5 * kSecond, 5},
  };
  for (const auto& e : evs) {
    q.schedule_at(e.at, [&order, id = e.id] { order.push_back(id); });
  }
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(q.now(), 18 * kSecond);
}

// Events scheduled from inside a running event can target times past the
// wheel's current horizon; they must land in overflow and still fire in
// time order once the wheel re-anchors onto them.
TEST(EventQueueTest, MidRunSchedulingPastTheHorizonSweepsIn) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(kSecond, [&] {
    order.push_back(1);
    q.schedule_at(q.now() + 10 * kSecond, [&] { order.push_back(3); });
    q.schedule_at(q.now() + 5 * kSecond, [&] { order.push_back(2); });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 11 * kSecond);
}

// Recycling one slot through many schedule/cancel cycles bumps its
// generation each time; every historical token must stay stale — only the
// newest generation may cancel.
TEST(EventQueueTest, RecycledSlotGenerationsInvalidateEveryOldToken) {
  EventQueue q;
  std::vector<EventToken> history;
  for (int i = 0; i < 1000; ++i) {
    auto t = q.schedule_at(5, [] {});
    history.push_back(t);
    EXPECT_TRUE(q.cancel(t));
  }
  auto live = q.schedule_at(5, [] {});
  for (const auto& t : history) EXPECT_FALSE(q.cancel(t));
  EXPECT_TRUE(q.cancel(live));
  EXPECT_TRUE(q.empty());
}

// Tokens minted through from_bits with a mismatched generation (the
// wraparound shape: same slot, different gen) or an out-of-range slot are
// rejected without touching the live event.
TEST(EventQueueTest, ForgedTokensCannotTouchLiveEvents) {
  EventQueue q;
  bool ran = false;
  auto live = q.schedule_at(3, [&] { ran = true; });
  const auto forged_gen = EventToken::from_bits(live.bits() + 1);
  const auto forged_slot =
      EventToken::from_bits(live.bits() + (std::uint64_t{1} << 32));
  const auto huge_slot = EventToken::from_bits(~std::uint64_t{0});
  EXPECT_FALSE(q.cancel(forged_gen));
  EXPECT_FALSE(q.cancel(forged_slot));
  EXPECT_FALSE(q.cancel(huge_slot));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.run_next());
  EXPECT_TRUE(ran);
}

// The two levels and the overflow heap, driven side by side with an
// ordered-map model of (time, seq). Delays are drawn from four classes —
// sub-millisecond, straddling the next 2^22 us epoch boundary, level 1
// (4–268 s) and overflow (268 s–30 min) — and cancels hit random live
// events, so every residence (level 0 heap, level 1 list, overflow heap)
// is cancelled many times. peek_time() and run_next_before() limits are
// drawn up to 300 s ahead, so many land in empty epochs between a drained
// level 0 and the next occupied level-1 bucket.
TEST(EventQueueTest, RandomizedOpsMatchOrderedMapModel) {
  constexpr SimTime kEpoch = SimTime{1} << 22;
  EventQueue q;
  Rng rng(17);
  std::map<std::pair<SimTime, std::uint64_t>, int> model;
  std::vector<std::pair<SimTime, std::uint64_t>> key_of;
  std::vector<EventToken> token_of;
  std::vector<int> live_ids;       // ids scheduled, not fired or cancelled
  std::vector<std::size_t> where;  // id -> index in live_ids
  std::vector<int> fired;
  std::uint64_t seq = 0;

  const auto schedule = [&](SimTime at) {
    const int id = static_cast<int>(key_of.size());
    token_of.push_back(q.schedule_at(at, [&fired, id] { fired.push_back(id); }));
    key_of.emplace_back(at, seq);
    model.emplace(key_of.back(), id);
    ++seq;
    where.push_back(live_ids.size());
    live_ids.push_back(id);
  };
  const auto forget = [&](int id) {
    const std::size_t i = where[id];
    where[live_ids.back()] = i;
    live_ids[i] = live_ids.back();
    live_ids.pop_back();
    model.erase(key_of[id]);
  };
  // Runs one event through both and checks they agree.
  const auto expect_run = [&](SimTime limit) {
    const bool due = !model.empty() && model.begin()->first.first <= limit;
    const SimTime before = q.now();
    const std::size_t fired_before = fired.size();
    ASSERT_EQ(q.run_next_before(limit), due);
    if (!due) {
      ASSERT_EQ(q.now(), before);
      ASSERT_EQ(fired.size(), fired_before);
      return;
    }
    const int id = model.begin()->second;
    ASSERT_EQ(fired.size(), fired_before + 1);
    ASSERT_EQ(fired.back(), id);
    ASSERT_EQ(q.now(), key_of[id].first);
    forget(id);
  };

  // A 10k same-time burst at t = 0 fires in scheduling order.
  for (int i = 0; i < 10000; ++i) schedule(0);
  for (int i = 0; i < 10000; ++i) expect_run(0);
  ASSERT_TRUE(q.empty());

  // Alternating build and drain phases: draining leaves only far events,
  // so pops jump time ahead by minutes, level 1 runs empty while the
  // overflow heap still holds events, and fresh level-1 schedules land
  // beyond old overflow residents.
  std::uint64_t ops = 0;
  while (ops < 120000) {
    const bool drain = (ops / 5000) % 2 == 1;
    const std::uint64_t schedule_pct = drain ? 10 : 45;
    const std::uint64_t cancel_pct = schedule_pct + (drain ? 5 : 15);
    const std::uint64_t op = rng.uniform(100);
    ++ops;
    if (op < schedule_pct) {
      const SimTime now = q.now();
      SimTime at;
      switch (rng.uniform(4)) {
        case 0:
          at = now + static_cast<SimTime>(rng.uniform(1000));
          break;
        case 1: {
          const SimTime boundary = (now / kEpoch + 1) * kEpoch;
          at = std::max(now, boundary - 3000 +
                                 static_cast<SimTime>(rng.uniform(6000)));
          break;
        }
        case 2:
          at = now + 4 * kSecond +
               static_cast<SimTime>(rng.uniform(264 * kSecond));
          break;
        default:
          at = now + 268 * kSecond +
               static_cast<SimTime>(rng.uniform(1532 * kSecond));
          break;
      }
      schedule(at);
    } else if (op < cancel_pct) {
      if (live_ids.empty()) continue;
      const int id = live_ids[rng.uniform(live_ids.size())];
      ASSERT_TRUE(q.cancel(token_of[id]));
      ASSERT_FALSE(q.cancel(token_of[id]));
      forget(id);
    } else if (op < cancel_pct + 10) {
      const std::optional<SimTime> t = q.peek_time();
      if (model.empty()) {
        ASSERT_FALSE(t.has_value());
      } else {
        ASSERT_TRUE(t.has_value());
        ASSERT_EQ(*t, model.begin()->first.first);
      }
    } else if (op < cancel_pct + 20) {
      expect_run(q.now() + static_cast<SimTime>(rng.uniform(300 * kSecond)));
    } else {
      expect_run(std::numeric_limits<SimTime>::max());
    }
    ASSERT_EQ(q.pending(), model.size());
  }
  while (!model.empty()) expect_run(std::numeric_limits<SimTime>::max());
  EXPECT_FALSE(q.run_next());
  EXPECT_TRUE(q.empty());
}

// peek_time() and a run_next_before() whose limit falls short of the next
// occupied epoch must not move the wheel: an event scheduled afterwards,
// earlier than everything already queued, still fires first.
TEST(EventQueueTest, LimitsInEmptyEpochsLeaveTheWheelInPlace) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(100 * kSecond, [&] { order.push_back(3); });
  q.schedule_at(1000 * kSecond, [&] { order.push_back(4); });
  EXPECT_EQ(q.peek_time().value(), 100 * kSecond);
  EXPECT_FALSE(q.run_next_before(50 * kSecond));    // empty epoch
  EXPECT_FALSE(q.run_next_before(100 * kSecond - 1));  // inside its epoch
  EXPECT_EQ(q.now(), 0);
  q.schedule_at(30 * kSecond, [&] { order.push_back(2); });
  q.schedule_at(5, [&] { order.push_back(1); });
  EXPECT_EQ(q.run_until(99 * kSecond), 2u);
  EXPECT_EQ(q.peek_time().value(), 100 * kSecond);
  EXPECT_EQ(q.run_until(500 * kSecond), 1u);
  // Only the overflow-resident event is left, 900 s ahead of now().
  EXPECT_FALSE(q.run_next_before(999 * kSecond));
  q.schedule_at(600 * kSecond, [&] { order.push_back(35); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 35, 4}));
}

// ---------------------------------------------------------------------------
// EventFn
// ---------------------------------------------------------------------------

struct CaptureCounts {
  int copies = 0;
  int moves = 0;
  int destroys = 0;
  int calls = 0;
};

// Not trivially copyable: every copy, move and destruction is counted.
struct CountedCapture {
  CaptureCounts* n;
  explicit CountedCapture(CaptureCounts* counts) : n(counts) {}
  CountedCapture(const CountedCapture& o) : n(o.n) { ++n->copies; }
  CountedCapture(CountedCapture&& o) noexcept : n(o.n) { ++n->moves; }
  ~CountedCapture() { ++n->destroys; }
  void operator()() const { ++n->calls; }
};

// Trivially copyable and destructible: relocated as raw bytes.
struct PlainCapture {
  int* calls;
  int weight;
  void operator()() const { *calls += weight; }
};
static_assert(std::is_trivially_copyable_v<PlainCapture> &&
              std::is_trivially_destructible_v<PlainCapture>);

TEST(EventFnTest, NonTrivialCaptureCopiesAndDestroysExactlyOncePerObject) {
  CaptureCounts n;
  {
    EventFn a{CountedCapture(&n)};  // moved in; the temporary dies
    EXPECT_EQ(n.moves, 1);
    EXPECT_EQ(n.destroys, 1);
    EventFn b = a;
    EXPECT_EQ(n.copies, 1);
    EventFn c = std::move(a);
    EXPECT_FALSE(a);
    EXPECT_EQ(n.moves, 2);
    EXPECT_EQ(n.destroys, 2);  // the moved-from object is destroyed
    b();
    c();
    EXPECT_EQ(n.calls, 2);
    b = c;
    EXPECT_EQ(n.copies, 2);
    EXPECT_EQ(n.destroys, 3);
    EventFn d;
    d = std::move(b);
    EXPECT_EQ(n.moves, 3);
    EXPECT_EQ(n.destroys, 4);
  }
  EXPECT_EQ(n.destroys, 6);  // c and d
  EXPECT_EQ(n.destroys, 1 + n.copies + n.moves);

  // Through the queue: every object the queue makes is destroyed once,
  // whether its event fires or is cancelled.
  EventQueue q;
  q.schedule_at(1, CountedCapture(&n));
  const EventToken victim = q.schedule_at(2, CountedCapture(&n));
  const EventToken far = q.schedule_at(100 * kSecond, CountedCapture(&n));
  EXPECT_TRUE(q.cancel(victim));
  EXPECT_TRUE(q.cancel(far));
  while (q.run_next()) {
  }
  EXPECT_EQ(n.calls, 3);
  EXPECT_EQ(n.destroys, 4 + n.copies + n.moves);
}

TEST(EventFnTest, TrivialCaptureCopiesAsBytesWithoutCallingAnyOps) {
  int calls = 0;
  EventFn a{PlainCapture{&calls, 1}};
  EventFn b = a;
  EventFn c = std::move(a);
  EXPECT_FALSE(a);
  b();
  c();
  EXPECT_EQ(calls, 2);

  // A slot that held a non-trivial capture takes a trivial one and back:
  // the counted object is destroyed exactly once per object made.
  CaptureCounts n;
  EventFn mixed{CountedCapture(&n)};
  mixed = EventFn{PlainCapture{&calls, 10}};
  EXPECT_EQ(n.destroys, 2);
  mixed();
  EXPECT_EQ(calls, 12);
  mixed = EventFn{CountedCapture(&n)};
  mixed();
  EXPECT_EQ(n.calls, 1);
  mixed.reset();
  EXPECT_FALSE(mixed);
  EXPECT_EQ(n.destroys, 2 + n.copies + n.moves);  // two temporaries

  // Through the queue, many trivially relocated copies fire once each.
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    q.schedule_at(i * kMillisecond * 7, PlainCapture{&calls, 100});
  }
  while (q.run_next()) {
  }
  EXPECT_EQ(calls, 12 + 100000);
}

// ---------------------------------------------------------------------------
// Trickle
// ---------------------------------------------------------------------------

TEST(TrickleTest, FirePointInSecondHalfOfInterval) {
  Rng rng(1);
  Trickle t({1 * kSecond, 60 * kSecond, 2}, &rng);
  for (int i = 0; i < 50; ++i) {
    t.reset(0);
    EXPECT_GE(t.fire_time(), kSecond / 2);
    EXPECT_LT(t.fire_time(), kSecond);
  }
}

TEST(TrickleTest, IntervalDoublesUpToCap) {
  Rng rng(2);
  Trickle t({1 * kSecond, 8 * kSecond, 2}, &rng);
  t.reset(0);
  EXPECT_EQ(t.tau(), 1 * kSecond);
  SimTime now = 0;
  for (int i = 0; i < 6; ++i) {
    now = t.interval_end();
    t.next_interval(now);
  }
  EXPECT_EQ(t.tau(), 8 * kSecond);
}

TEST(TrickleTest, SuppressionAfterRedundantHears) {
  Rng rng(3);
  Trickle t({1 * kSecond, 60 * kSecond, 2}, &rng);
  t.reset(0);
  EXPECT_TRUE(t.should_broadcast());
  t.heard_consistent();
  EXPECT_TRUE(t.should_broadcast());
  t.heard_consistent();
  EXPECT_FALSE(t.should_broadcast());
  t.next_interval(t.interval_end());
  EXPECT_TRUE(t.should_broadcast());  // counter resets each interval
}

TEST(TrickleTest, ResetReturnsToTauLow) {
  Rng rng(4);
  Trickle t({1 * kSecond, 60 * kSecond, 2}, &rng);
  t.reset(0);
  t.next_interval(t.interval_end());
  t.next_interval(t.interval_end());
  EXPECT_GT(t.tau(), 1 * kSecond);
  t.reset(t.interval_end());
  EXPECT_EQ(t.tau(), 1 * kSecond);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(TopologyTest, StarIsFullyConnected) {
  const auto topo = Topology::star(10);
  EXPECT_EQ(topo.size(), 11u);
  for (NodeId a = 0; a < 11; ++a) {
    EXPECT_EQ(topo.neighbors(a).size(), 10u);
    for (NodeId b = 0; b < 11; ++b) {
      if (a != b) {
        EXPECT_GT(topo.prr(a, b), 0.9);
      }
    }
  }
}

TEST(TopologyTest, GridShapeAndSpacing) {
  const auto topo = Topology::grid(3, 4, 10.0);
  EXPECT_EQ(topo.size(), 12u);
  EXPECT_DOUBLE_EQ(topo.distance(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(topo.distance(0, 4), 10.0);  // next row
  EXPECT_DOUBLE_EQ(topo.distance(0, 5), std::sqrt(200.0));
}

TEST(TopologyTest, PrrFallsWithDistance) {
  LinkModel link;
  EXPECT_DOUBLE_EQ(link.prr(0), link.max_prr);
  EXPECT_DOUBLE_EQ(link.prr(link.connected_radius), link.max_prr);
  const double mid =
      link.prr((link.connected_radius + link.outer_radius) / 2);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, link.max_prr);
  EXPECT_DOUBLE_EQ(link.prr(link.outer_radius), 0.0);
  EXPECT_DOUBLE_EQ(link.prr(link.outer_radius + 100), 0.0);
}

TEST(TopologyTest, TightGridDenserThanMedium) {
  const auto tight = Topology::grid(15, 15, 10.0);
  const auto medium = Topology::grid(15, 15, 20.0);
  EXPECT_GT(tight.mean_degree(), medium.mean_degree());
  EXPECT_GT(medium.mean_degree(), 2.0);  // still connected
}

// ---------------------------------------------------------------------------
// Channel models
// ---------------------------------------------------------------------------

TEST(ChannelTest, UniformLossMatchesP) {
  auto model = make_uniform_loss(0.3);
  Rng rng(5);
  int delivered = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    delivered += model->delivered(0, 1, 0, rng);
  EXPECT_NEAR(static_cast<double>(delivered) / trials, 0.7, 0.01);
}

ChannelSpec per_node_channel(std::vector<double> p) {
  ChannelSpec c;
  c.model = ChannelSpec::Model::kPerNode;
  c.per_node = std::move(p);
  return c;
}

TEST(ChannelTest, PerNodeLossIsPerReceiver) {
  auto model = make_loss_model(per_node_channel({0.0, 0.9}), 2, 1);
  Rng rng(6);
  int d0 = 0, d1 = 0;
  for (int i = 0; i < 20000; ++i) {
    d0 += model->delivered(1, 0, 0, rng);
    d1 += model->delivered(0, 1, 0, rng);
  }
  EXPECT_EQ(d0, 20000);
  EXPECT_NEAR(d1 / 20000.0, 0.1, 0.02);
}

TEST(ChannelTest, PerNodeLossRejectsOutOfRangeProbability) {
  EXPECT_THROW(make_loss_model(per_node_channel({0.5, 1.2}), 2, 1),
               std::logic_error);
  EXPECT_THROW(make_loss_model(per_node_channel({-0.1}), 1, 1),
               std::logic_error);
}

TEST(ChannelTest, PerNodeLossShortVectorFailsLoudly) {
  // A reception at a node past the end of the vector must throw with a
  // clear message, not index out of bounds.
  auto model = make_loss_model(per_node_channel({0.0, 0.1}), 2, 1);
  Rng rng(3);
  EXPECT_THROW(model->delivered(0, 2, 0, rng), std::logic_error);
  // A vector shorter than the network is rejected up front, and so is a
  // population that was never drawn.
  EXPECT_THROW(make_loss_model(per_node_channel({0.0, 0.1}), 4, 1),
               std::logic_error);
  EXPECT_THROW(make_loss_model(per_node_channel({}), 2, 1), std::logic_error);
  EXPECT_NO_THROW(make_loss_model(per_node_channel({0.0, 0.1, 0.2}), 3, 1));
}

TEST(ChannelTest, GilbertElliottValidatesParams) {
  const auto build = [](const GilbertElliottParams& params) {
    return make_loss_model(ChannelSpec::gilbert_elliott(params), 2, 1);
  };
  GilbertElliottParams zero_dwell;
  zero_dwell.mean_good_dwell = 0;
  EXPECT_THROW(build(zero_dwell), std::logic_error);

  GilbertElliottParams negative_dwell;
  negative_dwell.mean_bad_dwell = -1;
  EXPECT_THROW(build(negative_dwell), std::logic_error);

  GilbertElliottParams bad_prob;
  bad_prob.p_bad = 1.5;
  EXPECT_THROW(build(bad_prob), std::logic_error);

  EXPECT_NO_THROW(build(GilbertElliottParams{}));
}

TEST(ChannelTest, GilbertElliottLossBetweenGoodAndBad) {
  GilbertElliottParams params;
  params.p_good = 0.05;
  params.p_bad = 0.6;
  auto model = make_loss_model(ChannelSpec::gilbert_elliott(params), 2, 7);
  Rng rng(8);
  int delivered = 0;
  const int trials = 200000;
  SimTime t = 0;
  for (int i = 0; i < trials; ++i) {
    t += 5 * kMillisecond;
    delivered += model->delivered(0, 1, t, rng);
  }
  const double loss = 1.0 - static_cast<double>(delivered) / trials;
  EXPECT_GT(loss, params.p_good);
  EXPECT_LT(loss, params.p_bad);
}

TEST(ChannelTest, GilbertElliottIsBursty) {
  // Consecutive drops should correlate more than i.i.d. loss of equal mean.
  GilbertElliottParams params;
  params.p_good = 0.02;
  params.p_bad = 0.9;
  auto model = make_loss_model(ChannelSpec::gilbert_elliott(params), 1, 9);
  Rng rng(10);
  std::vector<bool> dropped;
  SimTime t = 0;
  for (int i = 0; i < 100000; ++i) {
    t += 2 * kMillisecond;
    dropped.push_back(!model->delivered(0, 0, t, rng));
  }
  double p = 0, pp = 0;
  int pairs = 0;
  for (std::size_t i = 0; i + 1 < dropped.size(); ++i) {
    p += dropped[i];
    if (dropped[i]) {
      pp += dropped[i + 1];
      ++pairs;
    }
  }
  p /= static_cast<double>(dropped.size());
  const double cond = pp / std::max(1, pairs);
  EXPECT_GT(cond, p * 1.5);  // burstiness: P(drop | drop) >> P(drop)
}

// ---------------------------------------------------------------------------
// Simulator radio
// ---------------------------------------------------------------------------

/// Test node: broadcasts scripted frames, records receptions.
class ProbeNode final : public Node {
 public:
  explicit ProbeNode(Env& env) : Node(env) {}

  void on_start() override {}
  void on_receive(ByteView frame) override {
    received.emplace_back(frame.begin(), frame.end());
    rx_times.push_back(env().now());
  }

  void send_at(SimTime at, Bytes frame) {
    env().schedule(at - env().now(), [this, f = std::move(frame)]() mutable {
      env().broadcast(PacketClass::kData, std::move(f));
    });
  }

  Env& environment() { return env(); }

  std::vector<Bytes> received;
  std::vector<SimTime> rx_times;
};

TEST(SimulatorTest, BroadcastReachesAllNeighbors) {
  Simulator sim(Topology::star(3), make_perfect_channel(), RadioParams{}, 1);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  auto& c = sim.add_node<ProbeNode>();
  auto& d = sim.add_node<ProbeNode>();
  sim.run(0);  // deliver on_start
  a.send_at(sim.now() + 1, Bytes{42});
  sim.run(1 * kSecond);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(d.received.size(), 1u);
  EXPECT_EQ(b.received[0], Bytes{42});
  EXPECT_EQ(sim.metrics().node(0).sent[0], 1u);
  EXPECT_EQ(sim.metrics().node(1).received[0], 1u);
}

TEST(SimulatorTest, AirtimeDelaysDelivery) {
  RadioParams radio;
  Simulator sim(Topology::star(1), make_perfect_channel(), radio, 2);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes(85, 0));  // 100 bytes with PHY overhead
  sim.run(1 * kSecond);
  ASSERT_EQ(b.received.size(), 1u);
  // 100 bytes at 250 kbps = 3.2 ms of airtime (plus backoff).
  EXPECT_GE(b.rx_times[0], 3200 * kMicrosecond);
  EXPECT_LT(b.rx_times[0], 20 * kMillisecond);
}

TEST(SimulatorTest, UniformLossDropsFraction) {
  Simulator sim(Topology::star(1), make_uniform_loss(0.5), RadioParams{}, 3);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  const int sends = 400;
  for (int i = 0; i < sends; ++i) {
    a.send_at(sim.now() + 1 + i * 10 * kMillisecond, Bytes{1});
  }
  sim.run(100 * kSecond);
  EXPECT_GT(b.received.size(), 120u);
  EXPECT_LT(b.received.size(), 280u);
}

TEST(SimulatorTest, OutOfRangeNodesDoNotHearEachOther) {
  // Two nodes 1000 apart with default link model (outer radius 45).
  auto topo = Topology::grid(1, 2, 1000.0);
  Simulator sim(std::move(topo), make_perfect_channel(), RadioParams{}, 4);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes{1});
  sim.run(1 * kSecond);
  EXPECT_TRUE(b.received.empty());
}

LinkModel perfect_link() {
  LinkModel link;
  link.max_prr = 1.0;  // no stochastic PRR loss in deterministic tests
  return link;
}

TEST(SimulatorTest, CarrierSenseDefersSecondSender) {
  // b wants to send while a's long frame is in the air: CSMA must defer b,
  // and both frames reach c intact.
  Simulator sim(Topology::star(2, perfect_link()), make_perfect_channel(),
                RadioParams{}, 5);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  auto& c = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes(500, 1));  // ~16 ms of airtime
  b.send_at(sim.now() + 8 * kMillisecond, Bytes{2});
  sim.run(1 * kSecond);
  ASSERT_EQ(c.received.size(), 2u);
  EXPECT_EQ(c.received[0].size(), 500u);
  EXPECT_EQ(c.received[1], Bytes{2});
  EXPECT_EQ(sim.collisions(), 0u);
}

TEST(SimulatorTest, HiddenTerminalCollisionDestroysBothFrames) {
  // Line topology a — c — b where a and b cannot hear each other: carrier
  // sensing cannot prevent their frames overlapping at c, so both are lost
  // and the collision counter records it.
  LinkModel link;
  link.max_prr = 1.0;
  link.connected_radius = 45.0;
  link.outer_radius = 46.0;  // sharp cutoff: 40 connected, 80 silent
  RadioParams radio;
  radio.backoff_initial = 0;
  radio.backoff_window = 1;  // ~deterministic start
  Simulator sim(Topology::grid(1, 3, 40.0, link), make_perfect_channel(),
                radio, 5);
  auto& a = sim.add_node<ProbeNode>();
  auto& c = sim.add_node<ProbeNode>();  // middle node (id 1)
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes(100, 1));
  b.send_at(sim.now() + 1, Bytes(100, 2));
  sim.run(1 * kSecond);
  EXPECT_TRUE(c.received.empty());
  EXPECT_GT(sim.collisions(), 0u);
}

TEST(SimulatorTest, CompletionTimeRecordedOnce) {
  Simulator sim(Topology::star(1), make_perfect_channel(), RadioParams{}, 6);
  auto& a = sim.add_node<ProbeNode>();
  sim.add_node<ProbeNode>();
  sim.run(0);
  a.environment().notify_complete();
  const SimTime first = sim.metrics().node(0).completion_time;
  a.environment().notify_complete();
  EXPECT_EQ(sim.metrics().node(0).completion_time, first);
  EXPECT_EQ(sim.metrics().completed_count(1), 1u);
}

TEST(SimulatorTest, RunStopsWhenPredicateHolds) {
  Simulator sim(Topology::star(1), make_perfect_channel(), RadioParams{}, 7);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  for (int i = 0; i < 100; ++i) a.send_at(sim.now() + 1 + i * kMillisecond, Bytes{1});
  const bool stopped = sim.run(
      10 * kSecond, [&] { return b.received.size() >= 3; });
  EXPECT_TRUE(stopped);
  EXPECT_LT(b.received.size(), 100u);
}

TEST(MetricsTest, AggregatesAcrossNodesAndClasses) {
  Metrics m(3);
  m.record_send(0, PacketClass::kData, 100);
  m.record_send(1, PacketClass::kData, 50);
  m.record_send(1, PacketClass::kSnack, 20);
  EXPECT_EQ(m.total_sent(PacketClass::kData), 2u);
  EXPECT_EQ(m.total_sent(PacketClass::kSnack), 1u);
  EXPECT_EQ(m.total_sent_bytes(), 170u);
  EXPECT_EQ(m.total_sent_bytes(PacketClass::kData), 150u);
}

}  // namespace
}  // namespace lrs::sim

// Appended: radio-energy accounting (tx/rx airtime).
namespace lrs::sim {
namespace {

class EnergyProbe final : public Node {
 public:
  explicit EnergyProbe(Env& env) : Node(env) {}
  void on_start() override {}
  void on_receive(ByteView) override {}
  void send(Bytes frame) {
    env().schedule(1, [this, f = std::move(frame)]() mutable {
      env().broadcast(PacketClass::kData, std::move(f));
    });
  }
};

TEST(EnergyAccounting, AirtimeChargedToSenderAndReceivers) {
  RadioParams radio;
  Simulator sim(Topology::star(2, LinkModel::perfect()),
                make_perfect_channel(), radio, 1);
  auto& a = sim.add_node<EnergyProbe>();
  sim.add_node<EnergyProbe>();
  sim.add_node<EnergyProbe>();
  sim.run(0);
  a.send(Bytes(100, 1));
  sim.run(1 * kSecond);

  const auto expected =
      static_cast<std::uint64_t>(radio.airtime(100));
  EXPECT_EQ(sim.metrics().node(0).tx_airtime_us, expected);
  EXPECT_EQ(sim.metrics().node(0).rx_airtime_us, 0u);
  EXPECT_EQ(sim.metrics().node(1).rx_airtime_us, expected);
  EXPECT_EQ(sim.metrics().node(2).rx_airtime_us, expected);
}

TEST(EnergyAccounting, LossyReceptionStillCostsEnergy) {
  // The radio pays for the whole frame even when the app-layer loss model
  // discards it afterwards.
  RadioParams radio;
  Simulator sim(Topology::star(1, LinkModel::perfect()),
                make_uniform_loss(1.0), radio, 2);
  auto& a = sim.add_node<EnergyProbe>();
  sim.add_node<EnergyProbe>();
  sim.run(0);
  a.send(Bytes(50, 1));
  sim.run(1 * kSecond);
  EXPECT_EQ(sim.metrics().node(1).received[0], 0u);  // dropped
  EXPECT_GT(sim.metrics().node(1).rx_airtime_us, 0u);  // but paid for
}

}  // namespace
}  // namespace lrs::sim
