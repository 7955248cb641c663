// Calendar event queue for the discrete-event simulator.
//
// The hot path of every experiment is schedule / cancel / pop, so all three
// are allocation-free in steady state:
//
//  - Events live in a slab of fixed-layout slots recycled through a free
//    list. A slot is addressed by an EventToken — a POD {slot, generation}
//    handle — so cancellation is an O(1) generation bump, never a search
//    and never a heap allocation (the old design minted a shared_ptr<bool>
//    per event).
//  - Closures are stored inline in the slot (EventFn, a fixed-capacity
//    copyable closure), not in a std::function that spills to the heap.
//  - Ordering uses a two-level hashed timing wheel (Varghese & Lauck).
//    Level 0 is the current epoch (2^22 us, ~4.19 s) split into 4096
//    buckets of 2^10 us, each a min-heap; it holds the radio model's
//    backoff and airtime deltas. Level 1 is 64 one-epoch buckets covering
//    the next ~268 s, each an intrusive list threaded through the slot
//    slab; it holds Trickle and advertisement timers. When level 0 drains,
//    the next occupied epoch cascades into it. Only events more than 64
//    epochs ahead (crash schedules, time limits) wait in an overflow heap,
//    which feeds level 1 as the horizon advances.
//
// Determinism: events fire in strictly increasing (time, seq) order, where
// seq is the scheduling order — exactly the contract of the binary-heap
// queue this replaces, so historical seeds replay byte-identically.
//
// Cancellation updates live counts immediately (pending() and empty() are
// exact). A level-1 event is unlinked from its list on the spot; a level-0
// or overflow event leaves a stale reference in its heap until the pop path
// reaches and discards it. Either way an event cancelled at any point
// before it fires — including between a peek_time() that reported its time
// and the run_next() that would have fired it — can never fire; run_next()
// skips it and fires the next live event instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace lrs::sim {

/// Fixed-capacity inline closure for simulator events: copyable, movable,
/// never heap-allocates. Capturing more than kCapacity bytes is a compile
/// error — enlarge the capture-heaviest call site or the capacity, not the
/// allocation count. A capture that is trivially copyable and trivially
/// destructible (pointers, ids, times: nearly every timer) is copied and
/// moved as kCapacity raw bytes and needs no destructor call; other
/// captures go through a per-type ops table.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 64;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event closure captures too much for inline storage");
    static_assert(alignof(Fn) <= kAlign,
                  "event closure needs more than pointer alignment");
    new (storage_) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::ops;
  }

  EventFn(const EventFn& other) { copy_from(other); }
  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(const EventFn& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~EventFn() { reset(); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    LRS_DCHECK(ops_ != nullptr);
    ops_->invoke(storage_);
  }

 private:
  /// copy/move/destroy are null for trivial captures: the storage bytes
  /// are the whole object.
  struct Ops {
    void (*invoke)(void*);
    void (*copy)(void* dst, const void* src);
    void (*move)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static void invoke_as(void* p) {
    (*static_cast<Fn*>(p))();
  }

  template <typename Fn>
  struct OpsFor {
    static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn> &&
                                     std::is_trivially_destructible_v<Fn>;
    static constexpr Ops ops =
        kTrivial ? Ops{&invoke_as<Fn>, nullptr, nullptr, nullptr}
                 : Ops{
                       &invoke_as<Fn>,
                       [](void* dst, const void* src) {
                         new (dst) Fn(*static_cast<const Fn*>(src));
                       },
                       [](void* dst, void* src) {
                         new (dst) Fn(std::move(*static_cast<Fn*>(src)));
                       },
                       [](void* p) { static_cast<Fn*>(p)->~Fn(); },
                   };
  };

  void copy_from(const EventFn& other) {
    if (other.ops_ == nullptr) return;
    if (other.ops_->copy != nullptr) {
      other.ops_->copy(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    ops_ = other.ops_;
  }
  void move_from(EventFn& other) {
    if (other.ops_ == nullptr) return;
    if (other.ops_->move != nullptr) {
      other.ops_->move(storage_, other.storage_);
      other.ops_->destroy(other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  // Pointer alignment keeps EventFn at 72 bytes and an event slot at 96.
  static constexpr std::size_t kAlign = alignof(void*);
  alignas(kAlign) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Handle to a scheduled event: a {slot, generation} pair packed into one
/// word. Default-constructed tokens are null; a token goes stale (cancel
/// becomes a no-op) the moment its event fires or is cancelled, so holding
/// one past either is always safe — there is nothing to leak or double-
/// free. Copy freely; copies refer to the same event.
class EventToken {
 public:
  EventToken() = default;

  explicit operator bool() const { return bits_ != 0; }
  friend bool operator==(const EventToken&, const EventToken&) = default;

  /// Raw packed value — for test doubles that mint their own distinct
  /// tokens and for diagnostics. Real tokens come from schedule_at().
  static EventToken from_bits(std::uint64_t bits) {
    EventToken t;
    t.bits_ = bits;
    return t;
  }
  std::uint64_t bits() const { return bits_; }

 private:
  friend class EventQueue;
  EventToken(std::uint32_t slot, std::uint32_t gen)
      : bits_((static_cast<std::uint64_t>(slot) << 32) | gen) {}
  std::uint32_t slot() const { return static_cast<std::uint32_t>(bits_ >> 32); }
  std::uint32_t gen() const { return static_cast<std::uint32_t>(bits_); }

  std::uint64_t bits_ = 0;  // 0 = null (live generations are never 0)
};

class EventQueue {
 public:
  EventQueue();

  /// Schedules `fn` at absolute time `at` (must be >= now()).
  EventToken schedule_at(SimTime at, EventFn fn);

  /// Cancels the event, O(1). Returns true when the token referred to a
  /// live (scheduled, not yet fired) event; false for null or stale
  /// tokens. A cancelled event never fires, even when the cancellation
  /// lands between a peek_time() and the run_next() that would have
  /// popped it.
  bool cancel(EventToken token);

  SimTime now() const { return now_; }
  /// Number of events executed since construction (cancelled events are
  /// never counted).
  std::uint64_t executed() const { return executed_; }
  /// Exactly the number of live (scheduled, not fired, not cancelled)
  /// events — cancellation updates both immediately.
  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }

  /// Pops and runs the next live event; returns false when none remain.
  bool run_next();

  /// Runs the next live event only if its time is <= limit. Returns true
  /// when an event ran. Does not advance now() when nothing runs — the
  /// single-traversal loop primitive Simulator::run is built on.
  bool run_next_before(SimTime limit);

  /// Time of the next live event, discarding stale (cancelled) entries on
  /// the way; nullopt when drained. Does not advance now().
  std::optional<SimTime> peek_time();

  /// Runs events in order while their time is <= limit. Returns the number
  /// executed. When the queue drains (no live events left) and now() is
  /// still behind, now() advances to `limit`; events strictly after
  /// `limit` — and only live ones count — keep now() at the last executed
  /// event's time.
  std::uint64_t run_until(SimTime limit);

 private:
  // Wheel geometry. Level 0 is one epoch of 4096 buckets × 2^10 us
  // (~1 ms), ~4.19 s in all: it spans the radio model's backoff
  // (0.5–50 ms) and airtime (~1–4 ms) deltas, so a MAC event is one push
  // into a heap of a few entries. Level 1 is 64 one-epoch buckets, ~268 s,
  // which covers Trickle's 60 s tau_high and every advertisement interval
  // derived from it. A level-1 event is touched only twice — linked on
  // schedule (or unlinked on cancel), then moved into level 0 once when its
  // epoch comes up — so its bucket is an unsorted intrusive list, not a
  // heap, and costs no memory beyond the slot itself. Widths and counts
  // are powers of two so index math is shift/mask.
  static constexpr int kBucketBits = 12;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr int kBucketWidthBits = 10;
  static constexpr int kEpochBits = kBucketBits + kBucketWidthBits;
  static constexpr SimTime kEpochMask = (SimTime{1} << kEpochBits) - 1;
  static constexpr std::size_t kBitmapWords = kBuckets / 64;
  static constexpr int kL1Bits = 6;
  static constexpr SimTime kL1Buckets = SimTime{1} << kL1Bits;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// POD reference ordered by (time, seq); `gen` detects stale entries
  /// whose event was cancelled (or whose slot was recycled) after the
  /// reference was enqueued.
  struct Ref {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool after(const Ref& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;  // bumped on every release; 0 never occurs
    // While in level 1: bucket << kEpochBits | the event time's offset in
    // its epoch (the bucket and epoch_ determine the epoch). kNil while
    // the slot sits in level 0 or the overflow heap, or is free.
    std::uint32_t l1 = kNil;
    std::uint32_t prev = kNil;  // level-1 list links
    std::uint32_t next = kNil;
  };
  static_assert(sizeof(Slot) <= 96, "the slab costs this much per live event");

  static SimTime epoch_of(SimTime t) { return t >> kEpochBits; }
  bool is_live(const Ref& r) const { return slots_[r.slot].gen == r.gen; }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Files a live event by its epoch: level 0, level 1 or overflow.
  void place(std::uint32_t slot, SimTime time);
  void push_l0(const Ref& r);
  void link_l1(std::uint32_t slot, SimTime time);
  void unlink_l1(std::uint32_t slot);
  /// First bucket index >= from with entries, or kBuckets when level 0 is
  /// clear.
  std::size_t next_occupied(std::size_t from) const;
  /// Drops stale heap tops; true when a live ref tops the bucket after.
  bool prune_bucket(std::size_t b);
  bool prune_overflow();
  /// Points cursor_ at the level-0 bucket whose top is the earliest live
  /// event, discarding stale entries on the way; false when level 0 holds
  /// no live event.
  bool seek_l0();
  /// The next epoch past epoch_ that holds an event (level 1 first, else
  /// the overflow top's). Only called when level 0 is clear and live_ > 0.
  SimTime next_epoch();
  /// Earliest time among the level-1 events of `epoch`.
  SimTime l1_min_time(SimTime epoch) const;
  /// Earliest live time when level 0 is clear. Never cascades, so it is
  /// safe from peek paths: now() may stay behind the next epoch.
  SimTime earliest_beyond_l0();
  /// Makes `epoch` current: moves its level-1 list into level 0's heaps
  /// and pulls overflow events that now fall inside level 1's horizon.
  /// Only called when the earliest event, which lies in `epoch`, is about
  /// to run, so now() is back inside epoch_ before anything can schedule.
  void cascade(SimTime epoch);
  /// Removes and returns level 0's earliest ref (cursor_ must point at it).
  Ref pop_l0();
  void run_ref(const Ref& r);

  SimTime now_ = 0;
  SimTime epoch_ = 0;       // level 0's epoch
  std::size_t cursor_ = 0;  // first level-0 bucket that can hold entries
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<Ref>> buckets_;  // level 0: min-heaps by (time, seq)
  std::uint64_t occupied_[kBitmapWords] = {};
  std::uint32_t l1_head_[kL1Buckets];  // level 1: list heads, by epoch % 64
  std::uint64_t l1_occupied_ = 0;
  std::vector<Ref> overflow_;  // min-heap by (time, seq)
};

}  // namespace lrs::sim
