#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>

#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::sim {

namespace {

/// Call-site cache of the queue's registry slots: resolved once per
/// process, recorded through references on the hot path (allocation- and
/// lock-free; every record is gated on stats::enabled()).
struct QueueStats {
  stats::Counter& schedule;
  stats::Counter& cancel;
  stats::Counter& pop;
  stats::Counter& overflow;
  stats::Counter& cascade;
  stats::Histogram& pending;

  static QueueStats& get() {
    static QueueStats s{
        stats::Registry::instance().counter("sim.queue.schedule"),
        stats::Registry::instance().counter("sim.queue.cancel"),
        stats::Registry::instance().counter("sim.queue.pop"),
        stats::Registry::instance().counter("sim.queue.overflow_push"),
        stats::Registry::instance().counter("sim.queue.cascade"),
        stats::Registry::instance().histogram("sim.queue.pending"),
    };
    return s;
  }
};

}  // namespace

EventQueue::EventQueue() : buckets_(kBuckets) {
  std::fill(std::begin(l1_head_), std::end(l1_head_), kNil);
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;
  if (s.gen == 0) ++s.gen;  // generation 0 is reserved for null tokens
  free_slots_.push_back(slot);
}

void EventQueue::place(std::uint32_t slot, SimTime time) {
  const Slot& s = slots_[slot];
  const SimTime ahead = epoch_of(time) - epoch_;
  if (ahead == 0) {
    push_l0(Ref{time, s.seq, slot, s.gen});
  } else if (ahead <= kL1Buckets) {
    link_l1(slot, time);
  } else {
    QueueStats::get().overflow.add();
    overflow_.push_back(Ref{time, s.seq, slot, s.gen});
    std::push_heap(overflow_.begin(), overflow_.end(),
                   [](const Ref& a, const Ref& b) { return a.after(b); });
  }
}

void EventQueue::push_l0(const Ref& r) {
  LRS_DCHECK(epoch_of(r.time) == epoch_);
  const auto b = static_cast<std::size_t>((r.time & kEpochMask) >>
                                          kBucketWidthBits);
  auto& bucket = buckets_[b];
  bucket.push_back(r);
  std::push_heap(bucket.begin(), bucket.end(),
                 [](const Ref& a, const Ref& b2) { return a.after(b2); });
  occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
  if (b < cursor_) cursor_ = b;
}

void EventQueue::link_l1(std::uint32_t slot, SimTime time) {
  const auto bucket =
      static_cast<std::uint32_t>(epoch_of(time) & (kL1Buckets - 1));
  Slot& s = slots_[slot];
  s.l1 = bucket << kEpochBits | static_cast<std::uint32_t>(time & kEpochMask);
  s.prev = kNil;
  s.next = l1_head_[bucket];
  if (s.next != kNil) slots_[s.next].prev = slot;
  l1_head_[bucket] = slot;
  l1_occupied_ |= std::uint64_t{1} << bucket;
}

void EventQueue::unlink_l1(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    const std::uint32_t bucket = s.l1 >> kEpochBits;
    l1_head_[bucket] = s.next;
    if (s.next == kNil) l1_occupied_ &= ~(std::uint64_t{1} << bucket);
  }
  if (s.next != kNil) slots_[s.next].prev = s.prev;
  s.l1 = kNil;
}

EventToken EventQueue::schedule_at(SimTime at, EventFn fn) {
  LRS_CHECK_MSG(at >= now_, "cannot schedule events in the past");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = next_seq_++;
  const EventToken token(slot, s.gen);
  place(slot, at);
  ++live_;
  QueueStats& qs = QueueStats::get();
  qs.schedule.add();
  qs.pending.record(live_);
  return token;
}

bool EventQueue::cancel(EventToken token) {
  if (!token) return false;
  const std::uint32_t slot = token.slot();
  if (slot >= slots_.size() || slots_[slot].gen != token.gen()) return false;
  // A level-1 event leaves its list now; a level-0 or overflow ref goes
  // stale and is skipped when its heap surfaces it.
  if (slots_[slot].l1 != kNil) unlink_l1(slot);
  release_slot(slot);
  --live_;
  QueueStats::get().cancel.add();
  return true;
}

std::size_t EventQueue::next_occupied(std::size_t from) const {
  if (from >= kBuckets) return kBuckets;
  std::size_t word = from / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word >= kBitmapWords) return kBuckets;
    bits = occupied_[word];
  }
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

bool EventQueue::prune_bucket(std::size_t b) {
  auto& bucket = buckets_[b];
  const auto after = [](const Ref& a, const Ref& b2) { return a.after(b2); };
  while (!bucket.empty() && !is_live(bucket.front())) {
    std::pop_heap(bucket.begin(), bucket.end(), after);
    bucket.pop_back();
  }
  if (bucket.empty()) {
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    return false;
  }
  return true;
}

bool EventQueue::prune_overflow() {
  const auto after = [](const Ref& a, const Ref& b) { return a.after(b); };
  while (!overflow_.empty() && !is_live(overflow_.front())) {
    std::pop_heap(overflow_.begin(), overflow_.end(), after);
    overflow_.pop_back();
  }
  return !overflow_.empty();
}

bool EventQueue::seek_l0() {
  for (std::size_t b = next_occupied(cursor_); b < kBuckets;
       b = next_occupied(b + 1)) {
    // Buckets ahead of the first live entry are empty or stale-only, so
    // the cursor can skip them on every later scan.
    cursor_ = b;
    if (prune_bucket(b)) return true;
  }
  cursor_ = kBuckets;
  return false;
}

SimTime EventQueue::next_epoch() {
  if (l1_occupied_ != 0) {
    const int from = static_cast<int>((epoch_ + 1) & (kL1Buckets - 1));
    return epoch_ + 1 + std::countr_zero(std::rotr(l1_occupied_, from));
  }
  const bool found = prune_overflow();  // live_ > 0, so it holds one
  LRS_DCHECK(found);
  (void)found;
  return epoch_of(overflow_.front().time);
}

SimTime EventQueue::l1_min_time(SimTime epoch) const {
  std::uint32_t offset = kNil;
  for (std::uint32_t s = l1_head_[epoch & (kL1Buckets - 1)]; s != kNil;
       s = slots_[s].next) {
    offset = std::min(offset, slots_[s].l1);  // same bucket bits throughout
  }
  return epoch << kEpochBits | (offset & kEpochMask);
}

SimTime EventQueue::earliest_beyond_l0() {
  const SimTime epoch = next_epoch();
  if (l1_occupied_ != 0) return l1_min_time(epoch);
  return overflow_.front().time;  // next_epoch() pruned its stale top
}

void EventQueue::cascade(SimTime epoch) {
  QueueStats::get().cascade.add();
  epoch_ = epoch;
  cursor_ = kBuckets;  // level 0 is clear; push_l0 lowers the cursor
  const auto bucket = static_cast<std::uint32_t>(epoch & (kL1Buckets - 1));
  std::uint32_t slot = l1_head_[bucket];
  l1_head_[bucket] = kNil;
  l1_occupied_ &= ~(std::uint64_t{1} << bucket);
  while (slot != kNil) {
    Slot& s = slots_[slot];
    const std::uint32_t next = s.next;
    push_l0(Ref{epoch << kEpochBits | (s.l1 & kEpochMask), s.seq, slot,
                s.gen});
    s.l1 = kNil;
    slot = next;
  }
  // Overflow events within 64 epochs of the new one move into level 1
  // (or, when level 1 was empty, straight into level 0).
  const auto after = [](const Ref& a, const Ref& b) { return a.after(b); };
  while (!overflow_.empty() &&
         epoch_of(overflow_.front().time) - epoch_ <= kL1Buckets) {
    std::pop_heap(overflow_.begin(), overflow_.end(), after);
    const Ref r = overflow_.back();
    overflow_.pop_back();
    if (is_live(r)) place(r.slot, r.time);
  }
}

EventQueue::Ref EventQueue::pop_l0() {
  auto& bucket = buckets_[cursor_];
  LRS_DCHECK(!bucket.empty() && is_live(bucket.front()));
  std::pop_heap(bucket.begin(), bucket.end(),
                [](const Ref& a, const Ref& b) { return a.after(b); });
  const Ref r = bucket.back();
  bucket.pop_back();
  if (bucket.empty()) {
    occupied_[cursor_ / 64] &= ~(std::uint64_t{1} << (cursor_ % 64));
  }
  return r;
}

void EventQueue::run_ref(const Ref& r) {
  now_ = r.time;
  // Move the closure out and release the slot first, so the event body can
  // freely reschedule (possibly into this very slot) and cancelling its
  // own, now stale, token is a no-op.
  EventFn fn = std::move(slots_[r.slot].fn);
  release_slot(r.slot);
  --live_;
  ++executed_;
  QueueStats::get().pop.add();
  fn();
}

bool EventQueue::run_next() {
  return run_next_before(std::numeric_limits<SimTime>::max());
}

bool EventQueue::run_next_before(SimTime limit) {
  if (live_ == 0) return false;
  if (!seek_l0()) {
    // Every event of the next epoch lies within it, so the exact minimum
    // is needed only when the limit falls inside that epoch.
    const SimTime epoch = next_epoch();
    const SimTime first = epoch << kEpochBits;
    if (limit < first) return false;
    if (limit - first < (SimTime{1} << kEpochBits) - 1 &&
        earliest_beyond_l0() > limit) {
      return false;
    }
    cascade(epoch);
    const bool found = seek_l0();
    LRS_DCHECK(found);
    (void)found;
  }
  if (buckets_[cursor_].front().time > limit) return false;
  run_ref(pop_l0());
  return true;
}

std::optional<SimTime> EventQueue::peek_time() {
  if (live_ == 0) return std::nullopt;
  if (seek_l0()) return buckets_[cursor_].front().time;
  return earliest_beyond_l0();
}

std::uint64_t EventQueue::run_until(SimTime limit) {
  std::uint64_t count = 0;
  while (run_next_before(limit)) ++count;
  if (live_ == 0 && now_ < limit) now_ = limit;
  return count;
}

}  // namespace lrs::sim
