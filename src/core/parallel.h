// Deterministic work-stealing runner shared by the trial runner
// (core/run_trials.cc), the island executor (core/experiment.cc) and the
// fleet engine (fleet/engine.cc).
//
// The contract every caller relies on: the task for index i is fixed, only
// the assignment of indices to threads is dynamic, and results are written
// into index-addressed slots — so a parallel run is bit-identical to the
// serial loop over 0..count-1.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace lrs::core {

/// Worker-thread count used when a `jobs` parameter is 0: the LRS_JOBS
/// environment variable if set to a positive integer, else
/// std::thread::hardware_concurrency() (minimum 1).
std::size_t default_jobs();

namespace detail {

/// Fixed per-worker victim visiting order: the other workers permuted by a
/// seeded Fisher-Yates shuffle (SplitMix-style LCG on the worker id). Pure
/// function of (worker, workers) — never of scheduling — so the only
/// nondeterminism work stealing introduces is WHICH thread runs a task,
/// which the index-addressed-slot contract already absorbs.
inline std::vector<std::size_t> steal_victim_order(std::size_t worker,
                                                   std::size_t workers) {
  std::vector<std::size_t> order;
  order.reserve(workers - 1);
  for (std::size_t v = 0; v < workers; ++v) {
    if (v != worker) order.push_back(v);
  }
  std::uint64_t s = 0x9e3779b97f4a7c15ULL * (worker + 1);
  for (std::size_t i = order.size(); i > 1; --i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i - 1], order[(s >> 33) % i]);
  }
  return order;
}

}  // namespace detail

/// Runs `count` index-addressed tasks on up to `jobs` threads, built for
/// heterogeneous task sizes (a fleet of network cells whose simulations
/// differ by orders of magnitude, a trial sweep mixing cheap and expensive
/// configs). The task for index i is fixed and results go into
/// index-addressed slots, so serial and any-jobs runs stay byte-identical.
///
/// Scheduling: indices are dealt out as contiguous blocks, one deque per
/// worker. Owners consume their block front-to-back (ascending, like the
/// serial loop); an idle worker steals one task from the BACK of a victim's
/// deque (LIFO steal — the work its owner would reach last), visiting
/// victims in a seeded per-worker permutation so thieves spread instead of
/// convoying on worker 0. Exceptions: the first one is rethrown on the
/// caller's thread after all workers finish; the failed worker's leftover
/// tasks are stolen and still run.
///
/// Returns the number of successful steals — schedule-dependent, so callers
/// must report it as timing-only (a stats Gauge, never a Counter).
template <typename Fn>
std::size_t parallel_for_ws(std::size_t count, std::size_t jobs,
                            const Fn& fn) {
  if (count == 0) return 0;
  const std::size_t workers = jobs < count ? jobs : count;
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return 0;
  }

  // Mutex-per-deque keeps this dependency-free and obviously correct; the
  // tasks this runner exists for are whole simulations (milliseconds to
  // minutes), so lock traffic is noise next to the work.
  struct Deque {
    std::mutex mu;
    std::deque<std::size_t> q;
  };
  std::vector<Deque> deques(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = w * count / workers;
    const std::size_t hi = (w + 1) * count / workers;
    for (std::size_t i = lo; i < hi; ++i) deques[w].q.push_back(i);
  }

  std::atomic<std::size_t> remaining{count};
  std::atomic<std::size_t> steals{0};
  std::mutex err_mu;
  std::exception_ptr err;

  auto worker = [&](std::size_t w) {
    const std::vector<std::size_t> victims =
        detail::steal_victim_order(w, workers);
    for (;;) {
      std::optional<std::size_t> task;
      {
        std::lock_guard<std::mutex> lock(deques[w].mu);
        if (!deques[w].q.empty()) {
          task = deques[w].q.front();
          deques[w].q.pop_front();
        }
      }
      if (!task) {
        for (const std::size_t v : victims) {
          std::lock_guard<std::mutex> lock(deques[v].mu);
          if (!deques[v].q.empty()) {
            task = deques[v].q.back();
            deques[v].q.pop_back();
            steals.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
      if (!task) {
        // Every queue was empty when visited. Tasks may still be running
        // (their completion decrements `remaining`), but none can reappear
        // in a queue, so spin-yield until the count drains.
        if (remaining.load(std::memory_order_acquire) == 0) return;
        std::this_thread::yield();
        continue;
      }
      try {
        fn(*task);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!err) err = std::current_exception();
        }
        remaining.fetch_sub(1, std::memory_order_release);
        return;  // this worker's leftover deque gets stolen by the others
      }
      remaining.fetch_sub(1, std::memory_order_release);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) {
    threads.emplace_back([&worker, t] { worker(t); });
  }
  worker(0);
  for (auto& t : threads) t.join();
  if (err) std::rethrow_exception(err);
  return steals.load(std::memory_order_relaxed);
}

}  // namespace lrs::core
