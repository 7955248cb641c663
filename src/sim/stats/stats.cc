#include "sim/stats/stats.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace lrs::stats {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Cycle-counter calibration anchor, (re-)taken by set_enabled(true) and
/// reset_values(): converting timer cycles to ns divides by the mean
/// cycles/ns observed between the anchor and the export.
struct Anchor {
  std::uint64_t cycles = 0;
  SteadyClock::time_point steady{};
};

std::mutex g_anchor_mu;
Anchor g_anchor;

void take_anchor() {
  std::lock_guard<std::mutex> lock(g_anchor_mu);
  g_anchor.cycles = now_cycles();
  g_anchor.steady = SteadyClock::now();
}

Anchor anchor() {
  std::lock_guard<std::mutex> lock(g_anchor_mu);
  return g_anchor;
}

struct Calibration {
  double cycles_per_ns = 1.0;
  std::uint64_t wall_ns = 0;
};

Calibration calibrate() {
  const Anchor a = anchor();
  Calibration c;
  if (a.steady == SteadyClock::time_point{}) return c;  // never enabled
  const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      SteadyClock::now() - a.steady)
                      .count();
  c.wall_ns = dt > 0 ? static_cast<std::uint64_t>(dt) : 0;
  const std::uint64_t dc = now_cycles() - a.cycles;
  if (dt > 0 && dc > 0) {
    c.cycles_per_ns =
        static_cast<double>(dc) / static_cast<double>(dt);
  }
  return c;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

/// Current resident set in KiB from /proc/self/status (0 off-Linux).
std::uint64_t current_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex mu;
  // unique_ptr slots: stable addresses for the cached call-site references,
  // std::less<> for allocation-free string_view lookup on the warm path.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  struct TimerSlot {
    std::unique_ptr<Timer> timer = std::make_unique<Timer>();
    bool top_level = false;
  };
  std::map<std::string, TimerSlot, std::less<>> timers;
};

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Timer& Registry::timer(std::string_view name, bool top_level) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.timers.find(name);
  if (it == im.timers.end()) {
    it = im.timers.emplace(std::string(name), Impl::TimerSlot{}).first;
    it->second.top_level = top_level;
  }
  return *it->second.timer;
}

void Registry::reset_values() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
  for (auto& [name, t] : im.timers) t.timer->reset();
  take_anchor();
}

std::string Registry::deterministic_json(const std::string& indent) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::ostringstream out;
  const std::string in1 = indent + "  ";
  const std::string in2 = in1 + "  ";
  const std::string in3 = in2 + "  ";

  // Counters and timer call counts share one sorted namespace: the timer
  // "x.y" contributes the deterministic counter "x.y.calls".
  std::map<std::string, std::uint64_t> flat;
  for (const auto& [name, c] : im.counters) flat[name] = c->value();
  for (const auto& [name, t] : im.timers) {
    flat[name + ".calls"] = t.timer->calls();
  }

  out << "{\n" << in1 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : flat) {
    out << (first ? "\n" : ",\n")
        << in2 << "\"" << json_escape(name) << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n" + in1) << "},\n";

  out << in1 << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : im.histograms) {
    out << (first ? "\n" : ",\n") << in2 << "\"" << json_escape(name)
        << "\": {\n";
    out << in3 << "\"count\": " << h->count() << ",\n";
    out << in3 << "\"sum\": " << h->sum() << ",\n";
    out << in3 << "\"min\": " << h->min() << ",\n";
    out << in3 << "\"max\": " << h->max() << ",\n";
    out << in3 << "\"buckets\": [";
    bool bfirst = true;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      const std::uint64_t n = h->bucket_count_at(i);
      if (n == 0) continue;
      out << (bfirst ? "" : ", ") << "[" << Histogram::bucket_lower_bound(i)
          << ", " << n << "]";
      bfirst = false;
    }
    out << "]\n" << in2 << "}";
    first = false;
  }
  out << (first ? "" : "\n" + in1) << "}\n" << indent << "}";
  return out.str();
}

std::string Registry::timing_json(const std::string& indent) const {
  const Calibration cal = calibrate();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::ostringstream out;
  const std::string in1 = indent + "  ";
  const std::string in2 = in1 + "  ";
  const std::string in3 = in2 + "  ";

  const auto to_ns = [&cal](std::uint64_t cycles) {
    return static_cast<std::uint64_t>(static_cast<double>(cycles) /
                                      cal.cycles_per_ns);
  };
  std::uint64_t attributed_ns = 0;
  for (const auto& [name, t] : im.timers) {
    if (t.top_level) attributed_ns += to_ns(t.timer->cycles());
  }

  out << "{\n";
  out << in1 << "\"wall_ns\": " << cal.wall_ns << ",\n";
  char hz[64];
  std::snprintf(hz, sizeof hz, "%.0f", cal.cycles_per_ns * 1e9);
  out << in1 << "\"tsc_hz\": " << hz << ",\n";
  out << in1 << "\"attributed_ns\": " << attributed_ns << ",\n";
  char frac[64];
  std::snprintf(frac, sizeof frac, "%.4f",
                cal.wall_ns > 0 ? static_cast<double>(attributed_ns) /
                                      static_cast<double>(cal.wall_ns)
                                : 0.0);
  out << in1 << "\"attributed_frac\": " << frac << ",\n";

  out << in1 << "\"scopes\": {";
  bool first = true;
  for (const auto& [name, t] : im.timers) {
    out << (first ? "\n" : ",\n") << in2 << "\"" << json_escape(name)
        << "\": {\n";
    out << in3 << "\"calls\": " << t.timer->calls() << ",\n";
    out << in3 << "\"ns\": " << to_ns(t.timer->cycles()) << ",\n";
    out << in3 << "\"top_level\": " << (t.top_level ? "true" : "false")
        << "\n" << in2 << "}";
    first = false;
  }
  out << (first ? "" : "\n" + in1) << "},\n";

  out << in1 << "\"gauges\": {";
  first = true;
  for (const auto& [name, g] : im.gauges) {
    out << (first ? "\n" : ",\n")
        << in2 << "\"" << json_escape(name) << "\": " << g->value();
    first = false;
  }
  out << (first ? "" : "\n" + in1) << "}\n" << indent << "}";
  return out.str();
}

void set_enabled(bool on) {
  const bool was = detail::g_enabled.exchange(on, std::memory_order_relaxed);
  if (on && !was) take_anchor();
}

std::string metrics_json(const std::string& provenance_json) {
  Registry& r = Registry::instance();
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"lrs-metrics-v1\",\n";
  out << "  \"enabled\": " << (enabled() ? "true" : "false") << ",\n";
  out << "  \"provenance\": "
      << (provenance_json.empty() ? "null" : provenance_json) << ",\n";
  out << "  \"deterministic\": " << r.deterministic_json("  ") << ",\n";
  out << "  \"timing\": " << r.timing_json("  ") << "\n";
  out << "}\n";
  return out.str();
}

bool write_metrics_json(const std::string& path,
                        const std::string& provenance_json) {
  stop_heartbeat();
  const std::string doc = metrics_json(provenance_json);
  if (path == "-") {
    std::cout << doc;
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return false;
  }
  out << doc;
  return true;
}

namespace {

struct Heartbeat {
  std::mutex mu;
  std::condition_variable cv;
  std::thread thread;
  bool stop = false;
  bool running = false;
};

Heartbeat& heartbeat() {
  static Heartbeat hb;
  return hb;
}

void heartbeat_loop(double period_s) {
  Heartbeat& hb = heartbeat();
  Counter& pops = Registry::instance().counter("sim.queue.pop");
  const auto start = SteadyClock::now();
  std::uint64_t last_pops = pops.value();
  auto last = start;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb.mu);
      hb.cv.wait_for(lock,
                     std::chrono::duration<double>(period_s),
                     [&hb] { return hb.stop; });
      if (hb.stop) return;
    }
    const auto now = SteadyClock::now();
    const double t = std::chrono::duration<double>(now - start).count();
    const double dt = std::chrono::duration<double>(now - last).count();
    const std::uint64_t p = pops.value();
    const double rate =
        dt > 0 ? static_cast<double>(p - last_pops) / dt : 0.0;
    std::fprintf(stderr,
                 "[metrics] t=%.1fs events=%llu (+%.0f/s) rss=%.1fMiB\n", t,
                 static_cast<unsigned long long>(p), rate,
                 static_cast<double>(current_rss_kib()) / 1024.0);
    last_pops = p;
    last = now;
  }
}

}  // namespace

void start_heartbeat(double period_s) {
  if (period_s <= 0) return;
  Heartbeat& hb = heartbeat();
  std::lock_guard<std::mutex> lock(hb.mu);
  if (hb.running) return;
  hb.stop = false;
  hb.running = true;
  hb.thread = std::thread(heartbeat_loop, period_s);
}

void stop_heartbeat() {
  Heartbeat& hb = heartbeat();
  {
    std::lock_guard<std::mutex> lock(hb.mu);
    if (!hb.running) return;
    hb.stop = true;
  }
  hb.cv.notify_all();
  hb.thread.join();
  {
    std::lock_guard<std::mutex> lock(hb.mu);
    hb.running = false;
  }
}

}  // namespace lrs::stats
