#include "sim/scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "erasure/code.h"
#include "util/rng.h"

namespace lrs::scenario {

namespace {

// Early sleepers never wake: a crash window that outlives any time limit
// (kept far from the SimTime ceiling so at + downtime cannot overflow).
constexpr sim::SimTime kSleepForever =
    std::numeric_limits<sim::SimTime>::max() / 4;

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  const std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (v.empty() || !(v[0] >= '0' && v[0] <= '9')) return false;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  *out = x;
  return true;
}

bool parse_size(const std::string& v, std::size_t* out) {
  std::uint64_t x = 0;
  if (!parse_u64(v, &x)) return false;
  *out = static_cast<std::size_t>(x);
  return true;
}

bool parse_f64(const std::string& v, double* out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (errno != 0 || end != v.c_str() + v.size() || !std::isfinite(x)) {
    return false;
  }
  *out = x;
  return true;
}

bool parse_bool(const std::string& v, bool* out) {
  if (v == "true") {
    *out = true;
    return true;
  }
  if (v == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// Milliseconds (fractional allowed) -> SimTime microseconds.
bool parse_ms(const std::string& v, sim::SimTime* out) {
  double ms = 0.0;
  if (!parse_f64(v, &ms) || ms < 0.0) return false;
  *out = static_cast<sim::SimTime>(std::llround(ms * 1000.0));
  return true;
}

/// "node@ms" (late_joiner / early_sleeper values).
bool parse_node_event(const std::string& v, NodeEvent* out) {
  const auto at = v.find('@');
  if (at == std::string::npos) return false;
  std::uint64_t node = 0;
  if (!parse_u64(trim(v.substr(0, at)), &node)) return false;
  sim::SimTime t = 0;
  if (!parse_ms(trim(v.substr(at + 1)), &t)) return false;
  out->node = static_cast<NodeId>(node);
  out->at = t;
  return true;
}

/// "node@at_ms+down_ms" (crash values).
bool parse_crash(const std::string& v, sim::CrashEvent* out) {
  const auto at = v.find('@');
  if (at == std::string::npos) return false;
  const auto plus = v.find('+', at + 1);
  if (plus == std::string::npos) return false;
  std::uint64_t node = 0;
  if (!parse_u64(trim(v.substr(0, at)), &node)) return false;
  sim::SimTime start = 0;
  sim::SimTime down = 0;
  if (!parse_ms(trim(v.substr(at + 1, plus - at - 1)), &start)) return false;
  if (!parse_ms(trim(v.substr(plus + 1)), &down)) return false;
  out->node = static_cast<NodeId>(node);
  out->at = start;
  out->downtime = down;
  return true;
}

/// Fixed-notation rendering with `prec` fractional digits, trailing zeros
/// (and a bare trailing dot) stripped. Never uses scientific notation: an
/// exponent's '+' would collide with the '+' separator in crash schedules.
std::string fmt_fixed(double v, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  std::string text = os.str();
  if (text.find('.') != std::string::npos) {
    while (text.back() == '0') text.pop_back();
    if (text.back() == '.') text.pop_back();
  }
  return text;
}

/// Shortest fixed-notation decimal string that strtod's back to exactly `v`.
std::string fmt_f64(double v) {
  for (int prec = 0; prec <= 17; ++prec) {
    const std::string text = fmt_fixed(v, prec);
    double back = 0.0;
    if (parse_f64(text, &back) && back == v) return text;
  }
  return fmt_fixed(v, 17);
}

std::string fmt_ms(sim::SimTime t) {
  return fmt_f64(static_cast<double>(t) / 1000.0);
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

bool power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Semantic validation of a fully parsed scenario; normalizes event order
/// (so canonical output is stable) and returns "" when sound.
std::string validate_scenario(Scenario& s) {
  if (!valid_name(s.name)) {
    return "[scenario] name is required and may only use a-z 0-9 . _ -";
  }
  if (s.image_size == 0) return "[scenario] image_size must be positive";
  if (s.payload_size == 0) return "[scenario] payload_size must be positive";
  if (s.k < 1 || s.n < s.k) return "[scenario] need 1 <= k <= n";
  if (s.k0 < 1 || s.n0 < s.k0) return "[scenario] need 1 <= k0 <= n0";
  if (!power_of_two(s.n0)) {
    return "[scenario] n0 must be a power of two (Merkle leaf count)";
  }
  if (s.puzzle_strength > 30) {
    return "[scenario] puzzle_strength must be <= 30";
  }

  const auto& t = s.topo;
  switch (t.kind) {
    case sim::TopologyKind::kStar:
      if (t.receivers < 1) return "[topology] star needs receivers >= 1";
      break;
    case sim::TopologyKind::kGrid:
      if (t.rows < 1 || t.cols < 1 || t.rows * t.cols < 2) {
        return "[topology] grid needs rows x cols >= 2";
      }
      if (t.spacing <= 0.0) return "[topology] spacing must be positive";
      break;
    case sim::TopologyKind::kRandomGeometric:
      if (t.nodes < 2) return "[topology] geometric needs nodes >= 2";
      if (t.width <= 0.0 || t.height <= 0.0) {
        return "[topology] width/height must be positive";
      }
      break;
    case sim::TopologyKind::kClustered:
      if (t.nodes < 2) return "[topology] clustered needs nodes >= 2";
      if (t.clusters < 1 || t.clusters > t.nodes) {
        return "[topology] need 1 <= clusters <= nodes";
      }
      if (t.cluster_radius <= 0.0) {
        return "[topology] cluster_radius must be positive";
      }
      if (t.width <= 0.0 || t.height <= 0.0) {
        return "[topology] width/height must be positive";
      }
      break;
    case sim::TopologyKind::kLine:
      if (t.nodes < 2) return "[topology] line needs nodes >= 2";
      if (t.spacing <= 0.0) return "[topology] spacing must be positive";
      break;
    case sim::TopologyKind::kRing:
      if (t.nodes < 2) return "[topology] ring needs nodes >= 2";
      if (t.radius <= 0.0) return "[topology] radius must be positive";
      break;
    case sim::TopologyKind::kCells: {
      const std::size_t cells = t.rows * t.cols;
      if (t.rows < 1 || t.cols < 1) {
        return "[topology] cells needs rows >= 1 and cols >= 1";
      }
      if (t.nodes % cells != 0) {
        return "[topology] cells needs nodes divisible by rows x cols";
      }
      if (t.nodes / cells < 2) {
        return "[topology] cells needs at least two nodes per cell";
      }
      if (t.width <= 0.0 || t.height <= 0.0) {
        return "[topology] width/height must be positive";
      }
      break;
    }
  }
  if (t.link.connected_radius <= 0.0 ||
      t.link.outer_radius <= t.link.connected_radius) {
    return "[topology] need 0 < connected_radius < outer_radius";
  }
  if (t.link.max_prr <= 0.0 || t.link.max_prr > 1.0) {
    return "[topology] max_prr must be in (0, 1]";
  }
  if (t.prr_jitter < 0.0 || t.prr_jitter >= 1.0) {
    return "[topology] prr_jitter must be in [0, 1)";
  }

  const std::size_t node_count = t.node_count();
  const auto& c = s.channel;
  if (c.loss < 0.0 || c.loss > 1.0) return "[channel] loss must be in [0, 1]";
  if (c.model == sim::ChannelSpec::Model::kPerNode) {
    if (!c.per_node.empty()) {
      if (c.per_node.size() != node_count) {
        return "[channel] per_node lists " +
               std::to_string(c.per_node.size()) + " probabilities for a " +
               std::to_string(node_count) + "-node topology";
      }
      for (const double p : c.per_node) {
        if (p < 0.0 || p > 1.0) {
          return "[channel] per_node probabilities must be in [0, 1]";
        }
      }
    } else if (c.loss_jitter < 0.0 || c.loss_jitter > 1.0) {
      return "[channel] loss_jitter must be in [0, 1]";
    }
  }
  if (c.model == sim::ChannelSpec::Model::kGilbertElliott) {
    if (c.ge.p_good < 0.0 || c.ge.p_good > 1.0 || c.ge.p_bad < 0.0 ||
        c.ge.p_bad > 1.0) {
      return "[channel] p_good/p_bad must be in [0, 1]";
    }
    if (c.ge.mean_good_dwell <= 0 || c.ge.mean_bad_dwell <= 0) {
      return "[channel] dwell times must be positive";
    }
  }

  const auto& f = s.faults;
  for (const double p : {f.corrupt_prob, f.truncate_prob, f.pad_prob,
                         f.duplicate_prob, f.reorder_prob}) {
    if (p < 0.0 || p > 1.0) return "[faults] probabilities must be in [0, 1]";
  }
  if (f.corrupt_prob > 0.0 && !f.corrupt_burst && f.corrupt_max_flips < 1) {
    return "[faults] corrupt_max_flips must be >= 1";
  }
  if (f.corrupt_prob > 0.0 && f.corrupt_burst && f.corrupt_burst_len < 1) {
    return "[faults] corrupt_burst_len must be >= 1";
  }
  if (f.pad_prob > 0.0 && f.max_pad < 1) {
    return "[faults] max_pad must be >= 1";
  }
  if (f.duplicate_prob > 0.0 && f.max_copies < 2) {
    return "[faults] max_copies must be >= 2";
  }
  if (f.reorder_prob > 0.0 && f.reorder_max_delay <= 0) {
    return "[faults] reorder_max_delay_ms must be positive";
  }
  const auto check_node = [node_count](NodeId node,
                                       const char* what) -> std::string {
    if (node < 1 || node >= node_count) {
      return std::string("[faults] ") + what + " node " +
             std::to_string(node) + " outside the receiver range [1, " +
             std::to_string(node_count) + ")";
    }
    return "";
  };
  for (const auto& e : f.crashes) {
    if (auto msg = check_node(e.node, "crash"); !msg.empty()) return msg;
    if (e.downtime <= 0) return "[faults] crash downtime must be positive";
  }
  for (const auto& e : s.late_joiners) {
    if (auto msg = check_node(e.node, "late_joiner"); !msg.empty()) return msg;
    if (e.at <= 0) return "[faults] late_joiner join time must be positive";
  }
  for (const auto& e : s.early_sleepers) {
    if (auto msg = check_node(e.node, "early_sleeper"); !msg.empty()) {
      return msg;
    }
  }

  if (s.repeats < 1) return "[trial] repeats must be >= 1";
  if (s.time_limit_s <= 0.0) return "[trial] time_limit_s must be positive";
  if (s.islands && (f.any() || !s.late_joiners.empty() ||
                    !s.early_sleepers.empty())) {
    return "[trial] islands = true is incompatible with [faults] (fault "
           "plans are whole-network schedules)";
  }

  const auto crash_less = [](const sim::CrashEvent& a,
                             const sim::CrashEvent& b) {
    return a.at != b.at ? a.at < b.at : a.node < b.node;
  };
  const auto event_less = [](const NodeEvent& a, const NodeEvent& b) {
    return a.at != b.at ? a.at < b.at : a.node < b.node;
  };
  std::stable_sort(s.faults.crashes.begin(), s.faults.crashes.end(),
                   crash_less);
  std::stable_sort(s.late_joiners.begin(), s.late_joiners.end(), event_less);
  std::stable_sort(s.early_sleepers.begin(), s.early_sleepers.end(),
                   event_less);
  return "";
}

// --- line parser ------------------------------------------------------------

struct Parser {
  Scenario s;
  std::string section;
  std::set<std::string> seen;  // "section.key" for duplicate detection
  std::string detail;          // set by key handlers on semantic failures

  bool unknown_key(const std::string& key) {
    detail = "unknown key '" + key + "' in section [" + section + "]";
    return false;
  }

  bool scenario_key(const std::string& key, const std::string& value) {
    if (key == "name") {
      s.name = value;
      return true;
    }
    if (key == "description") {
      s.description = value;
      return true;
    }
    if (key == "scheme") {
      const auto scheme = core::scheme_from_name(value);
      if (!scheme) {
        detail = "unknown scheme '" + value + "'";
        return false;
      }
      s.scheme = *scheme;
      return true;
    }
    if (key == "codec") {
      const auto codec = erasure::parse_codec_kind(value);
      if (!codec) {
        detail = "unknown codec '" + value + "'";
        return false;
      }
      s.codec = *codec;
      return true;
    }
    if (key == "image_size") return parse_size(value, &s.image_size);
    if (key == "payload_size") return parse_size(value, &s.payload_size);
    if (key == "k") return parse_size(value, &s.k);
    if (key == "n") return parse_size(value, &s.n);
    if (key == "k0") return parse_size(value, &s.k0);
    if (key == "n0") return parse_size(value, &s.n0);
    if (key == "delta") return parse_size(value, &s.delta);
    if (key == "puzzle_strength") {
      std::uint64_t u = 0;
      if (!parse_u64(value, &u) || u > 255) return false;
      s.puzzle_strength = static_cast<std::uint8_t>(u);
      return true;
    }
    if (key == "greedy_scheduler") {
      return parse_bool(value, &s.greedy_scheduler);
    }
    return unknown_key(key);
  }

  bool topology_key(const std::string& key, const std::string& value) {
    auto& t = s.topo;
    if (key == "kind") {
      if (!sim::topology_kind_from_name(value, &t.kind)) {
        detail = "unknown topology kind '" + value + "'";
        return false;
      }
      return true;
    }
    if (key == "receivers") return parse_size(value, &t.receivers);
    if (key == "rows") return parse_size(value, &t.rows);
    if (key == "cols") return parse_size(value, &t.cols);
    if (key == "nodes") return parse_size(value, &t.nodes);
    if (key == "clusters") return parse_size(value, &t.clusters);
    if (key == "seed") return parse_u64(value, &t.seed);
    if (key == "jitter_seed") return parse_u64(value, &t.jitter_seed);
    if (key == "spacing") return parse_f64(value, &t.spacing);
    if (key == "width") return parse_f64(value, &t.width);
    if (key == "height") return parse_f64(value, &t.height);
    if (key == "cluster_radius") return parse_f64(value, &t.cluster_radius);
    if (key == "radius") return parse_f64(value, &t.radius);
    if (key == "connected_radius") {
      return parse_f64(value, &t.link.connected_radius);
    }
    if (key == "outer_radius") return parse_f64(value, &t.link.outer_radius);
    if (key == "max_prr") return parse_f64(value, &t.link.max_prr);
    if (key == "prr_jitter") return parse_f64(value, &t.prr_jitter);
    return unknown_key(key);
  }

  bool channel_key(const std::string& key, const std::string& value) {
    auto& c = s.channel;
    if (key == "model") {
      if (!sim::channel_model_from_name(value, &c.model)) {
        detail = "unknown channel model '" + value + "'";
        return false;
      }
      return true;
    }
    if (key == "loss") return parse_f64(value, &c.loss);
    if (key == "loss_jitter") return parse_f64(value, &c.loss_jitter);
    if (key == "loss_seed") return parse_u64(value, &c.loss_seed);
    if (key == "per_node") {
      std::istringstream list(value);
      std::string item;
      c.per_node.clear();
      while (std::getline(list, item, ',')) {
        double p = 0.0;
        if (!parse_f64(trim(item), &p)) return false;
        c.per_node.push_back(p);
      }
      return !c.per_node.empty();
    }
    if (key == "p_good") return parse_f64(value, &c.ge.p_good);
    if (key == "p_bad") return parse_f64(value, &c.ge.p_bad);
    if (key == "good_dwell_ms") return parse_ms(value, &c.ge.mean_good_dwell);
    if (key == "bad_dwell_ms") return parse_ms(value, &c.ge.mean_bad_dwell);
    return unknown_key(key);
  }

  bool faults_key(const std::string& key, const std::string& value) {
    auto& f = s.faults;
    if (key == "corrupt_prob") return parse_f64(value, &f.corrupt_prob);
    if (key == "corrupt_max_flips") {
      return parse_size(value, &f.corrupt_max_flips);
    }
    if (key == "corrupt_burst") return parse_bool(value, &f.corrupt_burst);
    if (key == "corrupt_burst_len") {
      return parse_size(value, &f.corrupt_burst_len);
    }
    if (key == "truncate_prob") return parse_f64(value, &f.truncate_prob);
    if (key == "pad_prob") return parse_f64(value, &f.pad_prob);
    if (key == "max_pad") return parse_size(value, &f.max_pad);
    if (key == "duplicate_prob") return parse_f64(value, &f.duplicate_prob);
    if (key == "max_copies") return parse_size(value, &f.max_copies);
    if (key == "reorder_prob") return parse_f64(value, &f.reorder_prob);
    if (key == "reorder_max_delay_ms") {
      return parse_ms(value, &f.reorder_max_delay);
    }
    if (key == "crash") {
      sim::CrashEvent e;
      if (!parse_crash(value, &e)) return false;
      f.crashes.push_back(e);
      return true;
    }
    if (key == "late_joiner") {
      NodeEvent e;
      if (!parse_node_event(value, &e)) return false;
      s.late_joiners.push_back(e);
      return true;
    }
    if (key == "early_sleeper") {
      NodeEvent e;
      if (!parse_node_event(value, &e)) return false;
      s.early_sleepers.push_back(e);
      return true;
    }
    return unknown_key(key);
  }

  bool trial_key(const std::string& key, const std::string& value) {
    if (key == "repeats") return parse_size(value, &s.repeats);
    if (key == "seed") return parse_u64(value, &s.seed);
    if (key == "time_limit_s") return parse_f64(value, &s.time_limit_s);
    if (key == "check_invariants") {
      return parse_bool(value, &s.check_invariants);
    }
    if (key == "islands") return parse_bool(value, &s.islands);
    return unknown_key(key);
  }

  bool dispatch(const std::string& key, const std::string& value) {
    if (section == "scenario") return scenario_key(key, value);
    if (section == "topology") return topology_key(key, value);
    if (section == "channel") return channel_key(key, value);
    if (section == "faults") return faults_key(key, value);
    return trial_key(key, value);
  }
};

}  // namespace

std::size_t Scenario::expected_complete() const {
  // Under island execution every radio-connected component has its own base
  // station. All scenario topology kinds are connected by construction
  // except kCells, whose island count is exactly its cell count.
  const std::size_t bases =
      islands && topo.kind == sim::TopologyKind::kCells ? topo.rows * topo.cols
                                                        : 1;
  const std::size_t receivers = topo.node_count() - bases;
  // Early sleepers cannot be *expected* to finish (they might, if they
  // sleep late enough — this is the guaranteed floor).
  std::set<NodeId> asleep;
  for (const auto& e : early_sleepers) asleep.insert(e.node);
  return receivers - asleep.size();
}

std::optional<Scenario> parse_scenario(const std::string& text,
                                       std::string* error) {
  Parser p;
  int line_no = 0;
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + msg;
    }
    return std::nullopt;
  };

  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') return fail("malformed section header");
      p.section = trim(line.substr(1, line.size() - 2));
      if (p.section != "scenario" && p.section != "topology" &&
          p.section != "channel" && p.section != "faults" &&
          p.section != "trial") {
        return fail("unknown section [" + p.section + "]");
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail("expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (p.section.empty()) {
      return fail("key '" + key + "' outside any section");
    }
    if (key.empty()) return fail("empty key");
    const bool repeatable =
        key == "crash" || key == "late_joiner" || key == "early_sleeper";
    if (!repeatable && !p.seen.insert(p.section + "." + key).second) {
      return fail("duplicate key '" + key + "'");
    }
    if (!p.dispatch(key, value)) {
      return fail(p.detail.empty()
                      ? "invalid value '" + value + "' for key '" + key + "'"
                      : p.detail);
    }
  }

  if (const std::string msg = validate_scenario(p.s); !msg.empty()) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  }
  if (error != nullptr) error->clear();
  return p.s;
}

std::optional<Scenario> load_scenario_file(const std::string& path,
                                           std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string inner;
  auto s = parse_scenario(text.str(), &inner);
  if (!s && error != nullptr) *error = path + ": " + inner;
  return s;
}

std::string canonical_scenario(const Scenario& s) {
  std::ostringstream os;
  os << "[scenario]\n";
  os << "name = " << s.name << "\n";
  if (!s.description.empty()) os << "description = " << s.description << "\n";
  os << "scheme = " << core::scheme_name(s.scheme) << "\n";
  os << "image_size = " << s.image_size << "\n";
  os << "payload_size = " << s.payload_size << "\n";
  os << "k = " << s.k << "\n";
  os << "n = " << s.n << "\n";
  os << "k0 = " << s.k0 << "\n";
  os << "n0 = " << s.n0 << "\n";
  os << "delta = " << s.delta << "\n";
  os << "codec = " << erasure::codec_kind_name(s.codec) << "\n";
  os << "puzzle_strength = " << static_cast<unsigned>(s.puzzle_strength)
     << "\n";
  os << "greedy_scheduler = " << (s.greedy_scheduler ? "true" : "false")
     << "\n";

  const auto& t = s.topo;
  os << "\n[topology]\n";
  os << "kind = " << sim::topology_kind_name(t.kind) << "\n";
  switch (t.kind) {
    case sim::TopologyKind::kStar:
      os << "receivers = " << t.receivers << "\n";
      break;
    case sim::TopologyKind::kGrid:
      os << "rows = " << t.rows << "\n";
      os << "cols = " << t.cols << "\n";
      os << "spacing = " << fmt_f64(t.spacing) << "\n";
      break;
    case sim::TopologyKind::kRandomGeometric:
      os << "nodes = " << t.nodes << "\n";
      os << "width = " << fmt_f64(t.width) << "\n";
      os << "height = " << fmt_f64(t.height) << "\n";
      break;
    case sim::TopologyKind::kClustered:
      os << "nodes = " << t.nodes << "\n";
      os << "clusters = " << t.clusters << "\n";
      os << "cluster_radius = " << fmt_f64(t.cluster_radius) << "\n";
      os << "width = " << fmt_f64(t.width) << "\n";
      os << "height = " << fmt_f64(t.height) << "\n";
      break;
    case sim::TopologyKind::kLine:
      os << "nodes = " << t.nodes << "\n";
      os << "spacing = " << fmt_f64(t.spacing) << "\n";
      break;
    case sim::TopologyKind::kRing:
      os << "nodes = " << t.nodes << "\n";
      os << "radius = " << fmt_f64(t.radius) << "\n";
      break;
    case sim::TopologyKind::kCells:
      os << "nodes = " << t.nodes << "\n";
      os << "rows = " << t.rows << "\n";
      os << "cols = " << t.cols << "\n";
      os << "width = " << fmt_f64(t.width) << "\n";
      os << "height = " << fmt_f64(t.height) << "\n";
      break;
  }
  os << "seed = " << t.seed << "\n";
  os << "connected_radius = " << fmt_f64(t.link.connected_radius) << "\n";
  os << "outer_radius = " << fmt_f64(t.link.outer_radius) << "\n";
  os << "max_prr = " << fmt_f64(t.link.max_prr) << "\n";
  os << "prr_jitter = " << fmt_f64(t.prr_jitter) << "\n";
  if (t.prr_jitter > 0.0) os << "jitter_seed = " << t.jitter_seed << "\n";

  const auto& c = s.channel;
  os << "\n[channel]\n";
  os << "model = " << sim::channel_model_name(c.model) << "\n";
  switch (c.model) {
    case sim::ChannelSpec::Model::kPerfect:
      break;
    case sim::ChannelSpec::Model::kUniform:
      os << "loss = " << fmt_f64(c.loss) << "\n";
      break;
    case sim::ChannelSpec::Model::kPerNode:
      if (!c.per_node.empty()) {
        os << "per_node = ";
        for (std::size_t i = 0; i < c.per_node.size(); ++i) {
          os << (i ? "," : "") << fmt_f64(c.per_node[i]);
        }
        os << "\n";
      } else {
        os << "loss = " << fmt_f64(c.loss) << "\n";
        os << "loss_jitter = " << fmt_f64(c.loss_jitter) << "\n";
        os << "loss_seed = " << c.loss_seed << "\n";
      }
      break;
    case sim::ChannelSpec::Model::kGilbertElliott:
      os << "p_good = " << fmt_f64(c.ge.p_good) << "\n";
      os << "p_bad = " << fmt_f64(c.ge.p_bad) << "\n";
      os << "good_dwell_ms = " << fmt_ms(c.ge.mean_good_dwell) << "\n";
      os << "bad_dwell_ms = " << fmt_ms(c.ge.mean_bad_dwell) << "\n";
      break;
  }

  const auto& f = s.faults;
  const bool have_faults =
      f.any() || !s.late_joiners.empty() || !s.early_sleepers.empty();
  if (have_faults) {
    os << "\n[faults]\n";
    if (f.corrupt_prob > 0.0) {
      os << "corrupt_prob = " << fmt_f64(f.corrupt_prob) << "\n";
      os << "corrupt_burst = " << (f.corrupt_burst ? "true" : "false")
         << "\n";
      if (f.corrupt_burst) {
        os << "corrupt_burst_len = " << f.corrupt_burst_len << "\n";
      } else {
        os << "corrupt_max_flips = " << f.corrupt_max_flips << "\n";
      }
    }
    if (f.truncate_prob > 0.0) {
      os << "truncate_prob = " << fmt_f64(f.truncate_prob) << "\n";
    }
    if (f.pad_prob > 0.0) {
      os << "pad_prob = " << fmt_f64(f.pad_prob) << "\n";
      os << "max_pad = " << f.max_pad << "\n";
    }
    if (f.duplicate_prob > 0.0) {
      os << "duplicate_prob = " << fmt_f64(f.duplicate_prob) << "\n";
      os << "max_copies = " << f.max_copies << "\n";
    }
    if (f.reorder_prob > 0.0) {
      os << "reorder_prob = " << fmt_f64(f.reorder_prob) << "\n";
      os << "reorder_max_delay_ms = " << fmt_ms(f.reorder_max_delay) << "\n";
    }
    for (const auto& e : f.crashes) {
      os << "crash = " << e.node << "@" << fmt_ms(e.at) << "+"
         << fmt_ms(e.downtime) << "\n";
    }
    for (const auto& e : s.late_joiners) {
      os << "late_joiner = " << e.node << "@" << fmt_ms(e.at) << "\n";
    }
    for (const auto& e : s.early_sleepers) {
      os << "early_sleeper = " << e.node << "@" << fmt_ms(e.at) << "\n";
    }
  }

  os << "\n[trial]\n";
  os << "repeats = " << s.repeats << "\n";
  os << "seed = " << s.seed << "\n";
  os << "time_limit_s = " << fmt_f64(s.time_limit_s) << "\n";
  os << "check_invariants = " << (s.check_invariants ? "true" : "false")
     << "\n";
  if (s.islands) os << "islands = true\n";
  return os.str();
}

core::ExperimentConfig scenario_config(const Scenario& s) {
  core::ExperimentConfig c;
  c.scheme = s.scheme;
  c.image_size = s.image_size;
  c.params.payload_size = s.payload_size;
  c.params.k = s.k;
  c.params.n = s.n;
  c.params.k0 = s.k0;
  c.params.n0 = s.n0;
  c.params.delta = s.delta;
  c.params.codec = s.codec;
  c.params.puzzle_strength = s.puzzle_strength;
  c.params.lr_greedy_scheduler = s.greedy_scheduler;

  c.topo_spec = s.topo;
  c.channel = s.channel;
  if (c.channel.model == sim::ChannelSpec::Model::kPerNode &&
      c.channel.per_node.empty()) {
    // Heterogeneous p_i around the base loss, deterministic in loss_seed
    // (independent of the trial seed, so every trial of a scenario faces
    // the same node population).
    Rng rng(c.channel.loss_seed);
    const std::size_t nodes = s.topo.node_count();
    c.channel.per_node.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      const double p = c.channel.loss +
                       c.channel.loss_jitter * (2.0 * rng.uniform01() - 1.0);
      c.channel.per_node.push_back(std::clamp(p, 0.0, 1.0));
    }
  }

  c.faults = s.faults;
  for (const auto& e : s.late_joiners) {
    // Down from the start; "reboots" fresh at the join time.
    c.faults.crashes.push_back({e.node, 0, e.at});
  }
  for (const auto& e : s.early_sleepers) {
    c.faults.crashes.push_back({e.node, e.at, kSleepForever});
  }

  c.seed = s.seed;
  c.time_limit = sim::from_seconds(s.time_limit_s);
  c.check_invariants = s.check_invariants;
  c.islands = s.islands;

  // Paper-scale Trickle constants (bench/common.h paper_config); small
  // scenarios converge faster but stay correct under them.
  c.timing.trickle.tau_low = 2 * sim::kSecond;
  c.timing.trickle.tau_high = 60 * sim::kSecond;
  return c;
}

}  // namespace lrs::scenario
