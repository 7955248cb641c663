#include "sim/channel.h"

#include <cmath>

#include "util/check.h"

namespace lrs::sim {

namespace {

class PerfectChannel final : public LossModel {
 public:
  bool delivered(NodeId, NodeId, SimTime, Rng&) override { return true; }
};

class UniformLoss final : public LossModel {
 public:
  explicit UniformLoss(double p) : p_(p) { LRS_CHECK(p >= 0.0 && p <= 1.0); }
  bool delivered(NodeId, NodeId, SimTime, Rng& rng) override {
    return !rng.bernoulli(p_);
  }

 private:
  double p_;
};

class PerNodeLoss final : public LossModel {
 public:
  explicit PerNodeLoss(std::vector<double> p) : p_(std::move(p)) {
    for (std::size_t i = 0; i < p_.size(); ++i) {
      LRS_CHECK_MSG(p_[i] >= 0.0 && p_[i] <= 1.0,
                    "per-node loss probability p[" + std::to_string(i) +
                        "] = " + std::to_string(p_[i]) +
                        " outside [0, 1]");
    }
  }
  bool delivered(NodeId, NodeId to, SimTime, Rng& rng) override {
    LRS_CHECK_MSG(to < p_.size(),
                  "per-node loss vector has " + std::to_string(p_.size()) +
                      " entries but node " + std::to_string(to) +
                      " received a frame — vector shorter than the network");
    return !rng.bernoulli(p_[to]);
  }

 private:
  std::vector<double> p_;
};

class GilbertElliott final : public LossModel {
 public:
  GilbertElliott(GilbertElliottParams params, std::size_t node_count,
                 std::uint64_t seed)
      : params_(params), rng_(seed) {
    LRS_CHECK_MSG(params.p_good >= 0.0 && params.p_good <= 1.0,
                  "Gilbert-Elliott p_good outside [0, 1]");
    LRS_CHECK_MSG(params.p_bad >= 0.0 && params.p_bad <= 1.0,
                  "Gilbert-Elliott p_bad outside [0, 1]");
    LRS_CHECK_MSG(params.mean_good_dwell > 0,
                  "Gilbert-Elliott mean_good_dwell must be positive");
    LRS_CHECK_MSG(params.mean_bad_dwell > 0,
                  "Gilbert-Elliott mean_bad_dwell must be positive");
    states_.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      // Stagger initial phases so nodes do not fade in lockstep.
      State s;
      s.bad = rng_.bernoulli(stationary_bad_probability());
      s.until = sample_dwell(s.bad);
      states_.push_back(s);
    }
  }

  bool delivered(NodeId, NodeId to, SimTime now, Rng& rng) override {
    LRS_CHECK(to < states_.size());
    State& s = states_[to];
    // Lazily advance the two-state Markov process to `now`.
    while (s.until <= now) {
      s.bad = !s.bad;
      s.until += sample_dwell(s.bad);
    }
    return !rng.bernoulli(s.bad ? params_.p_bad : params_.p_good);
  }

 private:
  struct State {
    bool bad = false;
    SimTime until = 0;
  };

  double stationary_bad_probability() const {
    const double g = static_cast<double>(params_.mean_good_dwell);
    const double b = static_cast<double>(params_.mean_bad_dwell);
    return b / (g + b);
  }

  SimTime sample_dwell(bool bad) {
    const double mean = static_cast<double>(bad ? params_.mean_bad_dwell
                                                : params_.mean_good_dwell);
    const double u = 1.0 - rng_.uniform01();
    const double d = -mean * std::log(u);
    return std::max<SimTime>(1, static_cast<SimTime>(d));
  }

  GilbertElliottParams params_;
  Rng rng_;
  std::vector<State> states_;
};

}  // namespace

std::unique_ptr<LossModel> make_perfect_channel() {
  return std::make_unique<PerfectChannel>();
}

std::unique_ptr<LossModel> make_uniform_loss(double p) {
  return std::make_unique<UniformLoss>(p);
}

const char* channel_model_name(ChannelSpec::Model m) {
  switch (m) {
    case ChannelSpec::Model::kPerfect: return "perfect";
    case ChannelSpec::Model::kUniform: return "uniform";
    case ChannelSpec::Model::kPerNode: return "per_node";
    case ChannelSpec::Model::kGilbertElliott: return "gilbert_elliott";
  }
  return "?";
}

bool channel_model_from_name(const std::string& name,
                             ChannelSpec::Model* out) {
  for (const ChannelSpec::Model m :
       {ChannelSpec::Model::kPerfect, ChannelSpec::Model::kUniform,
        ChannelSpec::Model::kPerNode, ChannelSpec::Model::kGilbertElliott}) {
    if (name == channel_model_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

std::unique_ptr<LossModel> make_loss_model(const ChannelSpec& spec,
                                           std::size_t node_count,
                                           std::uint64_t seed) {
  switch (spec.model) {
    case ChannelSpec::Model::kPerfect:
      break;
    case ChannelSpec::Model::kUniform:
      if (spec.loss > 0.0) return make_uniform_loss(spec.loss);
      break;
    case ChannelSpec::Model::kPerNode:
      LRS_CHECK_MSG(spec.per_node.size() >= node_count,
                    "per-node loss vector has " +
                        std::to_string(spec.per_node.size()) +
                        " entries for a " + std::to_string(node_count) +
                        "-node network");
      return std::make_unique<PerNodeLoss>(spec.per_node);
    case ChannelSpec::Model::kGilbertElliott:
      return std::make_unique<GilbertElliott>(spec.ge, node_count, seed);
  }
  return make_perfect_channel();
}

}  // namespace lrs::sim
