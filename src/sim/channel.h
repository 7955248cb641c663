// Per-reception loss models layered on top of the topology's base PRR.
//
// The paper's one-hop experiments emulate losses by dropping each received
// packet with probability p at the application layer (§VI-A); the multi-hop
// experiments add heavy RF noise from the TinyOS meyer-heavy trace. We model
// the former exactly (UniformLossModel) and substitute the latter with a
// Gilbert-Elliott two-state burst process — the standard synthetic source of
// bursty interference (see DESIGN.md). ChannelSpec is the declarative form
// every experiment and scenario file uses; make_loss_model builds it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "util/types.h"

namespace lrs::sim {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// True if the frame from `from` survives the channel to `to` at `now`
  /// (evaluated once per reception attempt, after PRR and collisions).
  virtual bool delivered(NodeId from, NodeId to, SimTime now, Rng& rng) = 0;
};

/// No extra losses beyond PRR/collisions.
std::unique_ptr<LossModel> make_perfect_channel();

/// Drops every reception independently with probability `p` — the paper's
/// one-hop loss-emulation strategy.
std::unique_ptr<LossModel> make_uniform_loss(double p);

/// Gilbert-Elliott burst noise: each receiver flips between a good state
/// (drop probability p_good) and a bad state (p_bad), with dwell times
/// exponentially distributed around the given means. Substitutes the
/// meyer-heavy RF noise trace.
struct GilbertElliottParams {
  double p_good = 0.05;
  double p_bad = 0.6;
  SimTime mean_good_dwell = 800 * kMillisecond;
  SimTime mean_bad_dwell = 200 * kMillisecond;
};

/// Channel description: which loss model rides on top of the topology PRR.
struct ChannelSpec {
  enum class Model { kPerfect, kUniform, kPerNode, kGilbertElliott };
  Model model = Model::kPerfect;

  double loss = 0.0;  // uniform drop probability; per-node base

  // kPerNode: heterogeneous p_i, as in the analysis of §V-A; per_node[i]
  // applies to receptions at node i. A scenario may instead leave
  // `per_node` empty and draw p_i uniformly from [loss - loss_jitter,
  // loss + loss_jitter] (clamped to [0, 1]) with the deterministic
  // `loss_seed` stream; scenario_config expands that draw into `per_node`
  // before anything runs.
  std::vector<double> per_node{};
  double loss_jitter = 0.0;
  std::uint64_t loss_seed = 1;

  GilbertElliottParams ge{};  // kGilbertElliott

  /// I.i.d. drops with probability p (the paper's one-hop channel).
  static ChannelSpec uniform(double p) {
    return {.model = Model::kUniform, .loss = p};
  }
  /// Gilbert-Elliott burst noise (the multi-hop tables' channel).
  static ChannelSpec gilbert_elliott(const GilbertElliottParams& ge = {}) {
    return {.model = Model::kGilbertElliott, .ge = ge};
  }
};

const char* channel_model_name(ChannelSpec::Model m);
/// Inverse of channel_model_name; false on unknown names.
bool channel_model_from_name(const std::string& name,
                             ChannelSpec::Model* out);

/// The loss model `spec` describes for a `node_count`-node network. Uniform
/// loss 0 builds the perfect channel. A per-node vector must cover every
/// node and hold probabilities in [0, 1]; a reception at a node past its
/// end fails loudly. Gilbert-Elliott drop probabilities must lie in [0, 1]
/// and both mean dwell times be positive (a zero or negative mean would
/// silently degenerate the exponential dwell draws); `seed` seeds their
/// per-node state processes. Violations throw (LRS_CHECK).
std::unique_ptr<LossModel> make_loss_model(const ChannelSpec& spec,
                                           std::size_t node_count,
                                           std::uint64_t seed);

}  // namespace lrs::sim
