// Parameterized topology generators for the scenario subsystem.
//
// The paper evaluates two fixed shapes (one-hop star, 15x15 mica2 grid);
// related work evaluates dissemination on random geometric and clustered
// deployments at larger scale. TopologySpec is the declarative superset: a
// kind plus its parameters, buildable into the existing sim::Topology. All
// generators are deterministic in the spec's seed, and the stochastic ones
// (random geometric, clustered) run a seeded rejection loop until the
// placement is radio-connected, so every spec that validates yields a
// usable deployment bit-identically on every build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/topology.h"

namespace lrs::sim {

enum class TopologyKind {
  kStar,             // paper one-hop cell: base + `receivers` around it
  kGrid,             // rows x cols, spacing (paper multi-hop grids)
  kRandomGeometric,  // `nodes` uniform in width x height, connected
  kClustered,        // `clusters` hotspots of nodes in width x height
  kLine,             // corridor: `nodes` in a row, `spacing` apart
  kRing,             // `nodes` on a circle of `radius`
  kCells,            // rows x cols radio-isolated geometric cells (islands)
};

const char* topology_kind_name(TopologyKind k);
/// Inverse of topology_kind_name; false on unknown names.
bool topology_kind_from_name(const std::string& name, TopologyKind* out);

/// Declarative topology description. Only the fields of the chosen kind are
/// read (scenario validation rejects out-of-range values for that kind):
///   kStar             receivers, link
///   kGrid             rows, cols, spacing, link
///   kRandomGeometric  nodes, width, height, seed, link
///   kClustered        nodes, clusters, cluster_radius, width, height,
///                     seed, link
///   kLine             nodes, spacing, link
///   kRing             nodes, radius, link
///   kCells            nodes, rows, cols, width, height, seed, link
/// prr_jitter (with jitter_seed) applies to every kind.
///
/// kCells models a fleet of independent deployments: a rows x cols lattice
/// of cells, each holding nodes / (rows*cols) nodes placed as a connected
/// random-geometric cluster in its own width x height area. Cell areas are
/// separated by two outer radii, so no radio link (and no carrier) crosses
/// cells — every cell is one island for the island-parallel executor, with
/// node ids cell-major (cell c owns ids [c*per_cell, (c+1)*per_cell)).
struct TopologySpec {
  TopologyKind kind = TopologyKind::kStar;

  std::size_t receivers = 20;  // star (node count = receivers + 1)
  std::size_t rows = 15;       // grid
  std::size_t cols = 15;
  double spacing = 10.0;       // grid / line inter-node distance
  std::size_t nodes = 25;      // geometric / clustered / line / ring
  double width = 120.0;        // geometric / clustered area
  double height = 120.0;
  std::size_t clusters = 4;        // clustered hotspot count
  double cluster_radius = 10.0;    // node scatter around a hotspot center
  double radius = 60.0;            // ring circle radius
  std::uint64_t seed = 1;          // placement seed (stochastic kinds)

  LinkModel link{};  // PRR-vs-distance curve (mica2; star() below
                     // defaults to the error-free link instead)

  /// Per-link PRR heterogeneity in [0, 1): each directed link's PRR is
  /// scaled by a deterministic factor in [1 - prr_jitter, 1].
  double prr_jitter = 0.0;
  std::uint64_t jitter_seed = 0;  // 0 = derive from `seed`

  /// Total node count (base station included) the spec will produce.
  std::size_t node_count() const;

  /// The paper's two shapes with Topology::star's and Topology::grid's
  /// default links: an error-free one-hop cell (losses come from the
  /// channel alone, §VI-A) and a grid on the mica2 curve. The struct
  /// defaults above keep the mica2 curve for every kind, which scenario
  /// files and their canonical form rely on.
  static TopologySpec star(std::size_t receivers,
                           const LinkModel& link = LinkModel::perfect()) {
    return {.kind = TopologyKind::kStar, .receivers = receivers, .link = link};
  }
  static TopologySpec grid(std::size_t rows, std::size_t cols,
                           double spacing,
                           const LinkModel& link = LinkModel{}) {
    return {.kind = TopologyKind::kGrid, .rows = rows, .cols = cols,
            .spacing = spacing, .link = link};
  }
};

/// Builds the topology for a spec. Throws (LRS_CHECK) on invalid parameter
/// combinations and when a stochastic generator cannot find a connected
/// placement within its attempt budget — scenario validation rejects specs
/// before they get here in normal use.
Topology build_topology(const TopologySpec& spec);

}  // namespace lrs::sim
