// Network topologies as explicit link graphs.
//
// Every topology — 2D/3D mesh, 2D/3D torus, concentrated mesh, and
// file-loaded irregular graphs — is a directed graph of per-port links over
// router nodes. Grid families keep their analytic coordinate math
// (distance, dimension-order route preference) as pure functions; irregular
// graphs answer the same queries from Dijkstra-built tables (see
// topology/route_tables.hpp). The fabric layer consumes only the graph
// (ports, input slots, latencies) plus the routing tables the builder
// produces, so one router implementation drives every family.
//
// Coordinate convention: x grows East, y grows South (row 0 is the north
// edge), z grows Down. Node id = x + width * (y + height * z). Concentrated
// meshes attach `concentration` cores to every router: core id =
// router * concentration + k.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace nocsim {

struct Coord {
  int x = 0;
  int y = 0;
  int z = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Up to two productive directions (dimension order: x, then y, then z)
/// plus how many are valid. The first valid entry is *the* preferred port;
/// the second is the port that becomes preferred after the first dimension's
/// offset is consumed (useful for deflection-tolerant port ranking). A node
/// can have three productive dimensions in 3D; the table keeps the first two
/// in dimension order.
struct RoutePreference {
  std::array<Dir, 2> dirs{Dir::Local, Dir::Local};
  int count = 0;  ///< 0 means "already at destination"
};

struct RouteTables;  // topology/route_tables.hpp

class Topology {
 public:
  enum class Kind : std::uint8_t { Mesh, Torus, Mesh3D, Torus3D, CMesh, Irregular };

  /// One directed link out of a node, indexed by output port (0..kNumDirs).
  /// `in_slot` is the input latch slot the link lands in at `to` — on grids
  /// it equals opposite(port) so the 2D latch layout is unchanged; irregular
  /// graphs pack slots densely. `dim`/`wrap` drive the torus dateline VC
  /// transform; `latency`/`width` are the link's physical parameters (used
  /// as Dijkstra weights; the fabric's uniform hop timing is unchanged —
  /// see ROADMAP item 3 for the full Link abstraction).
  struct Link {
    NodeId to = kInvalidNode;
    std::uint8_t in_slot = 0;
    std::uint8_t dim = 0;
    bool wrap = false;
    std::uint16_t latency = 1;
    std::uint16_t width = 1;
  };

  /// Reverse edge for input slot `s` of a node: which node and output port
  /// feeds it (credit returns walk this, replacing the grid-only
  /// opposite(dir) convention).
  struct InLink {
    NodeId from = kInvalidNode;
    std::uint8_t from_port = 0;
  };

  virtual ~Topology() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] int num_nodes() const { return width_ * height_ * depth_; }

  /// Cores per router (1 everywhere except the concentrated mesh).
  [[nodiscard]] int concentration() const { return concentration_; }
  [[nodiscard]] int num_cores() const { return num_nodes() * concentration_; }
  [[nodiscard]] NodeId router_of(NodeId core) const { return core / concentration_; }

  [[nodiscard]] Coord coord_of(NodeId n) const {
    NOCSIM_DCHECK(n >= 0 && n < num_nodes());
    return {n % width_, (n / width_) % height_, n / (width_ * height_)};
  }

  [[nodiscard]] NodeId node_at(Coord c) const {
    NOCSIM_DCHECK(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_ && c.z >= 0 &&
                  c.z < depth_);
    return c.x + width_ * (c.y + height_ * c.z);
  }

  /// Neighbour of `n` through output port `d`, or kInvalidNode if the port
  /// is unused (mesh edge, absent irregular link).
  [[nodiscard]] NodeId neighbor(NodeId n, Dir d) const {
    return links_[static_cast<std::size_t>(n)][static_cast<std::size_t>(d)].to;
  }

  [[nodiscard]] const Link& link(NodeId n, int port) const {
    return links_[static_cast<std::size_t>(n)][static_cast<std::size_t>(port)];
  }
  [[nodiscard]] const InLink& in_link(NodeId n, int slot) const {
    return in_links_[static_cast<std::size_t>(n)][static_cast<std::size_t>(slot)];
  }

  /// Minimal hop distance between two nodes.
  [[nodiscard]] virtual int distance(NodeId a, NodeId b) const = 0;

  /// Productive ports from `from` toward `to` (dimension order on grids,
  /// table-ranked on irregular graphs).
  [[nodiscard]] virtual RoutePreference route_preference(NodeId from, NodeId to) const = 0;

  /// Number of usable output ports at `n`.
  [[nodiscard]] int degree(NodeId n) const { return out_degree_[static_cast<std::size_t>(n)]; }
  [[nodiscard]] int in_degree(NodeId n) const { return in_degree_[static_cast<std::size_t>(n)]; }

  /// One past the highest input slot in use at any node: the input-latch
  /// lane stride the fabric sizes its banks with (4 on 2D grids, 6 in 3D).
  [[nodiscard]] int in_slot_bound() const { return in_slot_bound_; }
  /// Any dateline-crossing link present (torus families): the buffered
  /// fabric splits its VCs into dateline classes iff this holds.
  [[nodiscard]] bool has_wrap() const { return has_wrap_; }

 protected:
  Topology(Kind kind, int width, int height, int depth, int concentration)
      : kind_(kind), width_(width), height_(height), depth_(depth),
        concentration_(concentration) {
    NOCSIM_CHECK(width > 0 && height > 0 && depth > 0 && concentration > 0);
  }

  /// Install the per-port link table and derive in-links, degrees, and the
  /// slot bound. Called exactly once from each subclass constructor.
  void finalize_links(std::vector<std::array<Link, kNumDirs>> links);

  Kind kind_;
  int width_;
  int height_;
  int depth_;
  int concentration_;

 private:
  std::vector<std::array<Link, kNumDirs>> links_;
  std::vector<std::array<InLink, kNumDirs>> in_links_;
  std::vector<std::uint8_t> out_degree_;
  std::vector<std::uint8_t> in_degree_;
  int in_slot_bound_ = 0;
  bool has_wrap_ = false;
};

/// Shared implementation for every grid family: k-ary n-cube with optional
/// per-dimension wraparound. Distance and route preference are the analytic
/// dimension-order forms (torus rings take the shorter way; ties go to the
/// positive direction), identical to the Dijkstra tables the fabric builds.
class GridTopology : public Topology {
 public:
  [[nodiscard]] int distance(NodeId a, NodeId b) const override;
  [[nodiscard]] RoutePreference route_preference(NodeId from, NodeId to) const override;

 protected:
  GridTopology(Kind kind, int width, int height, int depth, int concentration, bool wrap);

  bool wrap_;
};

/// 2D mesh: no wraparound; edge routers have degree 2 or 3.
class Mesh final : public GridTopology {
 public:
  Mesh(int width, int height) : GridTopology(Kind::Mesh, width, height, 1, 1, false) {}
  [[nodiscard]] std::string name() const override { return "mesh"; }
};

/// 2D torus: wraparound links; XY routing takes the shorter way around each
/// dimension (ties go to the positive direction).
class Torus final : public GridTopology {
 public:
  Torus(int width, int height) : GridTopology(Kind::Torus, width, height, 1, 1, true) {}
  [[nodiscard]] std::string name() const override { return "torus"; }
};

/// 3D mesh: dimension-ordered XYZ routing.
class Mesh3D final : public GridTopology {
 public:
  Mesh3D(int width, int height, int depth)
      : GridTopology(Kind::Mesh3D, width, height, depth, 1, false) {}
  [[nodiscard]] std::string name() const override { return "mesh3d"; }
};

/// 3D torus: per-dimension rings with dateline escape classes.
class Torus3D final : public GridTopology {
 public:
  Torus3D(int width, int height, int depth)
      : GridTopology(Kind::Torus3D, width, height, depth, 1, true) {}
  [[nodiscard]] std::string name() const override { return "torus3d"; }
};

/// Concentrated mesh: a 2D mesh of routers with `kConcentration` cores
/// fanned into each router's network interface. The fabric graph is the
/// plain router mesh; concentration only changes how many cores the
/// simulator attaches per router.
class CMesh final : public GridTopology {
 public:
  static constexpr int kConcentration = 4;
  CMesh(int width, int height)
      : GridTopology(Kind::CMesh, width, height, 1, kConcentration, false) {}
  [[nodiscard]] std::string name() const override { return "cmesh"; }
};

/// Irregular topology loaded from a text graph file:
///
///   # comment
///   nodes N
///   link SRC DST [latency L] [width W]
///
/// Each `link` line is one directed link (list both directions for a
/// bidirectional channel). Ports are assigned in ascending destination
/// order, input slots in ascending source order, so the graph — and every
/// routing table built from it — is a pure function of the file content.
/// Malformed files, self/duplicate links, zero latency/width, more than
/// kNumDirs links per node, and graphs that are not strongly connected are
/// all rejected with a CHECK.
class IrregularTopology final : public Topology {
 public:
  explicit IrregularTopology(const std::string& path);
  ~IrregularTopology() override;

  [[nodiscard]] std::string name() const override { return "irregular"; }
  [[nodiscard]] int distance(NodeId a, NodeId b) const override;
  [[nodiscard]] RoutePreference route_preference(NodeId from, NodeId to) const override;

 private:
  std::unique_ptr<RouteTables> tables_;
};

/// Config-driven topology selection. `file` is required for "irregular"
/// (and its node count must equal width*height*depth so SimConfig-derived
/// sizing stays consistent).
struct TopologySpec {
  std::string name = "mesh";
  int width = 4;
  int height = 4;
  int depth = 1;
  std::string file;
};

std::unique_ptr<Topology> make_topology(const TopologySpec& spec);

/// Legacy 2D factory (kept for tests and callers that predate TopologySpec).
std::unique_ptr<Topology> make_topology(const std::string& name, int width, int height);

/// Node count declared by an irregular topology file (the `nodes N` header),
/// so benches can size SimConfig before constructing the topology.
int peek_topology_nodes(const std::string& path);

}  // namespace nocsim
