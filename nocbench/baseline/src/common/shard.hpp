// Spatial tile partition for intra-run sharding of the cycle loop.
//
// Two tile shapes share one plan type:
//
//  * Row strips (width x height split into `shards` horizontal bands) — with
//    node ids assigned as y*width + x, each strip is a contiguous node-id
//    range.
//  * 2D column x row tiles (`ShardDims{cols, rows}`) — each tile owns a
//    rectangle of the mesh. Tiles are no longer contiguous in node-id space,
//    but each tile decomposes into one contiguous row-segment span per mesh
//    row it owns. On wide meshes this cuts halo traffic per tile boundary
//    from O(side) (full-width strip seams) to O(side/√shards) (rectangle
//    perimeters).
//
// Bit-exactness with the serial loop rests on a per-node event invariant,
// not on contiguity itself: every phase produces at most one ordered event
// per node per cycle, and each tile emits its events in ascending node-id
// order (tiles walk their bitmap words lowest-first). For contiguous strips,
// concatenating tile buffers in tile order therefore equals the serial
// ascending-node stream; for 2D tiles the consumers k-way merge the tile
// buffers by node id instead, which reconstructs exactly the same stream.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace nocsim {

/// 2D tiling request: cols x rows tiles. Inactive (either axis <= 0) means
/// "use row strips / serial"; see SimConfig::shard_dims.
struct ShardDims {
  int cols = 0;
  int rows = 0;
  [[nodiscard]] bool active() const { return cols > 0 && rows > 0; }
};

class ShardPlan {
 public:
  /// Half-open node-id range [lo, hi) owned by one tile (or one contiguous
  /// row segment of a 2D tile).
  struct TileRange {
    int lo;
    int hi;
  };

  /// Row-strip plan: one worker per horizontal band. More shards than rows
  /// would leave empty tiles, so the tile count is capped at the row count.
  ShardPlan(int width, int height, int shards) {
    NOCSIM_CHECK(width > 0 && height > 0 && shards >= 1);
    const int t = std::min(shards, height);
    std::vector<std::vector<TileRange>> spans(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      const int row_lo = i * height / t;
      const int row_hi = (i + 1) * height / t;
      spans[static_cast<std::size_t>(i)].push_back(TileRange{row_lo * width, row_hi * width});
    }
    build(width * height, std::move(spans));
  }

  /// 2D plan: dims.cols x dims.rows rectangular tiles, capped at the mesh
  /// extent per axis. Tile (tx, ty) is tile index ty*cols + tx.
  ShardPlan(int width, int height, ShardDims dims) {
    NOCSIM_CHECK(width > 0 && height > 0 && dims.active());
    const int cx = std::min(dims.cols, width);
    const int cy = std::min(dims.rows, height);
    std::vector<std::vector<TileRange>> spans;
    spans.reserve(static_cast<std::size_t>(cx) * static_cast<std::size_t>(cy));
    for (int ty = 0; ty < cy; ++ty) {
      const int y_lo = ty * height / cy;
      const int y_hi = (ty + 1) * height / cy;
      for (int tx = 0; tx < cx; ++tx) {
        const int x_lo = tx * width / cx;
        const int x_hi = (tx + 1) * width / cx;
        std::vector<TileRange> tile;
        tile.reserve(static_cast<std::size_t>(y_hi - y_lo));
        for (int y = y_lo; y < y_hi; ++y)
          tile.push_back(TileRange{y * width + x_lo, y * width + x_hi});
        spans.push_back(std::move(tile));
      }
    }
    build(width * height, std::move(spans));
  }

  [[nodiscard]] int tiles() const { return static_cast<int>(spans_.size()); }

  /// The contiguous node-id range of a row-strip tile. Only meaningful for
  /// single-span tiles; 2D consumers must iterate spans() instead.
  [[nodiscard]] TileRange range(int t) const {
    const auto& s = spans_[static_cast<std::size_t>(t)];
    NOCSIM_CHECK_MSG(s.size() == 1, "range() on a non-contiguous 2D tile; use spans()");
    return s.front();
  }

  /// Contiguous node-id segments of tile t, ascending. Row strips have one
  /// span; a 2D tile has one per mesh row it owns.
  [[nodiscard]] const std::vector<TileRange>& spans(int t) const {
    return spans_[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] int tile_of(int node) const {
    return node_tile_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] bool owns(int t, int node) const {
    return node_tile_[static_cast<std::size_t>(node)] == t;
  }

  /// Dense index of `node` within its owning tile (ascending node-id order),
  /// for per-tile arena lanes. Spans every node of the mesh.
  [[nodiscard]] std::uint32_t local_of(int node) const {
    return local_of_[static_cast<std::size_t>(node)];
  }
  /// Node count of tile t.
  [[nodiscard]] int tile_nodes(int t) const { return tile_nodes_[static_cast<std::size_t>(t)]; }

  /// First / one-past-last 64-bit bitmap word a tile's nodes touch. Boundary
  /// words are shared with neighbouring tiles (a 4x4 mesh split 4 ways has
  /// all tiles in word 0), which is why sharded bitmap updates go through
  /// std::atomic_ref. For 2D tiles, interior words of this range may carry a
  /// zero mask (rows interleave between tiles); scans skip them via
  /// word_mask.
  [[nodiscard]] std::size_t word_lo(int t) const { return word_lo_[static_cast<std::size_t>(t)]; }
  [[nodiscard]] std::size_t word_hi(int t) const { return word_hi_[static_cast<std::size_t>(t)]; }
  /// Bits of word w that belong to tile t (0 outside [word_lo, word_hi)).
  [[nodiscard]] std::uint64_t word_mask(int t, std::size_t w) const {
    return masks_[static_cast<std::size_t>(t)][w];
  }

 private:
  void build(int nodes, std::vector<std::vector<TileRange>> spans) {
    spans_ = std::move(spans);
    NOCSIM_CHECK(spans_.size() <= 255);  // node_tile_ is uint8
    node_tile_.assign(static_cast<std::size_t>(nodes), 0);
    local_of_.assign(static_cast<std::size_t>(nodes), 0);
    tile_nodes_.assign(spans_.size(), 0);
    const std::size_t words = (static_cast<std::size_t>(nodes) + 63) / 64;
    masks_.assign(spans_.size(), std::vector<std::uint64_t>(words, 0));
    word_lo_.assign(spans_.size(), 0);
    word_hi_.assign(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::uint32_t local = 0;
      for (const TileRange& r : spans_[i]) {
        NOCSIM_CHECK(r.lo < r.hi);
        for (int n = r.lo; n < r.hi; ++n) {
          node_tile_[static_cast<std::size_t>(n)] = static_cast<std::uint8_t>(i);
          local_of_[static_cast<std::size_t>(n)] = local++;
          masks_[i][static_cast<std::size_t>(n) / 64] |= 1ULL << (static_cast<std::size_t>(n) % 64);
        }
      }
      tile_nodes_[i] = static_cast<int>(local);
      word_lo_[i] = static_cast<std::size_t>(spans_[i].front().lo) / 64;
      word_hi_[i] = (static_cast<std::size_t>(spans_[i].back().hi) + 63) / 64;
    }
  }

  std::vector<std::vector<TileRange>> spans_;  ///< [tile] -> ascending segments
  std::vector<std::uint8_t> node_tile_;
  std::vector<std::uint32_t> local_of_;        ///< node -> dense index in its tile
  std::vector<int> tile_nodes_;
  std::vector<std::vector<std::uint64_t>> masks_;  ///< [tile][word] ownership bits
  std::vector<std::size_t> word_lo_, word_hi_;
};

}  // namespace nocsim
