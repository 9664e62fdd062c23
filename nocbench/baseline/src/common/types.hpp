// Fundamental scalar types and small enums shared by every nocsim module.
#pragma once

#include <cstdint>
#include <string_view>

namespace nocsim {

/// Simulation time, in clock cycles. The whole chip is one clock domain.
using Cycle = std::uint64_t;

/// Index of a node (router + core + L2 slice) in the network, row-major.
using NodeId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = -1;

/// Monotone per-source packet sequence number.
using PacketSeq = std::uint64_t;

/// A physical memory (block) address. Cache-block granularity addressing
/// uses the low bits as block offset.
using Addr = std::uint64_t;

/// Output/input port of a router. Cardinal directions (N/E/S/W for the 2D
/// plane, Up/Down for the third dimension) plus the local port. Irregular
/// topologies reuse ports 0..5 as plain link slots with no geometric
/// meaning. Local stays the highest value so `dirs < Local` scans work.
enum class Dir : std::uint8_t {
  North = 0,
  East = 1,
  South = 2,
  West = 3,
  Up = 4,
  Down = 5,
  Local = 6,
};

inline constexpr int kNumDirs = 6;          ///< neighbour ports
inline constexpr int kNumPorts = 7;         ///< neighbour + local

/// Pretty name for a port, for logs and test failure messages.
constexpr std::string_view to_string(Dir d) {
  switch (d) {
    case Dir::North: return "N";
    case Dir::East: return "E";
    case Dir::South: return "S";
    case Dir::West: return "W";
    case Dir::Up: return "U";
    case Dir::Down: return "D";
    case Dir::Local: return "L";
  }
  return "?";
}

/// The direction a link in direction `d` is entered from, at the far end.
/// Only meaningful on grid topologies; irregular graphs carry an explicit
/// per-link input slot instead.
constexpr Dir opposite(Dir d) {
  switch (d) {
    case Dir::North: return Dir::South;
    case Dir::East: return Dir::West;
    case Dir::South: return Dir::North;
    case Dir::West: return Dir::East;
    case Dir::Up: return Dir::Down;
    case Dir::Down: return Dir::Up;
    case Dir::Local: return Dir::Local;
  }
  return Dir::Local;
}

}  // namespace nocsim
