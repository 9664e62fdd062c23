// Flits: the unit of routing and link allocation.
//
// Following FLIT-BLESS (Moscibroda & Mutlu, ISCA'09), every flit carries full
// routing state (src, dst, packet id, flit index) because deflections can
// separate the flits of one packet; the receiver reassembles. The same struct
// is used by the buffered fabric, where flits of a packet stay together in a
// wormhole (the extra header fields are then redundant but harmless).
//
// Storage-wise the flit is split hot/cold. `FlitHeader` holds exactly the
// fields that arbitration touches every cycle — the `older_than` age-order
// keys, the destination (route preference / ejection test), and the VC /
// congestion state bits. `FlitPayload` holds everything that is only read at
// injection and ejection (address, accounting counters, packet framing).
// Fabric containers (latch banks, VC FIFOs, `FlitRing`) store the two parts
// in parallel SoA lanes so the per-cycle arbitration loops stream compact
// 20-byte headers and the cold half only moves when a flit actually moves.
// `Flit` remains the assembled view used at the NI boundary and in tests.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace nocsim {

/// What a packet is for. The congestion controller treats these classes
/// differently: only Request traffic is ever throttled (paper §5, "How to
/// Throttle"); Response and Control traffic always flows freely.
enum class PacketKind : std::uint8_t {
  Request = 0,   ///< L1-miss data request, core -> L2 home slice (1 flit)
  Response = 1,  ///< data reply, L2 home slice -> core (1 + data flits)
  Control = 2,   ///< congestion-control report/rate packets (1 flit)
};

/// Hot half: the fields the per-cycle arbitration loops read for every
/// candidate flit — the `older_than` keys (inject_cycle, src, packet,
/// flit_idx), the destination, and the routing state bits. 20 bytes, so a
/// node's four-port latch row of headers fits in two cachelines where the
/// full 40-byte flit needed three.
struct FlitHeader {
  NodeId src = kInvalidNode;       ///< injecting node (age tie-break)
  NodeId dst = kInvalidNode;       ///< destination node
  std::uint32_t packet = 0;        ///< per-source packet sequence number
  std::uint32_t inject_cycle = 0;  ///< when it entered the network (age basis)
  std::uint8_t flit_idx = 0;       ///< index of this flit within the packet
  /// Buffered-torus dateline state: bit 0 = VC class (set after crossing
  /// the current dimension's wrap link), bit 1 = routing in the y phase.
  std::uint8_t vc_state = 0;
  /// Congestion bit for the distributed ("TCP-like") controller of §6.6:
  /// set by any starved router the flit passes through.
  bool congested_bit = false;
};
static_assert(sizeof(FlitHeader) <= 20, "FlitHeader grew: arbitration streams these");

/// Cold half: read at injection and ejection, plus the per-hop accounting
/// counters. Never consulted by route selection or age arbitration.
struct FlitPayload {
  Addr addr = 0;                    ///< block address (Requests/Responses)
  /// The core the packet serves: the requesting core for a Request and for
  /// the Response that fills it (kInvalidNode for Control). On concentrated
  /// topologies several cores share src/dst routers, so delivery and flit
  /// attribution key on this instead of the router ids.
  NodeId origin = kInvalidNode;
  std::uint32_t enqueue_cycle = 0;  ///< when the flit entered the NI queue
  std::uint16_t hops = 0;           ///< links traversed so far
  std::uint16_t deflections = 0;    ///< times misrouted (BLESS only)
  std::uint8_t packet_len = 1;      ///< total flits in the packet
  PacketKind kind = PacketKind::Request;
};
static_assert(sizeof(FlitPayload) <= 24, "FlitPayload grew: check fabric lane cost");

/// Assembled view: what crosses the NI boundary (enqueue, inject, eject
/// sink) and what tests construct. Fabric-internal containers do not store
/// this form; they keep header/payload lanes and assemble on ejection.
struct Flit {
  Addr addr = 0;                   ///< block address (Requests/Responses)
  NodeId src = kInvalidNode;       ///< injecting node
  NodeId dst = kInvalidNode;       ///< destination node
  NodeId origin = kInvalidNode;    ///< see FlitPayload::origin
  std::uint32_t packet = 0;        ///< per-source packet sequence number
  std::uint32_t enqueue_cycle = 0; ///< when the flit entered the NI queue
  std::uint32_t inject_cycle = 0;  ///< when it entered the network (age basis)
  std::uint16_t hops = 0;          ///< links traversed so far
  std::uint16_t deflections = 0;   ///< times misrouted (BLESS only)
  std::uint8_t flit_idx = 0;       ///< index of this flit within the packet
  std::uint8_t packet_len = 1;     ///< total flits in the packet
  PacketKind kind = PacketKind::Request;
  std::uint8_t vc_state = 0;       ///< see FlitHeader::vc_state

  bool congested_bit = false;      ///< see FlitHeader::congested_bit
};
static_assert(sizeof(Flit) <= 48, "Flit grew: check the fabric hot-path cost");

/// Lossless split/assemble between the boundary view and the SoA lanes.
constexpr FlitHeader header_of(const Flit& f) {
  return {f.src, f.dst, f.packet, f.inject_cycle, f.flit_idx, f.vc_state, f.congested_bit};
}

constexpr FlitPayload payload_of(const Flit& f) {
  return {f.addr, f.origin, f.enqueue_cycle, f.hops, f.deflections, f.packet_len, f.kind};
}

constexpr Flit assemble_flit(const FlitHeader& h, const FlitPayload& p) {
  Flit f;
  f.addr = p.addr;
  f.origin = p.origin;
  f.src = h.src;
  f.dst = h.dst;
  f.packet = h.packet;
  f.enqueue_cycle = p.enqueue_cycle;
  f.inject_cycle = h.inject_cycle;
  f.hops = p.hops;
  f.deflections = p.deflections;
  f.flit_idx = h.flit_idx;
  f.packet_len = p.packet_len;
  f.kind = p.kind;
  f.vc_state = h.vc_state;
  f.congested_bit = h.congested_bit;
  return f;
}

/// Oldest-first total order (paper §2.2): primary key is injection time
/// (age), ties broken by source id then packet then flit index, forming a
/// total order over all in-flight flits. Returns true if `a` strictly
/// precedes (is older than / outranks) `b`. Every key lives in the hot
/// header — age arbitration never touches the payload lane.
constexpr bool older_than(const FlitHeader& a, const FlitHeader& b) {
  if (a.inject_cycle != b.inject_cycle) return a.inject_cycle < b.inject_cycle;
  if (a.src != b.src) return a.src < b.src;
  if (a.packet != b.packet) return a.packet < b.packet;
  return a.flit_idx < b.flit_idx;
}

constexpr bool older_than(const Flit& a, const Flit& b) {
  if (a.inject_cycle != b.inject_cycle) return a.inject_cycle < b.inject_cycle;
  if (a.src != b.src) return a.src < b.src;
  if (a.packet != b.packet) return a.packet < b.packet;
  return a.flit_idx < b.flit_idx;
}

}  // namespace nocsim
