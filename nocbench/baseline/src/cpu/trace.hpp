// The instruction stream abstraction consumed by the core model.
//
// The paper replays PinPoints-selected SPEC CPU2006 trace slices; we
// substitute synthetic generators (src/workload) that reproduce the traffic-
// relevant properties — memory-op density, L1 miss behaviour via working-set
// structure, and phase behaviour. The core model is agnostic: anything that
// yields an infinite stream of Insn works, including file-backed traces.
#pragma once

#include "common/types.hpp"

namespace nocsim {

struct Insn {
  bool is_mem = false;
  Addr addr = 0;  ///< byte address, meaningful only when is_mem
};

class TraceSource {
 public:
  virtual ~TraceSource() = default;
  /// Produce the next instruction. Must never exhaust (generators loop).
  virtual Insn next() = 0;
};

}  // namespace nocsim
