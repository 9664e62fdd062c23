// File-backed instruction traces.
//
// The paper replays PinPoints-selected trace slices; users with access to
// real traces can do the same here. The format is deliberately trivial so
// any tool can produce it:
//
//   text format, one instruction per line:
//     "."            — a non-memory instruction
//     "m <hex-addr>" — a memory access to the given byte address
//     "# ..."        — comment (ignored), blank lines ignored
//
// A compact run-length shorthand "<N>" (a bare decimal) stands for N
// consecutive non-memory instructions, keeping real traces small (most
// instructions are non-memory).
//
// The trace loops when exhausted (cores need an infinite stream), matching
// how trace slices are replayed in the paper's methodology.
#pragma once

#include <string>
#include <vector>

#include "cpu/trace.hpp"

namespace nocsim {

class FileTrace final : public TraceSource {
 public:
  /// Parse from a file on disk. Aborts with a message on malformed input.
  static FileTrace load(const std::string& path);

  /// Parse from an in-memory string (testing, embedded traces).
  static FileTrace parse(const std::string& text, const std::string& origin = "<memory>");

  Insn next() override;

  [[nodiscard]] std::size_t instruction_count() const { return total_instructions_; }
  [[nodiscard]] std::size_t memory_op_count() const { return records_memory_; }

 private:
  struct Record {
    Addr addr = 0;
    std::uint32_t gap = 0;  ///< non-memory instructions before this access
    bool is_mem = false;    ///< false only for a trailing non-memory run
  };

  FileTrace() = default;

  std::vector<Record> records_;
  std::size_t total_instructions_ = 0;
  std::size_t records_memory_ = 0;

  std::size_t cursor_ = 0;   ///< current record
  std::uint32_t pos_ = 0;    ///< position within the current record's expansion
};

/// Serialize an instruction stream into the FileTrace text format
/// (run-length encodes non-memory gaps). Useful for capturing synthetic
/// traces into files and for tests.
std::string encode_trace(const std::vector<Insn>& instructions);

}  // namespace nocsim
