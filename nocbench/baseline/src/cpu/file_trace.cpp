#include "cpu/file_trace.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace nocsim {
namespace {

[[noreturn]] void parse_error(const std::string& origin, int line, const std::string& what) {
  std::fprintf(stderr, "FileTrace: %s:%d: %s\n", origin.c_str(), line, what.c_str());
  std::abort();
}

}  // namespace

FileTrace FileTrace::load(const std::string& path) {
  std::ifstream in(path);
  NOCSIM_CHECK_MSG(in.good(), "FileTrace: cannot open trace file");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), path);
}

FileTrace FileTrace::parse(const std::string& text, const std::string& origin) {
  FileTrace trace;
  std::istringstream in(text);
  std::string line;
  std::uint32_t pending_gap = 0;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Trim leading whitespace; skip blanks and comments.
    std::size_t start = 0;
    while (start < line.size() && std::isspace(static_cast<unsigned char>(line[start])))
      ++start;
    if (start == line.size() || line[start] == '#') continue;

    const char c = line[start];
    if (c == '.') {
      ++pending_gap;
      ++trace.total_instructions_;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(line.c_str() + start, &end, 10);
      if (n == 0) parse_error(origin, line_no, "run length must be positive");
      pending_gap += static_cast<std::uint32_t>(n);
      trace.total_instructions_ += n;
    } else if (c == 'm') {
      char* end = nullptr;
      const unsigned long long addr = std::strtoull(line.c_str() + start + 1, &end, 16);
      if (end == line.c_str() + start + 1)
        parse_error(origin, line_no, "expected 'm <hex-addr>'");
      trace.records_.push_back(Record{static_cast<Addr>(addr), pending_gap, true});
      pending_gap = 0;
      ++trace.total_instructions_;
      ++trace.records_memory_;
    } else {
      parse_error(origin, line_no, "unrecognized record (expected '.', 'm', digits or '#')");
    }
  }
  if (pending_gap > 0) {
    trace.records_.push_back(Record{0, pending_gap, false});
  }
  NOCSIM_CHECK_MSG(!trace.records_.empty(), "FileTrace: empty trace");
  return trace;
}

Insn FileTrace::next() {
  // A record expands to `gap` non-memory instructions followed by one
  // memory access when is_mem; pos_ indexes into that expansion.
  for (;;) {
    const Record& rec = records_[cursor_];
    const std::uint32_t len = rec.gap + (rec.is_mem ? 1u : 0u);
    if (pos_ >= len) {  // defensive: empty expansion cannot occur by parse
      cursor_ = (cursor_ + 1) % records_.size();
      pos_ = 0;
      continue;
    }
    const std::uint32_t i = pos_++;
    if (pos_ >= len) {  // record exhausted: loop to the next one
      cursor_ = (cursor_ + 1) % records_.size();
      pos_ = 0;
    }
    if (i < rec.gap) return Insn{false, 0};
    return Insn{true, rec.addr};
  }
}

std::string encode_trace(const std::vector<Insn>& instructions) {
  std::ostringstream out;
  std::uint64_t gap = 0;
  const auto flush_gap = [&] {
    if (gap == 1) out << ".\n";
    else if (gap > 1) out << gap << "\n";
    gap = 0;
  };
  for (const Insn& insn : instructions) {
    if (!insn.is_mem) {
      ++gap;
      continue;
    }
    flush_gap();
    out << "m " << std::hex << insn.addr << std::dec << "\n";
  }
  flush_gap();
  return out.str();
}

}  // namespace nocsim
