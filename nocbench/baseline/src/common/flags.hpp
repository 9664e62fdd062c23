// Tiny command-line flag parser for bench and example binaries.
//
// Accepted syntax: --name=value, --name value, and bare --flag (bool true).
// Unknown flags abort with a usage message listing registered flags, so every
// bench is self-documenting via --help.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nocsim {

class Flags {
 public:
  Flags(int argc, char** argv);

  /// Register + read a flag; `desc` appears in --help output.
  std::int64_t get_int(const std::string& name, std::int64_t def, const std::string& desc);
  double get_double(const std::string& name, double def, const std::string& desc);
  bool get_bool(const std::string& name, bool def, const std::string& desc);
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& desc);

  /// Call after all get_*() registrations: handles --help and rejects
  /// unknown flags. Returns true if the program should exit (help printed).
  bool finish();

  /// Basename of argv[0] — the conventional stem for per-run record files.
  [[nodiscard]] std::string program_name() const;

 private:
  std::optional<std::string> raw(const std::string& name);
  void note(const std::string& name, const std::string& def, const std::string& desc);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> help_lines_;
  bool help_requested_ = false;
};

/// The standard `--jobs` flag shared by every sweep-driving binary: worker
/// threads for parallel sweep execution. 0 (the default) means "all
/// hardware threads"; the returned value is always >= 1.
int get_jobs(Flags& flags);

/// The standard `--shards` flag for binaries that run whole simulations:
/// row-strip tiles (worker threads) *inside* each simulation. Results are
/// byte-identical for every value; 1 (the default) is the serial cycle
/// loop. Composes with --jobs — total threads ~= jobs * shards.
int get_shards(Flags& flags);

}  // namespace nocsim
