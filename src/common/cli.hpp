// Minimal command-line parsing for bench and example binaries.
//
// Supported syntax: --key value, --key=value and boolean --flag.
// Unknown arguments abort with a message listing the known options, so typos
// in experiment sweeps fail loudly instead of silently running defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace churnet {

/// Declarative CLI: declare options with defaults, then parse(argc, argv).
class Cli {
 public:
  /// `program_doc` is printed by --help.
  explicit Cli(std::string program_doc);

  /// Declares an integer option with a default.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& doc);
  /// Declares a floating-point option with a default.
  void add_double(const std::string& name, double default_value,
                  const std::string& doc);
  /// Declares a string option with a default.
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& doc);
  /// Declares a boolean flag (default false).
  void add_flag(const std::string& name, const std::string& doc);

  /// Parses argv. On --help prints usage and returns false (caller should
  /// exit 0). Unknown options, and int/double values that do not parse
  /// completely ("abc", "4x", out of range), print a diagnostic and exit 2.
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  /// An int option used as a count (threads, workers): prints a
  /// diagnostic and exits 2 when the value is negative or exceeds
  /// unsigned range, instead of wrapping.
  unsigned get_count(const std::string& name) const;
  /// The 64-bit sibling of get_count for values such as seeds, batch
  /// sizes and replication counts: exits 2 on a negative value instead of
  /// wrapping it to a huge unsigned one.
  std::uint64_t get_uint64(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_flag(const std::string& name) const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    std::string doc;
    std::string value;  // textual; parsed on get
  };

  const Option& find(const std::string& name, Kind kind) const;
  std::string usage() const;

  std::string program_doc_;
  std::string program_name_;
  std::map<std::string, Option> options_;
};

}  // namespace churnet
