// Declared-flag command-line parsing, shared by every binary.
//
// A binary declares each argument it reads, bound to a typed destination
// that already holds the default; Parse() fills the destinations or fails
// with kInvalidArgument naming the argument and the offending text. There is
// no lenient mode: an unknown or repeated flag, a missing value, empty input,
// trailing garbage, a negative number, a value outside the declared bounds,
// or a name outside a declared choice list is an error, never a quiet
// default. The usage text is generated from the same declarations, and
// --help/-h is handled here once for every binary.
#ifndef SILOZ_SRC_BASE_FLAGS_H_
#define SILOZ_SRC_BASE_FLAGS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/base/result.h"
#include "src/obs/trace.h"

namespace siloz {

// Parses all of `text` as a decimal or 0x-prefixed hex unsigned integer in
// [min, max].
Result<uint64_t> ParseUnsigned(std::string_view text, uint64_t min = 0,
                               uint64_t max = std::numeric_limits<uint64_t>::max());

// Constraints on one argument declared with FlagSet::Add.
struct FlagRules {
  uint64_t min = 0;                  // integer destinations
  std::vector<std::string> choices;  // string destinations; empty = any
  bool required = false;             // positional arguments
};

class FlagSet {
 public:
  using Dest = std::variant<bool*, uint32_t*, uint64_t*, double*, std::string*>;

  // `program` heads the usage line ("silozctl run", "siloz_audit", ...).
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  // Declares one argument. `spec` is "--name" or "--name PLACEHOLDER" for a
  // flag and a bare "name" for a positional argument; positionals take the
  // non-flag arguments in declaration order. Bools are set by presence and
  // take no value; integers are unsigned and bounded by their type; doubles
  // must be finite and non-negative. Without a PLACEHOLDER the usage text
  // shows a flag's choices, or N for numbers and VALUE for strings.
  void Add(std::string spec, Dest dest, std::string help, FlagRules rules = {});
  // Declares the shared --metrics-out FILE / --trace-out FILE pair;
  // ParseOrExit then switches the tracer on when a trace is requested.
  void AddExports(obs::ExportFiles* files);

  // Parses argv[1..argc). Stops early, successfully, at --help or -h.
  Status Parse(int argc, const char* const* argv);
  bool help_requested() const { return help_; }
  std::string Usage() const;

  // The whole front end of a main(): parses, and on --help prints the usage
  // to stdout and exits 0; on an error prints it and the usage to stderr
  // and exits `usage_exit`. Returns only when the program should run.
  void ParseOrExit(int argc, const char* const* argv, int usage_exit);

 private:
  struct Arg {
    std::string name;
    std::string placeholder;
    std::string help;
    Dest dest;
    FlagRules rules;
    bool seen = false;

    bool positional() const { return name[0] != '-'; }
    Status Assign(std::string_view text);
  };

  std::string program_;
  std::vector<Arg> args_;
  obs::ExportFiles* exports_ = nullptr;
  bool help_ = false;
};

}  // namespace siloz

#endif  // SILOZ_SRC_BASE_FLAGS_H_
