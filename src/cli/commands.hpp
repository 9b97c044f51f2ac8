// The nvmsim command table: one declarative row per subcommand, holding
// its positional arity, whether nvmsimd serves it and at what cost, and
// every option it reads with a value kind, a default and a one-line help.
// The command handlers read options through CommandArgs, `nvmsim help`
// is rendered from the rows, and serve/request.cpp derives the served
// set, the forbidden options (the host-path kind) and the costs from
// them — so the one-shot CLI and the daemon agree by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli/options.hpp"

namespace nvms {

/// How an option's value is read and validated (one validator per kind).
enum class OptKind {
  kFlag,     ///< --name, present or absent
  kInt,      ///< integer; given values must be >= min
  kDouble,   ///< finite number
  kIntCsv,   ///< comma-separated integers, each >= min
  kEnum,     ///< one of a closed set of spellings
  kEnumCsv,  ///< comma-separated list of kEnum spellings
  kLanes,    ///< auto|N worker lanes: N >= 0, auto (or a bare flag) = 0
  kText,     ///< text the command validates itself (budget, address)
  kPath,     ///< host path: never accepted from nvmsimd clients
};

struct OptionSpec {
  std::string_view name;
  OptKind kind;
  std::string_view help;
  std::string_view def = {};   ///< value when absent ("" = none)
  std::string_view meta = {};  ///< placeholder in help ("" = per kind)
  long min = std::numeric_limits<long>::min();  ///< kInt / kIntCsv
  /// kEnum / kEnumCsv: spellings "a|b|c"; `accepts` admits aliases too,
  /// `bare` is what a bare --flag means, `bad` the diagnostic ({} = value).
  std::string_view choices = {};
  bool (*accepts)(const std::string&) = nullptr;
  std::string_view bare = {};
  std::string_view bad = {};
  /// When absent, take this other option's value instead of `def`.
  std::string_view inherit = {};
};

/// How nvmsimd treats a command.
enum class Served {
  kNo,      ///< one-shot CLI only (touches host files, or is a frontend)
  kYes,     ///< queued and answered by run_command
  kInline,  ///< answered by the daemon's IO thread; not a CLI command
};

struct CommandSpec {
  std::string_view name;
  std::string_view args = {};     ///< positional synopsis, e.g. "<a> <b>"
  std::string_view summary = {};  ///< one line for help
  std::size_t arity = 0;          ///< required positionals
  std::string_view missing = {};  ///< diagnostic when fewer are given
  Served served = Served::kNo;
  /// Admission tokens per request, multiplied by the cell count of each
  /// list-valued option (kIntCsv / kEnumCsv): a sweep pays per grid cell.
  std::uint64_t cost = 0;
  std::vector<OptionSpec> options = {};

  /// The declared option, or nullptr.
  const OptionSpec* option(std::string_view name) const;
};

/// Every row, in help order.
const std::vector<CommandSpec>& command_table();

/// The row named `name`, or nullptr.
const CommandSpec* find_command(std::string_view name);

/// `nvmsim help`, rendered from the table.
std::string render_help();

/// Typed, validated reads of one command's options through its row;
/// absent options read as the row's default.  Bad numbers throw
/// ConfigError (as Options does); other bad values print "<cmd>: ..." on
/// `err` and return nullopt.  Reading an option the row does not declare,
/// or with another kind's accessor, throws std::logic_error.
class CommandArgs {
 public:
  CommandArgs(const CommandSpec& spec, const Options& opt, std::ostream& err)
      : spec_(spec), opt_(opt), err_(err) {}

  const std::string& positional(std::size_t i) const {
    return opt_.positional()[i];
  }
  /// Whether the option was given at all (any kind).
  bool has(std::string_view name) const;

  bool flag(std::string_view name) const;
  long integer(std::string_view name) const;
  double number(std::string_view name) const;
  std::string text(std::string_view name) const;  ///< kText and kPath
  std::optional<std::vector<int>> int_list(std::string_view name) const;
  std::optional<std::string> choice(std::string_view name) const;
  std::optional<std::vector<std::string>> choice_list(
      std::string_view name) const;
  std::optional<int> lanes(std::string_view name) const;

 private:
  const OptionSpec& declared(std::string_view name, OptKind kind) const;
  /// The given value, else the inherited one, else the default.
  std::string raw(const OptionSpec& o) const;
  /// Whether `v` is one of o's choices; reports the diagnostic if not.
  bool check_choice(const OptionSpec& o, const std::string& v) const;

  const CommandSpec& spec_;
  const Options& opt_;
  std::ostream& err_;
};

}  // namespace nvms
