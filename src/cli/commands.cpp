#include "cli/commands.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "cli/parse.hpp"
#include "mem/space.hpp"

namespace nvms {
namespace {

bool is_mode(const std::string& v) { return parse_mode(v).has_value(); }

// ---- option constructors and rows shared by several commands --------------

constexpr long kNoMin = std::numeric_limits<long>::min();
constexpr std::string_view kModes = "dram-only|cached-nvm|uncached-nvm";

constexpr OptionSpec flag(std::string_view name, std::string_view help) {
  return {.name = name, .kind = OptKind::kFlag, .help = help};
}
constexpr OptionSpec integer(std::string_view name, std::string_view help,
                             std::string_view def, long min = kNoMin,
                             std::string_view meta = {}) {
  return {.name = name, .kind = OptKind::kInt, .help = help, .def = def,
          .meta = meta, .min = min};
}
constexpr OptionSpec number(std::string_view name, std::string_view help,
                            std::string_view def, std::string_view meta = {}) {
  return {.name = name, .kind = OptKind::kDouble, .help = help, .def = def,
          .meta = meta};
}
constexpr OptionSpec path(std::string_view name, std::string_view help,
                          std::string_view meta = {}) {
  return {.name = name, .kind = OptKind::kPath, .help = help, .meta = meta};
}
constexpr OptionSpec choice(std::string_view name, std::string_view help,
                            std::string_view choices, std::string_view bad,
                            std::string_view def = {}) {
  return {.name = name, .kind = OptKind::kEnum, .help = help, .def = def,
          .choices = choices, .bad = bad};
}
constexpr OptionSpec mode(std::string_view name, std::string_view help,
                          std::string_view inherit = {}) {
  return {.name = name, .kind = OptKind::kEnum, .help = help,
          .def = inherit.empty() ? "uncached-nvm" : "", .choices = kModes,
          .accepts = is_mode, .bad = "unknown mode", .inherit = inherit};
}

constexpr OptionSpec kMode = mode("mode", "memory mode");
constexpr OptionSpec kThreads =
    integer("threads", "simulated concurrency", "36");
constexpr OptionSpec kScale = number("scale", "input-problem scale", "1.0");
constexpr OptionSpec kIters =
    integer("iters", "iteration override, 0 = the app's own", "0");
constexpr OptionSpec kJobs =
    integer("jobs", "host worker threads, 0 = all cores", "0", 0);
constexpr OptionSpec kIntraJobs = {
    .name = "intra-jobs", .kind = OptKind::kLanes,
    .help = "kernel lanes, auto = share the cores", .def = "1"};
constexpr OptionSpec kResolveCache = {
    .name = "resolve-cache", .kind = OptKind::kEnum,
    .help = "memoize phase resolutions", .def = "off",
    .choices = "off|run|shared", .bare = "shared",
    .bad = "unknown --resolve-cache mode '{}' (want off|run|shared)"};
constexpr OptionSpec kTraceOut = path("trace-out", "write a Chrome trace");
constexpr OptionSpec kMetricsOut =
    path("metrics-out", "write per-epoch metric streams as CSV");
constexpr OptionSpec kJsonl = path("jsonl", "write JSONL telemetry");
constexpr OptionSpec kPromOut =
    path("metrics-out", "write the verdict gauges as Prometheus text");
constexpr OptionSpec kSocket = path("socket", "unix-domain socket", "PATH");
constexpr OptionSpec kHost = {.name = "host", .kind = OptKind::kText,
                              .help = "TCP address", .def = "127.0.0.1",
                              .meta = "ADDR"};
constexpr OptionSpec kFormat =
    choice("format", "output format", "human|json",
           "unknown --format '{}' (want human|json)", "human");

constexpr std::string_view kApp = "missing application name";
constexpr std::string_view kAppOrTrace =
    "missing application name or trace file";

std::vector<CommandSpec> build_table() {
  return {
      {.name = "list", .summary = "registered applications",
       .served = Served::kYes},
      {.name = "devices", .summary = "calibrated device parameters",
       .served = Served::kYes},
      {.name = "run", .args = "<app>", .summary = "run one application",
       .arity = 1, .missing = kApp, .served = Served::kYes, .cost = 1,
       .options = {kMode, kThreads, kScale, kIters,
                   path("trace", "write the bandwidth trace as CSV"),
                   flag("remote-nvm", "access NVM on the remote socket"),
                   choice("numa", "two-socket placement policy",
                          "local|interleave|remote",
                          "unknown --numa policy '{}'"),
                   flag("json", "emit the result as JSON"), kTraceOut,
                   kMetricsOut, kResolveCache, kIntraJobs}},
      {.name = "sweep", .args = "<app>",
       .summary = "run across modes x concurrency", .arity = 1,
       .missing = kApp, .served = Served::kYes, .cost = 1,
       .options = {{.name = "modes", .kind = OptKind::kEnumCsv,
                    .help = "memory modes of the grid",
                    .def = "dram-only,cached-nvm,uncached-nvm",
                    .meta = "a,b,c", .choices = kModes, .accepts = is_mode,
                    .bad = "unknown mode '{}'"},
                   {.name = "threads", .kind = OptKind::kIntCsv,
                    .help = "concurrency levels of the grid",
                    .def = "12,24,36,48", .min = 1},
                   kScale, kJobs, flag("csv", "emit CSV instead of a table"),
                   path("stats", "write per-task executor timings as CSV"),
                   kTraceOut, kMetricsOut, kJsonl, kResolveCache,
                   kIntraJobs}},
      {.name = "inspect", .args = "<app>",
       .summary = "run once with telemetry and summarize it", .arity = 1,
       .missing = kApp, .served = Served::kYes, .cost = 1,
       .options = {kMode, kThreads, kScale, kIters, kFormat, kTraceOut,
                   kMetricsOut, kJsonl}},
      {.name = "explain", .args = "<app|trace>",
       .summary = "bottleneck attribution: why is this slow", .arity = 1,
       .missing = kAppOrTrace, .served = Served::kYes, .cost = 1,
       .options = {kMode, kThreads, kScale, kJobs, kIntraJobs, kResolveCache,
                   choice("format", "output format", "human|json|csv",
                          "unknown --format '{}' (want human|json|csv)",
                          "human"),
                   kPromOut}},
      {.name = "diff", .args = "<a> <b>",
       .summary = "what changed between two runs/traces", .arity = 2,
       .missing = "need two applications or trace files",
       .served = Served::kYes, .cost = 2,
       .options = {kMode, mode("mode-a", "mode of the first side", "mode"),
                   mode("mode-b", "mode of the second side", "mode"),
                   kThreads, kScale, kJobs, kIntraJobs, kResolveCache,
                   kFormat, kPromOut}},
      {.name = "profile", .args = "<app>",
       .summary = "data-centric profile + write-aware plan", .arity = 1,
       .missing = kApp, .served = Served::kYes, .cost = 1,
       .options = {kThreads, kScale, kIters,
                   integer("budget", "DRAM budget percent", "35", kNoMin,
                           "PCT")}},
      {.name = "record", .args = "<app>",
       .summary = "capture the phase trace of a run", .arity = 1,
       .missing = kApp,
       .options = {path("out", "trace file to write (required)"), kMode,
                   kThreads, kScale, kIters}},
      {.name = "replay", .args = "<trace>",
       .summary = "re-execute a trace on another configuration", .arity = 1,
       .missing = "missing trace file",
       .options = {kMode,
                   number("nvm-write-bw", "what-if write peak, 0 = calibrated",
                          "0", "GBS"),
                   number("nvm-read-bw", "what-if read peak, 0 = calibrated",
                          "0", "GBS")}},
      {.name = "optimize", .args = "<app|trace>",
       .summary = "trace-driven placement plan",
       .arity = 1, .missing = kAppOrTrace, .served = Served::kYes,
       .cost = 4,
       .options = {kMode, kThreads, kScale, kIters,
                   {.name = "budget", .kind = OptKind::kText,
                    .help = "DRAM budget: N% or bytes (KiB/MiB/GiB)",
                    .def = "35%", .meta = "B"},
                   kJobs, kIntraJobs,
                   number("min-gain", "stop below this relative gain", "1e-3",
                          "G")}},
      {.name = "help", .summary = "this text", .served = Served::kYes},
      {.name = "serve",
       .summary = "nvmsimd: answer JSONL requests (docs/SERVICE.md)",
       .options = {kSocket, integer("port", "TCP port, 0 = any free", "", 0),
                   kHost,
                   integer("workers", "worker threads (default: the cores, "
                           "at least 2)", "", 1),
                   integer("queue", "admission queue capacity", "256", 1),
                   integer("client-budget", "tokens per client, 0 = no limit",
                           "0", 0),
                   integer("max-line-bytes", "longest request line",
                           "1048576", 64),
                   integer("idle-timeout-ms", "close idle connections after",
                           "30000", 100),
                   integer("write-timeout-ms", "drop clients blocked this long",
                           "10000", 100)}},
      {.name = "client",
       .summary = "send JSONL requests from stdin to a daemon",
       .options = {choice("extract", "print only this response field",
                          "out|err", "--extract wants out|err"),
                   kSocket, integer("port", "TCP port", ""), kHost}},
      {.name = "ping", .summary = "liveness probe", .served = Served::kInline},
      {.name = "metrics", .summary = "the daemon's Prometheus text",
       .served = Served::kInline},
      {.name = "stats", .summary = "daemon state as JSON",
       .served = Served::kInline},
      {.name = "shutdown", .summary = "drain the queue and exit",
       .served = Served::kInline},
  };
}

/// `bad` with its {} (if any) replaced by `value`.
std::string fill(std::string_view bad, const std::string& value) {
  const std::size_t at = bad.find("{}");
  if (at == std::string_view::npos) return std::string(bad);
  return std::string(bad.substr(0, at)) + value +
         std::string(bad.substr(at + 2));
}

constexpr std::size_t kHelpColumn = 30;
constexpr std::size_t kHelpWidth = 79;

/// `left`, then `right` at the help column (on the next line when `left`
/// reaches into it).
void help_line(std::ostream& out, const std::string& left,
               std::string_view right) {
  const bool wrap = left.size() + 2 > kHelpColumn;
  out << left << (wrap ? "\n" : "")
      << std::string(wrap ? kHelpColumn : kHelpColumn - left.size(), ' ')
      << right << "\n";
}

[[noreturn]] void misread(std::string_view cmd, std::string_view name) {
  throw std::logic_error(std::string(cmd) + ": --" + std::string(name) +
                         " is not declared with this kind in its row");
}

}  // namespace

const OptionSpec* CommandSpec::option(std::string_view opt_name) const {
  for (const OptionSpec& o : options) {
    if (o.name == opt_name) return &o;
  }
  return nullptr;
}

const std::vector<CommandSpec>& command_table() {
  static const std::vector<CommandSpec> table = build_table();
  return table;
}

const CommandSpec* find_command(std::string_view name) {
  for (const CommandSpec& c : command_table()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string render_help() {
  // How nvmsimd treats each command, indexed by Served.
  constexpr std::string_view kServedMark[] = {"", " (served)",
                                              " (nvmsimd only)"};
  // The value placeholder when neither meta nor choices give one,
  // indexed by OptKind.
  constexpr std::string_view kMeta[] = {
      "", "N", "X", "a,b,c", "", "", "auto|N", "TEXT", "FILE"};
  std::ostringstream out;
  out << "nvmsim — NVM-based memory system simulator\n\n"
         "usage: nvmsim <command> [options]\n\n"
         "commands:\n";
  for (const CommandSpec& c : command_table()) {
    std::string left = "  " + std::string(c.name);
    if (!c.args.empty()) left += " " + std::string(c.args);
    help_line(out, left,
              std::string(c.summary) +
                  std::string(kServedMark[static_cast<int>(c.served)]));
    for (const OptionSpec& o : c.options) {
      std::string meta(!o.meta.empty()      ? o.meta
                       : !o.choices.empty() ? o.choices
                                            : kMeta[static_cast<int>(o.kind)]);
      if (!meta.empty()) meta = o.bare.empty() ? " " + meta : "[=" + meta + "]";
      const std::string def =
          !o.inherit.empty() ? "(default: --" + std::string(o.inherit) + ")"
          : !o.def.empty()   ? "(default " + std::string(o.def) + ")"
                             : "";
      const std::string opt = "      --" + std::string(o.name) + meta;
      // A default that would run past the width gets its own line.
      if (kHelpColumn + o.help.size() + 1 + def.size() > kHelpWidth) {
        help_line(out, opt, o.help);
        help_line(out, "", def);
      } else {
        help_line(out, opt, std::string(o.help) + (def.empty() ? "" : " ") +
                                def);
      }
    }
  }
  out << "\n(served): nvmsimd answers it too; see docs/SERVICE.md\n";
  return out.str();
}

// ---- CommandArgs ------------------------------------------------------------

const OptionSpec& CommandArgs::declared(std::string_view name,
                                        OptKind kind) const {
  const OptionSpec* o = spec_.option(name);
  // Host paths are text too.
  if (o == nullptr || (o->kind != kind && !(kind == OptKind::kText &&
                                            o->kind == OptKind::kPath))) {
    misread(spec_.name, name);
  }
  return *o;
}

std::string CommandArgs::raw(const OptionSpec& o) const {
  const std::string fallback =
      o.inherit.empty() ? std::string(o.def)
                        : raw(declared(o.inherit, OptKind::kEnum));
  return opt_.get(std::string(o.name), fallback);
}

bool CommandArgs::has(std::string_view name) const {
  if (spec_.option(name) == nullptr) misread(spec_.name, name);
  return opt_.has(std::string(name));
}

bool CommandArgs::flag(std::string_view name) const {
  (void)raw(declared(name, OptKind::kFlag));  // marks the flag as read
  return opt_.has(std::string(name));
}

long CommandArgs::integer(std::string_view name) const {
  const OptionSpec& o = declared(name, OptKind::kInt);
  const std::string key(name);
  // No default means the caller checks has() first.
  return opt_.has(key) ? opt_.get_int_at_least(key, 0, o.min)
                       : parse_long(std::string(o.def)).value();
}

double CommandArgs::number(std::string_view name) const {
  const OptionSpec& o = declared(name, OptKind::kDouble);
  return opt_.get_double(std::string(name),
                         parse_double(std::string(o.def)).value());
}

std::string CommandArgs::text(std::string_view name) const {
  return raw(declared(name, OptKind::kText));
}

std::optional<std::vector<int>> CommandArgs::int_list(
    std::string_view name) const {
  const OptionSpec& o = declared(name, OptKind::kIntCsv);
  std::string why;
  auto v = parse_int_csv(raw(o), o.min, &why);
  if (!v) err_ << spec_.name << ": bad --" << name << ": " << why << "\n";
  return v;
}

bool CommandArgs::check_choice(const OptionSpec& o,
                               const std::string& v) const {
  const bool ok = o.accepts != nullptr
                      ? o.accepts(v)
                      : v.find('|') == std::string::npos &&
                            ("|" + std::string(o.choices) + "|")
                                    .find("|" + v + "|") != std::string::npos;
  if (!ok) err_ << spec_.name << ": " << fill(o.bad, v) << "\n";
  return ok;
}

std::optional<std::string> CommandArgs::choice(std::string_view name) const {
  const OptionSpec& o = declared(name, OptKind::kEnum);
  std::string v = raw(o);
  if (v == "true" && !o.bare.empty()) v = o.bare;
  // Empty without a default reads as not given: the option is optional.
  if (v.empty() && o.def.empty() && o.inherit.empty()) return v;
  if (!check_choice(o, v)) return std::nullopt;
  return v;
}

std::optional<std::vector<std::string>> CommandArgs::choice_list(
    std::string_view name) const {
  const OptionSpec& o = declared(name, OptKind::kEnumCsv);
  std::vector<std::string> out;
  std::stringstream csv(raw(o));
  for (std::string v; std::getline(csv, v, ',');) {
    if (v.empty()) continue;  // "a,,b" names a and b
    if (!check_choice(o, v)) return std::nullopt;
    out.push_back(v);
  }
  return out;
}

std::optional<int> CommandArgs::lanes(std::string_view name) const {
  const std::string v = raw(declared(name, OptKind::kLanes));
  if (v == "auto" || v == "true") return 0;
  const auto n = parse_long(v);
  if (!n || *n < 0) {
    err_ << spec_.name << ": bad --" << name << " '" << v
         << "' (want auto or an integer >= 0)\n";
    return std::nullopt;
  }
  return static_cast<int>(*n);
}

}  // namespace nvms
