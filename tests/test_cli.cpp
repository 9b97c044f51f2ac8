// Tests for the option parser and the nvmsim command-line driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cli/commands.hpp"
#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "cli/parse.hpp"
#include "simcore/error.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

/// argv helper: keeps the strings alive for the call.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (auto& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

int run_cli(std::vector<std::string> args, std::string* out_text = nullptr,
            std::string* err_text = nullptr) {
  args.insert(args.begin(), "nvmsim");
  Argv a(std::move(args));
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli_main(a.argc(), a.argv(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

// ---------- option parser -------------------------------------------------

TEST(Options, PositionalAndKeyValue) {
  Argv a({"prog", "run", "xsbench", "--threads", "24", "--flag"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  ASSERT_EQ(opt.positional().size(), 2u);
  EXPECT_EQ(opt.positional()[0], "run");
  EXPECT_EQ(opt.get_int("threads", 0), 24);
  EXPECT_TRUE(opt.has("flag"));
  EXPECT_EQ(opt.get("flag", ""), "true");
}

TEST(Options, TypedAccessorsAndDefaults) {
  Argv a({"prog", "--scale", "2.5"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  EXPECT_DOUBLE_EQ(opt.get_double("scale", 1.0), 2.5);
  EXPECT_EQ(opt.get_int("missing", 7), 7);
  EXPECT_EQ(opt.get("missing", "x"), "x");
}

TEST(Options, RejectsMalformedNumbers) {
  Argv a({"prog", "--threads", "many"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  EXPECT_THROW(opt.get_int("threads", 0), ConfigError);
}

TEST(Options, RejectsTrailingGarbage) {
  // std::strtol/strtod stop at the first bad byte; the checked parsers
  // must treat a partial match as an error, not a silent truncation.
  Argv a({"prog", "--threads", "10xyz", "--scale", "1.5q"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  EXPECT_THROW(opt.get_int("threads", 0), ConfigError);
  EXPECT_THROW(opt.get_double("scale", 1.0), ConfigError);
}

TEST(Options, FromMapMatchesParse) {
  const auto opt = Options::from_map(
      {{"threads", "24"}, {"flag", "true"}}, {"xsbench"});
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "xsbench");
  EXPECT_EQ(opt.get_int("threads", 0), 24);
  EXPECT_TRUE(opt.has("flag"));
}

TEST(Options, TracksUnusedKeys) {
  Argv a({"prog", "--used", "1", "--typo", "2"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  (void)opt.get_int("used", 0);
  const auto unused = opt.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ---------- checked scalar parsers (cli/parse.hpp) ------------------------

TEST(Parse, LongIsTotal) {
  EXPECT_EQ(parse_long("12"), 12);
  EXPECT_EQ(parse_long("-3"), -3);
  EXPECT_EQ(parse_long("0"), 0);
  for (const char* bad :
       {"", " 12", "12 ", "12x", "x12", "1.5", "999999999999999999999"}) {
    EXPECT_FALSE(parse_long(bad).has_value()) << bad;
  }
}

TEST(Parse, DoubleIsTotal) {
  EXPECT_DOUBLE_EQ(parse_double("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3").value(), -2000.0);
  for (const char* bad : {"", " 1", "1.5q", "q1.5", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  }
}

TEST(Parse, IntCsvReportsTheBadCell) {
  std::string why;
  const auto ok = parse_int_csv("12,24,36", 1, &why);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, (std::vector<int>{12, 24, 36}));
  struct Case {
    const char* input;
    const char* reason;
  };
  for (const Case& c : {Case{"12,abc", "'abc' is not an integer"},
                        Case{"12,,24", "empty cell"},
                        Case{"0", "below the minimum"},
                        Case{"-3", "below the minimum"},
                        Case{"12,", "trailing comma"},
                        Case{"", "empty list"}}) {
    EXPECT_FALSE(parse_int_csv(c.input, 1, &why).has_value()) << c.input;
    EXPECT_NE(why.find(c.reason), std::string::npos)
        << c.input << " -> " << why;
  }
}

TEST(Parse, BudgetSpecHandlesSuffixesAndRejectsGarbage) {
  const std::uint64_t cap = 1000;
  EXPECT_EQ(parse_budget_spec("35%", cap, nullptr).value(), 350u);
  EXPECT_EQ(parse_budget_spec("512", cap, nullptr).value(), 512u);
  EXPECT_EQ(parse_budget_spec("10KiB", cap, nullptr).value(), 10 * KiB);
  EXPECT_EQ(parse_budget_spec("2MiB", cap, nullptr).value(), 2 * MiB);
  EXPECT_EQ(parse_budget_spec("1GiB", cap, nullptr).value(), 1 * GiB);
  std::string why;
  for (const char* bad :
       {"10xyz", "1.5q", "-1", "0%", "101%", "inf", "nan", "", "KiB"}) {
    EXPECT_FALSE(parse_budget_spec(bad, cap, &why).has_value()) << bad;
    EXPECT_FALSE(why.empty()) << bad;
  }
}

// ---------- driver ----------------------------------------------------------

TEST(Cli, ListShowsAllApps) {
  std::string out;
  EXPECT_EQ(run_cli({"list"}, &out), 0);
  for (const char* app : {"hacc", "laghos", "scalapack", "xsbench", "hypre",
                          "superlu", "boxlib", "ft"}) {
    EXPECT_NE(out.find(app), std::string::npos) << app;
  }
}

TEST(Cli, DevicesShowsCalibration) {
  std::string out;
  EXPECT_EQ(run_cli({"devices"}, &out), 0);
  EXPECT_NE(out.find("304.0 ns"), std::string::npos);
  EXPECT_NE(out.find("39.00 GB/s"), std::string::npos);
}

TEST(Cli, RunProducesReport) {
  std::string out;
  EXPECT_EQ(run_cli({"run", "hacc", "--threads", "12"}, &out), 0);
  EXPECT_NE(out.find("hacc"), std::string::npos);
  EXPECT_NE(out.find("runtime"), std::string::npos);
  EXPECT_NE(out.find("uncached-nvm"), std::string::npos);
}

TEST(Cli, OneShotSharedRunIsUncachedAndByteIdentical) {
  // A lone run outside a daemon has nothing to share a cache with: the
  // shared flag must neither change stdout nor print cache statistics.
  const std::vector<std::string> base = {"run", "xsbench", "--mode",
                                         "cached-nvm", "--json"};
  std::string off, shared, err;
  auto with = [&](const char* rc) {
    auto args = base;
    args.insert(args.end(), {"--resolve-cache", rc});
    return args;
  };
  ASSERT_EQ(run_cli(with("off"), &off), 0);
  ASSERT_EQ(run_cli(with("shared"), &shared, &err), 0);
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(shared, off);
  EXPECT_EQ(err.find("resolve-cache:"), std::string::npos) << err;
}

TEST(Cli, RunWritesTraceCsv) {
  const std::string path = "/tmp/nvms_cli_test_trace.csv";
  std::remove(path.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"run", "laghos", "--trace", path}, &out), 0);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[80] = {};
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  EXPECT_NE(std::string(header).find("t_s,dram_read_gbs"),
            std::string::npos);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Cli, SweepRunsMatrix) {
  std::string out, err;
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12,36", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "1"},
                    &out, &err),
            0);
  // header + separator + 4 rows; the executor summary goes to stderr
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
  EXPECT_EQ(out.find("executor:"), std::string::npos);
  EXPECT_NE(err.find("executor: 4 task(s)"), std::string::npos);
  // so human stdout is byte-identical for any --jobs
  std::string parallel;
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12,36", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "3"},
                    &parallel),
            0);
  EXPECT_EQ(out, parallel);
}

TEST(Cli, SweepJobsKeepsCsvByteIdentical) {
  std::string serial, parallel, err;
  EXPECT_EQ(run_cli({"sweep", "xsbench", "--threads", "12,36", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "1", "--csv"},
                    &serial, &err),
            0);
  // in CSV mode the executor summary goes to stderr, stdout stays pure
  EXPECT_EQ(serial.find("executor:"), std::string::npos);
  EXPECT_NE(err.find("executor:"), std::string::npos);
  EXPECT_EQ(run_cli({"sweep", "xsbench", "--threads", "12,36", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "3", "--csv"},
                    &parallel),
            0);
  EXPECT_EQ(serial, parallel);
}

TEST(Cli, SweepReportsSkippedConfigurations) {
  std::string out, err;
  EXPECT_EQ(run_cli({"sweep", "hypre", "--threads", "36", "--modes",
                     "dram-only,cached-nvm", "--scale", "3.0"},
                    &out, &err),
            0);
  EXPECT_NE(err.find("skipped 1 configuration"), std::string::npos);
  EXPECT_NE(err.find("dram-only threads=36"), std::string::npos);
}

TEST(Cli, SweepWritesStatsCsv) {
  const std::string path = "/tmp/nvms_cli_test_stats.csv";
  std::remove(path.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12", "--modes",
                     "dram-only", "--jobs", "2", "--stats", path},
                    &out),
            0);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[80] = {};
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  EXPECT_NE(std::string(header).find("task,label,worker,queue_wait_s"),
            std::string::npos);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Cli, SweepRejectsNegativeJobs) {
  std::string err;
  // Bad input is a usage error (exit 2) since the serve/CLI hardening pass.
  EXPECT_EQ(run_cli({"sweep", "hacc", "--jobs", "-2"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--jobs"), std::string::npos);
}

namespace {
std::string slurp(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}
}  // namespace

TEST(Cli, RunWritesChromeTraceAndMetrics) {
  const std::string trace = "/tmp/nvms_cli_obs_trace.json";
  const std::string metrics = "/tmp/nvms_cli_obs_metrics.csv";
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"run", "hacc", "--threads", "12", "--trace-out", trace,
                     "--metrics-out", metrics},
                    &out),
            0);
  const std::string json = slurp(trace);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"resolve\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"device\""), std::string::npos);
  EXPECT_NE(json.find("wpq.util"), std::string::npos);
  const std::string csv = slurp(metrics);
  EXPECT_EQ(csv.rfind("part,metric,labels,t_s,value", 0), 0u);
  EXPECT_NE(csv.find("throttle.read"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

TEST(Cli, SweepTraceOutIsByteIdenticalAcrossJobs) {
  const std::string t1 = "/tmp/nvms_cli_obs_sweep1.json";
  const std::string t4 = "/tmp/nvms_cli_obs_sweep4.json";
  std::remove(t1.c_str());
  std::remove(t4.c_str());
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12,24", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "1", "--trace-out",
                     t1}),
            0);
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12,24", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "4", "--trace-out",
                     t4}),
            0);
  const std::string serial = slurp(t1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(t4));
  // one merged part per grid cell
  EXPECT_NE(serial.find("\"name\":\"dram-only/12/1\""), std::string::npos);
  EXPECT_NE(serial.find("\"name\":\"uncached-nvm/24/1\""), std::string::npos);
  std::remove(t1.c_str());
  std::remove(t4.c_str());
}

TEST(Cli, InspectSummarizesSpansAndMetrics) {
  std::string out;
  EXPECT_EQ(run_cli({"inspect", "hacc", "--threads", "12"}, &out), 0);
  EXPECT_NE(out.find("span(s)"), std::string::npos);
  EXPECT_NE(out.find("category"), std::string::npos);
  EXPECT_NE(out.find("resolve"), std::string::npos);
  EXPECT_NE(out.find("wpq.util"), std::string::npos);
  EXPECT_NE(out.find("gauge"), std::string::npos);

  std::string err;
  EXPECT_EQ(run_cli({"inspect"}, nullptr, &err), 2);
  EXPECT_NE(err.find("missing application"), std::string::npos);
}

TEST(Cli, InspectHumanIncludesAttributionVerdict) {
  std::string out;
  EXPECT_EQ(run_cli({"inspect", "ft", "--threads", "12", "--format",
                     "human"},
                    &out),
            0);
  EXPECT_NE(out.find("(score "), std::string::npos);  // verdict headline
  EXPECT_NE(out.find("evidence:"), std::string::npos);
}

TEST(Cli, InspectJsonIsByteStableWithSortedKeys) {
  std::string a, b;
  EXPECT_EQ(
      run_cli({"inspect", "xsbench", "--threads", "12", "--format", "json"},
              &a),
      0);
  EXPECT_EQ(
      run_cli({"inspect", "xsbench", "--threads", "12", "--format", "json"},
              &b),
      0);
  EXPECT_EQ(a, b);  // byte-stable for scripting
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.front(), '{');
  for (const char* key :
       {"\"app\"", "\"mode\"", "\"profile\"", "\"spans\"", "\"metrics\"",
        "\"runtime_s\"", "\"verdict\""}) {
    EXPECT_NE(a.find(key), std::string::npos) << key;
  }
  // Top-level keys arrive recursively sorted: "app" < "metric_count" <
  // "metrics" < "mode" < ... in document order.
  EXPECT_LT(a.find("\"app\""), a.find("\"metric_count\""));
  EXPECT_LT(a.find("\"metric_count\""), a.find("\"mode\""));

  std::string err;
  EXPECT_EQ(run_cli({"inspect", "xsbench", "--format", "yaml"}, nullptr,
                    &err),
            2);
  EXPECT_NE(err.find("unknown --format"), std::string::npos);
}

TEST(Cli, ExplainClassifiesAndDiffCompares) {
  std::string out;
  EXPECT_EQ(run_cli({"explain", "ft", "--mode", "uncached-nvm", "--scale",
                     "0.25"},
                    &out),
            0);
  EXPECT_NE(out.find("wpq-saturated"), std::string::npos);
  EXPECT_NE(out.find("evidence"), std::string::npos);

  std::string diff_out;
  EXPECT_EQ(run_cli({"diff", "ft", "ft", "--mode-a", "cached-nvm",
                     "--mode-b", "uncached-nvm", "--scale", "0.25"},
                    &diff_out),
            0);
  EXPECT_NE(diff_out.find("cached-nvm"), std::string::npos);
  EXPECT_NE(diff_out.find("uncached-nvm"), std::string::npos);

  std::string err;
  EXPECT_EQ(run_cli({"explain", "no-such-app"}, nullptr, &err), 2);
  EXPECT_EQ(run_cli({"diff", "ft"}, nullptr, &err), 2);
}

TEST(Cli, ProfileEmitsPlan) {
  std::string out;
  EXPECT_EQ(run_cli({"profile", "scalapack", "--budget", "35"}, &out), 0);
  EXPECT_NE(out.find("write-aware plan"), std::string::npos);
  EXPECT_NE(out.find("mat_c"), std::string::npos);
}

TEST(Cli, ErrorsAreReported) {
  std::string err;
  EXPECT_EQ(run_cli({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run_cli({"run"}, nullptr, &err), 2);
  // An unknown app is a ConfigError — bad input, so a usage error (2).
  EXPECT_EQ(run_cli({"run", "nope"}, nullptr, &err), 2);
  EXPECT_EQ(run_cli({"run", "hacc", "--mode", "weird"}, nullptr, &err), 2);
  EXPECT_EQ(run_cli({}, nullptr, &err), 2);  // usage
}

// The negative-path table: every subcommand driven with malformed input
// must exit 2 with a diagnostic on stderr — and must never terminate the
// process via an uncaught exception (the `sweep --threads 12,abc` row is
// the exact reproducer that used to throw std::invalid_argument straight
// through cli_main; under nvmsimd that was a daemon-killer).
TEST(Cli, MalformedInputsAreUsageErrorsAcrossAllCommands) {
  struct Case {
    std::vector<std::string> args;
    const char* diagnostic;  ///< expected substring on stderr
  };
  const std::vector<Case> cases = {
      {{"sweep", "hacc", "--threads", "12,abc"}, "not an integer"},
      {{"sweep", "hacc", "--threads", "12,,24"}, "empty cell"},
      {{"sweep", "hacc", "--threads", "0"}, "below the minimum"},
      {{"sweep", "hacc", "--threads", "-3,12"}, "below the minimum"},
      {{"sweep", "hacc", "--threads", "12,"}, "trailing comma"},
      {{"sweep", "hacc", "--modes", "weird"}, "unknown mode"},
      {{"sweep", "hacc", "--jobs", "2x"}, "--jobs"},
      {{"sweep", "hacc", "--resolve-cache", "sometimes"}, "--resolve-cache"},
      {{"sweep", "hacc", "--resolve-cache", "run"}, "off|shared"},
      {{"run", "hacc", "--threads", "1.5"}, "--threads"},
      {{"run", "hacc", "--threads", "10xyz"}, "--threads"},
      {{"run", "hacc", "--scale", "1.5q"}, "--scale"},
      {{"run", "hacc", "--iters", "ten"}, "--iters"},
      {{"run", "hacc", "--mode", "bogus"}, "unknown mode"},
      {{"run", "hacc", "--numa", "diagonal"}, "--numa"},
      {{"inspect", "hacc", "--format", "yaml"}, "--format"},
      {{"inspect", "hacc", "--mode", "bogus"}, "unknown mode"},
      {{"explain", "no-such-app"}, "neither"},
      {{"explain", "ft", "--scale", "0.25", "--format", "xml"}, "--format"},
      {{"diff", "ft"}, "need two"},
      // --scale 0.25 keeps the (pre-budget-check) recording run cheap.
      {{"optimize", "ft", "--scale", "0.25", "--budget", "10xyz"}, "--budget"},
      {{"optimize", "ft", "--scale", "0.25", "--budget", "1.5q"}, "--budget"},
      {{"optimize", "ft", "--scale", "0.25", "--budget", "-5"}, "--budget"},
      {{"optimize", "ft", "--scale", "0.25", "--budget", "200%"}, "--budget"},
      {{"optimize", "hacc", "--mode", "bogus"}, "unknown mode"},
      {{"profile", "nope", "--budget", "35"}, "unknown app"},
      {{"profile", "hacc", "--budget", "0"}, "--budget"},
      {{"record", "hacc"}, "--out"},
      {{"replay"}, "missing trace file"},
  };
  for (const Case& c : cases) {
    std::string label;
    for (const auto& a : c.args) label += a + " ";
    std::string err;
    // run_cli reaching this EXPECT at all proves no exception escaped.
    EXPECT_EQ(run_cli(c.args, nullptr, &err), 2) << label;
    EXPECT_NE(err.find(c.diagnostic), std::string::npos)
        << label << "stderr was: " << err;
  }
}

TEST(Cli, WarnsOnUnusedOptions) {
  std::string err;
  EXPECT_EQ(run_cli({"list", "--bogus", "1"}, nullptr, &err), 0);
  EXPECT_NE(err.find("unused option --bogus"), std::string::npos);
}

TEST(Cli, RemoteNvmIsSlower) {
  std::string local_out;
  std::string remote_out;
  EXPECT_EQ(run_cli({"run", "xsbench"}, &local_out), 0);
  EXPECT_EQ(run_cli({"run", "xsbench", "--remote-nvm"}, &remote_out), 0);
  auto fom = [](const std::string& s) {
    const auto pos = s.find("FoM");
    return std::stod(s.substr(pos + 3));
  };
  EXPECT_GT(fom(local_out), fom(remote_out));
}

TEST(Cli, RecordAndReplayRoundTrip) {
  const std::string path = "/tmp/nvms_cli_test.trace";
  std::remove(path.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"record", "hacc", "--out", path, "--threads", "12"},
                    &out),
            0);
  EXPECT_NE(out.find("recorded"), std::string::npos);
  std::string replay_out;
  EXPECT_EQ(run_cli({"replay", path, "--mode", "dram-only"}, &replay_out), 0);
  EXPECT_NE(replay_out.find("replayed runtime"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ReplayWhatIfChangesOutcome) {
  const std::string path = "/tmp/nvms_cli_whatif.trace";
  std::remove(path.c_str());
  EXPECT_EQ(run_cli({"record", "ft", "--out", path}), 0);
  std::string base;
  std::string boosted;
  EXPECT_EQ(run_cli({"replay", path}, &base), 0);
  EXPECT_EQ(run_cli({"replay", path, "--nvm-write-bw", "26"}, &boosted), 0);
  EXPECT_NE(base, boosted);
  std::remove(path.c_str());
}

TEST(Cli, RecordRequiresOutFile) {
  std::string err;
  EXPECT_EQ(run_cli({"record", "hacc"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--out"), std::string::npos);
  EXPECT_EQ(run_cli({"replay", "/nonexistent/file"}, nullptr, &err), 1);
}

// ---------- command table ---------------------------------------------------

TEST(CommandTable, ReadingAnUndeclaredOptionIsAProgrammingError) {
  const Options opt = Options::from_map({{"threads", "12"}}, {});
  std::ostringstream err;
  const CommandArgs list(*find_command("list"), opt, err);
  EXPECT_THROW((void)list.integer("threads"), std::logic_error);
  EXPECT_THROW((void)list.has("threads"), std::logic_error);
  // A declared option read through another kind's accessor fails too.
  const CommandArgs run(*find_command("run"), opt, err);
  EXPECT_EQ(run.integer("threads"), 12);
  EXPECT_THROW((void)run.number("threads"), std::logic_error);
  EXPECT_THROW((void)run.choice("threads"), std::logic_error);
}

TEST(CommandTable, DefaultsParseThroughTheirOwnKind) {
  const Options opt = Options::from_map({}, {});
  std::ostringstream err;
  for (const CommandSpec& c : command_table()) {
    const CommandArgs a(c, opt, err);
    for (const OptionSpec& o : c.options) {
      if (o.def.empty()) continue;
      switch (o.kind) {
        case OptKind::kInt: (void)a.integer(o.name); break;
        case OptKind::kDouble: (void)a.number(o.name); break;
        case OptKind::kIntCsv: EXPECT_TRUE(a.int_list(o.name)); break;
        case OptKind::kEnum: EXPECT_TRUE(a.choice(o.name)); break;
        case OptKind::kEnumCsv: EXPECT_TRUE(a.choice_list(o.name)); break;
        case OptKind::kLanes: EXPECT_TRUE(a.lanes(o.name)); break;
        default: break;
      }
    }
  }
  EXPECT_EQ(err.str(), "");
}

TEST(CommandTable, HelpNamesEveryCommandAndOption) {
  std::string out;
  EXPECT_EQ(run_cli({"help"}, &out), 0);
  for (const CommandSpec& c : command_table()) {
    EXPECT_NE(out.find(std::string(c.name)), std::string::npos) << c.name;
    for (const OptionSpec& o : c.options) {
      EXPECT_NE(out.find("--" + std::string(o.name)), std::string::npos)
          << c.name << " --" << o.name;
      EXPECT_FALSE(o.help.empty()) << c.name << " --" << o.name;
    }
  }
}

TEST(CommandTable, DaemonOnlyRowsAreNotCliCommands) {
  std::string err;
  EXPECT_EQ(run_cli({"ping"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command 'ping'"), std::string::npos);
}

}  // namespace
}  // namespace nvms
