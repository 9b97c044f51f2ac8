#include "cli/driver.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "cli/parse.hpp"
#include "harness/registry.hpp"
#include "harness/sweep.hpp"
#include "harness/report.hpp"
#include "mem/space.hpp"
#include "obs/analyze/diff.hpp"
#include "obs/analyze/profile.hpp"
#include "obs/export.hpp"
#include "placement/trace_optimizer.hpp"
#include "placement/write_aware.hpp"
#include "prof/data_profile.hpp"
#include "replay/recording.hpp"
#include "simcore/error.hpp"
#include "simcore/json.hpp"
#include "simcore/table.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

// Write `content` to `path`; on failure reports "<cmd>: cannot write ..."
// and returns false.
bool write_file(const std::string& path, const std::string& content,
                std::ostream& err, const char* cmd) {
  std::ofstream f(path);
  if (!f) {
    err << cmd << ": cannot write " << path << "\n";
    return false;
  }
  f << content;
  return true;
}

std::optional<Mode> mode_of(const CommandArgs& a,
                            std::string_view name = "mode") {
  const auto v = a.choice(name);
  if (!v) return std::nullopt;
  return parse_mode(*v);
}

std::optional<ResolveCacheMode> cache_mode_of(const CommandArgs& a) {
  const auto v = a.choice("resolve-cache");
  if (!v) return std::nullopt;
  return parse_resolve_cache_mode(*v);
}

void report_cache_line(const char* what, const ResolveCacheStats& s,
                       std::ostream& err) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: %llu hit(s), %llu miss(es), %llu "
                "eviction(s), %zu entr%s, hit rate %.1f%%",
                what, static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.evictions), s.entries,
                s.entries == 1 ? "y" : "ies", 100.0 * s.hit_rate());
  err << buf << "\n";
}

// Quiet when no cache served the command (off, or a lone run outside a
// daemon); the stream memo only sees Memory-mode cells.
void report_cache_stats(const ResolveCacheStats& phases,
                        const ResolveCacheStats& streams,
                        std::ostream& err) {
  if (phases.hits + phases.misses > 0) {
    report_cache_line("resolve-cache", phases, err);
  }
  if (streams.hits + streams.misses > 0) {
    report_cache_line("stream-memo", streams, err);
  }
}

// The caller-owned resolve cache a command borrows: only the daemon's
// process-lifetime cache, so the next request over the same app starts
// warm.  Outside a daemon a one-shot run has nothing to share with and
// runs uncached; only a multi-cell sweep grid memoizes (run_sweep).
ResolveCache* run_cache(ResolveCacheMode mode, const CommandContext* ctx) {
  return mode == ResolveCacheMode::kShared && ctx != nullptr
             ? ctx->shared_cache
             : nullptr;
}

AppConfig config_from(const CommandArgs& a) {
  AppConfig cfg;
  cfg.threads = static_cast<int>(a.integer("threads"));
  cfg.size_scale = a.number("scale");
  cfg.iterations = static_cast<int>(a.integer("iters"));
  cfg.validate();
  return cfg;
}

int cmd_list(std::ostream& out) {
  TextTable t({"name", "dwarf", "input problem"});
  for (const auto* names : {&app_names(), &extra_app_names()}) {
    for (const auto& name : *names) {
      const App& app = lookup_app(name);
      t.add_row({name, app.dwarf(), app.input_problem()});
    }
  }
  out << t.render();
  return 0;
}

int cmd_devices(std::ostream& out) {
  const auto cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  TextTable t({"parameter", "DRAM (ddr4)", "NVM (optane)"});
  auto row = [&](const std::string& name, const std::string& d,
                 const std::string& n) { t.add_row({name, d, n}); };
  row("capacity (scaled 1/1024)", format_bytes(cfg.dram.capacity),
      format_bytes(cfg.nvm.capacity));
  row("read latency seq/rand",
      format_time(cfg.dram.read_lat_seq) + " / " +
          format_time(cfg.dram.read_lat_rand),
      format_time(cfg.nvm.read_lat_seq) + " / " +
          format_time(cfg.nvm.read_lat_rand));
  row("read / write peak",
      format_bandwidth(cfg.dram.read_bw_peak) + " / " +
          format_bandwidth(cfg.dram.write_bw_peak),
      format_bandwidth(cfg.nvm.read_bw_peak) + " / " +
          format_bandwidth(cfg.nvm.write_bw_peak));
  row("media granularity", std::to_string(cfg.dram.media_granularity) + " B",
      std::to_string(cfg.nvm.media_granularity) + " B");
  row("write scaling sweet spot",
      TextTable::num(cfg.dram.write_scaling.argmax(), 0) + " thr",
      TextTable::num(cfg.nvm.write_scaling.argmax(), 0) + " thr");
  row("throttle alpha", TextTable::num(cfg.dram.throttle_alpha, 2),
      TextTable::num(cfg.nvm.throttle_alpha, 2));
  out << t.render();
  return 0;
}

int cmd_run(const CommandArgs& a, std::ostream& out, std::ostream& err,
            const CommandContext* ctx) {
  const std::string app = a.positional(0);
  const auto mode = mode_of(a);
  if (!mode) return 2;
  SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  sys_cfg.remote_nvm = a.flag("remote-nvm");
  const auto numa = a.choice("numa");
  if (!numa) return 2;
  if (!numa->empty()) {
    sys_cfg.sockets = 2;
    sys_cfg.numa_policy = *numa == "local"        ? NumaPolicy::kLocalSocket
                          : *numa == "interleave" ? NumaPolicy::kInterleave
                                                  : NumaPolicy::kRemoteSocket;
  }
  const AppConfig cfg = config_from(a);
  const auto intra = a.lanes("intra-jobs");
  if (!intra) return 2;
  sys_cfg.intra_jobs = *intra == 0 ? resolve_auto_intra_jobs(1) : *intra;
  const auto cache_mode = cache_mode_of(a);
  if (!cache_mode) return 2;
  const std::string trace_out = a.text("trace-out");
  const std::string metrics_out = a.text("metrics-out");
  Telemetry telemetry;
  const bool want_telemetry = !trace_out.empty() || !metrics_out.empty();
  ResolveCache* use_cache = run_cache(*cache_mode, ctx);
  const AppResult r = run_app_on(
      app, sys_cfg, cfg, want_telemetry ? &telemetry : nullptr, use_cache);
  if (use_cache != nullptr) {
    report_cache_stats(use_cache->stats(), use_cache->stream_stats(), err);
  }

  if (!trace_out.empty() &&
      !write_file(trace_out, chrome_trace_json(telemetry, app), err, "run")) {
    return 1;
  }
  if (!metrics_out.empty() &&
      !write_file(metrics_out, metrics_csv(telemetry, app), err, "run")) {
    return 1;
  }

  if (a.flag("json")) {
    Json j;
    j.set("app", r.app)
        .set("dwarf", lookup_app(app).dwarf())
        .set("mode", r.mode)
        .set("threads", cfg.threads)
        .set("size_scale", cfg.size_scale)
        .set("footprint_bytes", r.footprint)
        .set("runtime_s", r.runtime)
        .set("fom", r.fom)
        .set("fom_unit", r.fom_unit)
        .set("higher_is_better", r.higher_is_better)
        .set("avg_read_bw_gbs", r.traces.avg_read_bw() / GB)
        .set("avg_write_bw_gbs", r.traces.avg_write_bw() / GB)
        .set("ipc", r.counters.ipc())
        .set("checksum", r.checksum);
    Json counters;
    counters.set("instructions", r.counters.instructions)
        .set("cycles_active", r.counters.cycles_active)
        .set("stall_cycles", r.counters.stall_cycles)
        .set("offcore_wait", r.counters.offcore_wait)
        .set("imc_reads", r.counters.imc_reads)
        .set("imc_writes", r.counters.imc_writes);
    j.set("counters", counters);
    out << j.dump(2) << "\n";
    return 0;
  }

  TextTable t({"metric", "value"});
  t.add_row({"app", r.app + " (" + lookup_app(app).dwarf() + ")"});
  t.add_row({"mode", r.mode});
  t.add_row({"threads", std::to_string(cfg.threads)});
  t.add_row({"footprint", format_bytes(r.footprint)});
  t.add_row({"runtime", format_time(r.runtime)});
  t.add_row({"FoM", TextTable::num(r.fom, 2) + " " + r.fom_unit +
                        (r.higher_is_better ? " (higher better)"
                                            : " (lower better)")});
  t.add_row({"avg read BW", format_bandwidth(r.traces.avg_read_bw())});
  t.add_row({"avg write BW", format_bandwidth(r.traces.avg_write_bw())});
  t.add_row({"IPC", TextTable::num(r.counters.ipc(), 3)});
  t.add_row({"checksum", TextTable::num(r.checksum, 6)});
  out << t.render();

  const std::string trace_file = a.text("trace");
  if (!trace_file.empty()) {
    if (!write_file(trace_file, render_trace_csv(r.traces, 256), err, "run")) {
      return 1;
    }
    out << "trace written to " << trace_file << " (256 samples)\n";
  }
  return 0;
}

int cmd_sweep(const CommandArgs& a, std::ostream& out, std::ostream& err,
              const CommandContext* ctx) {
  const auto modes = a.choice_list("modes");
  if (!modes) return 2;
  SweepSpec spec;
  spec.app = a.positional(0);
  spec.modes.clear();  // SweepSpec starts with all three
  for (const auto& m : *modes) spec.modes.push_back(*parse_mode(m));
  const auto threads = a.int_list("threads");
  if (!threads) return 2;
  spec.threads = *threads;
  spec.scales = {a.number("scale")};
  spec.jobs = static_cast<int>(a.integer("jobs"));
  const auto intra = a.lanes("intra-jobs");
  if (!intra) return 2;
  spec.intra_jobs = *intra;
  const auto cache_mode = cache_mode_of(a);
  if (!cache_mode) return 2;
  spec.resolve_cache = *cache_mode;
  spec.external_cache = run_cache(*cache_mode, ctx);
  const std::string trace_out = a.text("trace-out");
  const std::string metrics_out = a.text("metrics-out");
  const std::string jsonl_out = a.text("jsonl");
  spec.telemetry =
      !trace_out.empty() || !metrics_out.empty() || !jsonl_out.empty();
  const auto result = run_sweep(spec);
  report_cache_stats(result.cache_stats, result.stream_stats, err);

  if (!trace_out.empty() &&
      !write_file(trace_out, sweep_chrome_trace(result), err, "sweep")) {
    return 1;
  }
  if (!metrics_out.empty() &&
      !write_file(metrics_out, sweep_metrics_csv(result), err, "sweep")) {
    return 1;
  }
  if (!jsonl_out.empty() &&
      !write_file(jsonl_out, sweep_telemetry_jsonl(result), err, "sweep")) {
    return 1;
  }

  // Capacity-skipped configurations are reported, never silently dropped.
  if (!result.skipped.empty()) {
    err << "sweep: skipped " << result.skipped.size()
        << " configuration(s) exceeding device capacity:\n";
    for (const auto& s : result.skipped) {
      err << "  " << to_string(s.mode) << " threads=" << s.threads
          << " scale=" << s.scale << "\n";
    }
  }

  const std::string stats_file = a.text("stats");
  if (!stats_file.empty() &&
      !write_file(stats_file, sweep_stats_csv(result), err, "sweep")) {
    return 1;
  }

  if (a.flag("csv")) {
    out << sweep_csv(result);
  } else {
    TextTable t({"mode", "threads", "runtime", "FoM"});
    for (const auto& r : result.rows) {
      t.add_row({to_string(r.mode), std::to_string(r.threads),
                 format_time(r.result.runtime),
                 TextTable::num(r.result.fom, 2) + " " + r.result.fom_unit});
    }
    out << t.render();
  }
  // The execution summary (wall clock, jobs=) varies run to run; it goes
  // to stderr so stdout is byte-identical for any --jobs, in both formats.
  err << result.stats.summary() << "\n";
  return 0;
}

int cmd_inspect(const CommandArgs& args, std::ostream& out, std::ostream& err) {
  const std::string app = args.positional(0);
  const auto mode = mode_of(args);
  if (!mode) return 2;
  const auto fmt = args.choice("format");
  if (!fmt) return 2;
  const std::string format = *fmt;
  const AppConfig cfg = config_from(args);
  const SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  Telemetry telemetry;
  const AppResult r = run_app_on(app, sys_cfg, cfg, &telemetry);
  const RunProfile profile =
      build_run_profile(telemetry, analyze_context(sys_cfg, app));

  const auto& spans = telemetry.tracer().spans();
  const auto& metrics = telemetry.metrics().metrics();

  // Span taxonomy, aggregated by (category, name) in first-seen order.
  struct SpanAgg {
    std::string name, category;
    std::size_t depth = 0;
    std::size_t count = 0;
    double total_s = 0.0;
  };
  std::vector<SpanAgg> agg;
  std::map<std::pair<std::string, std::string>, std::size_t> index;
  for (const auto& s : spans) {
    if (!s.closed) continue;
    const auto key = std::make_pair(s.category, s.name);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, agg.size()).first;
      agg.push_back(
          {s.name, s.category, static_cast<std::size_t>(s.depth), 0, 0.0});
    }
    SpanAgg& a = agg[it->second];
    a.count += 1;
    a.total_s += s.t1 - s.t0;
  }

  if (format == "json") {
    // Machine form: sorted keys, stable field set — byte-stable for CI.
    Json j;
    j.set("app", app)
        .set("mode", r.mode)
        .set("runtime_s", r.runtime)
        .set("span_count", spans.size())
        .set("metric_count", metrics.size());
    Json jspans = Json::array();
    for (const auto& a : agg) {
      Json js;
      js.set("name", a.name)
          .set("category", a.category)
          .set("depth", a.depth)
          .set("count", a.count)
          .set("total_s", a.total_s);
      jspans.push(std::move(js));
    }
    j.set("spans", std::move(jspans));
    Json jmetrics = Json::array();
    for (const auto& m : metrics) {
      Json jm;
      jm.set("name", m.name)
          .set("labels", m.labels)
          .set("kind", to_string(m.kind))
          .set("points", m.kind == MetricKind::kHistogram ? m.count
                                                          : m.series.size())
          .set("value",
               m.kind == MetricKind::kHistogram ? m.mean() : m.value);
      if (m.count > 0) jm.set("min", m.min).set("max", m.max);
      jmetrics.push(std::move(jm));
    }
    j.set("metrics", std::move(jmetrics));
    j.set("profile", run_profile_json(profile));
    j.sort_keys();
    out << j.dump(2) << "\n";
  } else {
    out << app << " (" << r.mode << "): " << format_time(r.runtime) << ", "
        << spans.size() << " span(s), " << metrics.size()
        << " metric stream(s)\n\n";
    TextTable ts({"span", "category", "depth", "count", "sim time"});
    for (const auto& a : agg) {
      ts.add_row({a.name, a.category, std::to_string(a.depth),
                  std::to_string(a.count), format_time(a.total_s)});
    }
    out << ts.render();

    TextTable tm(
        {"metric", "labels", "kind", "points", "value", "min", "max"});
    for (const auto& m : metrics) {
      std::string points = std::to_string(
          m.kind == MetricKind::kHistogram ? m.count : m.series.size());
      // Counters/gauges show their final value; histograms their mean.
      const double value =
          m.kind == MetricKind::kHistogram ? m.mean() : m.value;
      const bool stats = m.count > 0;
      tm.add_row({m.name, m.labels, to_string(m.kind), points,
                  TextTable::num(value, 4),
                  stats ? TextTable::num(m.min, 4) : "-",
                  stats ? TextTable::num(m.max, 4) : "-"});
    }
    out << "\n" << tm.render();
    out << "\n" << render_run_profile(profile);
  }

  // File-export confirmations go to stderr in JSON mode so stdout stays a
  // single parseable document.
  std::ostream& note = format == "json" ? err : out;
  const std::string trace_out = args.text("trace-out");
  if (!trace_out.empty()) {
    if (!write_file(trace_out, chrome_trace_json(telemetry, app), err,
                    "inspect")) {
      return 1;
    }
    note << "\ntrace written to " << trace_out << "\n";
  }
  const std::string metrics_out = args.text("metrics-out");
  if (!metrics_out.empty()) {
    if (!write_file(metrics_out, metrics_csv(telemetry, app), err,
                    "inspect")) {
      return 1;
    }
    note << "metrics written to " << metrics_out << "\n";
  }
  const std::string jsonl_out = args.text("jsonl");
  if (!jsonl_out.empty()) {
    if (!write_file(jsonl_out, telemetry_jsonl(telemetry, app), err,
                    "inspect")) {
      return 1;
    }
    note << "jsonl written to " << jsonl_out << "\n";
  }
  return 0;
}

int cmd_profile(const CommandArgs& a, std::ostream& out, std::ostream& err) {
  const std::string app = a.positional(0);
  const AppConfig cfg = config_from(a);
  const long budget_pct = a.integer("budget");
  if (budget_pct <= 0 || budget_pct > 100) {
    err << "profile: --budget must be in (0,100]\n";
    return 2;
  }

  const auto sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  MemorySystem sys(sys_cfg);
  AppContext ctx(sys, cfg);
  (void)lookup_app(app).run(ctx);
  const auto profiles = collect_data_profile(sys);

  TextTable t({"buffer", "size", "reads", "writes", "write intensity"});
  for (const auto& p : profiles) {
    t.add_row({p.name, format_bytes(p.bytes), format_bytes(p.read_bytes),
               format_bytes(p.write_bytes),
               TextTable::num(p.write_intensity(), 1)});
  }
  out << t.render();

  const auto wa = write_aware_plan(
      profiles, sys_cfg.dram.capacity * static_cast<unsigned>(budget_pct) /
                    100);
  out << "\nwrite-aware plan (" << budget_pct
      << "% DRAM budget): " << wa.in_dram.size() << " buffer(s) -> DRAM, "
      << format_bytes(wa.dram_bytes) << " used\n";
  for (const auto& name : wa.in_dram) out << "  -> DRAM: " << name << "\n";
  return 0;
}

int cmd_record(const CommandArgs& a, std::ostream& out, std::ostream& err) {
  const std::string file = a.text("out");
  if (file.empty()) {
    err << "record: --out FILE is required\n";
    return 2;
  }
  const auto mode = mode_of(a);
  if (!mode) return 2;
  const AppConfig cfg = config_from(a);
  MemorySystem sys(SystemConfig::testbed(*mode));
  TraceCapture capture(sys);
  AppContext ctx(sys, cfg);
  (void)lookup_app(a.positional(0)).run(ctx);
  const auto rec = capture.finish();
  if (!write_file(file, rec.save(), err, "record")) return 1;
  out << "recorded " << rec.phases.size() << " phases over "
      << rec.buffers.size() << " buffers ("
      << format_bytes(rec.total_bytes()) << " of traffic) to " << file
      << "\n";
  return 0;
}

int cmd_replay(const CommandArgs& a, std::ostream& out, std::ostream& err) {
  std::ifstream f(a.positional(0));
  if (!f) {
    err << "replay: cannot read " << a.positional(0) << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const auto rec = PhaseRecording::load(buf.str());

  const auto mode = mode_of(a);
  if (!mode) return 2;
  SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  const double wbw = a.number("nvm-write-bw");
  if (wbw > 0.0) sys_cfg.nvm.write_bw_peak = gbps(wbw);
  const double rbw = a.number("nvm-read-bw");
  if (rbw > 0.0) sys_cfg.nvm.read_bw_peak = gbps(rbw);

  MemorySystem sys(sys_cfg);
  const double time = rec.replay(sys);
  TextTable t({"metric", "value"});
  t.add_row({"phases", std::to_string(rec.phases.size())});
  t.add_row({"mode", to_string(*mode)});
  t.add_row({"replayed runtime", format_time(time)});
  t.add_row({"avg read BW", format_bandwidth(sys.traces().avg_read_bw())});
  t.add_row({"avg write BW", format_bandwidth(sys.traces().avg_write_bw())});
  out << t.render();
  return 0;
}

// Resolve an `explain`/`diff` target — a saved `nvmstrace v1` recording
// or a registered application name — into a RunProfile.  The app form
// routes through run_sweep (a 1-cell grid honoring --jobs), so the
// profile is grid-order deterministic: output is byte-identical for any
// jobs count and any resolve-cache mode.  The trace form replays the
// recording once with telemetry attached.  Either form consults a cache
// only under a daemon (run_cache).
std::optional<RunProfile> profile_of_target(const std::string& target,
                                            const CommandArgs& a,
                                            std::ostream& err,
                                            const char* cmd,
                                            const CommandContext* ctx,
                                            const char* mode_opt = "mode") {
  const auto mode = mode_of(a, mode_opt);
  if (!mode) return std::nullopt;
  const auto cache_mode = cache_mode_of(a);
  if (!cache_mode) return std::nullopt;
  const auto intra = a.lanes("intra-jobs");
  if (!intra) return std::nullopt;

  std::ifstream f(target);
  if (f) {
    std::stringstream buf;
    buf << f.rdbuf();
    const auto rec = PhaseRecording::load(buf.str());
    SystemConfig sys_cfg = SystemConfig::testbed(*mode);
    sys_cfg.intra_jobs = *intra == 0 ? resolve_auto_intra_jobs(1) : *intra;
    MemorySystem sys(sys_cfg);
    Telemetry telemetry;
    sys.set_telemetry(&telemetry);
    sys.set_resolve_cache(run_cache(*cache_mode, ctx));
    (void)rec.replay(sys);
    return build_run_profile(telemetry, analyze_context(sys_cfg, target));
  }
  if (!is_registered_app(target)) {
    err << cmd << ": '" << target
        << "' is neither a readable trace file nor a registered "
           "application\n";
    return std::nullopt;
  }
  SweepSpec spec;
  spec.app = target;
  spec.modes = {*mode};
  spec.threads = {static_cast<int>(a.integer("threads"))};
  spec.scales = {a.number("scale")};
  spec.jobs = static_cast<int>(a.integer("jobs"));
  spec.intra_jobs = *intra;
  spec.telemetry = true;
  spec.resolve_cache = *cache_mode;
  spec.external_cache = run_cache(*cache_mode, ctx);
  const auto result = run_sweep(spec);
  if (result.rows.empty()) {
    err << cmd << ": configuration skipped"
        << (result.skipped.empty() ? ""
                                   : ": " + result.skipped.front().reason)
        << "\n";
    return std::nullopt;
  }
  return sweep_profile(result, target);
}

int cmd_explain(const CommandArgs& a, std::ostream& out, std::ostream& err,
                const CommandContext* ctx) {
  const auto profile =
      profile_of_target(a.positional(0), a, err, "explain", ctx);
  if (!profile) return 2;
  const auto format = a.choice("format");
  if (!format) return 2;
  if (*format == "human") {
    out << render_run_profile(*profile);
  } else if (*format == "json") {
    out << run_profile_json(*profile).dump(2) << "\n";
  } else {
    out << run_profile_csv(*profile);
  }
  const std::string metrics_out = a.text("metrics-out");
  if (!metrics_out.empty()) {
    Telemetry summary;
    publish_run_profile(*profile, summary.metrics());
    if (!write_file(metrics_out, prometheus_text(summary, profile->run),
                    err, "explain")) {
      return 1;
    }
  }
  return 0;
}

int cmd_diff(const CommandArgs& a, std::ostream& out, std::ostream& err,
             const CommandContext* ctx) {
  // Each side may override the shared --mode (e.g. `diff hypre hypre
  // --mode-a cached-nvm --mode-b uncached-nvm` asks why Memory mode and
  // App-Direct diverge on the same application).
  const auto pa =
      profile_of_target(a.positional(0), a, err, "diff", ctx, "mode-a");
  if (!pa) return 2;
  const auto pb =
      profile_of_target(a.positional(1), a, err, "diff", ctx, "mode-b");
  if (!pb) return 2;
  const RunDiff d = diff_profiles(*pa, *pb);
  const auto format = a.choice("format");
  if (!format) return 2;
  if (*format == "human") {
    out << render_run_diff(d);
  } else {
    out << run_diff_json(d).dump(2) << "\n";
  }
  const std::string metrics_out = a.text("metrics-out");
  if (!metrics_out.empty()) {
    Telemetry summary;
    publish_run_diff(d, summary.metrics());
    if (!write_file(metrics_out, prometheus_text(summary, d.a + "-vs-" + d.b),
                    err, "diff")) {
      return 1;
    }
  }
  return 0;
}

int cmd_optimize(const CommandArgs& a, std::ostream& out, std::ostream& err) {
  const std::string target = a.positional(0);
  const auto mode = mode_of(a);
  if (!mode) return 2;
  SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  const auto intra = a.lanes("intra-jobs");
  if (!intra) return 2;
  // 0 (auto) is passed through: each replayed MemorySystem leases
  // whatever lanes are free at construction.  The plan never depends on
  // the width, so racing the budget across evaluator workers is safe.
  sys_cfg.intra_jobs = *intra;

  // The target is either a saved `nvmstrace v1` recording or the name of
  // a registered application (recorded here under the same system mode).
  PhaseRecording rec;
  std::ifstream f(target);
  if (f) {
    std::stringstream buf;
    buf << f.rdbuf();
    rec = PhaseRecording::load(buf.str());
  } else if (is_registered_app(target)) {
    const AppConfig cfg = config_from(a);
    MemorySystem sys(sys_cfg);
    TraceCapture capture(sys);
    AppContext ctx(sys, cfg);
    (void)lookup_app(target).run(ctx);
    rec = capture.finish();
  } else {
    err << "optimize: '" << target
        << "' is neither a readable trace file nor a registered "
           "application\n";
    return 2;
  }

  // Checked budget parsing (cli/parse.hpp): "10xyz" or "1.5q" used to be
  // silently truncated by std::stod's partial match; now they're errors.
  std::string why;
  const auto budget =
      parse_budget_spec(a.text("budget"), sys_cfg.dram.capacity, &why);
  if (!budget) {
    err << "optimize: bad --budget: " << why << "\n";
    return 2;
  }

  TraceOptimizerOptions oopt;
  oopt.jobs = static_cast<int>(a.integer("jobs"));
  oopt.min_gain = a.number("min-gain");
  const auto r = optimize_placement(
      rec, *budget, [&sys_cfg] { return MemorySystem(sys_cfg); }, oopt);

  TextTable t({"metric", "value"});
  t.add_row({"phases", std::to_string(rec.phases.size())});
  t.add_row({"buffers", std::to_string(rec.buffers.size())});
  t.add_row({"mode", to_string(*mode)});
  t.add_row({"DRAM budget", format_bytes(*budget)});
  t.add_row({"DRAM used", format_bytes(r.dram_bytes)});
  t.add_row({"baseline runtime", format_time(r.baseline_runtime)});
  t.add_row({"optimized runtime", format_time(r.optimized_runtime)});
  t.add_row({"speedup", TextTable::num(r.speedup(), 2) + "x"});
  out << t.render();

  if (r.steps.empty()) {
    out << "\nno promotion improves the replayed runtime under this "
           "budget\n";
  } else {
    TextTable s({"step", "buffer -> DRAM", "runtime", "gain"});
    double prev = r.baseline_runtime;
    for (std::size_t i = 0; i < r.steps.size(); ++i) {
      const auto& [name, runtime] = r.steps[i];
      s.add_row({std::to_string(i + 1), name, format_time(runtime),
                 TextTable::num(100.0 * (prev - runtime) / prev, 1) + "%"});
      prev = runtime;
    }
    out << "\n" << s.render();
  }

  // Evaluator accounting goes to stderr: the memo hit/miss split can vary
  // across worker counts, while stdout must stay byte-identical.
  err << "optimize: " << r.stats.evals << " candidate evaluation(s), "
      << r.stats.full_replays << " full replay(s)\n";
  report_cache_line("phase-cache", r.stats.phase_cache, err);
  if (r.stats.stream_memo.hits + r.stats.stream_memo.misses > 0) {
    report_cache_line("stream-memo", r.stats.stream_memo, err);
  }
  return 0;
}

/// Run the handler of `name`; nullopt for rows this module does not run
/// (serve/client are routed by main.cpp, inline rows are daemon-only).
std::optional<int> dispatch(std::string_view name, const CommandArgs& a,
                            std::ostream& out, std::ostream& err,
                            const CommandContext* ctx) {
  if (name == "list") return cmd_list(out);
  if (name == "devices") return cmd_devices(out);
  if (name == "run") return cmd_run(a, out, err, ctx);
  if (name == "sweep") return cmd_sweep(a, out, err, ctx);
  if (name == "inspect") return cmd_inspect(a, out, err);
  if (name == "explain") return cmd_explain(a, out, err, ctx);
  if (name == "diff") return cmd_diff(a, out, err, ctx);
  if (name == "profile") return cmd_profile(a, out, err);
  if (name == "record") return cmd_record(a, out, err);
  if (name == "replay") return cmd_replay(a, out, err);
  if (name == "optimize") return cmd_optimize(a, out, err);
  if (name == "help") {
    out << render_help();
    return 0;
  }
  return std::nullopt;
}

}  // namespace

int run_command(const std::string& cmd, const Options& opt,
                std::ostream& out, std::ostream& err,
                const CommandContext* ctx) {
  const CommandSpec* spec = find_command(cmd == "--help" ? "help" : cmd);
  std::optional<int> rc;
  if (spec != nullptr) {
    const CommandArgs a(*spec, opt, err);
    if (opt.positional().size() < spec->arity) {
      err << cmd << ": " << spec->missing << "\n";
      rc = 2;
    } else {
      rc = dispatch(spec->name, a, out, err, ctx);
    }
  }
  if (!rc) {
    err << "unknown command '" << cmd << "'\n" << render_help();
    return 2;
  }
  for (const auto& key : opt.unused()) {
    err << "warning: unused option --" << key << "\n";
  }
  return *rc;
}

int run_command_guarded(const std::string& cmd, const Options& opt,
                        std::ostream& out, std::ostream& err,
                        const CommandContext* ctx) {
  try {
    return run_command(cmd, opt, out, err, ctx);
  } catch (const ConfigError& e) {
    // Bad input is a usage error, same as malformed option syntax.
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Last-resort net: under nvmsimd one malformed request must never
    // take the process (and every other tenant's warm cache) down.
    err << "internal error: " << e.what() << "\n";
    return 1;
  }
}

int cli_main(int argc, char** argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    err << render_help();
    return 2;
  }
  const std::string cmd = argv[1];
  std::optional<Options> opt;
  try {
    opt.emplace(Options::parse(argc, argv, 2));
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  return run_command_guarded(cmd, *opt, out, err);
}

}  // namespace nvms
