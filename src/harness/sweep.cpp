#include "harness/sweep.hpp"

#include <cstdio>
#include <optional>

#include "harness/registry.hpp"
#include "simcore/error.hpp"
#include "simcore/units.hpp"

namespace nvms {

void SweepSpec::validate() const {
  require(!app.empty(), "sweep: app name required");
  require(!modes.empty() && !threads.empty() && !scales.empty(),
          "sweep: every dimension needs at least one point");
  for (const int t : threads) require(t >= 1, "sweep: threads must be >= 1");
  for (const double s : scales)
    require(s > 0.0, "sweep: scales must be positive");
  require(jobs >= 0, "sweep: jobs must be >= 0 (0 = hardware)");
  require(intra_jobs >= 0, "sweep: intra_jobs must be >= 0 (0 = auto)");
}

SweepResult run_sweep(const SweepSpec& spec) {
  spec.validate();
  (void)lookup_app(spec.app);  // fail fast on unknown apps

  // Resolve-cache plumbing: a cache exists only where two or more runs
  // can consult it — the caller's long-lived cache (nvmsimd), or one
  // striped instance for a grid of at least two cells.  A lone cell has
  // nothing to share with and runs uncached.
  const std::size_t cells =
      spec.modes.size() * spec.threads.size() * spec.scales.size();
  std::optional<ResolveCache> grid_cache;
  ResolveCache* shared = nullptr;
  if (spec.resolve_cache == ResolveCacheMode::kShared) {
    if (spec.external_cache != nullptr) {
      shared = spec.external_cache;
    } else if (cells >= 2) {
      shared = &grid_cache.emplace(
          static_cast<std::size_t>(spec.jobs > 0 ? spec.jobs : 0));
    }
  }

  // Build the grid in mode-major order; the executor returns outcomes in
  // this same order regardless of worker interleaving.
  std::vector<ExperimentConfig> grid;
  grid.reserve(cells);
  for (const Mode mode : spec.modes) {
    for (const int threads : spec.threads) {
      for (const double scale : spec.scales) {
        ExperimentConfig task;
        task.app = spec.app;
        task.sys = SystemConfig::testbed(mode);
        task.sys.intra_jobs = spec.intra_jobs;
        task.cfg.threads = threads;
        task.cfg.size_scale = scale;
        task.cfg.seed = derive_task_seed(spec.seed, grid.size());
        task.telemetry = spec.telemetry;
        task.resolve_cache = shared;
        char label[96];
        std::snprintf(label, sizeof label, "%s/%d/%.4g", to_string(mode),
                      threads, scale);
        task.label = label;
        grid.push_back(std::move(task));
      }
    }
  }

  SweepResult result;
  const auto outcomes = run_experiments(grid, spec.jobs, &result.stats);

  if (shared != nullptr) {
    result.cache_stats = shared->stats();
    result.stream_stats = shared->stream_stats();
  }

  if (spec.telemetry) {
    // Keep grid order (including skipped cells that collected anything
    // before their CapacityError) so merged exports are deterministic.
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      if (outcomes[k].telemetry == nullptr) continue;
      result.telemetry.push_back(outcomes[k].telemetry);
      result.telemetry_labels.push_back(grid[k].label);
    }
  }

  std::size_t i = 0;
  for (const Mode mode : spec.modes) {
    for (const int threads : spec.threads) {
      for (const double scale : spec.scales) {
        const ExperimentOutcome& o = outcomes[i++];
        if (o.skipped) {
          result.skipped.push_back({mode, threads, scale, o.skip_reason});
          continue;
        }
        SweepRow row;
        row.mode = mode;
        row.threads = threads;
        row.scale = scale;
        row.result = o.result;
        result.rows.push_back(std::move(row));
      }
    }
  }
  return result;
}

std::string sweep_csv(const std::vector<SweepRow>& rows) {
  std::string out =
      "mode,threads,scale,runtime_s,fom,fom_unit,higher_is_better,"
      "read_bw_gbs,write_bw_gbs,ipc,footprint_bytes\n";
  out.reserve(out.size() + rows.size() * 128);
  char line[320];
  for (const auto& r : rows) {
    std::snprintf(line, sizeof line,
                  "%s,%d,%.4g,%.9g,%.9g,%s,%d,%.4f,%.4f,%.4f,%llu\n",
                  to_string(r.mode), r.threads, r.scale, r.result.runtime,
                  r.result.fom, r.result.fom_unit.c_str(),
                  r.result.higher_is_better ? 1 : 0,
                  r.result.traces.avg_read_bw() / GB,
                  r.result.traces.avg_write_bw() / GB, r.result.counters.ipc(),
                  static_cast<unsigned long long>(r.result.footprint));
    out += line;
  }
  return out;
}

std::string sweep_stats_csv(const SweepResult& result) {
  return result.stats.csv();
}

std::vector<TelemetryPart> SweepResult::parts() const {
  std::vector<TelemetryPart> out;
  const std::size_t n = std::min(telemetry.size(), telemetry_labels.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({telemetry_labels[i], telemetry[i].get()});
  }
  return out;
}

std::string sweep_chrome_trace(const SweepResult& result) {
  return chrome_trace_json(result.parts());
}

std::string sweep_metrics_csv(const SweepResult& result) {
  return metrics_csv(result.parts());
}

std::string sweep_telemetry_jsonl(const SweepResult& result) {
  return telemetry_jsonl(result.parts());
}

std::string sweep_prometheus(const SweepResult& result) {
  return prometheus_text(result.parts());
}

namespace {

/// Recover the mode from a sweep cell label ("mode/threads/scale").
Mode mode_from_label(const std::string& label) {
  const std::size_t slash = label.find('/');
  const std::string head =
      slash == std::string::npos ? label : label.substr(0, slash);
  for (const Mode m :
       {Mode::kDramOnly, Mode::kCachedNvm, Mode::kUncachedNvm}) {
    if (head == to_string(m)) return m;
  }
  return Mode::kDramOnly;
}

}  // namespace

std::vector<RunProfile> sweep_profiles(const SweepResult& result) {
  std::vector<RunProfile> out;
  const std::size_t n =
      std::min(result.telemetry.size(), result.telemetry_labels.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (result.telemetry[i] == nullptr) continue;
    const std::string& label = result.telemetry_labels[i];
    const SystemConfig sys = SystemConfig::testbed(mode_from_label(label));
    out.push_back(
        build_run_profile(*result.telemetry[i], analyze_context(sys, label)));
  }
  return out;
}

RunProfile sweep_profile(const SweepResult& result, const std::string& run) {
  return merge_profiles(sweep_profiles(result), run);
}

}  // namespace nvms
