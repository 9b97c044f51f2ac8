// sweep-dwarfs: one operation is run_sweep over the default 3-mode x
// 4-thread grid plus sweep_csv, cycling through superlu, hacc and ft.
//
// Why: the dwarf numerics are most of these commands, the memsim kernel a
// small share, so this is where "record once, replay per cell" shows.
// The three apps are close in cost (about 2:2:1 serial), so the median
// lands inside the superlu/hacc band and the tail inside the hacc/superlu
// band; no reported percentile sits on the jump down to ft.
#include <algorithm>
#include <map>

#include "appfw/context.hpp"
#include "common.hpp"
#include "harness/registry.hpp"
#include "harness/sweep.hpp"
#include "replay/recording.hpp"
#include "simcore/thread_pool.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kApps = {"superlu", "hacc", "ft"};

nvms::SweepSpec spec_for(const std::string& app, std::uint64_t seed) {
  nvms::SweepSpec s;  // default grid, cache off, intra width 1
  s.app = app;
  s.seed = seed;
  s.jobs = kSweepCellWorkers;
  return s;
}

std::vector<std::string> app_order(std::uint64_t seed) {
  std::vector<std::string> order;
  for (const std::size_t i : permutation(kApps.size(), seed)) {
    order.push_back(kApps[i]);
  }
  return order;
}

/// Set-up: the registry, then the first grid cell of each app once, so
/// code, allocator arenas and lazy statics are warm before timing.
void setup_once(std::uint64_t seed) {
  nvms::init_registry();
  for (const std::string& app : kApps) {
    nvms::AppConfig cfg;
    cfg.threads = spec_for(app, seed).threads.front();
    cfg.seed = nvms::derive_task_seed(seed, 0);
    (void)nvms::run_app(app, nvms::Mode::kDramOnly, cfg);
  }
}

/// Split of one grid's cells: each cell's App::run under TraceCapture,
/// then a replay of that recording on a same-config fresh system.  The
/// probe runs the cells as wide as the sweep does, so they contend for
/// the memory system as they do inside run_sweep.
struct CellSplit {
  double run_s = 0.0;     ///< whole cells, numerics plus simulation
  double replay_s = 0.0;  ///< the simulation alone, replayed
  std::uint64_t phases = 0;
};

CellSplit probe_grid(const nvms::SweepSpec& spec) {
  struct Cell {
    nvms::SystemConfig sys;
    nvms::AppConfig cfg;
    CellSplit split;
  };
  std::vector<Cell> cells;
  for (const nvms::Mode mode : spec.modes) {
    for (const int threads : spec.threads) {
      Cell c{nvms::SystemConfig::testbed(mode), {}, {}};
      c.sys.intra_jobs = spec.intra_jobs;
      c.cfg.threads = threads;
      c.cfg.seed = nvms::derive_task_seed(spec.seed, cells.size());
      cells.push_back(c);
    }
  }
  nvms::parallel_for_each(
      cells,
      [&spec](Cell& c) {
        const Clock::time_point t0 = Clock::now();
        nvms::MemorySystem sys(c.sys);
        nvms::TraceCapture capture(sys);
        nvms::AppContext ctx(sys, c.cfg);
        (void)nvms::lookup_app(spec.app).run(ctx);
        const nvms::PhaseRecording rec = capture.finish();
        c.split.run_s = seconds_since(t0);
        const Clock::time_point t1 = Clock::now();
        nvms::MemorySystem fresh(c.sys);
        (void)rec.replay(fresh);
        c.split.replay_s = seconds_since(t1);
        c.split.phases = rec.phases.size();
      },
      spec.jobs);
  CellSplit total;
  for (const Cell& c : cells) {
    total.run_s += c.split.run_s;
    total.replay_s += c.split.replay_s;
    total.phases += c.split.phases;
  }
  return total;
}

}  // namespace

bool run_sweep_dwarfs(const RunArgs& a, Report& r, Ledger& ledger) {
  Setup setup(a, r, [&] {
    setup_once(a.seed);
    return true;
  });
  setup.before();
  const std::vector<std::string> order = app_order(a.seed);

  DigestBook book;
  // Traced-window accounting, per app so the probe split can be applied.
  struct Acc {
    std::uint64_t ops = 0;
    double cells = 0.0, queue_wait = 0.0, util = 0.0, idle = 0.0;
    double task_s = 0.0, csv_s = 0.0, csv_bytes = 0.0, op_s = 0.0;
  };
  std::map<std::string, Acc> acc;
  ClassTimes classes;

  std::atomic<std::uint64_t> next{0};
  auto op = [&](std::uint64_t i) {
    const std::string& app = order[i % order.size()];
    const nvms::SweepSpec spec = spec_for(app, a.seed);
    const Clock::time_point t0 = Clock::now();
    const nvms::SweepResult res = ledger.span(
        "harness.run_sweep", i, [&] { return nvms::run_sweep(spec); });
    const Clock::time_point t1 = Clock::now();
    const std::string csv = ledger.span(
        "export.sweep_csv", i, [&] { return nvms::sweep_csv(res); });
    if (ledger.enabled()) {
      const nvms::ExecutorStats& st = res.stats;
      Acc& x = acc[app];
      ++x.ops;
      x.cells += static_cast<double>(st.tasks.size());
      x.queue_wait += st.avg_queue_wait_s();
      x.util += st.worker_utilization();
      x.task_s += st.total_task_s();
      // Worker time the executor's own batch leaves unused.
      x.idle += st.batch_wall_s - st.total_task_s() / st.jobs;
      x.csv_s += seconds_since(t1);
      x.csv_bytes += static_cast<double>(csv.size());
      x.op_s += seconds_since(t0);
    }
    classes.add(app, 1e3 * seconds_since(t0));
    return res.skipped.empty() && book.check(app, hash_hex(csv));
  };
  measure(a, r, ledger, [&](double s) {
    return timed_window(s, 1, next, op);
  });
  setup.after();
  r.correct = r.failed == 0;
  classes.print("sweep-dwarfs");
  if (!a.trace) return true;

  // Per-layer split.  The cells' own task time (ExecutorStats) is divided
  // into numerics and simulation by the share a probe measures after the
  // traced window, outside op time.
  double ops = 0, cells = 0, qw = 0, util = 0, idle = 0, csv_s = 0,
         csv_b = 0, op_s = 0, numerics = 0, replay = 0, phases = 0,
         probe_replay = 0, probe_phases = 0;
  for (const auto& [app, x] : acc) {
    const CellSplit split = probe_grid(spec_for(app, a.seed));
    const double n = static_cast<double>(x.ops);
    const double replay_share = split.replay_s / split.run_s;
    ops += n;
    cells += x.cells;
    qw += x.queue_wait;
    util += x.util;
    idle += x.idle;
    csv_s += x.csv_s;
    csv_b += x.csv_bytes;
    op_s += x.op_s;
    numerics += x.task_s * (1.0 - replay_share);
    replay += x.task_s * replay_share;
    phases += n * static_cast<double>(split.phases);
    probe_replay += split.replay_s;
    probe_phases += static_cast<double>(split.phases);
  }
  const double jobs = kSweepCellWorkers;
  Metrics& m = r.metrics;
  m["harness.cells"] = {cells / ops, "count"};
  m["harness.queue_wait_s"] = {qw / ops, "s"};
  m["harness.worker_utilization"] = {util / ops, "ratio"};
  m["harness.idle_s"] = {idle / ops, "s"};
  m["dwarfs.numerics_s"] = {numerics / ops, "s"};
  m["dwarfs.phases"] = {phases / ops, "count"};
  m["memsim.cell_replay_s"] = {replay / ops, "s"};
  m["memsim.epochs_per_s"] = {probe_phases / probe_replay, "1/s"};
  m["export.csv_s"] = {csv_s / ops, "s"};
  m["export.csv_bytes"] = {csv_b / ops, "bytes"};
  // Cells run `jobs` wide, so their serial seconds count 1/jobs of wall.
  // Idle worker time is reported on its own, not counted as explained.
  m["ledger.coverage"] = {((numerics + replay) / jobs + csv_s) / op_s,
                          "ratio"};
  return true;
}

std::vector<std::string> sweep_inputs(std::uint64_t seed) {
  std::vector<std::string> lines;
  for (const std::string& app : app_order(seed)) {
    const nvms::SweepSpec s = spec_for(app, seed);
    std::string line = "sweep " + app + " seed=" + std::to_string(s.seed) +
                       " jobs=" + std::to_string(s.jobs) + " cells=";
    for (std::size_t i = 0; i < s.modes.size() * s.threads.size(); ++i) {
      line += std::to_string(nvms::derive_task_seed(s.seed, i)) + ",";
    }
    lines.push_back(line);
  }
  return lines;
}

}  // namespace perfbench
