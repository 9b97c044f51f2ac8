// Tests for the structured sweep runner/CSV export (serial and parallel)
// and the experiment executor.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/executor.hpp"
#include "harness/sweep.hpp"
#include "simcore/error.hpp"

namespace nvms {
namespace {

// ---------- sweep -----------------------------------------------------------

TEST(Sweep, CartesianProductOrderAndContent) {
  SweepSpec spec;
  spec.app = "hacc";
  spec.modes = {Mode::kDramOnly, Mode::kUncachedNvm};
  spec.threads = {12, 36};
  spec.scales = {1.0};
  const auto rows = run_sweep(spec).rows;
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].mode, Mode::kDramOnly);
  EXPECT_EQ(rows[0].threads, 12);
  EXPECT_EQ(rows[1].threads, 36);
  EXPECT_EQ(rows[2].mode, Mode::kUncachedNvm);
  for (const auto& r : rows) EXPECT_GT(r.result.runtime, 0.0);
}

TEST(Sweep, OversizedConfigurationsAreSkippedNotFatal) {
  SweepSpec spec;
  spec.app = "hypre";
  spec.modes = {Mode::kDramOnly, Mode::kCachedNvm};
  spec.threads = {36};
  spec.scales = {1.0, 3.0};  // 3.0x exceeds DRAM but fits cached-NVM
  const auto result = run_sweep(spec);
  int dram_rows = 0;
  int cached_rows = 0;
  for (const auto& r : result.rows) {
    (r.mode == Mode::kDramOnly ? dram_rows : cached_rows) += 1;
  }
  EXPECT_EQ(dram_rows, 1);    // only the 1.0x fits
  EXPECT_EQ(cached_rows, 2);  // both fit behind the cache
  // the dropped configuration is reported, not silent
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0].mode, Mode::kDramOnly);
  EXPECT_EQ(result.skipped[0].threads, 36);
  EXPECT_DOUBLE_EQ(result.skipped[0].scale, 3.0);
  EXPECT_FALSE(result.skipped[0].reason.empty());
  EXPECT_EQ(result.stats.skipped(), 1u);
}

TEST(Sweep, CsvShape) {
  SweepSpec spec;
  spec.app = "hacc";
  spec.modes = {Mode::kDramOnly};
  spec.threads = {24};
  spec.scales = {1.0};
  const auto csv = sweep_csv(run_sweep(spec));
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "mode,threads,scale,runtime_s,fom,fom_unit,higher_is_better,"
            "read_bw_gbs,write_bw_gbs,ipc,footprint_bytes");
  std::string row;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, row)));
  EXPECT_NE(row.find("dram-only,24,1,"), std::string::npos);
}

TEST(Sweep, Validation) {
  SweepSpec spec;  // empty app
  EXPECT_THROW(run_sweep(spec), ConfigError);
  spec.app = "nope";
  EXPECT_THROW(run_sweep(spec), ConfigError);
  spec.app = "hacc";
  spec.threads = {0};
  EXPECT_THROW(run_sweep(spec), ConfigError);
  spec.threads = {12};
  spec.jobs = -1;
  EXPECT_THROW(run_sweep(spec), ConfigError);
}

// The determinism contract of the tentpole: any worker count yields
// byte-identical CSVs because rows keep grid order and every task's seed
// is a pure function of (spec.seed, grid index).
TEST(Sweep, ParallelMatchesSerialByteForByte) {
  for (const char* app : {"hacc", "xsbench"}) {
    SweepSpec spec;
    spec.app = app;
    spec.modes = {Mode::kDramOnly, Mode::kCachedNvm, Mode::kUncachedNvm};
    spec.threads = {12, 24};
    spec.scales = {1.0};

    spec.jobs = 1;
    const auto serial = run_sweep(spec);
    spec.jobs = 4;
    const auto parallel = run_sweep(spec);

    ASSERT_EQ(serial.rows.size(), 6u) << app;
    EXPECT_EQ(sweep_csv(serial), sweep_csv(parallel)) << app;
    EXPECT_EQ(parallel.stats.jobs, 4);
  }
}

TEST(Sweep, StatsCoverTheWholeGrid) {
  SweepSpec spec;
  spec.app = "hacc";
  spec.modes = {Mode::kDramOnly, Mode::kUncachedNvm};
  spec.threads = {12, 24};
  spec.scales = {1.0};
  spec.jobs = 2;
  const auto result = run_sweep(spec);
  ASSERT_EQ(result.stats.tasks.size(),
            result.rows.size() + result.skipped.size());
  EXPECT_GT(result.stats.batch_wall_s, 0.0);
  EXPECT_GT(result.stats.total_task_s(), 0.0);
  EXPECT_GT(result.stats.worker_utilization(), 0.0);
  EXPECT_LE(result.stats.worker_utilization(), 1.0);
  for (std::size_t i = 0; i < result.stats.tasks.size(); ++i) {
    EXPECT_EQ(result.stats.tasks[i].index, i);
    EXPECT_GE(result.stats.tasks[i].wall_s, 0.0);
    EXPECT_FALSE(result.stats.tasks[i].label.empty());
  }
  // the timing export parses as one line per task plus a header
  const std::string csv = sweep_stats_csv(result);
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "task,label,worker,queue_wait_s,wall_s,skipped");
  std::size_t data_lines = 0;
  while (std::getline(in, line)) ++data_lines;
  EXPECT_EQ(data_lines, result.stats.tasks.size());
}

// ---------- executor --------------------------------------------------------

TEST(Executor, SeedDerivationIsPureAndSpreads) {
  EXPECT_EQ(derive_task_seed(7, 0), derive_task_seed(7, 0));
  EXPECT_NE(derive_task_seed(7, 0), derive_task_seed(7, 1));
  EXPECT_NE(derive_task_seed(7, 0), derive_task_seed(8, 0));
}

TEST(Executor, OutcomesKeepTaskOrder) {
  std::vector<ExperimentConfig> tasks;
  for (const int threads : {12, 24, 36}) {
    ExperimentConfig t;
    t.app = "hacc";
    t.sys = SystemConfig::testbed(Mode::kDramOnly);
    t.cfg.threads = threads;
    tasks.push_back(std::move(t));
  }
  ExecutorStats stats;
  const auto serial = run_experiments(tasks, 1, &stats);
  EXPECT_EQ(stats.jobs, 1);
  const auto parallel = run_experiments(tasks, 3);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(serial[i].skipped);
    EXPECT_DOUBLE_EQ(serial[i].result.runtime, parallel[i].result.runtime);
    EXPECT_DOUBLE_EQ(serial[i].result.checksum, parallel[i].result.checksum);
  }
}

TEST(Executor, UnknownAppFailsFastAndConfigErrorsPropagate) {
  std::vector<ExperimentConfig> tasks(1);
  tasks[0].app = "nope";
  tasks[0].sys = SystemConfig::testbed(Mode::kDramOnly);
  EXPECT_THROW(run_experiments(tasks, 2), ConfigError);

  tasks[0].app = "hacc";
  tasks[0].cfg.threads = 0;  // invalid: AppContext validation throws
  EXPECT_THROW(run_experiments(tasks, 2), ConfigError);
}

}  // namespace
}  // namespace nvms
