// Trace recording / replay tests: capture fidelity, serialization
// round-trips, replay equivalence, and cross-configuration what-ifs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "harness/registry.hpp"
#include "replay/recording.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

PhaseRecording record_app(const std::string& app, Mode mode,
                          const AppConfig& cfg, double* runtime = nullptr) {
  MemorySystem sys(SystemConfig::testbed(mode));
  TraceCapture capture(sys);
  AppContext ctx(sys, cfg);
  (void)lookup_app(app).run(ctx);
  if (runtime != nullptr) *runtime = sys.now();
  return capture.finish();
}

TEST(Replay, CaptureSeesEveryPhase) {
  MemorySystem sys(SystemConfig::testbed(Mode::kDramOnly));
  TraceCapture capture(sys);
  const auto id = sys.register_buffer("b", MiB);
  (void)sys.submit(
      PhaseBuilder("one").threads(4).stream(seq_read(id, MiB)).build());
  (void)sys.submit(
      PhaseBuilder("two").threads(4).stream(seq_write(id, MiB)).build());
  const auto rec = capture.finish();
  ASSERT_EQ(rec.phases.size(), 2u);
  EXPECT_EQ(rec.phases[0].name, "one");
  EXPECT_EQ(rec.phases[1].name, "two");
  ASSERT_EQ(rec.buffers.size(), 1u);
  EXPECT_EQ(rec.buffers[0].name, "b");
  EXPECT_EQ(rec.total_bytes(), 2 * MiB);
}

TEST(Replay, DetachedCaptureStopsRecording) {
  MemorySystem sys(SystemConfig::testbed(Mode::kDramOnly));
  const auto id = sys.register_buffer("b", MiB);
  {
    TraceCapture capture(sys);
    (void)capture;
  }  // destroyed without finish(): observer detached
  (void)sys.submit(
      PhaseBuilder("p").threads(4).stream(seq_read(id, MiB)).build());
  // a fresh capture starts empty
  TraceCapture capture(sys);
  const auto rec = capture.finish();
  EXPECT_TRUE(rec.empty());
}

TEST(Replay, SerializationRoundTrip) {
  AppConfig cfg;
  cfg.threads = 24;
  const auto rec = record_app("laghos", Mode::kUncachedNvm, cfg);
  const std::string text = rec.save();
  EXPECT_NE(text.find("nvmstrace v1"), std::string::npos);
  const auto back = PhaseRecording::load(text);
  ASSERT_EQ(back.phases.size(), rec.phases.size());
  ASSERT_EQ(back.buffers.size(), rec.buffers.size());
  EXPECT_EQ(back.total_bytes(), rec.total_bytes());
  for (std::size_t i = 0; i < rec.phases.size(); ++i) {
    EXPECT_EQ(back.phases[i].name, rec.phases[i].name);
    EXPECT_EQ(back.phases[i].threads, rec.phases[i].threads);
    EXPECT_DOUBLE_EQ(back.phases[i].flops, rec.phases[i].flops);
    ASSERT_EQ(back.phases[i].streams.size(), rec.phases[i].streams.size());
    for (std::size_t j = 0; j < rec.phases[i].streams.size(); ++j) {
      EXPECT_EQ(back.phases[i].streams[j].bytes,
                rec.phases[i].streams[j].bytes);
      EXPECT_EQ(back.phases[i].streams[j].granule,
                rec.phases[i].streams[j].granule);
      EXPECT_EQ(back.phases[i].streams[j].reuse,
                rec.phases[i].streams[j].reuse);
    }
  }
}

TEST(Replay, ReplayReproducesTheRuntimeExactly) {
  AppConfig cfg;
  cfg.threads = 36;
  double original = 0.0;
  const auto rec = record_app("superlu", Mode::kUncachedNvm, cfg, &original);
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  const double replayed = rec.replay(sys);
  EXPECT_NEAR(replayed, original, 1e-12 * original);
}

TEST(Replay, CrossModeWhatIf) {
  // Record once on uncached NVM; replay on DRAM-only: the replayed run
  // must match a native DRAM run of the same app (same traffic).
  AppConfig cfg;
  cfg.threads = 36;
  const auto rec = record_app("hypre", Mode::kUncachedNvm, cfg);

  double native_dram = 0.0;
  (void)record_app("hypre", Mode::kDramOnly, cfg, &native_dram);

  MemorySystem dram_sys(SystemConfig::testbed(Mode::kDramOnly));
  const double replayed = rec.replay(dram_sys);
  EXPECT_NEAR(replayed, native_dram, 1e-9 * native_dram);
}

TEST(Replay, DeviceWhatIfSweep) {
  // Replay the same recording against a hypothetical next-gen NVM with
  // 2x write bandwidth: the write-throttled app must speed up.
  AppConfig cfg;
  cfg.threads = 36;
  const auto rec = record_app("ft", Mode::kUncachedNvm, cfg);

  MemorySystem base(SystemConfig::testbed(Mode::kUncachedNvm));
  const double base_time = rec.replay(base);

  SystemConfig improved_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  improved_cfg.nvm.write_bw_peak *= 2.0;
  MemorySystem improved(improved_cfg);
  const double improved_time = rec.replay(improved);
  EXPECT_LT(improved_time, 0.65 * base_time);
}

TEST(Replay, SerializationPreservesAwkwardDoubles) {
  // Regression: default stream precision (6 digits) would truncate these.
  PhaseRecording rec;
  rec.buffers.push_back({"b", 123456789, Placement::kNvm});
  Phase p;
  p.name = "p";
  p.threads = 7;
  p.flops = 86507523.0;            // 8 significant digits
  p.parallel_fraction = 0.9876543;
  p.mlp = 3.1415926535;
  p.overlap = 0.123456789;
  p.streams.push_back(seq_read(0, 987654321));
  rec.phases.push_back(p);
  const auto back = PhaseRecording::load(rec.save());
  ASSERT_EQ(back.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(back.phases[0].flops, p.flops);
  EXPECT_DOUBLE_EQ(back.phases[0].parallel_fraction, p.parallel_fraction);
  EXPECT_DOUBLE_EQ(back.phases[0].mlp, p.mlp);
  EXPECT_DOUBLE_EQ(back.phases[0].overlap, p.overlap);
  EXPECT_EQ(back.phases[0].streams[0].bytes, 987654321u);
}

TEST(Replay, SavedFileReplaysIdentically) {
  // Full fidelity end-to-end: record -> save -> load -> replay must equal
  // the original runtime bit-for-bit practically.
  AppConfig cfg;
  cfg.threads = 36;
  double original = 0.0;
  const auto rec = record_app("superlu", Mode::kUncachedNvm, cfg, &original);
  const auto back = PhaseRecording::load(rec.save());
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  EXPECT_NEAR(back.replay(sys), original, 1e-12 * original);
}

TEST(Replay, LoadRejectsMalformedInput) {
  EXPECT_THROW(PhaseRecording::load("garbage"), ConfigError);
  EXPECT_THROW(PhaseRecording::load("nvmstrace v1\nwat 1 2 3\n"),
               ConfigError);
  EXPECT_THROW(
      PhaseRecording::load("nvmstrace v1\nphase p 4 0 1 8 1 1\n"),
      ConfigError);  // stream promised but missing
  EXPECT_THROW(PhaseRecording::load(
                   "nvmstrace v1\nphase p 4 0 1 8 1 1\n"
                   "stream 0 100 seq read 64 1 2097152\n"),
               ConfigError);  // stream references unknown buffer
  EXPECT_THROW(PhaseRecording::load("nvmstrace v1\nbuffer b 100 sideways\n"),
               ConfigError);
}

void expect_load_error(const std::string& text, const std::string& needle) {
  try {
    (void)PhaseRecording::load(text);
    FAIL() << "load accepted malformed input: " << text;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what() << "\nwanted substring: " << needle;
  }
}

TEST(Replay, LoadReportsWhatIsMalformed) {
  // Each rejection names the defect — the trace format is hand-editable
  // (and CLI-loadable), so the diagnostics matter.
  expect_load_error("", "bad header");
  expect_load_error("nvmstrace v2\n", "bad header");
  expect_load_error("nvmstrace v1\nbuffer b 100\n", "truncated buffer line");
  expect_load_error("nvmstrace v1\nphase p 4 0 1\n", "truncated phase line");
  expect_load_error(
      "nvmstrace v1\nbuffer b 100 auto\nphase p 4 0 1 8 1 1\n"
      "stream 0 100 seq read 64 1\n",
      "truncated stream line");
  expect_load_error(
      "nvmstrace v1\nbuffer b 100 auto\nphase p 4 0 1 8 1 1\n"
      "stream 0 100 diag read 64 1 2097152\n",
      "unknown pattern 'diag'");
  expect_load_error("nvmstrace v1\nbuffer b 100 sideways\n",
                    "unknown placement 'sideways'");
  expect_load_error(
      "nvmstrace v1\nbuffer b 100 auto\nphase p 4 0 1 8 1 1\n"
      "stream 0 100 seq readwrite 64 1 2097152\n",
      "unknown direction 'readwrite'");
  expect_load_error(
      "nvmstrace v1\nbuffer b 100 auto\nbuffer b 200 dram\n",
      "duplicate buffer name 'b'");
  expect_load_error(
      "nvmstrace v1\nphase p 4 0 1 8 1 1\nbuffer b 100 auto\n",
      "buffer inside phase");
  expect_load_error(
      "nvmstrace v1\nphase p 4 0 1 8 1 1\nphase q 4 0 1 8 1 1\n",
      "phase while streams pending");
}

TEST(Replay, LoadNamesTheLineFieldAndValueOfABadNumber) {
  const std::string head = "nvmstrace v1\nbuffer b 100 auto\n";
  const auto phase = [&](const std::string& fields) {
    return head + "phase p " + fields + "\nstream 0 100 seq read 64 1 64\n";
  };
  const auto stream = [&](const std::string& fields) {
    return head + "phase p 4 0 1 8 1 1\nstream " + fields + "\n";
  };
  expect_load_error(phase("4 nan 1 8 1 1"),
                    "line 3: field `flops`: bad value `nan`");
  expect_load_error(phase("4 0 inf 8 1 1"),
                    "line 3: field `parallel_fraction`: bad value `inf`");
  expect_load_error(phase("4 0 1 -inf 1 1"),
                    "line 3: field `mlp`: bad value `-inf`");
  expect_load_error(phase("4 0 1 8 nan 1"),
                    "line 3: field `overlap`: bad value `nan`");
  // Out of range: flops below zero, fractions outside [0,1].
  expect_load_error(phase("4 -3e13 1 8 1 1"),
                    "line 3: field `flops`: bad value `-3e13`");
  expect_load_error(phase("4 0 1.5 8 1 1"),
                    "line 3: field `parallel_fraction`: bad value `1.5`");
  expect_load_error(phase("4 0 -0.1 8 1 1"),
                    "line 3: field `parallel_fraction`: bad value `-0.1`");
  expect_load_error(phase("4 0 1 8 2 1"),
                    "line 3: field `overlap`: bad value `2`");
  expect_load_error(phase("4 0 1 8 -1e-9 1"),
                    "line 3: field `overlap`: bad value `-1e-9`");
  expect_load_error(phase("0 0 1 8 1 1"),
                    "line 3: field `threads`: bad value `0`");
  expect_load_error(phase("-2 0 1 8 1 1"),
                    "line 3: field `threads`: bad value `-2`");
  expect_load_error(phase("4 0 1 8 1 -1"),
                    "line 3: field `streams`: bad value `-1`");
  expect_load_error(stream("0 1e30 seq read 64 1 64"),
                    "line 4: field `bytes`: bad value `1e30`");
  expect_load_error(stream("0 99999999999999999999 seq read 64 1 64"),
                    "line 4: field `bytes`: bad value `99999999999999999999`");
  expect_load_error(stream("-1 100 seq read 64 1 64"),
                    "line 4: field `buffer`: bad value `-1`");
  expect_load_error(stream("0 100 seq read 64 -5 64"),
                    "line 4: field `reuse`: bad value `-5`");
  expect_load_error(stream("0 100 seq read 64 0 64"),
                    "line 4: field `reuse`: bad value `0`");
  expect_load_error(stream("0 100 seq read 0 1 64"),
                    "line 4: field `granule`: bad value `0`");
  expect_load_error(stream("0 100 seq read 64 1 0"),
                    "line 4: field `reuse_block`: bad value `0`");
  expect_load_error(head + "buffer c -100 auto\n",
                    "line 3: field `bytes`: bad value `-100`");
  // A short line is still "truncated", and says which line.
  expect_load_error(stream("0 100 seq read 64 1"),
                    "line 4: truncated stream line");
}

TEST(Replay, BaselineTraceRoundTripsThroughSaveAndLoad) {
  std::ifstream in(std::string(NVMS_SOURCE_DIR) +
                   "/bench/baselines/hypre-uncached.trace");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const PhaseRecording rec = PhaseRecording::load(buf.str());
  EXPECT_FALSE(rec.empty());
  EXPECT_EQ(rec.save(), buf.str());
  EXPECT_EQ(PhaseRecording::load(rec.save()).save(), buf.str());
}

TEST(Replay, SaveRejectsNamesWithWhitespace) {
  // Names are single tokens in the line format; a space would silently
  // shift every following field on reload.
  PhaseRecording rec;
  rec.buffers.push_back({"bad name", 100, Placement::kAuto});
  EXPECT_THROW((void)rec.save(), ConfigError);

  PhaseRecording rec2;
  rec2.buffers.push_back({"ok", 100, Placement::kAuto});
  Phase p;
  p.name = "phase\tname";
  rec2.phases.push_back(p);
  EXPECT_THROW((void)rec2.save(), ConfigError);
}

TEST(Replay, ReplayRequiresFreshSystem) {
  AppConfig cfg;
  cfg.threads = 12;
  const auto rec = record_app("hacc", Mode::kDramOnly, cfg);
  MemorySystem sys(SystemConfig::testbed(Mode::kDramOnly));
  (void)sys.register_buffer("preexisting", MiB);
  EXPECT_THROW(rec.replay(sys), ConfigError);
}

}  // namespace
}  // namespace nvms
