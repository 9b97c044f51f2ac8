// Google-benchmark microbenchmarks of the simulator's hot paths: phase
// resolution (the damped fixed point), DRAM-cache stream access, and
// whole-app simulation throughput.  These guard the simulator's own
// performance — bench binaries replay billions of simulated bytes, so the
// per-phase cost must stay in microseconds.
#include <benchmark/benchmark.h>

#include "harness/kernel_bench.hpp"
#include "harness/registry.hpp"
#include "mem/buffer.hpp"
#include "memsim/dram_cache.hpp"
#include "memsim/memory_system.hpp"
#include "memsim/resolve_cache.hpp"
#include "obs/telemetry.hpp"
#include "simcore/units.hpp"

using namespace nvms;

namespace {

void BM_ResolvePhase(benchmark::State& state) {
  const auto dram = ddr4_socket_params(96 * GiB);
  const auto nvm = optane_socket_params(768 * GiB);
  const CpuParams cpu;
  Phase p;
  p.name = "bm";
  p.threads = 36;
  p.flops = 1e9;
  DeviceDemand nvm_dem;
  nvm_dem.add(Pattern::kSequential, Dir::kRead, 54 * GiB);
  nvm_dem.add(Pattern::kSequential, Dir::kWrite, 33 * GiB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolve_phase(p, {}, nvm_dem, dram, nvm, cpu));
  }
}
BENCHMARK(BM_ResolvePhase);

void BM_CacheSequentialStream(benchmark::State& state) {
  CacheParams cp;
  cp.line = 4 * KiB;
  cp.capacity = 96 * MiB;
  DramCache cache(cp);
  const StreamDesc rd = seq_read(0, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rd, 0, 64 * MiB));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CacheSequentialStream)->Arg(1 * MiB)->Arg(16 * MiB)->Arg(64 * MiB);

void BM_CacheRandomStream(benchmark::State& state) {
  CacheParams cp;
  cp.line = 4 * KiB;
  cp.capacity = 96 * MiB;
  DramCache cache(cp);
  const StreamDesc rr = rand_read(0, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rr, 0, 64 * MiB));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CacheRandomStream)->Arg(1 * MiB)->Arg(16 * MiB);

// Memoized resolution: arg 0 = the plain damped fixed point, arg 1 = a
// ResolveCache hot hit on the same inputs.  The gap between the two is
// what a sweep saves on every repeated phase shape.
void BM_ResolveCache(benchmark::State& state) {
  const auto dram = ddr4_socket_params(96 * GiB);
  const auto nvm = optane_socket_params(768 * GiB);
  const CpuParams cpu;
  Phase p;
  p.name = "bm";
  p.threads = 36;
  p.flops = 1e9;
  std::vector<LaneDemand> lanes(2);
  lanes[0].dev = &dram;
  lanes[0].label = "dram0";
  lanes[1].dev = &nvm;
  lanes[1].label = "nvm0";
  lanes[1].dem.add(Pattern::kSequential, Dir::kRead, 54 * GiB);
  lanes[1].dem.add(Pattern::kSequential, Dir::kWrite, 33 * GiB);
  ResolveCache cache(1);
  ResolveScratch scratch;
  ResolveKey key;
  MultiResolution out;
  if (state.range(0) != 0) {
    // Prime the single entry; every timed iteration is a hit.
    cache.resolve_into(p, lanes, cpu, 0.0, 0.0, nullptr, 0.0, &scratch, &key,
                       &out);
  }
  for (auto _ : state) {
    if (state.range(0) != 0) {
      cache.resolve_into(p, lanes, cpu, 0.0, 0.0, nullptr, 0.0, &scratch,
                         &key, &out);
    } else {
      resolve_lanes_into(p, lanes, cpu, 0.0, 0.0, nullptr, 0.0, &scratch,
                         &out);
    }
    benchmark::DoNotOptimize(out.time);
  }
  state.SetLabel(state.range(0) != 0 ? "hit" : "fixed-point");
}
BENCHMARK(BM_ResolveCache)->Arg(0)->Arg(1);

void BM_SubmitPhase(benchmark::State& state) {
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  const auto id = sys.register_buffer("bm", 32 * MiB);
  Phase p = PhaseBuilder("bm")
                .threads(36)
                .flops(1e8)
                .stream(seq_read(id, 16 * MiB))
                .stream(seq_write(id, 4 * MiB))
                .build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.submit(p));
  }
}
BENCHMARK(BM_SubmitPhase);

// Same phase stream with the telemetry layer attached: arg 0 = null sink
// (hooks run, sinks drop), arg 1 = full capture (spans + metric series
// retained).  Compare against BM_SubmitPhase for the per-phase cost.
void BM_SubmitPhaseTelemetry(benchmark::State& state) {
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  Telemetry telemetry(state.range(0) != 0 ? Telemetry::Capture::kFull
                                          : Telemetry::Capture::kNull);
  sys.set_telemetry(&telemetry);
  const auto id = sys.register_buffer("bm", 32 * MiB);
  Phase p = PhaseBuilder("bm")
                .threads(36)
                .flops(1e8)
                .stream(seq_read(id, 16 * MiB))
                .stream(seq_write(id, 4 * MiB))
                .build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.submit(p));
  }
  state.SetLabel(state.range(0) != 0 ? "full" : "null-sink");
}
BENCHMARK(BM_SubmitPhaseTelemetry)->Arg(0)->Arg(1);

void BM_WholeApp(benchmark::State& state) {
  AppConfig cfg;
  cfg.threads = 36;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_app("scalapack", Mode::kUncachedNvm, cfg));
  }
}
BENCHMARK(BM_WholeApp)->Unit(benchmark::kMillisecond);

// Epoch-kernel replay throughput (the tentpole hot path): one harvested
// cached-NVM corpus — app-side work excluded — replayed per iteration.
// epochs/s is phase submissions through resolve_lanes + walk_batch per
// wall second; lane-GB/s is the simulated stream traffic those epochs
// push through the lane kernels per wall second.  Arg 0 replays the raw
// kernels, arg 1 the memoized (shared resolve-cache) hot path.
void BM_EpochReplay(benchmark::State& state) {
  static const std::vector<PhaseCorpus> corpora = [] {
    init_registry();
    std::vector<PhaseCorpus> c;
    c.push_back(harvest_corpus("xsbench", Mode::kCachedNvm));
    c.push_back(harvest_corpus("ft", Mode::kCachedNvm));
    return c;
  }();
  const auto mode = state.range(0) != 0 ? ResolveCacheMode::kShared
                                        : ResolveCacheMode::kOff;
  std::uint64_t epochs = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const ReplayResult r = replay_corpora(corpora, 1, mode);
    benchmark::DoNotOptimize(r.time_fold);
    epochs += r.epochs;
    bytes += r.stream_bytes;
  }
  state.counters["epochs/s"] = benchmark::Counter(
      static_cast<double>(epochs), benchmark::Counter::kIsRate);
  state.counters["lane-GB/s"] = benchmark::Counter(
      static_cast<double>(bytes) / 1e9, benchmark::Counter::kIsRate);
  state.SetLabel(state.range(0) != 0 ? "memoized" : "raw-kernels");
}
BENCHMARK(BM_EpochReplay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
