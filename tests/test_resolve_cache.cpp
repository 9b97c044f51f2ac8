// Phase-resolution memoization tests: key normalization, hit/miss/evict
// accounting, the byte-identical-replay invariant (results and telemetry
// streams), the thread-clamp boundary, and end-to-end sweep determinism
// (cache-off serial vs shared-cache parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness/sweep.hpp"
#include "memsim/memory_system.hpp"
#include "memsim/resolve.hpp"
#include "memsim/resolve_cache.hpp"
#include "obs/telemetry.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

Phase make_phase(const std::string& name, int threads = 24) {
  Phase p;
  p.name = name;
  p.threads = threads;
  p.flops = 1e9;
  p.mlp = 8.0;
  return p;
}

std::vector<LaneDemand> make_lanes(const DeviceParams& dram,
                                   const DeviceParams& nvm,
                                   std::uint64_t read_bytes = 256 * MiB,
                                   std::uint64_t write_bytes = 64 * MiB) {
  std::vector<LaneDemand> lanes(2);
  lanes[0].dev = &dram;
  lanes[0].label = "dram0";
  lanes[0].dem.add(PatClass::kSeq, Dir::kRead, read_bytes);
  lanes[1].dev = &nvm;
  lanes[1].label = "nvm0";
  lanes[1].dem.add(PatClass::kSeq, Dir::kWrite, write_bytes);
  return lanes;
}

/// Captures every epoch sample verbatim for stream comparison.
struct CaptureProbe final : EpochProbe {
  struct Sample {
    std::string name, device;
    double t, value;
  };
  std::vector<Sample> samples;
  void epoch_sample(std::string_view name, std::string_view device,
                    double t, double value) override {
    samples.push_back({std::string(name), std::string(device), t, value});
  }
};

/// One memoized resolution through ResolveCache::resolve_into, returned
/// by value so miss and hit results can be compared side by side.
MultiResolution resolve_via(ResolveCache& cache, const Phase& p,
                            const std::vector<LaneDemand>& lanes,
                            const CpuParams& cpu, EpochProbe* probe,
                            double epoch_t) {
  ResolveScratch scratch;
  ResolveKey key;
  MultiResolution out;
  cache.resolve_into(p, lanes, cpu, 0.0, 0.0, probe, epoch_t, &scratch, &key,
                     &out);
  return out;
}

TEST(ResolveCacheMode, Parsing) {
  EXPECT_EQ(parse_resolve_cache_mode("off"), ResolveCacheMode::kOff);
  EXPECT_EQ(parse_resolve_cache_mode("shared"), ResolveCacheMode::kShared);
  EXPECT_FALSE(parse_resolve_cache_mode("run").has_value());
  EXPECT_FALSE(parse_resolve_cache_mode("ON").has_value());
  EXPECT_FALSE(parse_resolve_cache_mode("").has_value());
  EXPECT_STREQ(to_string(ResolveCacheMode::kShared), "shared");
}

TEST(ResolveKey, PhaseNameDoesNotAffectKey) {
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  const auto lanes = make_lanes(dram, nvm);
  CpuParams cpu;
  const auto a = make_resolve_key(make_phase("iter-1"), lanes, cpu, 0, 0);
  const auto b = make_resolve_key(make_phase("iter-2"), lanes, cpu, 0, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ResolveKey, ThreadsClampLikeTheResolver) {
  // Oversubscribed phases resolve identically to max_threads (the
  // resolver clamps), so they must share one cache entry.
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  const auto lanes = make_lanes(dram, nvm);
  CpuParams cpu;
  const int max = cpu.max_threads();
  const auto at_max =
      make_resolve_key(make_phase("p", max), lanes, cpu, 0, 0);
  const auto over =
      make_resolve_key(make_phase("p", 2 * max), lanes, cpu, 0, 0);
  const auto under =
      make_resolve_key(make_phase("p", max - 1), lanes, cpu, 0, 0);
  EXPECT_EQ(at_max, over);
  EXPECT_FALSE(at_max == under);
}

TEST(ResolveKey, DemandAndDeviceChangesChangeTheKey) {
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  CpuParams cpu;
  const Phase p = make_phase("p");
  const auto base =
      make_resolve_key(p, make_lanes(dram, nvm), cpu, 0, 0);
  // One byte of demand difference -> different key.
  const auto more_demand = make_resolve_key(
      p, make_lanes(dram, nvm, 256 * MiB + 1), cpu, 0, 0);
  EXPECT_FALSE(base == more_demand);
  // A resolution-relevant device change -> different key.
  DeviceParams slower_nvm = nvm;
  slower_nvm.write_bw_peak *= 0.5;
  const auto slower =
      make_resolve_key(p, make_lanes(dram, slower_nvm), cpu, 0, 0);
  EXPECT_FALSE(base == slower);
  // The UPI constraint participates too.
  const auto upi =
      make_resolve_key(p, make_lanes(dram, nvm), cpu, 1 * GiB, 31.2e9);
  EXPECT_FALSE(base == upi);
}

TEST(ResolveCache, HitReturnsTheResolvedValue) {
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  const auto lanes = make_lanes(dram, nvm);
  CpuParams cpu;
  const Phase p = make_phase("p");
  const MultiResolution direct =
      resolve_lanes(p, lanes, cpu, 0.0, 0.0, nullptr, 0.0);

  ResolveCache cache(2);
  const MultiResolution miss =
      resolve_via(cache, p, lanes, cpu, nullptr, 0.0);
  const MultiResolution hit = resolve_via(cache, p, lanes, cpu, nullptr, 1.5);
  for (const MultiResolution* r : {&miss, &hit}) {
    EXPECT_DOUBLE_EQ(r->time, direct.time);
    EXPECT_DOUBLE_EQ(r->compute_time, direct.compute_time);
    ASSERT_EQ(r->lanes.size(), direct.lanes.size());
    for (std::size_t i = 0; i < direct.lanes.size(); ++i) {
      EXPECT_DOUBLE_EQ(r->lanes[i].read_bw, direct.lanes[i].read_bw);
      EXPECT_DOUBLE_EQ(r->lanes[i].write_bw, direct.lanes[i].write_bw);
      EXPECT_DOUBLE_EQ(r->lanes[i].wpq_util, direct.lanes[i].wpq_util);
      EXPECT_DOUBLE_EQ(r->lanes[i].throttle, direct.lanes[i].throttle);
    }
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResolveCache, HitReplaysTheExactTelemetryStream) {
  // The byte-identical-replay invariant: a hit must emit the same samples
  // a fresh resolution would, re-stamped at the hit's virtual time.  The
  // first resolution here runs without any probe attached — the recording
  // must happen regardless.
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  const auto lanes = make_lanes(dram, nvm);
  CpuParams cpu;
  const Phase p = make_phase("p");

  CaptureProbe expected;
  resolve_lanes(p, lanes, cpu, 0.0, 0.0, &expected, 2.25);

  ResolveCache cache(1);
  (void)resolve_via(cache, p, lanes, cpu, nullptr, 0.0);  // probeless
  CaptureProbe replayed;
  (void)resolve_via(cache, p, lanes, cpu, &replayed, 2.25);

  ASSERT_EQ(replayed.samples.size(), expected.samples.size());
  ASSERT_GT(expected.samples.size(), 0u);
  for (std::size_t i = 0; i < expected.samples.size(); ++i) {
    EXPECT_EQ(replayed.samples[i].name, expected.samples[i].name);
    EXPECT_EQ(replayed.samples[i].device, expected.samples[i].device);
    EXPECT_DOUBLE_EQ(replayed.samples[i].t, expected.samples[i].t);
    EXPECT_DOUBLE_EQ(replayed.samples[i].value, expected.samples[i].value);
  }
}

TEST(ResolveCache, EvictionKeepsTheCacheBounded) {
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  CpuParams cpu;
  ResolveCache cache(/*shards=*/1, /*max_entries=*/4);
  for (int i = 0; i < 16; ++i) {
    const auto lanes =
        make_lanes(dram, nvm, 1 * MiB * static_cast<std::uint64_t>(i + 1));
    (void)resolve_via(cache, make_phase("p"), lanes, cpu, nullptr, 0.0);
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 16u);
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, 12u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.0);
}

TEST(ResolveCache, PublishExportsGauges) {
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  const auto lanes = make_lanes(dram, nvm);
  CpuParams cpu;
  ResolveCache cache(1);
  (void)resolve_via(cache, make_phase("p"), lanes, cpu, nullptr, 0.0);
  (void)resolve_via(cache, make_phase("q"), lanes, cpu, nullptr, 0.0);

  MetricsRegistry m;
  cache.publish(m);
  double hits = -1.0, hit_rate = -1.0;
  for (const auto& metric : m.metrics()) {
    if (metric.name == "resolve_cache.hits") hits = metric.value;
    if (metric.name == "resolve_cache.hit_rate") hit_rate = metric.value;
  }
  EXPECT_DOUBLE_EQ(hits, 1.0);  // "q" has the same shape as "p"
  EXPECT_DOUBLE_EQ(hit_rate, 0.5);
}

TEST(ResolveCache, SubmitWithCacheMatchesWithout) {
  // Whole-system check: two identical systems, one cached, run the same
  // phases (including repeats) and must agree on clock and counters.
  SystemConfig cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  MemorySystem plain(cfg);
  MemorySystem cached(cfg);
  ResolveCache cache(2);
  cached.set_resolve_cache(&cache);

  for (MemorySystem* sys : {&plain, &cached}) {
    const auto id = sys->register_buffer("b", 8 * MiB);
    for (int i = 0; i < 5; ++i) {
      (void)sys->submit(PhaseBuilder("iter")
                            .threads(24)
                            .flops(1e9)
                            .stream(seq_read(id, 512 * MiB))
                            .stream(seq_write(id, 128 * MiB))
                            .build());
    }
  }
  EXPECT_DOUBLE_EQ(plain.now(), cached.now());
  EXPECT_DOUBLE_EQ(plain.counters().cycles_active,
                   cached.counters().cycles_active);
  EXPECT_DOUBLE_EQ(plain.counters().stall_cycles,
                   cached.counters().stall_cycles);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 4u);
}

TEST(ResolveCache, ThreadClampBoundaryIsConsistent) {
  // Timing and counters both clamp concurrency to cpu.max_threads(): a
  // phase at the boundary and one oversubscribed past it must behave
  // identically end to end (and share a cache entry).
  SystemConfig cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const int max = cfg.cpu.max_threads();
  double now[2];
  double cycles[2];
  int i = 0;
  ResolveCache cache(1);
  for (const int threads : {max, 2 * max}) {
    MemorySystem sys(cfg);
    sys.set_resolve_cache(&cache);
    const auto id = sys.register_buffer("b", 8 * MiB);
    (void)sys.submit(PhaseBuilder("p")
                         .threads(threads)
                         .flops(1e9)
                         .stream(seq_read(id, 1 * GiB))
                         .build());
    now[i] = sys.now();
    cycles[i] = sys.counters().cycles_active;
    ++i;
  }
  EXPECT_DOUBLE_EQ(now[0], now[1]);
  EXPECT_DOUBLE_EQ(cycles[0], cycles[1]);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);  // one entry serves both
  EXPECT_EQ(s.hits, 1u);
}

TEST(ResolveCache, SweepExportsAreByteIdenticalAcrossModesAndJobs) {
  // End-to-end determinism: the reference sweep (cache off, serial) must
  // produce byte-identical CSV, Chrome-trace and metrics exports to a
  // shared-cache parallel sweep.
  SweepSpec ref;
  ref.app = "stream";
  ref.modes = {Mode::kDramOnly, Mode::kCachedNvm, Mode::kUncachedNvm};
  ref.threads = {12, 24};
  ref.jobs = 1;
  ref.telemetry = true;
  ref.resolve_cache = ResolveCacheMode::kOff;
  const auto base = run_sweep(ref);

  SweepSpec shared_spec = ref;
  shared_spec.jobs = 4;
  shared_spec.resolve_cache = ResolveCacheMode::kShared;
  const auto shared_res = run_sweep(shared_spec);

  EXPECT_EQ(sweep_csv(shared_res), sweep_csv(base));
  EXPECT_EQ(sweep_chrome_trace(shared_res), sweep_chrome_trace(base));
  EXPECT_EQ(sweep_metrics_csv(shared_res), sweep_metrics_csv(base));
  EXPECT_GT(shared_res.cache_stats.hits, 0u);
  // The Memory-mode cells of the shared sweep repeat one sampler
  // trajectory across the thread dimension: the stream memo must see it.
  EXPECT_GT(shared_res.stream_stats.hits, 0u);
  EXPECT_EQ(base.cache_stats.hits + base.cache_stats.misses, 0u);
  EXPECT_EQ(base.stream_stats.hits + base.stream_stats.misses, 0u);
}

TEST(ResolveCache, LoneCellGridConsultsOnlyACallerCache) {
  // A 1-cell grid has nothing to share a grid-local cache with, so kShared
  // runs it uncached; a caller-owned cache (nvmsimd's) is still consulted.
  // Rows and exports stay byte-identical either way.
  SweepSpec spec;
  spec.app = "stream";
  spec.modes = {Mode::kCachedNvm};
  spec.threads = {12};
  spec.telemetry = true;
  const auto off = run_sweep(spec);

  spec.resolve_cache = ResolveCacheMode::kShared;
  const auto lone = run_sweep(spec);
  EXPECT_EQ(lone.cache_stats.hits + lone.cache_stats.misses, 0u);
  EXPECT_EQ(lone.stream_stats.hits + lone.stream_stats.misses, 0u);

  ResolveCache external;
  spec.external_cache = &external;
  const auto borrowed = run_sweep(spec);
  EXPECT_GT(borrowed.cache_stats.misses, 0u);
  EXPECT_GT(borrowed.stream_stats.misses, 0u);

  for (const SweepResult* r : {&lone, &borrowed}) {
    EXPECT_EQ(sweep_csv(*r), sweep_csv(off));
    EXPECT_EQ(sweep_chrome_trace(*r), sweep_chrome_trace(off));
    EXPECT_EQ(sweep_metrics_csv(*r), sweep_metrics_csv(off));
  }
}

/// Submit the same Memory-mode phase program (sequential, strided and
/// random streams, so tags and the RNG all participate) to `sys`.
void run_cached_program(MemorySystem& sys) {
  const auto a = sys.register_buffer("a", 8 * MiB);
  const auto b = sys.register_buffer("b", 24 * MiB);
  for (int i = 0; i < 3; ++i) {
    (void)sys.submit(PhaseBuilder("iter")
                         .threads(24)
                         .flops(1e8)
                         .stream(seq_read(a, 32 * MiB))
                         .stream(rand_read(b, 16 * MiB))
                         .stream(seq_write(b, 8 * MiB))
                         .build());
  }
}

TEST(StreamMemo, IdenticalTrajectoriesSkipTheWalkByteIdentically) {
  // Two Memory-mode systems sharing one cache replay the same stream
  // trajectory: the second run must hit the stream memo for every access
  // and still agree exactly with a memo-less reference.
  const SystemConfig cfg = SystemConfig::testbed(Mode::kCachedNvm);
  MemorySystem plain(cfg);
  run_cached_program(plain);

  ResolveCache cache(2);
  MemorySystem first(cfg);
  first.set_resolve_cache(&cache);
  run_cached_program(first);
  const auto after_first = cache.stream_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.misses, 0u);

  MemorySystem second(cfg);
  second.set_resolve_cache(&cache);
  run_cached_program(second);
  const auto after_second = cache.stream_stats();
  EXPECT_EQ(after_second.hits, after_first.misses);  // every access hit

  for (MemorySystem* sys : {&first, &second}) {
    EXPECT_DOUBLE_EQ(sys->now(), plain.now());
    EXPECT_DOUBLE_EQ(sys->counters().cycles_active,
                     plain.counters().cycles_active);
    EXPECT_DOUBLE_EQ(sys->counters().imc_reads, plain.counters().imc_reads);
    EXPECT_DOUBLE_EQ(sys->counters().imc_writes,
                     plain.counters().imc_writes);
  }
}

TEST(StreamMemo, DivergentTrajectoryCatchesUpExactly) {
  // A trajectory that starts like a memoized one (hits, walks skipped)
  // and then diverges must rebuild the tag/RNG state it skipped: its
  // post-divergence outcomes have to match a memo-less run byte for byte.
  const SystemConfig cfg = SystemConfig::testbed(Mode::kCachedNvm);
  const auto diverged = [](MemorySystem& sys) {
    const auto a = sys.register_buffer("a", 8 * MiB);
    (void)sys.submit(PhaseBuilder("shared-prefix")
                         .threads(24)
                         .stream(rand_read(a, 16 * MiB))
                         .stream(seq_write(a, 8 * MiB))
                         .build());
    // Divergence point: different byte count than the memoized run.
    (void)sys.submit(PhaseBuilder("divergent")
                         .threads(24)
                         .stream(rand_read(a, 12 * MiB))
                         .build());
  };

  ResolveCache cache(1);
  MemorySystem seedrun(cfg);
  seedrun.set_resolve_cache(&cache);
  run_cached_program(seedrun);  // populates the memo with another program

  MemorySystem prefix_donor(cfg);
  prefix_donor.set_resolve_cache(&cache);
  {
    const auto a = prefix_donor.register_buffer("a", 8 * MiB);
    (void)prefix_donor.submit(PhaseBuilder("shared-prefix")
                                  .threads(24)
                                  .stream(rand_read(a, 16 * MiB))
                                  .stream(seq_write(a, 8 * MiB))
                                  .build());
  }

  MemorySystem plain(cfg);
  diverged(plain);
  MemorySystem memoized(cfg);
  memoized.set_resolve_cache(&cache);
  diverged(memoized);  // prefix hits, then the divergence forces catch-up

  EXPECT_GT(cache.stream_stats().hits, 0u);
  EXPECT_DOUBLE_EQ(memoized.now(), plain.now());
  EXPECT_DOUBLE_EQ(memoized.counters().imc_reads,
                   plain.counters().imc_reads);
  EXPECT_DOUBLE_EQ(memoized.counters().imc_writes,
                   plain.counters().imc_writes);
}

TEST(StreamMemo, ResetStaysConsistent) {
  // reset_stats(drop_cache=true) mid-run: the RNG keeps its state across
  // the reset, so memoized and memo-less systems must stay in lockstep
  // through it (the memo folds a reset marker and catches up first).
  const SystemConfig cfg = SystemConfig::testbed(Mode::kCachedNvm);
  const auto program = [](MemorySystem& sys) {
    const auto a = sys.register_buffer("a", 8 * MiB);
    (void)sys.submit(PhaseBuilder("before")
                         .threads(24)
                         .stream(rand_read(a, 16 * MiB))
                         .build());
    sys.reset_stats(/*drop_cache=*/true);
    (void)sys.submit(PhaseBuilder("after")
                         .threads(24)
                         .stream(rand_read(a, 16 * MiB))
                         .build());
  };
  MemorySystem plain(cfg);
  program(plain);

  ResolveCache cache(1);
  MemorySystem first(cfg);
  first.set_resolve_cache(&cache);
  program(first);
  MemorySystem second(cfg);  // replays first's trajectory out of the memo
  second.set_resolve_cache(&cache);
  program(second);

  for (MemorySystem* sys : {&first, &second}) {
    EXPECT_DOUBLE_EQ(sys->now(), plain.now());
    EXPECT_DOUBLE_EQ(sys->counters().imc_reads, plain.counters().imc_reads);
  }
  EXPECT_GT(cache.stream_stats().hits, 0u);
}

TEST(ResolveCache, ShardedMemoStatsStayConsistentUnderConcurrentSweeps) {
  // Regression: the gauge-publication path (stats()/publish()) used to
  // read global relaxed atomics while the maps were mutated under shard
  // mutexes, so a publish racing a sweep could observe an entry whose
  // miss was not counted yet.  Counters now live inside their shard and
  // are read under the same lock, making every snapshot per-shard
  // consistent: `entries + evictions <= misses` must hold at all times
  // (every entry stems from a counted miss).  Run under TSan in CI.
  ShardedMemo<int> memo(/*shards=*/4, /*max_entries=*/64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread observer([&] {
    MetricsRegistry gauges;
    while (!stop.load(std::memory_order_acquire)) {
      const ResolveCacheStats s = memo.stats();
      if (s.entries + s.evictions > s.misses) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      if (s.hit_rate() < 0.0 || s.hit_rate() > 1.0) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      memo.publish(gauges, "resolve_cache");
    }
  });

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 4000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&memo, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        ResolveKey key;
        key.add_word(static_cast<std::uint64_t>(w) << 32);
        key.add_word(static_cast<std::uint64_t>(i));
        int value = 0;
        if (!memo.lookup(key, &value)) {
          memo.insert(key, i);  // lookup-miss then insert: the real flow
        }
        // Re-read a recent key so hits accrue too.
        (void)memo.lookup(key, &value);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_EQ(violations.load(), 0u);
  // After quiescence the totals are exact: every op was one lookup-miss
  // (or hit after an eviction refill) plus one lookup-hit.
  const ResolveCacheStats s = memo.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(2 * kWriters * kOpsPerWriter));
  EXPECT_LE(s.entries + s.evictions, s.misses);
}

}  // namespace
}  // namespace nvms
