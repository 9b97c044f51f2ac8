#include "harness/kernel_bench.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "appfw/context.hpp"
#include "harness/registry.hpp"
#include "memsim/resolve_cache.hpp"

namespace nvms {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

PhaseCorpus harvest_corpus(const std::string& app, Mode mode, int threads) {
  PhaseCorpus corpus;
  corpus.app = app;
  corpus.config = SystemConfig::testbed(mode);

  MemorySystem sys(corpus.config);
  sys.set_phase_observer([&corpus](const Phase& p) {
    corpus.phases.push_back(p);
    corpus.stream_bytes += p.total_bytes();
  });
  AppConfig cfg;
  cfg.threads = threads;
  AppContext ctx(sys, cfg);
  (void)lookup_app(app).run(ctx);

  for (const BufferInfo& b : sys.buffers()) {
    corpus.buffers.push_back({b.name, b.bytes, b.placement});
  }
  return corpus;
}

ReplayResult replay_corpora(const std::vector<PhaseCorpus>& corpora,
                            int repeat, ResolveCacheMode cache_mode,
                            int intra_jobs) {
  ReplayResult r;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < repeat; ++rep) {
    std::optional<ResolveCache> shared;
    if (cache_mode == ResolveCacheMode::kShared) shared.emplace(1);
    for (const PhaseCorpus& corpus : corpora) {
      // Fresh system per corpus: registrations replay in order, so base
      // addresses — and with them the DRAM-cache trajectory — match the
      // harvested run exactly.  strict_capacity is off because released
      // buffers are replayed as live (keeping the address map identical).
      SystemConfig cfg = corpus.config;
      cfg.strict_capacity = false;
      cfg.intra_jobs = intra_jobs;
      MemorySystem sys(cfg);
      if (shared) sys.set_resolve_cache(&*shared);
      for (const auto& reg : corpus.buffers) {
        (void)sys.register_buffer(reg.name, reg.bytes, reg.placement);
      }
      for (const Phase& p : corpus.phases) {
        r.time_fold += sys.submit(p).time;
      }
      r.epochs += corpus.phases.size();
      r.stream_bytes += corpus.stream_bytes;
    }
  }
  const auto t1 = Clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

double calibrate_baseline() {
  // One unit = kSpins FNV-1a folds over a fixed seed: pure integer
  // latency-bound work, immune to frequency-independent noise sources
  // like allocator or page-cache state.  Median of five passes.
  constexpr std::uint64_t kSpins = 1u << 24;
  auto one_pass = [] {
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSpins; ++i) {
      h = (h ^ i) * 0x100000001B3ull;
    }
    const auto t1 = Clock::now();
    // Fold the hash into the duration at ~1e-18 relative magnitude: keeps
    // the loop alive without perturbing the measurement.
    return std::chrono::duration<double>(t1 - t0).count() +
           static_cast<double>(h & 1) * 1e-18;
  };
  double samples[5];
  for (double& s : samples) s = one_pass();
  std::sort(std::begin(samples), std::end(samples));
  return samples[2];
}

std::vector<PhaseCorpus> fig2_corpora(bool quick) {
  init_registry();
  std::vector<std::string> apps = app_names();
  if (quick) {
    // One walk-heavy and one resolve-heavy representative keep the CI
    // perf job fast while exercising both kernel families.
    apps = {"xsbench", "scalapack"};
  }
  std::vector<PhaseCorpus> corpora;
  for (const auto& app : apps) {
    for (const Mode mode :
         {Mode::kDramOnly, Mode::kCachedNvm, Mode::kUncachedNvm}) {
      corpora.push_back(harvest_corpus(app, mode));
    }
  }
  return corpora;
}

}  // namespace nvms
