// whatif-replay: set-up records the 8 paper dwarfs once; one operation
// loads a recording from its nvmstrace text and replays it on a fresh
// MemorySystem, cycling through 8 traces x 3 modes x 3 NVM write peaks.
// Every kOptimizeEvery-th operation is instead optimize_placement at a
// 35% DRAM budget.  kWhatifStreams threads run operations side by side,
// each taking the next index of the one cycle.
//
// Why: there are no numerics here, so the time falls on the layers below
// the dwarfs: the trace loader and the resolve path set the median, the
// DRAM-cache walk of cached-nvm replays and the placement search set the
// tail.
#include <algorithm>
#include <optional>

#include "appfw/context.hpp"
#include "common.hpp"
#include "harness/registry.hpp"
#include "placement/trace_optimizer.hpp"
#include "replay/recording.hpp"

namespace perfbench {
namespace {

constexpr nvms::Mode kModes[] = {nvms::Mode::kDramOnly,
                                 nvms::Mode::kCachedNvm,
                                 nvms::Mode::kUncachedNvm};
constexpr double kWritePeaks[] = {1.0, 0.5, 2.0};
constexpr std::size_t kTraces = 8;  // the paper's dwarfs, app_names()
constexpr std::size_t kCombos = kTraces * 3 * 3;
constexpr std::uint64_t kOptimizeEvery = 24;
constexpr double kOptimizeBudget = 0.35;

struct Combo {
  std::size_t trace;
  std::size_t mode;
  std::size_t peak;
};

Combo combo_of(std::size_t c) { return {c / 9, (c / 3) % 3, c % 3}; }

/// Set-up: record every paper dwarf once on the uncached-nvm testbed and
/// keep the saved nvmstrace text.
std::vector<std::string> record_all(std::uint64_t seed) {
  std::vector<std::string> texts;
  for (const std::string& app : nvms::app_names()) {
    nvms::MemorySystem sys(
        nvms::SystemConfig::testbed(nvms::Mode::kUncachedNvm));
    nvms::TraceCapture capture(sys);
    nvms::AppConfig cfg;
    cfg.seed = seed;
    nvms::AppContext ctx(sys, cfg);
    (void)nvms::lookup_app(app).run(ctx);
    texts.push_back(capture.finish().save());
  }
  return texts;
}

nvms::SystemConfig system_for(const Combo& c) {
  nvms::SystemConfig sc = nvms::SystemConfig::testbed(kModes[c.mode]);
  sc.nvm.write_bw_peak *= kWritePeaks[c.peak];
  return sc;
}

const char* replay_span(std::size_t mode) {
  static const char* const k[] = {"memsim.replay.dram-only",
                                  "memsim.replay.cached-nvm",
                                  "memsim.replay.uncached-nvm"};
  return k[mode];
}

}  // namespace

bool run_whatif_replay(const RunArgs& a, Report& r, Ledger& ledger) {
  std::vector<std::string> texts;
  Setup setup(a, r, [&] {
    std::vector<std::string> t = record_all(a.seed);
    // Recording is deterministic: every set-up must save the same bytes.
    if (!texts.empty() && t != texts) r.correct = false;
    texts = std::move(t);
    return texts.size() == kTraces;
  });
  if (!setup.before()) return false;
  const std::vector<std::size_t> order = permutation(kCombos, a.seed);
  const std::vector<std::size_t> opt_order =
      permutation(texts.size(), a.seed ^ 0x9e3779b97f4a7c15ull);
  const std::vector<std::string>& names = nvms::app_names();

  // Shared by the op streams, under `mu`: digests and the traced-block
  // samples for the per-layer split.
  std::mutex mu;
  DigestBook book;
  struct ReplaySample {
    Combo c;
    double replay_s;
  };
  std::vector<ReplaySample> samples;
  double phases_loaded = 0, phases_replayed = 0, evals = 0, full = 0,
         hits = 0, lookups = 0, op_s = 0;
  std::uint64_t optimize_ops = 0;

  auto replay_op = [&](std::uint64_t i, std::uint64_t j) {
    const Combo c = combo_of(order[j % kCombos]);
    const nvms::PhaseRecording rec = ledger.span("replay.load", i, [&] {
      return nvms::PhaseRecording::load(texts[c.trace]);
    });
    std::optional<nvms::MemorySystem> sys;
    ledger.span("memsim.system_init", i, [&] { sys.emplace(system_for(c)); });
    const Clock::time_point t0 = Clock::now();
    const double runtime =
        ledger.span(replay_span(c.mode), i, [&] { return rec.replay(*sys); });
    const double replay_s = seconds_since(t0);
    const nvms::HwCounters& hw = sys->counters();
    const std::string digest = bits(runtime) +
                               bits(hw.imc_reads * 64.0 / runtime) +
                               bits(hw.imc_writes * 64.0 / runtime);
    const std::lock_guard<std::mutex> lock(mu);
    if (ledger.enabled()) {
      samples.push_back({c, replay_s});
      phases_loaded += static_cast<double>(rec.phases.size());
      phases_replayed += static_cast<double>(rec.phases.size());
    }
    return runtime > 0.0 &&
           book.check("replay/" + std::to_string(order[j % kCombos]), digest);
  };

  auto optimize_op = [&](std::uint64_t i, std::uint64_t j) {
    const std::size_t t = opt_order[j % opt_order.size()];
    const nvms::PhaseRecording rec = ledger.span("replay.load", i, [&] {
      return nvms::PhaseRecording::load(texts[t]);
    });
    const nvms::SystemConfig sc =
        nvms::SystemConfig::testbed(nvms::Mode::kUncachedNvm);
    const auto budget = static_cast<std::uint64_t>(
        kOptimizeBudget * static_cast<double>(sc.dram.capacity));
    nvms::TraceOptimizerOptions opt;
    opt.jobs = 1;
    const nvms::TraceOptimizerResult res =
        ledger.span("placement.optimize", i, [&] {
          return nvms::optimize_placement(
              rec, budget, [&sc] { return nvms::MemorySystem(sc); }, opt);
        });
    std::string digest = bits(res.optimized_runtime);
    for (const auto& [name, runtime] : res.steps) {
      digest += " " + name + "=" + bits(runtime);
    }
    const std::lock_guard<std::mutex> lock(mu);
    if (ledger.enabled()) {
      phases_loaded += static_cast<double>(rec.phases.size());
      ++optimize_ops;
      evals += static_cast<double>(res.stats.evals);
      full += static_cast<double>(res.stats.full_replays);
      hits += static_cast<double>(res.stats.phase_cache.hits);
      lookups += static_cast<double>(res.stats.phase_cache.hits +
                                     res.stats.phase_cache.misses);
    }
    return book.check("optimize/" + names[t], digest);
  };

  ClassTimes classes;
  std::atomic<std::uint64_t> next{0};
  auto op = [&](std::uint64_t i) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t k = i / kOptimizeEvery;
    const bool optimize = i % kOptimizeEvery == kOptimizeEvery - 1;
    const bool ok = optimize ? optimize_op(i, k) : replay_op(i, i - k);
    const double s = seconds_since(t0);
    if (ledger.enabled()) {
      const std::lock_guard<std::mutex> lock(mu);
      op_s += s;
    }
    if (optimize) {
      classes.add("optimize/" + names[opt_order[k % opt_order.size()]],
                  1e3 * s);
    } else {
      const Combo c = combo_of(order[(i - k) % kCombos]);
      classes.add(std::string(nvms::to_string(kModes[c.mode])) + "/" +
                      names[c.trace],
                  1e3 * s);
    }
    return ok;
  };
  const Window w = measure(a, r, ledger, [&](double s) {
    return timed_window(s, kWhatifStreams, next, op);
  });
  if (!setup.after()) return false;
  r.correct = r.correct && r.failed == 0;
  classes.print("whatif-replay");
  if (!a.trace) return true;

  // Cache walk = a cached-nvm replay minus the mean uncached-nvm replay of
  // the same recording at the same write peak; the rest is resolve work.
  double uncached_sum[kTraces][3] = {}, uncached_n[kTraces][3] = {};
  for (const ReplaySample& s : samples) {
    if (kModes[s.c.mode] != nvms::Mode::kUncachedNvm) continue;
    uncached_sum[s.c.trace][s.c.peak] += s.replay_s;
    uncached_n[s.c.trace][s.c.peak] += 1;
  }
  double resolve = 0, walk = 0, replay_total = 0;
  for (const ReplaySample& s : samples) {
    replay_total += s.replay_s;
    if (kModes[s.c.mode] != nvms::Mode::kCachedNvm) {
      resolve += s.replay_s;
      continue;
    }
    const double n = uncached_n[s.c.trace][s.c.peak];
    const double base = n > 0 ? uncached_sum[s.c.trace][s.c.peak] / n : 0.0;
    resolve += std::min(base, s.replay_s);
    walk += s.replay_s - std::min(base, s.replay_s);
  }
  const double ops = static_cast<double>(w.attempted);
  const double load = ledger.total_s("replay.load");
  const double init = ledger.total_s("memsim.system_init");
  const double optimize = ledger.total_s("placement.optimize");
  Metrics& m = r.metrics;
  m["replay.load_s"] = {load / ops, "s"};
  m["replay.phases"] = {phases_loaded / ops, "count"};
  m["memsim.system_init_s"] = {init / ops, "s"};
  m["memsim.resolve_s"] = {resolve / ops, "s"};
  m["memsim.cache_walk_s"] = {walk / ops, "s"};
  m["memsim.epochs_per_s"] = {phases_replayed / replay_total, "1/s"};
  m["placement.optimize_s"] = {optimize / ops, "s"};
  const double nopt =
      static_cast<double>(std::max<std::uint64_t>(optimize_ops, 1));
  m["placement.evals"] = {evals / nopt, "count"};
  m["placement.full_replays"] = {full / nopt, "count"};
  m["placement.phase_cache_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0,
                                          "ratio"};
  m["ledger.coverage"] = {(load + init + resolve + walk + optimize) / op_s,
                          "ratio"};
  return true;
}

std::vector<std::string> whatif_inputs(std::uint64_t seed) {
  std::vector<std::string> lines;
  const std::vector<std::string>& names = nvms::app_names();
  lines.push_back("record " + std::to_string(names.size()) +
                  " dwarfs seed=" + std::to_string(seed));
  std::string cycle = "cycle";
  for (const std::size_t c : permutation(kCombos, seed)) {
    const Combo x = combo_of(c);
    cycle += " " + names[x.trace] + "/" + nvms::to_string(kModes[x.mode]) +
             "/" + std::to_string(kWritePeaks[x.peak]).substr(0, 3);
  }
  lines.push_back(cycle);
  std::string opt = "optimize every " + std::to_string(kOptimizeEvery);
  for (const std::size_t t :
       permutation(names.size(), seed ^ 0x9e3779b97f4a7c15ull)) {
    opt += " " + names[t];
  }
  lines.push_back(opt);
  return lines;
}

}  // namespace perfbench
