// Kernel benchmarking harness: harvest-and-replay measurement of the
// epoch hot path (resolve_lanes fixed point + DramCache sampled walks).
//
// A *corpus* is everything one app run feeds the memory system — the
// system configuration, the buffer registrations in order, and every
// submitted phase.  Replaying a corpus into a fresh MemorySystem drives
// exactly the per-epoch kernel work of the original run (same demand
// routing, same cache trajectory, same fixed points) with zero app-side
// arithmetic in the timed region, so epochs/second of a replay *is* the
// epoch-kernel throughput.  Combined with the runtime reference-kernel
// switch (set_reference_kernels), the same corpus measures the SoA and
// the pre-SoA scalar kernels in one binary — the self-measured speedup
// recorded in BENCH_epoch.json.
//
// Machine normalization: raw seconds do not survive a change of CI host.
// calibrate_baseline() times a fixed integer spin loop; snapshots report
// ratios of (work per second) to (baseline spins per second), which track
// kernel quality rather than host speed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/memory_system.hpp"
#include "trace/phase.hpp"

namespace nvms {

/// One harvested app run: the inputs the memory system consumed, in order.
struct PhaseCorpus {
  std::string app;
  SystemConfig config;
  struct BufferReg {
    std::string name;
    std::uint64_t bytes = 0;
    Placement placement = Placement::kAuto;
  };
  /// Every registration in order (released buffers included, so replayed
  /// base addresses — and thus the cache trajectory — match the run).
  std::vector<BufferReg> buffers;
  std::vector<Phase> phases;
  std::uint64_t stream_bytes = 0;  ///< total bytes across all phase streams
};

/// Run `app` on the scaled testbed in `mode` and capture its corpus.
PhaseCorpus harvest_corpus(const std::string& app, Mode mode,
                           int threads = 36);

/// Replay measurement.  `seconds` is host wall clock of the timed replay
/// loop only (corpus harvesting and calibration are outside it).
struct ReplayResult {
  double seconds = 0.0;
  std::uint64_t epochs = 0;        ///< phases submitted across all repeats
  std::uint64_t stream_bytes = 0;  ///< simulated bytes across all repeats
  /// Fold of every resolved phase duration: a cross-kernel parity check
  /// (reference and SoA replays must produce the identical fold) that
  /// also anchors the timed loop against dead-code elimination.
  double time_fold = 0.0;

  double epochs_per_s() const {
    return seconds > 0.0 ? static_cast<double>(epochs) / seconds : 0.0;
  }
  /// Simulated stream traffic pushed through the kernel per host second.
  double stream_gbs() const {
    return seconds > 0.0
               ? static_cast<double>(stream_bytes) / seconds / 1e9
               : 0.0;
  }
};

/// Replay `corpora` through fresh systems `repeat` times each, timed as
/// one loop.  kShared attaches one ResolveCache per repetition, shared by
/// every corpus of it (the memoized hot path); kOff measures the raw
/// kernels.  `intra_jobs` is forwarded to every replayed system
/// (SystemConfig::intra_jobs: 1 = serial kernel, N = N lanes) — the
/// replayed results are byte-identical for any width, so the ratio of two
/// replays is pure kernel scaling.
ReplayResult replay_corpora(const std::vector<PhaseCorpus>& corpora,
                            int repeat,
                            ResolveCacheMode cache_mode =
                                ResolveCacheMode::kOff,
                            int intra_jobs = 1);

/// Host seconds per calibration unit: one pass of a fixed integer spin
/// loop (FNV-1a folds, compile-time constant trip count).  Median of
/// several timed passes, so one scheduler hiccup cannot skew a snapshot.
double calibrate_baseline();

/// The standard corpus behind BENCH_epoch.json: the Fig. 2 grid (the
/// paper's eight apps x three memory modes) at 36 threads.  `quick`
/// restricts to two representative apps for CI.
std::vector<PhaseCorpus> fig2_corpora(bool quick = false);

}  // namespace nvms
