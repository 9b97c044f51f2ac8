#include "memsim/resolve_cache.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "simcore/error.hpp"
#include "simcore/thread_pool.hpp"

namespace nvms {

const char* to_string(ResolveCacheMode m) {
  switch (m) {
    case ResolveCacheMode::kOff:
      return "off";
    case ResolveCacheMode::kShared:
      return "shared";
  }
  return "?";
}

std::optional<ResolveCacheMode> parse_resolve_cache_mode(
    const std::string& s) {
  if (s == "off") return ResolveCacheMode::kOff;
  if (s == "shared") return ResolveCacheMode::kShared;
  return std::nullopt;
}

void ResolveKey::add_double(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 and +0.0 to one bit pattern
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  add_word(bits);
}

namespace {

/// Fold a short label into the key, 8 chars per word.  Labels are
/// cosmetic for the resolution but replayed into telemetry on a hit, so
/// differently-labeled lanes must not share an entry.
void add_label(ResolveKey& key, const char* s) {
  if (s == nullptr) {
    key.add_word(0);
    return;
  }
  std::uint64_t w = 0;
  int n = 0;
  for (; *s != '\0'; ++s) {
    w = (w << 8) | static_cast<unsigned char>(*s);
    if (++n == 8) {
      key.add_word(w);
      w = 0;
      n = 0;
    }
  }
  key.add_word(w ^ (static_cast<std::uint64_t>(n) << 56));
}

void add_curve(ResolveKey& key, const ScalingCurve& curve) {
  const auto& pts = curve.points();
  key.add_word(pts.size());
  for (const auto& [threads, frac] : pts) {
    key.add_double(threads);
    key.add_double(frac);
  }
}

/// Every DeviceParams field resolve_lanes() consults, and nothing else —
/// capacity, unused latencies, name and kind are excluded so equivalent
/// effective devices share entries.  Keep in sync with
/// DeviceParams::{read,write}_capacity / latency_limited_read_bw and the
/// WPQ/throttle coupling in resolve.cpp.
void add_device(ResolveKey& key, const DeviceParams& dev) {
  key.add_double(dev.read_lat_rand);  // latency-limited random reads
  key.add_double(dev.read_bw_peak);
  key.add_double(dev.write_bw_peak);
  key.add_double(dev.combined_bw_peak);
  key.add_double(dev.strided_read_eff);
  key.add_double(dev.random_small_read_eff);
  key.add_double(dev.random_large_read_eff);
  key.add_double(dev.strided_write_eff);
  key.add_double(dev.random_small_write_eff);
  key.add_double(dev.random_large_write_eff);
  key.add_double(dev.throttle_alpha);
  key.add_double(dev.throttle_gamma);
  key.add_word(static_cast<std::uint64_t>(dev.wpq_entries));
  key.add_double(dev.wpq_seq_combining);
  add_curve(key, dev.read_scaling);
  add_curve(key, dev.write_scaling);
}

/// Capture probe: records every epoch sample for the cache entry and
/// forwards to the real probe (when attached), so a miss both populates
/// the cache and emits live telemetry in one pass.
class RecordingProbe final : public EpochProbe {
 public:
  explicit RecordingProbe(EpochProbe* inner) : inner_(inner) {}

  void epoch_sample(std::string_view name, std::string_view device,
                    double t, double value) override {
    samples_.push_back({std::string(name), std::string(device), value});
    if (inner_ != nullptr) inner_->epoch_sample(name, device, t, value);
  }

  std::vector<ResolveSample> take() { return std::move(samples_); }

 private:
  EpochProbe* inner_;
  std::vector<ResolveSample> samples_;
};

}  // namespace

ResolveKey make_resolve_key(const Phase& phase,
                            const std::vector<LaneDemand>& lanes,
                            const CpuParams& cpu, double upi_bytes,
                            double upi_bw) {
  ResolveKey key;
  make_resolve_key_into(phase, lanes, cpu, upi_bytes, upi_bw, &key);
  return key;
}

void make_resolve_key_into(const Phase& phase,
                           const std::vector<LaneDemand>& lanes,
                           const CpuParams& cpu, double upi_bytes,
                           double upi_bw, ResolveKey* out) {
  ResolveKey& key = *out;
  key.clear();
  // Phase timing fields, normalized: concurrency clamps to the physical
  // hardware-thread count exactly as the resolver bills it, so phases at
  // max_threads and beyond share one entry.  `name` and `streams` never
  // reach the resolver and are excluded — two equally-shaped phases with
  // different names must hit the same entry.
  key.add_word(static_cast<std::uint64_t>(
      std::min(phase.threads, cpu.max_threads())));
  key.add_double(phase.flops);
  key.add_double(phase.parallel_fraction);
  key.add_double(phase.mlp);
  key.add_double(phase.overlap);
  // CPU compute model.
  key.add_word(static_cast<std::uint64_t>(cpu.cores));
  key.add_word(static_cast<std::uint64_t>(cpu.smt));
  key.add_double(cpu.freq);
  key.add_double(cpu.flops_per_cycle);
  key.add_double(cpu.ht_yield);
  // Cross-socket link constraint.
  key.add_double(upi_bytes);
  key.add_double(upi_bw);
  // Lanes: demand split by access class, effective device, channel label.
  key.add_word(lanes.size());
  for (const auto& lane : lanes) {
    for (const auto b : lane.dem.read) key.add_word(b);
    for (const auto b : lane.dem.write) key.add_word(b);
    add_label(key, lane.label != nullptr
                       ? lane.label
                       : (lane.dev != nullptr ? lane.dev->name.c_str()
                                              : nullptr));
    if (lane.dev != nullptr) add_device(key, *lane.dev);
  }
}

void ResolveCache::resolve_into(const Phase& phase,
                                const std::vector<LaneDemand>& lanes,
                                const CpuParams& cpu, double upi_bytes,
                                double upi_bw, EpochProbe* probe,
                                double epoch_t, ResolveScratch* scratch,
                                ResolveKey* key, MultiResolution* out) {
  make_resolve_key_into(phase, lanes, cpu, upi_bytes, upi_bw, key);
  const bool hit = lookup_with(*key, [&](const CachedResolution& cached) {
    // Copy into the caller's storage under the shard lock (lanes.assign
    // reuses capacity — no allocation in steady state) and replay the
    // recorded epoch samples re-stamped at the current virtual time:
    // identical stream to what resolve_lanes() would emit now.  The probe
    // never touches the memo, so emitting under the lock is safe, and
    // probes are only attached on telemetry runs — the hot sweep path
    // passes nullptr.
    out->time = cached.multi.time;
    out->compute_time = cached.multi.compute_time;
    out->lanes.assign(cached.multi.lanes.begin(), cached.multi.lanes.end());
    if (probe != nullptr) {
      for (const auto& sample : cached.samples) {
        probe->epoch_sample(sample.name, sample.device, epoch_t,
                            sample.value);
      }
    }
  });
  if (hit) return;
  // Miss: run the fixed point once, recording its samples even when no
  // probe is attached — a later hit may have telemetry and must still see
  // the full stream (the byte-identical-replay invariant).
  RecordingProbe recorder(probe);
  resolve_lanes_into(phase, lanes, cpu, upi_bytes, upi_bw, &recorder,
                     epoch_t, scratch, out);
  insert(*key, CachedResolution{*out, recorder.take()});
}

}  // namespace nvms
