#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "simcore/rng.hpp"

namespace perfbench {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
// Initialised first (priority 101), so process_start() comes before the
// static initialisation of every other object, the library's included.
struct StartStamp {
  Clock::time_point t = Clock::now();
};
const StartStamp g_start __attribute__((init_priority(101)));
}  // namespace

Clock::time_point process_start() { return g_start.t; }

bool Setup::run(int n) {
  for (int k = 0; k < n; ++k) {
    const Clock::time_point t0 = Clock::now();
    if (!pass_()) return false;
    passes_.push_back(seconds_since(t0));
    if (passes_.size() > 1) continue;
    const double cold = seconds_since(process_start());
    if (a_.trace) {
      r_.metrics["setup.cold_s"] = {cold, "s"};
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f", cold);
      r_.facts["setup_cold_s"] = buf;
    }
  }
  return true;
}

bool Setup::before() { return run(a_.trace ? 1 : kSetupRepeats); }

bool Setup::after() {
  if (a_.trace) return true;
  if (!run(kSetupRepeats)) return false;
  r_.metrics["setup_s"] = {median_of(passes_), "s"};
  return true;
}

double Latencies::median() const { return median_of(ms); }

double Latencies::tail(double* pct) const {
  std::vector<double> s = ms;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  if (n < 11) {
    *pct = 100.0;
    return s.empty() ? 0.0 : s.back();
  }
  *pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return s[n - 11];
}

bool DigestBook::check(const std::string& key, const std::string& digest) {
  const auto [it, inserted] = first_.emplace(key, digest);
  return inserted || it->second == digest;
}

std::string hash_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 ":%zu", h, bytes.size());
  return buf;
}

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, u);
  return buf;
}

void Ledger::close(const char* name, std::uint64_t op,
                   Clock::time_point start, Clock::time_point end) {
  const double s_us =
      std::chrono::duration<double, std::micro>(start - t0_).count();
  const double d_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, op, s_us, d_us});
  auto& [sum, n] = totals_[name];
  sum += d_us * 1e-6;
  ++n;
}

double Ledger::total_s(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.first;
}

bool Ledger::write(const std::string& path,
                   const std::string& meta_json) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << "{" << meta_json << (meta_json.empty() ? "" : ",")
    << "\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64 "}}",
                  i == 0 ? "" : ",", s.name, s.start_us, s.dur_us, s.op);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

Window measure(const RunArgs& a, Report& r, Ledger& ledger,
               const std::function<Window(double)>& window) {
  auto tally = [&r](const Window& w) {
    r.attempted += w.attempted;
    r.failed += w.failed;
  };
  if (!a.trace) {
    Window w = window(a.seconds);
    tally(w);
    const double n = static_cast<double>(w.lat.ms.size());
    double pct = 0.0;
    const double tail = w.lat.tail(&pct);
    r.metrics["ops_per_s"] = {n / w.wall_s, "1/s"};
    r.metrics["op_p50_ms"] = {w.lat.median(), "ms"};
    r.metrics["op_tail_ms"] = {tail, "ms"};
    r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", pct);
    r.facts["op_tail_percentile"] = buf;
    r.facts["op_samples"] = std::to_string(w.lat.ms.size());
    return w;
  }
  // Traced: plain and traced blocks alternate, so a slow drift of the
  // host's speed weighs on both sides alike.
  constexpr int kPairs = 10;
  double plain_s = 0, plain_ops = 0;
  Window traced;
  for (int k = 0; k < kPairs; ++k) {
    const Window p = window(a.seconds / (2 * kPairs));
    tally(p);
    plain_s += p.wall_s;
    plain_ops += static_cast<double>(p.attempted);
    ledger.enable(true);
    const Window t = window(a.seconds / (2 * kPairs));
    ledger.enable(false);
    tally(t);
    traced.wall_s += t.wall_s;
    traced.attempted += t.attempted;
    traced.failed += t.failed;
    traced.lat.ms.insert(traced.lat.ms.end(), t.lat.ms.begin(),
                         t.lat.ms.end());
  }
  const double plain_rate = plain_ops / plain_s;
  const double traced_rate =
      static_cast<double>(traced.attempted) / traced.wall_s;
  r.metrics["trace.untraced_ops_per_s"] = {plain_rate, "1/s"};
  r.metrics["trace.traced_ops_per_s"] = {traced_rate, "1/s"};
  r.metrics["trace.overhead_pct"] = {
      100.0 * (plain_rate - traced_rate) / plain_rate, "%"};
  return traced;
}

void ClassTimes::print(const char* workload) const {
  std::vector<std::pair<double, std::string>> rows;
  double total = 0;
  for (const auto& [cls, v] : ms_) {
    rows.emplace_back(median_of(v), cls);
    total += static_cast<double>(v.size());
  }
  std::sort(rows.begin(), rows.end());
  double cum = 0;
  std::fprintf(stderr, "%s: op classes by median latency\n", workload);
  for (const auto& [med, cls] : rows) {
    const std::vector<double>& v = ms_.at(cls);
    cum += static_cast<double>(v.size());
    std::fprintf(stderr, "  %-34s n=%-6zu p50=%10.3f ms  max=%10.3f ms  "
                 "cum=%5.1f%%\n", cls.c_str(), v.size(), med,
                 *std::max_element(v.begin(), v.end()), 100.0 * cum / total);
  }
}

double peak_rss_mb() {
  // VmHWM is this image's peak.  ru_maxrss also keeps the peak of the
  // image before exec, so a large launcher (the Python run.py) would mask
  // a small benchmark; it is the fallback where /proc is missing.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  nvms::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"setup.cold_s", "s"},
      {"harness.cells", "count"},
      {"harness.queue_wait_s", "s"},
      {"harness.worker_utilization", "ratio"},
      {"harness.idle_s", "s"},
      {"dwarfs.numerics_s", "s"},
      {"dwarfs.phases", "count"},
      {"memsim.cell_replay_s", "s"},
      {"memsim.system_init_s", "s"},
      {"memsim.resolve_s", "s"},
      {"memsim.cache_walk_s", "s"},
      {"memsim.epochs_per_s", "1/s"},
      {"replay.load_s", "s"},
      {"replay.phases", "count"},
      {"placement.optimize_s", "s"},
      {"placement.evals", "count"},
      {"placement.full_replays", "count"},
      {"placement.phase_cache_hit_ratio", "ratio"},
      {"export.csv_s", "s"},
      {"export.csv_bytes", "bytes"},
      {"analyze.profile_s", "s"},
      {"analyze.diff_s", "s"},
      {"serve.parse_request_us", "us"},
      {"serve.overhead_ms", "ms"},
      {"serve.wait_admission_ms", "ms"},
      {"serve.wait_execution_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.intra_lanes_leased", "count"},
      {"serve.bytes_out", "bytes"},
      {"serve.run_p50_ms", "ms"},
      {"serve.explain_p50_ms", "ms"},
      {"serve.diff_p50_ms", "ms"},
      {"serve.optimize_p50_ms", "ms"},
      {"serve.sweep_p50_ms", "ms"},
      {"resolve_cache.hit_ratio", "ratio"},
      {"stream_memo.hit_ratio", "ratio"},
      {"ledger.coverage", "ratio"},
      {"trace.untraced_ops_per_s", "1/s"},
      {"trace.traced_ops_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  return k;
}

}  // namespace perfbench
