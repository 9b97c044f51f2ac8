// Shared plumbing of the nvmsim benchmark: run arguments, latency
// statistics, the in-memory span ledger of the traced run, first-
// occurrence correctness digests and the metric set a run prints.
//
// The benchmark drives the library in-process through public functions
// only.  Every span is recorded here, around a call into a layer, never
// inside src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Threads of the benchmark's fixed budget; checked against nproc at start.
constexpr int kSweepCellWorkers = 4;
/// whatif-replay runs this many op streams side by side.  At one moment
/// the 4 cores of a shared host differ in speed by up to a third; one
/// stream would report the speed of whichever core it landed on.
constexpr int kWhatifStreams = 4;
constexpr int kServeWorkers = 2;
constexpr int kServeInFlight = 2;
/// The daemon's process-wide intra-lane total in the serve workload.  A
/// request alone on the daemon gets all of it, one beside another gets 1,
/// so at most kServeLaneBudget + kServeInFlight - 1 threads execute, plus
/// the client.
constexpr int kServeLaneBudget = 2;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;  ///< where the traced run writes its spans
  std::string work_dir = ".";  ///< run-time files (the daemon's socket)
};

/// One metric as printed: a value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Latency samples of the timed window, one per completed operation.
struct Latencies {
  std::vector<double> ms;

  double median() const;
  /// Latency at the highest percentile that still has at least ten
  /// samples beyond it: the 11th largest sample.  `pct` receives that
  /// percentile.  Needs at least 11 samples.
  double tail(double* pct) const;
};

double median_of(std::vector<double> v);

/// When the process started: taken before any other static object of the
/// program is initialised, the library's included.
Clock::time_point process_start();

/// Set-up passes made before the timed window, and again after it.
constexpr int kSetupRepeats = 3;

/// First-occurrence digests: the first time an input key is seen its
/// output digest is stored; every later occurrence must match it.
class DigestBook {
 public:
  /// True when `digest` matches the key's first digest (or is the first).
  bool check(const std::string& key, const std::string& digest);

 private:
  std::map<std::string, std::string> first_;
};

/// FNV-1a over bytes, printed as hex: a compact digest for large outputs.
std::string hash_hex(const std::string& bytes);

/// Exact bit pattern of a double, for digests that must not round.
std::string bits(double v);

/// In-memory span ledger of the traced run.  Spans are kept in memory
/// and written once at the end (Chrome trace_event JSON); per-name totals
/// are kept alongside so the per-layer metrics need no second pass.
/// Spans may close from several op streams at once; enable() is called
/// only between windows.
class Ledger {
 public:
  Ledger() : t0_(Clock::now()) {}

  /// Spans are recorded only while enabled (the traced window).
  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Time `fn` as span `name` of operation `op`; returns fn's result.
  template <typename Fn>
  auto span(const char* name, std::uint64_t op, Fn&& fn) -> decltype(fn()) {
    if (!enabled()) return fn();
    const Clock::time_point start = Clock::now();
    struct Close {
      Ledger* self;
      const char* name;
      std::uint64_t op;
      Clock::time_point start;
      ~Close() { self->close(name, op, start, Clock::now()); }
    } close{this, name, op, start};
    return fn();
  }

  /// Record an already measured interval (e.g. a client-side latency).
  void add(const char* name, std::uint64_t op, Clock::time_point start,
           Clock::time_point end) {
    if (enabled()) close(name, op, start, end);
  }

  /// Total seconds recorded under `name`.
  double total_s(const std::string& name) const;

  /// Chrome trace_event JSON of every span, `meta` as top-level members.
  bool write(const std::string& path, const std::string& meta_json) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    double start_us;
    double dur_us;
  };
  void close(const char* name, std::uint64_t op, Clock::time_point start,
             Clock::time_point end);

  std::atomic<bool> enabled_{false};
  Clock::time_point t0_;
  mutable std::mutex mu_;  ///< guards spans_ and totals_
  std::vector<Span> spans_;
  std::map<std::string, std::pair<double, std::uint64_t>> totals_;
};

/// Latency per operation class (e.g. "cached-nvm/xsbench"), printed to
/// stderr as a table sorted by median with the cumulative share of ops,
/// so it shows which class each reported percentile falls in.
class ClassTimes {
 public:
  void add(const std::string& cls, double ms) {
    const std::lock_guard<std::mutex> lock(mu_);
    ms_[cls].push_back(ms);
  }
  void print(const char* workload) const;

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> ms_;
};

/// Result of one workload run, before printing.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Metrics metrics;
  /// Extra run facts printed on the metadata line (percentile, samples).
  std::map<std::string, std::string> facts;
};

/// The set-up passes of a run.  `setup_s` is the median pass time over
/// kSetupRepeats passes before the timed window and kSetupRepeats after
/// it.  The host's speed swings over seconds, so passes on both sides of
/// the window steady the median as the window's length steadies the op
/// metrics.  A traced run makes one pass, before.  The cold start a user
/// waits for, from process start to the end of the first pass, is kept
/// too: on the meta line of an untraced run and as `setup.cold_s` in a
/// traced one.
class Setup {
 public:
  Setup(const RunArgs& a, Report& r, std::function<bool()> pass)
      : a_(a), r_(r), pass_(std::move(pass)) {}
  /// The passes before the window; false when one fails.
  bool before();
  /// The passes after it, then `setup_s`; false when one fails.
  bool after();

 private:
  bool run(int n);

  const RunArgs& a_;
  Report& r_;
  std::function<bool()> pass_;
  std::vector<double> passes_;
};

/// One timed window: operations started while the window was open.
struct Window {
  double wall_s = 0.0;
  Latencies lat;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Run `streams` threads that each take the next op index from `next`
/// and run op(i), back to back, until `seconds` have passed; op returns
/// false for a failed operation (so does one that throws).
template <typename Op>
Window timed_window(double seconds, int streams,
                    std::atomic<std::uint64_t>& next, Op&& op) {
  std::vector<Window> parts(static_cast<std::size_t>(streams));
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (Window& w : parts) {
    threads.emplace_back([&] {
      while (seconds_since(t0) < seconds) {
        const std::uint64_t i = next.fetch_add(1);
        const Clock::time_point s = Clock::now();
        bool ok = false;
        try {
          ok = op(i);
        } catch (const std::exception&) {
          ok = false;
        }
        w.lat.ms.push_back(1e3 * seconds_since(s));
        ++w.attempted;
        if (!ok) ++w.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window all;
  all.wall_s = seconds_since(t0);
  for (const Window& w : parts) {
    all.attempted += w.attempted;
    all.failed += w.failed;
    all.lat.ms.insert(all.lat.ms.end(), w.lat.ms.begin(), w.lat.ms.end());
  }
  return all;
}

/// The measurement protocol shared by every workload.  Untraced: one
/// window of a.seconds gives the end-to-end metrics.  Traced: ten pairs
/// of an untraced and a traced block (the ledger on), a.seconds/20 each;
/// their throughputs give the tracing overhead, and the traced blocks,
/// merged, are returned for the per-layer metrics.
Window measure(const RunArgs& a, Report& r, Ledger& ledger,
               const std::function<Window(double)>& window);

/// Peak resident set of this process in MB (VmHWM, else ru_maxrss).
double peak_rss_mb();

/// Run one workload; each fills `r` and returns false on a hard error
/// (set-up failure), after which no result line is printed.
bool run_sweep_dwarfs(const RunArgs& a, Report& r, Ledger& ledger);
bool run_whatif_replay(const RunArgs& a, Report& r, Ledger& ledger);
bool run_serve_mixed(const RunArgs& a, Report& r, Ledger& ledger);

/// The inputs a workload generates from `seed`, one line each (the
/// self-tests compare them across seeds).
std::vector<std::string> sweep_inputs(std::uint64_t seed);
std::vector<std::string> whatif_inputs(std::uint64_t seed);
std::vector<std::string> serve_inputs(std::uint64_t seed);

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// The per-layer metric names every traced run prints (zero where the
/// workload does not reach the layer), with their units.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
