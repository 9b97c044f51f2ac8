// perfbench: the nvmsim benchmark.
//
//   perfbench --workload sweep-dwarfs|whatif-replay|serve-mixed
//             --seed N --seconds S --trace 0|1
//             [--commit ID] [--trace-out FILE] [--work-dir DIR]
//             [--list-inputs]
//
// Prints a "# meta {...}" line (nproc, build type, commit, thread budget,
// tail percentile and sample count, cold start) and, as its last stdout
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ledger; the traced run also writes its spans to --trace-out.
// --list-inputs prints the inputs the seed generates and exits.  Exit
// code 2 on bad arguments or when the thread budget does not fit the
// host's nproc.
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  bool (*run)(const RunArgs&, Report&, Ledger&);
  std::vector<std::string> (*inputs)(std::uint64_t);
  int threads;  ///< busy threads at most; must fit nproc
};

const Workload kWorkloads[] = {
    {"sweep-dwarfs", run_sweep_dwarfs, sweep_inputs, kSweepCellWorkers},
    {"whatif-replay", run_whatif_replay, whatif_inputs, kWhatifStreams},
    // One request alone holds every lane, the others 1 each; + the client.
    {"serve-mixed", run_serve_mixed, serve_inputs,
     kServeLaneBudget + kServeInFlight - 1 + 1},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep-dwarfs|whatif-replay|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--trace-out FILE] "
               "[--work-dir DIR] [--list-inputs]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs a;
  bool list_inputs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--list-inputs") {
      list_inputs = true;
    } else if (!has_value) {
      return usage(("missing value for " + k).c_str());
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a.trace = std::string(argv[++i]) == "1";
    } else if (k == "--commit") {
      a.commit = argv[++i];
    } else if (k == "--trace-out") {
      a.trace_out = argv[++i];
    } else if (k == "--work-dir") {
      a.work_dir = argv[++i];
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (a.workload == k.name) w = &k;
  }
  if (w == nullptr) return usage("unknown workload");
  if (!(a.seconds > 0.0) || a.seconds > 120.0) {
    return usage("--seconds must be in (0, 120]");
  }
  if (list_inputs) {
    for (const std::string& line : w->inputs(a.seed)) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int budget = w->threads;
  if (nproc < budget) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d busy threads but nproc is %ld; "
                 "its figures would not compare\n",
                 a.workload.c_str(), budget, nproc);
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  Report r;
  Ledger ledger;
  if (!w->run(a, r, ledger)) {
    std::fprintf(stderr, "perfbench: %s failed to set up\n",
                 a.workload.c_str());
    return 1;
  }

  std::string meta = "\"workload\":" + json_string(a.workload) +
                     ",\"seed\":" + std::to_string(a.seed) +
                     ",\"seconds\":" + number(a.seconds) +
                     ",\"trace\":" + (a.trace ? "1" : "0") +
                     ",\"nproc\":" + std::to_string(nproc) +
                     ",\"thread_budget\":" + std::to_string(budget) +
                     ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                     ",\"commit\":" + json_string(a.commit);
  for (const auto& [k, v] : r.facts) {
    meta += "," + json_string(k) + ":" + json_string(v);
  }
  std::printf("# meta {%s}\n", meta.c_str());

  // The traced run prints the whole per-layer list: layers a workload
  // does not reach read 0.
  Metrics printed;
  if (a.trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = r.metrics.find(name);
      printed[name] = it != r.metrics.end() ? it->second : Metric{0.0, unit};
    }
    if (!a.trace_out.empty() && !ledger.write(a.trace_out, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
  } else {
    printed = r.metrics;
  }
  std::string metrics;
  for (const auto& [name, m] : printed) {
    if (!std::isfinite(m.value)) r.correct = false;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + number(v) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
