// serve-mixed: an in-process Daemon (unix socket, kServeWorkers workers)
// answers one client thread that keeps kServeInFlight requests in flight
// in a closed loop.  The request mix is fixed and its order seeded:
// `run` on all 8 dwarfs with the shared resolve cache, `explain`, a
// two-mode `diff`, `optimize`, a 2-thread `sweep`, and malformed and
// forbidden lines that must be rejected.  Latency runs from send to the
// response line.
//
// Why: the only workload that reaches the memsim layer through the warm
// process-wide memo, the daemon's auto intra-lane grant, the admission
// queue, JSON parsing and writing and obs/analyze.  The other two
// workloads bypass the memo, so a change that trades memo misses for
// hits, or removes the memo or the lane sharding, shows here.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "common.hpp"
#include "harness/registry.hpp"
#include "memsim/resolve_cache.hpp"
#include "obs/analyze/diff.hpp"
#include "obs/analyze/profile.hpp"
#include "serve/daemon.hpp"
#include "serve/jsonv.hpp"
#include "serve/request.hpp"
#include "simcore/thread_pool.hpp"

namespace perfbench {
namespace {

struct Request {
  std::string cls;     ///< latency class: the command, or "rejected"
  std::string label;   ///< the class plus its target, for the stderr table
  std::string line;    ///< the JSONL request
  std::string reject;  ///< expected rejection code; "" = must execute
};

/// The mix, one cycle.  The class costs (measured on a 4-core host) are
/// spread so that neither the median nor the tail sits on a jump between
/// a light and a heavy class; see README.md.
std::vector<Request> mix() {
  std::vector<Request> m;
  const std::string shared = R"("resolve-cache":"shared")";
  for (const std::string& app : nvms::app_names()) {
    m.push_back({"run", "run/" + app,
                 R"({"cmd":"run","target":")" + app + R"(","args":{)" +
                     shared + "}}",
                 ""});
  }
  for (const std::string app : {"xsbench", "hypre"}) {
    m.push_back({"explain", "explain/" + app,
                 R"({"cmd":"explain","target":")" + app + R"(","args":{)" +
                     shared + "}}",
                 ""});
    m.push_back({"diff", "diff/" + app,
                 R"({"cmd":"diff","targets":[")" + app + R"(",")" + app +
                     R"("],"args":{"mode-a":"dram-only",)"
                     R"("mode-b":"uncached-nvm",)" +
                     shared + "}}",
                 ""});
  }
  m.push_back({"optimize", "optimize/hypre",
               R"({"cmd":"optimize","target":"hypre","args":{"jobs":1}})",
               ""});
  m.push_back({"sweep", "sweep/hypre",
               R"({"cmd":"sweep","target":"hypre","args":{"threads":"12,24",)"
               R"("jobs":1,"csv":true,)" +
                   shared + "}}",
               ""});
  m.push_back({"rejected", "rejected/not-json", "this is not json",
               "malformed"});
  m.push_back({"rejected", "rejected/cmd-type", R"({"cmd":42})", "malformed"});
  m.push_back({"rejected", "rejected/record",
               R"({"cmd":"record","target":"hacc"})", "forbidden"});
  m.push_back({"rejected", "rejected/path-target",
               R"({"cmd":"run","target":"../etc/passwd"})", "forbidden"});
  m.push_back({"rejected", "rejected/trace-out",
               R"({"cmd":"run","target":"hacc","args":{"trace-out":"t.csv"}})",
               "forbidden"});
  return m;
}

/// A blocking-send, poll-driven JSONL connection to the daemon.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) return;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EINTR) {
        return false;
      }
    }
    return true;
  }

  /// A complete line already buffered, if any.
  std::optional<std::string> pop_line() {
    const std::size_t nl = carry_.find('\n');
    if (nl == std::string::npos) return std::nullopt;
    std::string line = carry_.substr(0, nl);
    carry_.erase(0, nl + 1);
    return line;
  }

  /// One recv into the buffer; false on EOF or error.
  bool fill() {
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        carry_.append(buf, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  bool recv_line(std::string* line) {
    while (true) {
      if (auto l = pop_line()) {
        *line = std::move(*l);
        return true;
      }
      if (!fill()) return false;
    }
  }

  bool roundtrip(const std::string& request, std::string* response) {
    return send_line(request) && recv_line(response);
  }

 private:
  int fd_ = -1;
  std::string carry_;
};

std::string field(const nvms::JsonValue& doc, const char* key) {
  const nvms::JsonValue* f = doc.find(key);
  return f != nullptr && f->is_string() ? f->as_string() : "";
}

/// Checks a response against its request; `out` receives the payload of
/// an executed request.
bool response_ok(const Request& req, const std::string& response,
                 std::string* out) {
  const auto doc = nvms::json_parse(response);
  if (!doc.value) return false;
  const nvms::JsonValue* ok = doc.value->find("ok");
  if (ok == nullptr) return false;
  const bool executed = ok->is_bool() && ok->as_bool();
  if (!req.reject.empty()) {
    return !executed && field(*doc.value, "code") == req.reject;
  }
  if (!executed) return false;  // queue_full, budget, ...: unexpected
  const nvms::JsonValue* exit = doc.value->find("exit");
  if (exit == nullptr || exit->as_number() != 0.0) return false;
  *out = field(*doc.value, "out");
  return true;
}

/// Running daemon with its IO thread; stops and joins on destruction.
class Server {
 public:
  explicit Server(const std::string& socket_path) {
    nvms::ServeConfig cfg;
    cfg.socket_path = socket_path;
    cfg.workers = kServeWorkers;
    cfg.queue_capacity = 64;
    daemon_ = std::make_unique<nvms::Daemon>(cfg);
    // The daemon sizes the process-wide lane total to the core count when
    // it is built; cap it afterwards, so busy threads, the client's
    // included, stay within the thread budget.
    nvms::IntraBudget::global().set_total(kServeLaneBudget);
    if (!daemon_->start(&error_)) return;
    io_ = std::thread([this] { daemon_->run(); });
  }
  ~Server() {
    if (io_.joinable()) {
      daemon_->stop();
      io_.join();
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool ok() const { return io_.joinable(); }
  const std::string& error() const { return error_; }

 private:
  std::unique_ptr<nvms::Daemon> daemon_;
  std::string error_;
  std::thread io_;
};

/// Value of the Prometheus sample `name{...} value` (0 if absent).
double prom_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) != 0 || line.size() <= name.size() ||
        (line[name.size()] != '{' && line[name.size()] != ' ')) {
      continue;
    }
    return std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return 0.0;
}

/// The daemon-side counters the traced run reads at the start and end of
/// each traced block, from the public `metrics` and `stats` replies.
struct Scrape {
  double admission_sum = 0, admission_n = 0, exec_sum = 0, exec_n = 0,
         queue_sum = 0, queue_n = 0;
  double rc_hits = 0, rc_misses = 0, sm_hits = 0, sm_misses = 0;
  double lanes = 0;

  /// Adds `end - start`, counter by counter (not the gauge).
  void add_delta(const Scrape& end, const Scrape& start) {
    admission_sum += end.admission_sum - start.admission_sum;
    admission_n += end.admission_n - start.admission_n;
    exec_sum += end.exec_sum - start.exec_sum;
    exec_n += end.exec_n - start.exec_n;
    queue_sum += end.queue_sum - start.queue_sum;
    queue_n += end.queue_n - start.queue_n;
    rc_hits += end.rc_hits - start.rc_hits;
    rc_misses += end.rc_misses - start.rc_misses;
    sm_hits += end.sm_hits - start.sm_hits;
    sm_misses += end.sm_misses - start.sm_misses;
  }
};

bool scrape(const std::string& path, Scrape* s) {
  Conn c(path);
  std::string resp;
  if (!c.roundtrip(R"({"cmd":"metrics"})", &resp)) return false;
  auto doc = nvms::json_parse(resp);
  if (!doc.value) return false;
  const std::string text = field(*doc.value, "out");
  s->admission_sum = prom_value(text, "nvms_serve_wait_admission_ms_sum");
  s->admission_n = prom_value(text, "nvms_serve_wait_admission_ms_count");
  s->exec_sum = prom_value(text, "nvms_serve_wait_execution_ms_sum");
  s->exec_n = prom_value(text, "nvms_serve_wait_execution_ms_count");
  s->queue_sum = prom_value(text, "nvms_serve_queue_wait_ms_sum");
  s->queue_n = prom_value(text, "nvms_serve_queue_wait_ms_count");
  s->lanes = prom_value(text, "nvms_serve_intra_lanes_leased");
  if (!c.roundtrip(R"({"cmd":"stats"})", &resp)) return false;
  doc = nvms::json_parse(resp);
  if (!doc.value) return false;
  const auto stats = nvms::json_parse(field(*doc.value, "out"));
  if (!stats.value) return false;
  auto num = [&](const char* obj, const char* key) {
    const nvms::JsonValue* o = stats.value->find(obj);
    const nvms::JsonValue* v = o != nullptr ? o->find(key) : nullptr;
    return v != nullptr ? v->as_number() : 0.0;
  };
  s->rc_hits = num("resolve_cache", "hits");
  s->rc_misses = num("resolve_cache", "misses");
  s->sm_hits = num("stream_memo", "hits");
  s->sm_misses = num("stream_memo", "misses");
  return true;
}

/// The one-shot CLI answer to a request: one run that warms a shared
/// resolve cache (as warm as the daemon's), then `warm_runs` on it.
/// `seconds` is the median warm run; the answer is the last one's.
std::string one_shot(const std::string& line, int warm_runs,
                     double* seconds) {
  const nvms::RequestParse p = nvms::parse_request(line);
  if (!p.request) return "";
  nvms::ResolveCache cache;
  nvms::CommandContext ctx;
  ctx.shared_cache = &cache;
  std::string out;
  std::vector<double> warm;
  for (int k = 0; k <= warm_runs; ++k) {
    std::ostringstream o, e;
    const Clock::time_point t0 = Clock::now();
    (void)nvms::run_command_guarded(p.request->cmd,
                                    nvms::options_from(*p.request), o, e, &ctx);
    if (k > 0) warm.push_back(seconds_since(t0));
    out = o.str();
  }
  *seconds = median_of(warm);
  return out;
}

std::string socket_path(const RunArgs& a) {
  return a.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
}

}  // namespace

bool run_serve_mixed(const RunArgs& a, Report& r, Ledger& ledger) {
  const std::vector<Request> reqs = mix();
  const std::string path = socket_path(a);

  // Set-up: start a fresh daemon and warm its shared cache with one pass
  // over the distinct requests.  Each pass replaces the daemon; the one
  // the window uses is the last pass before it.
  std::unique_ptr<Server> server;
  Setup setup(a, r, [&] {
    server.reset();
    server = std::make_unique<Server>(path);
    if (!server->ok()) {
      std::fprintf(stderr, "perfbench: daemon: %s\n", server->error().c_str());
      return false;
    }
    Conn c(path);
    std::string resp, out;
    for (const Request& q : reqs) {
      if (!c.ok() || !c.roundtrip(q.line, &resp) ||
          !response_ok(q, resp, &out)) {
        std::fprintf(stderr, "perfbench: warm-up request failed: %s -> %s\n",
                     q.line.c_str(), resp.c_str());
        return false;
      }
    }
    return true;
  });
  if (!setup.before()) return false;

  const std::vector<std::size_t> order = permutation(reqs.size(), a.seed);
  std::vector<std::unique_ptr<Conn>> conns;
  for (int k = 0; k < kServeInFlight; ++k) {
    conns.push_back(std::make_unique<Conn>(path));
    if (!conns.back()->ok()) return false;
  }

  DigestBook book;
  std::vector<std::uint64_t> served(reqs.size(), 0);
  ClassTimes classes;
  // Traced-block samples: (request, latency ms), the response bytes, the
  // daemon's counters summed over the blocks and the sampled lane gauge.
  std::vector<std::pair<std::size_t, double>> samples;
  double bytes_out = 0;
  Scrape daemon;
  double lane_sum = 0, lane_n = 0;
  bool scraped = true;
  std::uint64_t next = 0;

  auto window = [&](double seconds) {
    Window w;
    Scrape start;
    if (ledger.enabled()) scraped = scrape(path, &start) && scraped;
    struct Slot {
      std::size_t req = 0;
      std::uint64_t op = 0;
      Clock::time_point sent;
      bool busy = false;
    };
    std::vector<Slot> slots(conns.size());
    const Clock::time_point t0 = Clock::now();
    auto send = [&](std::size_t k) {
      Slot& s = slots[k];
      s.op = next++;
      s.req = order[s.op % order.size()];
      s.sent = Clock::now();
      s.busy = conns[k]->send_line(reqs[s.req].line);
      if (!s.busy) {
        ++w.attempted;
        ++w.failed;
      }
    };
    for (std::size_t k = 0; k < conns.size(); ++k) send(k);
    std::vector<pollfd> pfds(conns.size());
    while (true) {
      std::size_t busy = 0;
      for (std::size_t k = 0; k < conns.size(); ++k) {
        pfds[k] = {conns[k]->fd(),
                   static_cast<short>(slots[k].busy ? POLLIN : 0), 0};
        busy += slots[k].busy ? 1 : 0;
      }
      if (busy == 0) break;
      if (::poll(pfds.data(), pfds.size(), 1000) < 0 && errno != EINTR) break;
      for (std::size_t k = 0; k < conns.size(); ++k) {
        if (!slots[k].busy || (pfds[k].revents & (POLLIN | POLLHUP)) == 0) {
          continue;
        }
        if (!conns[k]->fill()) {  // daemon hung up: count and stop this slot
          slots[k].busy = false;
          ++w.attempted;
          ++w.failed;
          continue;
        }
        while (slots[k].busy) {
          std::optional<std::string> line = conns[k]->pop_line();
          if (!line) break;
          const Clock::time_point now = Clock::now();
          Slot& s = slots[k];
          const double ms =
              std::chrono::duration<double, std::milli>(now - s.sent).count();
          const Request& q = reqs[s.req];
          std::string out;
          bool ok = response_ok(q, *line, &out);
          if (ok && q.reject.empty()) {
            ok = book.check(std::to_string(s.req), hash_hex(out));
            ++served[s.req];
          }
          ++w.attempted;
          if (!ok) ++w.failed;
          w.lat.ms.push_back(ms);
          classes.add(q.label, ms);
          ledger.add("serve.request", s.op, s.sent, now);
          if (ledger.enabled()) {
            samples.emplace_back(s.req, ms);
            bytes_out += static_cast<double>(line->size() + 1);  // + '\n'
            if (s.op % 32 == 0) {  // sample the lanes leased mid-window
              Scrape mid;
              if (scrape(path, &mid)) {
                lane_sum += mid.lanes;
                lane_n += 1;
              }
            }
          }
          s.busy = false;
          if (seconds_since(t0) < seconds) send(k);
        }
      }
    }
    w.wall_s = seconds_since(t0);
    Scrape end;
    if (ledger.enabled()) {
      scraped = scrape(path, &end) && scraped;
      daemon.add_delta(end, start);
    }
    return w;
  };

  measure(a, r, ledger, window);
  conns.clear();
  classes.print("serve-mixed");

  // Outside the timed region: every served payload against a one-shot
  // run_command of the same request.  A mismatch fails every op of it.
  std::vector<double> oneshot_ms(reqs.size(), 0.0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].reject.empty()) continue;
    double s = 0.0;
    // The traced run times the one-shot too: a median of three.
    const std::string out = one_shot(reqs[i].line, a.trace ? 3 : 1, &s);
    oneshot_ms[i] = 1e3 * s;
    if (served[i] > 0 && !book.check(std::to_string(i), hash_hex(out))) {
      std::fprintf(stderr, "perfbench: served output differs from one-shot "
                   "run_command: %s\n", reqs[i].line.c_str());
      r.failed += served[i];
    }
  }
  r.correct = r.failed == 0;
  if (!a.trace) return setup.after();
  if (!scraped) return false;

  Metrics& m = r.metrics;
  auto mean = [](double sum, double n) { return n > 0 ? sum / n : 0.0; };
  const double admission = mean(daemon.admission_sum, daemon.admission_n);
  const double exec = mean(daemon.exec_sum, daemon.exec_n);
  const double queue = mean(daemon.queue_sum, daemon.queue_n);
  m["serve.wait_admission_ms"] = {admission, "ms"};
  m["serve.wait_execution_ms"] = {exec, "ms"};
  m["serve.queue_wait_ms"] = {queue, "ms"};
  m["serve.intra_lanes_leased"] = {mean(lane_sum, lane_n), "count"};
  m["serve.bytes_out"] = {
      mean(bytes_out, static_cast<double>(samples.size())), "bytes"};
  auto ratio = [](double h, double mi) {
    return h + mi > 0 ? h / (h + mi) : 0.0;
  };
  m["resolve_cache.hit_ratio"] = {ratio(daemon.rc_hits, daemon.rc_misses),
                                  "ratio"};
  m["stream_memo.hit_ratio"] = {ratio(daemon.sm_hits, daemon.sm_misses),
                                "ratio"};

  // Per-request medians.  A class's figure is the median of its requests'
  // medians: explain and diff hold two targets of unlike cost in equal
  // numbers, so the median of their pooled samples would flip between the
  // two from run to run.  The serve overhead is each executed request's
  // median latency minus its warm one-shot time, the median over them.
  std::map<std::size_t, std::vector<double>> by_req;
  double executed = 0, latency = 0;
  for (const auto& [i, ms] : samples) {
    by_req[i].push_back(ms);
    if (!reqs[i].reject.empty()) continue;
    latency += ms;
    executed += 1;
  }
  std::map<std::string, std::vector<double>> by_cls;
  std::vector<double> overheads;
  for (const auto& [i, v] : by_req) {
    const double med = median_of(v);
    by_cls[reqs[i].cls].push_back(med);
    if (reqs[i].reject.empty()) overheads.push_back(med - oneshot_ms[i]);
  }
  for (const char* cls : {"run", "explain", "diff", "optimize", "sweep"}) {
    m[std::string("serve.") + cls + "_p50_ms"] = {median_of(by_cls[cls]), "ms"};
  }
  m["serve.overhead_ms"] = {median_of(overheads), "ms"};
  // Share of the client-side latency the daemon's own split explains.
  m["ledger.coverage"] = {
      latency > 0 ? (admission + queue + exec) * executed / latency : 0.0,
      "ratio"};

  // Request parsing over the mix, and the analyze layer on the explain
  // and diff targets, probed after the window.
  {
    constexpr int kRounds = 200;
    const Clock::time_point t0 = Clock::now();
    std::size_t rejected = 0;
    for (int k = 0; k < kRounds; ++k) {
      for (const Request& q : reqs) {
        rejected += nvms::parse_request(q.line).request ? 0 : 1;
      }
    }
    m["serve.parse_request_us"] = {
        1e6 * seconds_since(t0) / (kRounds * static_cast<double>(reqs.size())),
        "us"};
    if (rejected == 0) r.correct = false;
  }
  {
    nvms::AppConfig cfg;
    auto profile = [&](nvms::Mode mode, double* build_s) {
      const nvms::SystemConfig sys = nvms::SystemConfig::testbed(mode);
      nvms::Telemetry tel;
      (void)nvms::run_app_on("xsbench", sys, cfg, &tel);
      const Clock::time_point t0 = Clock::now();
      nvms::RunProfile p =
          nvms::build_run_profile(tel, nvms::analyze_context(sys, "xsbench"));
      *build_s = seconds_since(t0);
      return p;
    };
    double s_a = 0, s_b = 0;
    const nvms::RunProfile pa = profile(nvms::Mode::kDramOnly, &s_a);
    const nvms::RunProfile pb = profile(nvms::Mode::kUncachedNvm, &s_b);
    const Clock::time_point t0 = Clock::now();
    const nvms::RunDiff d = nvms::diff_profiles(pa, pb);
    m["analyze.diff_s"] = {seconds_since(t0), "s"};
    m["analyze.profile_s"] = {0.5 * (s_a + s_b), "s"};
    if (d.phases.empty()) r.correct = false;
  }
  return true;
}

std::vector<std::string> serve_inputs(std::uint64_t seed) {
  const std::vector<Request> reqs = mix();
  std::vector<std::string> lines;
  for (const std::size_t i : permutation(reqs.size(), seed)) {
    lines.push_back(reqs[i].line);
  }
  return lines;
}

}  // namespace perfbench
