#include "replay/recording.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>
#include <system_error>

#include "mem/space.hpp"
#include "simcore/error.hpp"

namespace nvms {
namespace {

const char* pattern_token(Pattern p) {
  switch (p) {
    case Pattern::kSequential:
      return "seq";
    case Pattern::kStrided:
      return "strided";
    case Pattern::kRandom:
      return "rand";
  }
  return "?";
}

/// One `nvmstrace v1` record line, split into whitespace-separated
/// tokens (views into the loaded text); every diagnostic names the line
/// number, and a bad number names the field and value.
class TraceLine {
 public:
  TraceLine(std::string_view line, std::size_t number) : number_(number) {
    constexpr std::string_view kSpace = " \t\r\v\f";
    for (std::size_t at = line.find_first_not_of(kSpace);
         at != std::string_view::npos;
         at = line.find_first_not_of(kSpace, at)) {
      const std::size_t end = std::min(line.find_first_of(kSpace, at),
                                       line.size());
      if (size_ < tokens_.size()) tokens_[size_] = line.substr(at, end - at);
      ++size_;
      at = end;
    }
  }

  bool empty() const { return size_ == 0; }
  std::string_view keyword() const { return tokens_[0]; }

  /// The record's fields after the keyword: exactly `count` of them, or a
  /// "truncated <keyword> line" error.
  void expect_fields(std::size_t count) const {
    const std::string record(keyword());
    if (size_ < count + 1) fail("truncated " + record + " line");
    if (size_ > count + 1) fail("unexpected token after " + record + " line");
  }

  std::string_view text(std::size_t field) const {
    return tokens_[field + 1];
  }

  /// An integer field: the whole token, in range of T, at least `min`
  /// (from_chars takes no sign for an unsigned T).
  template <typename T>
  T count(std::size_t field, const char* name, T min = 0) const {
    const std::string_view tok = text(field);
    T v{};
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || end != tok.data() + tok.size() || v < min) {
      bad_value(name, tok);
    }
    return v;
  }

  /// A finite floating-point field within [lo, hi].
  double real(std::size_t field, const char* name,
              double lo = -std::numeric_limits<double>::max(),
              double hi = std::numeric_limits<double>::max()) const {
    const std::string_view tok = text(field);
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || end != tok.data() + tok.size() ||
        !std::isfinite(v) || v < lo || v > hi) {
      bad_value(name, tok);
    }
    return v;
  }

  Pattern pattern(std::size_t field) const {
    const std::string_view tok = text(field);
    if (tok == "seq") return Pattern::kSequential;
    if (tok == "strided") return Pattern::kStrided;
    if (tok == "rand") return Pattern::kRandom;
    fail("unknown pattern '" + std::string(tok) + "'");
  }

  Placement placement(std::size_t field) const {
    const std::string_view tok = text(field);
    if (tok == "auto") return Placement::kAuto;
    if (tok == "dram") return Placement::kDram;
    if (tok == "nvm") return Placement::kNvm;
    fail("unknown placement '" + std::string(tok) + "'");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError("trace: line " + std::to_string(number_) + ": " + what);
  }

 private:
  [[noreturn]] void bad_value(const char* name, std::string_view tok) const {
    fail(std::string("field `") + name + "`: bad value `" + std::string(tok) +
         "`");
  }

  std::size_t number_;
  std::size_t size_ = 0;  ///< tokens on the line; the first 9 are kept
  std::array<std::string_view, 9> tokens_;
};

void check_name(const std::string& name) {
  require(!name.empty() &&
              name.find_first_of(" \t\n") == std::string::npos,
          "trace: name '" + name + "' must be non-empty without whitespace");
}

}  // namespace

std::vector<std::vector<BufferId>> PhaseRecording::phase_buffers() const {
  std::vector<std::vector<BufferId>> out(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    auto& ids = out[i];
    ids.reserve(phases[i].streams.size());
    for (const auto& s : phases[i].streams) ids.push_back(s.buffer);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return out;
}

std::uint64_t PhaseRecording::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : phases) total += p.total_bytes();
  return total;
}

std::string PhaseRecording::save() const {
  std::ostringstream out;
  // round-trip precision for flops / fractions
  out << std::setprecision(17);
  out << "nvmstrace v1\n";
  for (const auto& b : buffers) {
    check_name(b.name);
    out << "buffer " << b.name << ' ' << b.bytes << ' ' << to_string(b.placement)
        << '\n';
  }
  for (const auto& p : phases) {
    check_name(p.name);
    out << "phase " << p.name << ' ' << p.threads << ' ' << p.flops << ' '
        << p.parallel_fraction << ' ' << p.mlp << ' ' << p.overlap << ' '
        << p.streams.size() << '\n';
    for (const auto& s : p.streams) {
      out << "stream " << s.buffer << ' ' << s.bytes << ' '
          << pattern_token(s.pattern) << ' '
          << (s.dir == Dir::kRead ? "read" : "write") << ' ' << s.granule
          << ' ' << s.reuse << ' ' << s.reuse_block << '\n';
    }
  }
  return out.str();
}

PhaseRecording PhaseRecording::load(const std::string& text) {
  const std::string_view all = text;
  std::size_t at = std::min(all.find('\n'), all.size());
  const std::string_view header = all.substr(0, at);
  require(header == "nvmstrace v1",
          "trace: bad header '" + std::string(header) + "'");

  PhaseRecording rec;
  std::size_t pending_streams = 0;
  for (std::size_t number = 2; at < all.size(); ++number) {
    const std::size_t begin = at + 1;
    at = std::min(all.find('\n', begin), all.size());
    const TraceLine l(all.substr(begin, at - begin), number);
    if (l.empty()) continue;
    if (l.keyword() == "buffer") {
      if (pending_streams != 0) l.fail("buffer inside phase");
      l.expect_fields(3);
      RecordedBuffer b;
      b.name = std::string(l.text(0));
      b.bytes = l.count<std::uint64_t>(1, "bytes");
      b.placement = l.placement(2);
      // Placement plans address buffers by name, so a recording with two
      // equally-named buffers would silently alias them — reject it.
      for (const auto& existing : rec.buffers) {
        if (existing.name == b.name) {
          l.fail("duplicate buffer name '" + b.name + "'");
        }
      }
      rec.buffers.push_back(std::move(b));
    } else if (l.keyword() == "phase") {
      if (pending_streams != 0) l.fail("phase while streams pending");
      l.expect_fields(7);
      Phase p;
      p.name = std::string(l.text(0));
      p.threads = l.count<int>(1, "threads", 1);
      p.flops = l.real(2, "flops", 0.0);
      p.parallel_fraction = l.real(3, "parallel_fraction", 0.0, 1.0);
      p.mlp = l.real(4, "mlp");
      p.overlap = l.real(5, "overlap", 0.0, 1.0);
      pending_streams = l.count<std::size_t>(6, "streams");
      rec.phases.push_back(std::move(p));
    } else if (l.keyword() == "stream") {
      if (rec.phases.empty() || pending_streams == 0) {
        l.fail("stream outside phase");
      }
      l.expect_fields(7);
      StreamDesc s;
      s.buffer = l.count<BufferId>(0, "buffer");
      s.bytes = l.count<std::uint64_t>(1, "bytes");
      s.pattern = l.pattern(2);
      const std::string_view dir = l.text(3);
      if (dir != "read" && dir != "write") {
        l.fail("unknown direction '" + std::string(dir) + "'");
      }
      s.dir = dir == "read" ? Dir::kRead : Dir::kWrite;
      s.granule = l.count<std::uint64_t>(4, "granule", 1);
      s.reuse = l.count<std::uint32_t>(5, "reuse", 1);
      s.reuse_block = l.count<std::uint64_t>(6, "reuse_block", 1);
      if (s.buffer >= rec.buffers.size()) {
        l.fail("stream references unknown buffer");
      }
      rec.phases.back().streams.push_back(s);
      --pending_streams;
    } else {
      l.fail("unknown token '" + std::string(l.keyword()) + "'");
    }
  }
  require(pending_streams == 0, "trace: truncated stream list");
  return rec;
}

double PhaseRecording::replay(MemorySystem& sys,
                              const PlacementPlan* placement) const {
  require(sys.buffers().empty(), "trace replay: system already has buffers");
  const double t0 = sys.now();
  for (const auto& b : buffers) {
    Placement p = b.placement;
    if (placement != nullptr) {
      const Placement override_p = placement->lookup(b.name);
      if (override_p != Placement::kAuto) p = override_p;
    }
    (void)sys.register_buffer(b.name, b.bytes, p);
  }
  for (const auto& p : phases) (void)sys.submit(p);
  return sys.now() - t0;
}

TraceCapture::TraceCapture(MemorySystem& sys) : sys_(&sys) {
  sys.set_phase_observer([this](const Phase& p) { phases_.push_back(p); });
}

TraceCapture::~TraceCapture() {
  if (!finished_) sys_->set_phase_observer(nullptr);
}

PhaseRecording TraceCapture::finish() {
  require(!finished_, "trace capture: finish called twice");
  finished_ = true;
  sys_->set_phase_observer(nullptr);
  PhaseRecording rec;
  for (const auto& b : sys_->buffers()) {
    rec.buffers.push_back({b.name, b.bytes, b.placement});
  }
  rec.phases = std::move(phases_);
  return rec;
}

}  // namespace nvms
