// Bit-exact goldens for the host numerics (ctest label `numerics`).
//
// The dwarf kernels produce each app's checksum, so a kernel rewrite must
// keep every output element's floating-point operations, operands and
// order.  EXPECT_DOUBLE_EQ would forgive 4 ULP, so these tests compare bit
// patterns instead: each constant is std::bit_cast<std::uint64_t> of the
// value (or an FNV-1a digest of the bit patterns of a whole output),
// recorded from the straightforward reference kernels — the std::set
// active-column LU, the bucket-vector cell list with std::round, and the
// per-line cos/sin FFT.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "dwarfs/nbody/hacc.hpp"
#include "dwarfs/sparse/sparse_matrix.hpp"
#include "dwarfs/spectral/ft.hpp"
#include "harness/registry.hpp"
#include "simcore/rng.hpp"

namespace nvms {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over 64-bit words: the bit patterns of doubles, or indices.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(bits(v)); }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const T& v : values) add(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct AppGolden {
  const char* app;
  std::uint64_t checksum;
  std::uint64_t runtime;
  std::uint64_t fom;
};

// Seed 7, 12 threads, dram-only, default scale and iterations.
constexpr AppGolden kAppGoldens[] = {
    {"hacc", 0x41372147e8e6f14a,
     0x4030814065f1e43d, 0x4030814065f1e43d},
    {"laghos", 0xbfa7ebb79a2fb726,
     0x4002bb1971596dfb, 0x4002bb1971596dfb},
    {"scalapack", 0x408be9a7c1f5e774,
     0x3fb0203ea293b30c, 0x3fb0203ea293b30c},
    {"xsbench", 0x4161a17341896ce2,
     0x4002508dfea27984, 0x416c53b3a4c0a237},
    {"hypre", 0x3fe62ed39930898b,
     0x3fd472a200b133a3, 0x3fd472a200b133a3},
    {"superlu", 0x401b9903d8a1920f,
     0x3fb0e65734250ff9, 0x410be0c05bde63ac},
    {"boxlib", 0x407b544bd68389fc,
     0x3f9d1906200524d1, 0x3f9d1906200524d1},
    {"ft", 0xc069ced47b14da7c,
     0x3fb66c34bdd57a35, 0x410180cca2be13bb},
    {"stream", 0x44d9d1a04495b1d8,
     0x3fa1df05cdaec06d, 0x405cc00000000008},
    {"gups", 0x0000000000000000,
     0x3f8156321b68ba31, 0x407d8860756d2353},
};

TEST(NumericsGolden, EveryRegisteredAppResult) {
  std::vector<std::string> apps = app_names();
  for (const auto& extra : extra_app_names()) apps.push_back(extra);
  ASSERT_EQ(apps.size(), std::size(kAppGoldens));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppGolden& g = kAppGoldens[i];
    ASSERT_EQ(apps[i], g.app);
    AppConfig cfg;
    cfg.seed = 7;
    cfg.threads = 12;
    const AppResult r = run_app(apps[i], Mode::kDramOnly, cfg);
    EXPECT_EQ(hex(bits(r.checksum)), hex(g.checksum)) << g.app << " checksum";
    EXPECT_EQ(hex(bits(r.runtime)), hex(g.runtime)) << g.app << " runtime";
    EXPECT_EQ(hex(bits(r.fom)), hex(g.fom)) << g.app << " fom";
  }
}

void add_csr(Digest& d, const CsrMatrix& m) {
  d.add(static_cast<std::uint64_t>(m.n));
  for (const std::size_t p : m.row_ptr) d.add(static_cast<std::uint64_t>(p));
  for (const std::size_t c : m.col_idx) d.add(static_cast<std::uint64_t>(c));
  d.add_all(m.values);
}

TEST(NumericsGolden, SparseLuFactorsAtSuperluSize) {
  // The superlu app's host problem: n 700, band 24, 2 extras per row.
  const SparseLu lu = sparse_lu_factor(make_synthetic_matrix(700, 24, 2, 7));
  Digest d;
  add_csr(d, lu.l);
  add_csr(d, lu.u);
  d.add(lu.fill_ratio);
  EXPECT_EQ(hex(d.value()), hex(0x44f291d8377f8369));
}

TEST(NumericsGolden, CellListForcesAfterTwoSteps) {
  // The hacc app's host problem: 8192 particles, cutoff 0.1 (grid 10).
  ParticleSet s = make_particles(8192, 7);
  for (int step = 0; step < 2; ++step) {
    cell_list_forces(s, 0.1);
    leapfrog_step(s, 1e-3);
  }
  Digest d;
  d.add_all(s.acc);
  EXPECT_EQ(hex(d.value()), hex(0x70b116784ae0b8da));
}

TEST(NumericsGolden, Fft3dOnSeededCube) {
  // The ft app's host cube: 32^3, forward then inverse.
  Rng rng(7);
  std::vector<std::complex<double>> cube(32 * 32 * 32);
  for (auto& c : cube) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto digest = [&cube] {
    Digest d;
    for (const auto& c : cube) {
      d.add(c.real());
      d.add(c.imag());
    }
    return d.value();
  };
  fft3d(cube, 32, -1);
  EXPECT_EQ(hex(digest()), hex(0x538343e8e4cc71bd)) << "forward";
  fft3d(cube, 32, +1);
  EXPECT_EQ(hex(digest()), hex(0xdd41e962ceece391)) << "inverse";
}

TEST(NumericsGolden, RoundHalfAwayMatchesStdRoundBitwise) {
  // The cell list's minimum-image step uses an inline rounding helper;
  // it must equal std::round bit for bit, sign of zero included.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double below_half = std::nextafter(0.5, 0.0);
  const double two52 = 0x1p52;
  std::vector<double> values = {
      0.0,          0.5,           1.5,
      2.5,          below_half,    1.0 - 0x1p-53,
      two52 - 1.0,  two52 + 1.0,   two52 - 0.5,
      0x1p51 + 0.5, two52,         0x1p53 + 2.0,
      0x1p63,       0x1p64,        1e300,
      kInf,         0x1p-1060,     0.50000000000000011,
      3.4999999999999996,          4503599627370495.5,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min()};
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    // uniform magnitudes, then every binade from 2^-1074 to 2^60
    values.push_back(rng.uniform(0.0, 4.0));
    values.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                                static_cast<int>(rng.below(1135)) - 1074));
  }
  for (int k = -8; k <= 8; ++k) {  // neighbours of every half integer
    const double h = k + 0.5;
    values.push_back(std::nextafter(h, -kInf));
    values.push_back(h);
    values.push_back(std::nextafter(h, kInf));
  }
  const std::size_t positives = values.size();
  for (std::size_t i = 0; i < positives; ++i) values.push_back(-values[i]);
  for (const double v : values) {
    EXPECT_EQ(hex(bits(round_half_away(v))), hex(bits(std::round(v))))
        << "x = " << hex(bits(v));
  }
  for (const double nan : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN()}) {
    EXPECT_EQ(hex(bits(round_half_away(nan))), hex(bits(std::round(nan))))
        << "x = " << hex(bits(nan));
  }
}

}  // namespace
}  // namespace nvms
