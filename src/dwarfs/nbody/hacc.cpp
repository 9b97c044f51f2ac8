#include "dwarfs/nbody/hacc.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "appfw/result.hpp"

namespace nvms {

HaccParams HaccParams::from(const AppConfig& cfg) {
  HaccParams p;
  p.virtual_particles = static_cast<std::uint64_t>(
      static_cast<double>(p.virtual_particles) * cfg.size_scale);
  if (cfg.iterations > 0) p.steps = cfg.iterations;
  return p;
}

namespace {

/// Plummer-softened pairwise kernel used by the real host integrator.
constexpr double kSoftening2 = 1e-4;

}  // namespace

ParticleSet make_particles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ParticleSet s;
  s.pos.resize(3 * n);
  s.vel.resize(3 * n);
  s.acc.assign(3 * n, 0.0);
  for (std::size_t i = 0; i < 3 * n; ++i) {
    s.pos[i] = rng.uniform(0.0, 1.0);
    s.vel[i] = rng.uniform(-0.01, 0.01);
  }
  return s;
}

/// Short-range force via a real 3D cell list over the unit box: particles
/// are binned into cells of edge >= the cutoff, and pairs interact only
/// within the 27-cell neighbourhood — HACC's short-range structure.
///
/// Particles are counting-sorted into cell order (stable in particle
/// index) in contiguous scratch, and the result is scattered back.  Pairs
/// are visited, and each acc element is updated, in cell order and within
/// a cell in particle-index order, so no output bit depends on the
/// scratch layout.
void cell_list_forces(ParticleSet& s, double cutoff) {
  const std::size_t n = s.count();
  const int grid = std::max(1, static_cast<int>(1.0 / cutoff));
  const double cell_edge = 1.0 / grid;
  const double accept_r2 = cutoff * cutoff + kSoftening2;
  const std::size_t ncells = static_cast<std::size_t>(grid) * grid * grid;

  auto cell_of = [&](std::size_t i) {
    int c[3];
    for (int k = 0; k < 3; ++k) {
      const double x = s.pos[3 * i + k] - std::floor(s.pos[3 * i + k]);
      c[k] = std::min(grid - 1,
                      static_cast<int>(x / cell_edge));
    }
    return static_cast<std::size_t>((c[2] * grid + c[1]) * grid + c[0]);
  };
  // counting sort into cells: cell c owns slots [first[c], first[c + 1])
  std::vector<std::size_t> cell(n);
  std::vector<std::size_t> first(ncells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cell[i] = cell_of(i);
    ++first[cell[i] + 1];
  }
  for (std::size_t c = 0; c < ncells; ++c) first[c + 1] += first[c];
  // cell-ordered scratch, one array per axis
  std::vector<std::size_t> particle(n);  // slot -> particle index
  std::array<std::vector<double>, 3> pos, acc;
  for (int k = 0; k < 3; ++k) {
    pos[k].resize(n);
    acc[k].assign(n, 0.0);
  }
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t slot = next[cell[i]]++;
      particle[slot] = i;
      for (int k = 0; k < 3; ++k) pos[k][slot] = s.pos[3 * i + k];
    }
  }

  // One home particle against a block of slots: the minimum-image offsets
  // and r^2 of every pair first (branch free), then the accepted pairs in
  // block order.
  std::size_t max_block = 0;
  for (std::size_t c = 0; c < ncells; ++c) {
    max_block = std::max(max_block, first[c + 1] - first[c]);
  }
  std::array<std::vector<double>, 3> off;
  for (auto& o : off) o.resize(max_block);
  std::vector<double> r2(max_block);
  std::vector<std::size_t> accepted(max_block);
  const auto interact_block = [&](std::size_t i, std::size_t b0,
                                  std::size_t b1) {
    const std::size_t len = b1 - b0;
    const double xi = pos[0][i], yi = pos[1][i], zi = pos[2][i];
    const double* px = pos[0].data() + b0;
    const double* py = pos[1].data() + b0;
    const double* pz = pos[2].data() + b0;
    for (std::size_t m = 0; m < len; ++m) {
      double d0 = px[m] - xi;
      double d1 = py[m] - yi;
      double d2 = pz[m] - zi;
      d0 -= round_half_away(d0);  // periodic box
      d1 -= round_half_away(d1);
      d2 -= round_half_away(d2);
      off[0][m] = d0;
      off[1][m] = d1;
      off[2][m] = d2;
      r2[m] = kSoftening2 + d0 * d0 + d1 * d1 + d2 * d2;
    }
    std::size_t hits = 0;
    for (std::size_t m = 0; m < len; ++m) {
      accepted[hits] = m;
      hits += r2[m] > accept_r2 ? 0 : 1;
    }
    double ai[3] = {acc[0][i], acc[1][i], acc[2][i]};
    for (std::size_t h = 0; h < hits; ++h) {
      const std::size_t m = accepted[h];
      const double inv_r = 1.0 / std::sqrt(r2[m]);
      const double w = inv_r * inv_r * inv_r;
      for (int k = 0; k < 3; ++k) {
        ai[k] += w * off[k][m];
        acc[k][b0 + m] -= w * off[k][m];
      }
    }
    for (int k = 0; k < 3; ++k) acc[k][i] = ai[k];
  };

  std::vector<std::size_t> neighbours;
  neighbours.reserve(27);
  for (int cz = 0; cz < grid; ++cz) {
    for (int cy = 0; cy < grid; ++cy) {
      for (int cx = 0; cx < grid; ++cx) {
        const std::size_t hc =
            static_cast<std::size_t>((cz * grid + cy) * grid + cx);
        // Distinct neighbour cells in first-occurrence order; below 3
        // cells per axis several offsets wrap onto the same cell.  Each
        // cell pair is visited once, from its lower-numbered cell.
        neighbours.clear();
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const int nx = (cx + dx + grid) % grid;
              const int ny = (cy + dy + grid) % grid;
              const int nz = (cz + dz + grid) % grid;
              const std::size_t nc =
                  static_cast<std::size_t>((nz * grid + ny) * grid + nx);
              if (nc >= hc && std::find(neighbours.begin(), neighbours.end(),
                                        nc) == neighbours.end()) {
                neighbours.push_back(nc);
              }
            }
          }
        }
        for (const std::size_t nc : neighbours) {
          for (std::size_t i = first[hc]; i < first[hc + 1]; ++i) {
            interact_block(i, nc == hc ? i + 1 : first[nc], first[nc + 1]);
          }
        }
      }
    }
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    for (int k = 0; k < 3; ++k) {
      s.acc[3 * particle[slot] + k] = acc[k][slot];
    }
  }
}

void leapfrog_step(ParticleSet& s, double dt) {
  const std::size_t n3 = s.pos.size();
  for (std::size_t i = 0; i < n3; ++i) {
    s.vel[i] += dt * s.acc[i];
    s.pos[i] += dt * s.vel[i];
  }
}

double kinetic_energy(const ParticleSet& s) {
  double ke = 0.0;
  for (double v : s.vel) ke += 0.5 * v * v;
  return ke;
}

std::array<double, 3> total_momentum(const ParticleSet& s) {
  std::array<double, 3> p = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < s.count(); ++i) {
    for (int k = 0; k < 3; ++k) p[static_cast<std::size_t>(k)] += s.vel[3 * i + k];
  }
  return p;
}

AppResult HaccApp::run(AppContext& ctx) const {
  const auto p = HaccParams::from(ctx.cfg());
  const std::uint64_t nv = p.virtual_particles;

  auto pos = ctx.alloc<double>("particles_pos", 3 * p.real_particles, 3 * nv);
  auto vel = ctx.alloc<double>("particles_vel", 3 * p.real_particles, 3 * nv);
  auto acc = ctx.alloc<double>("particles_acc", 3 * p.real_particles, 3 * nv);

  ParticleSet host = make_particles(p.real_particles, ctx.cfg().seed);
  std::copy(host.pos.begin(), host.pos.end(), pos.data());

  // HACC subcycles the short-range force many times per long (memory
  // visible) step; particle tiles live in cache during subcycling, so DRAM
  // traffic only occurs at step boundaries.
  constexpr int kSubcycles = 400;
  const double flops_per_step = static_cast<double>(nv) * p.neighbours *
                                p.flops_per_interaction * kSubcycles;

  for (int step = 0; step < p.steps; ++step) {
    cell_list_forces(host, 0.1);
    leapfrog_step(host, 1e-3);

    // Streaming pass over positions (read) plus the velocity/acceleration
    // update writes: matches the ~36% write ratio of Table III.
    ctx.run(PhaseBuilder("force+kick")
                .threads(ctx.cfg().threads)
                .flops(flops_per_step)
                .parallel_fraction(0.995)
                .stream(seq_read(pos.id(), 3 * nv * sizeof(double)))
                .stream(seq_read(vel.id(), nv * sizeof(double)))
                .stream(seq_write(vel.id(), nv * sizeof(double)))
                .stream(seq_write(acc.id(), nv * sizeof(double) * 3 / 4))
                .build());
  }

  AppResult r = finalize_result(ctx, name());
  r.fom = r.runtime;
  r.fom_unit = "s";
  r.higher_is_better = false;
  r.checksum = kinetic_energy(host);
  return r;
}

}  // namespace nvms
