// Microbenchmark for the batched shared-cmat collision kernel.
//
// The paper's sharing of cmat across k ensemble members makes the collision
// step a mat-mat (one nv×nv matrix × k right-hand sides per cell) instead of
// k mat-vecs. This bench measures that arithmetic-intensity win directly:
// sim-cell applies per second for the scalar CollisionTensor::apply path
// (each member applied separately, cmat streamed k times per cell) vs the
// batched apply_batch panel path (cmat streamed once per cell), at
// k ∈ {1, 4, 16}. It also times the one-time shared-cmat build (LU factor
// plus nv-column solve per cell) at nv = 128, next to the deterministic
// CmatRecipe::build_flops_per_cell. Emits one JSON document on stdout — the
// BENCH_*.json trajectory's collision-kernel series.
//
// `--smoke` runs a reduced shape, verifies batch/scalar bit-exactness, and
// exits nonzero on mismatch; it is registered as a ctest so the batched
// kernel cannot silently regress.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "collision/operator.hpp"
#include "collision/tensor.hpp"
#include "util/rng.hpp"
#include "vgrid/velocity_grid.hpp"

namespace {

using xg::collision::cplx;

xg::vgrid::VelocityGrid make_grid(int n_energy, int n_xi) {
  xg::vgrid::VelocityGridSpec spec;
  spec.n_species = 2;
  spec.n_energy = n_energy;
  spec.n_xi = n_xi;
  std::vector<xg::vgrid::Species> sp(2);
  sp[1].mass = 2.72e-4;
  sp[1].charge = -1.0;
  return xg::vgrid::VelocityGrid(spec, std::move(sp));
}

/// cmat stand-in with one genuinely built cell replicated: apply cost does
/// not depend on the values, and this keeps setup off the critical path.
xg::collision::CollisionTensor make_tensor(const xg::vgrid::VelocityGrid& g,
                                           int n_cells) {
  xg::collision::CollisionParams params;
  const auto a = xg::collision::build_implicit_step_matrix(
      xg::collision::build_cell_operator(
          xg::collision::build_scattering_operator(g, params),
          xg::collision::gyro_diffusion_rates(g, params, 1.0)),
      0.01);
  xg::collision::CollisionTensor t(g.nv(), n_cells);
  t.set_cell(0, a);
  for (int c = 1; c < n_cells; ++c) t.copy_cell(c, 0);
  return t;
}

std::vector<cplx> random_panel(int nv, int k, std::uint64_t seed) {
  xg::Rng rng(seed);
  std::vector<cplx> x(static_cast<size_t>(nv) * k);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Rates {
  double scalar_cells_per_s = 0.0;
  double batch_cells_per_s = 0.0;
};

/// Sim-cell applies per second over `reps` sweeps of all cells.
Rates measure(const xg::collision::CollisionTensor& t, int k, int reps) {
  const int nv = t.nv();
  const int n_cells = t.n_cells();
  const auto panel = random_panel(nv, k, 11);
  std::vector<cplx> out(panel.size());
  // Scalar path: one contiguous vector per member, cmat re-read per member.
  std::vector<std::vector<cplx>> xs(static_cast<size_t>(k));
  std::vector<cplx> y(static_cast<size_t>(nv));
  for (int s = 0; s < k; ++s) {
    xs[s].resize(static_cast<size_t>(nv));
    for (int iv = 0; iv < nv; ++iv) {
      xs[s][iv] = panel[static_cast<size_t>(iv) * k + s];
    }
  }
  const double applies = static_cast<double>(n_cells) * k * reps;
  double sink = 0.0;  // defeat dead-code elimination

  // Member-outer sweep, as k independent CGYRO instances run it: each member
  // streams the whole tensor, so cmat is re-read k times per rep.
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (int s = 0; s < k; ++s) {
      for (int c = 0; c < n_cells; ++c) {
        t.apply(c, xs[s], y);
        sink += y[0].real();
      }
    }
  }
  const double scalar_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (int c = 0; c < n_cells; ++c) {
      t.apply_batch(c, panel, out, k);
      sink += out[0].real();
    }
  }
  const double batch_s = seconds_since(t0);

  if (sink == 0.12345) std::fputs("", stderr);
  return {applies / scalar_s, applies / batch_s};
}

/// Cells per second of CmatRecipe::build_cell on `g`: the fastest of
/// `rounds` rounds of `cells` distinct k_perp² values, after a two-cell
/// warm-up (the best round filters out other tenants of a shared host).
double measure_build(const xg::vgrid::VelocityGrid& g, int rounds,
                     int cells) {
  const xg::collision::CmatRecipe recipe{xg::collision::CollisionParams{},
                                         0.02};
  const auto scattering =
      xg::collision::build_scattering_operator(g, recipe.params);
  double sink = 0.0;
  for (int c = 0; c < 2; ++c) {
    sink += recipe.build_cell(g, scattering, 0.5)(0, 0);
  }
  double best_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < cells; ++c) {
      sink += recipe.build_cell(g, scattering, 0.01 * c)(0, 0);
    }
    const double s = seconds_since(t0);
    if (r == 0 || s < best_s) best_s = s;
  }
  if (sink == 0.12345) std::fputs("", stderr);
  return cells / best_s;
}

/// Bit-exactness of the batched panel vs the scalar per-member path.
bool verify(const xg::collision::CollisionTensor& t, int k) {
  const int nv = t.nv();
  const auto panel = random_panel(nv, k, 23);
  std::vector<cplx> out(panel.size());
  std::vector<cplx> x(static_cast<size_t>(nv)), y(static_cast<size_t>(nv));
  for (int c = 0; c < t.n_cells(); ++c) {
    t.apply_batch(c, panel, out, k);
    for (int s = 0; s < k; ++s) {
      for (int iv = 0; iv < nv; ++iv) {
        x[iv] = panel[static_cast<size_t>(iv) * k + s];
      }
      t.apply(c, x, y);
      for (int iv = 0; iv < nv; ++iv) {
        if (out[static_cast<size_t>(iv) * k + s] != y[iv]) return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]  (unknown arg: %s)\n", argv[0],
                   argv[i]);
      return 2;
    }
  }
  // Full shape: nv = 96, 256 cells ⇒ a 9.4 MB tensor, so the scalar path
  // genuinely streams cmat from beyond L2 as the solver does.
  const auto grid = smoke ? make_grid(3, 4) : make_grid(6, 8);
  const int n_cells = smoke ? 8 : 256;
  const int reps = smoke ? 2 : 20;
  const auto tensor = make_tensor(grid, n_cells);

  const int ks[] = {1, 4, 16};
  bool ok = true;
  std::string rows;
  for (const int k : ks) {
    if (!verify(tensor, k)) {
      std::fprintf(stderr, "FAIL: apply_batch != apply at k=%d\n", k);
      ok = false;
      continue;
    }
    // Warm-up sweep, then the measured sweeps.
    measure(tensor, k, 1);
    const auto r = measure(tensor, k, reps);
    char row[256];
    std::snprintf(row, sizeof row,
                  "    {\"k\": %d, \"scalar_cells_per_s\": %.4g, "
                  "\"batch_cells_per_s\": %.4g, \"speedup\": %.3f}",
                  k, r.scalar_cells_per_s, r.batch_cells_per_s,
                  r.batch_cells_per_s / r.scalar_cells_per_s);
    rows += (rows.empty() ? std::string() : std::string(",\n")) + row;
  }
  // cmat build at ensemble_real's nv = 128 (2 species × 8 × 8); the smoke
  // shape builds a few cells of its own small grid.
  const auto build_grid = smoke ? grid : make_grid(8, 8);
  const int build_nv = build_grid.nv();
  const double build_rate = measure_build(build_grid, smoke ? 1 : 6, smoke ? 4 : 16);
  std::printf(
      "{\n  \"bench\": \"collision_apply\",\n  \"mode\": \"%s\",\n"
      "  \"nv\": %d,\n  \"n_cells\": %d,\n  \"results\": [\n%s\n  ],\n"
      "  \"build\": {\"nv\": %d, \"flops_per_cell\": %.6g, "
      "\"build_cells_per_s\": %.4g}\n}\n",
      smoke ? "smoke" : "full", grid.nv(), n_cells, rows.c_str(), build_nv,
      xg::collision::CmatRecipe::build_flops_per_cell(build_nv), build_rate);
  return ok ? 0 : 1;
}
