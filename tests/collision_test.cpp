// Collision-operator physics tests: conservation laws, Maxwellian null
// vector, spectral Lorentz eigenfunctions, H-theorem (negative
// semidefiniteness), Crank–Nicolson contraction, and the fp32 cmat tensor.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "collision/operator.hpp"
#include "collision/tensor.hpp"
#include "gyro/input.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "vgrid/quadrature.hpp"

namespace xg::collision {
namespace {

vgrid::VelocityGrid make_grid(int ns = 2, int ne = 6, int nx = 8) {
  vgrid::VelocityGridSpec spec;
  spec.n_species = ns;
  spec.n_energy = ne;
  spec.n_xi = nx;
  spec.e_max = 10.0;
  std::vector<vgrid::Species> sp(static_cast<size_t>(ns));
  if (ns >= 2) {
    sp[1].mass = 2.72e-4;
    sp[1].charge = -1.0;
  }
  return vgrid::VelocityGrid(spec, std::move(sp));
}

std::vector<double> random_h(const vgrid::VelocityGrid& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> h(static_cast<size_t>(g.nv()));
  for (auto& v : h) v = rng.uniform(-1, 1);
  return h;
}

std::vector<double> apply_op(const la::MatrixD& c, std::span<const double> h) {
  std::vector<double> out(h.size());
  la::gemv<double, double, double>(c, h, std::span<double>(out));
  return out;
}

double w_inner(const vgrid::VelocityGrid& g, std::span<const double> a,
               std::span<const double> b) {
  double acc = 0;
  for (int iv = 0; iv < g.nv(); ++iv) acc += g.weight(iv) * a[iv] * b[iv];
  return acc;
}

TEST(Frequencies, ChandrasekharLimits) {
  EXPECT_NEAR(chandrasekhar(1e-12), 0.0, 1e-10);
  // G peaks near x≈0.97 at ~0.214, then decays like 1/(2x²).
  EXPECT_NEAR(chandrasekhar(0.97), 0.214, 5e-3);
  EXPECT_NEAR(chandrasekhar(10.0), 1.0 / 200.0, 1e-4);
}

TEST(Frequencies, DeflectionPositiveAndDecaying) {
  double prev = deflection_frequency(1.0, 0.2);
  EXPECT_GT(prev, 0.0);
  for (double x = 0.6; x < 5.0; x += 0.4) {
    const double nu = deflection_frequency(1.0, x);
    EXPECT_GT(nu, 0.0);
    EXPECT_LT(nu, prev) << "x=" << x;
    prev = nu;
  }
}

TEST(Frequencies, DeflectionSmallXLimit) {
  EXPECT_NEAR(deflection_frequency(2.0, 1e-10),
              2.0 * 4.0 / (3.0 * std::sqrt(std::numbers::pi)), 1e-10);
}

TEST(Frequencies, SpeciesRateScaling) {
  vgrid::Species s;
  EXPECT_DOUBLE_EQ(species_collision_rate(0.1, s), 0.1);
  s.charge = 2.0;  // Z⁴ = 16
  EXPECT_DOUBLE_EQ(species_collision_rate(0.1, s), 1.6);
  s = {};
  s.temperature = 4.0;  // T^{-3/2} = 1/8
  EXPECT_DOUBLE_EQ(species_collision_rate(0.1, s), 0.1 / 8.0);
}

TEST(Scattering, MaxwellianIsNullVector) {
  // h = const is the (normalized) Maxwellian perturbation; C must kill it.
  const auto g = make_grid();
  CollisionParams p;
  const auto c = build_scattering_operator(g, p);
  std::vector<double> ones(static_cast<size_t>(g.nv()), 1.0);
  const auto ch = apply_op(c, ones);
  for (const double v : ch) EXPECT_NEAR(v, 0.0, 1e-11);
}

TEST(Scattering, ConservesDensityMomentumEnergyPerSpecies) {
  const auto g = make_grid();
  CollisionParams p;
  const auto c = build_scattering_operator(g, p);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto h = random_h(g, seed);
    const auto ch = apply_op(c, h);
    for (int is = 0; is < g.n_species(); ++is) {
      EXPECT_NEAR(g.moment_density(ch, is), 0.0, 1e-11) << "seed=" << seed;
      EXPECT_NEAR(g.moment_v_parallel(ch, is), 0.0, 1e-9) << "seed=" << seed;
      EXPECT_NEAR(g.moment_energy(ch, is), 0.0, 1e-10) << "seed=" << seed;
    }
  }
}

TEST(Scattering, WithoutProjectionMomentsAreNotConserved) {
  // Sanity that the projection is doing real work: the raw operator leaks
  // parallel momentum (pitch scattering decays it).
  const auto g = make_grid(1, 6, 8);
  CollisionParams p;
  p.conserve_moments = false;
  const auto c = build_scattering_operator(g, p);
  std::vector<double> h(static_cast<size_t>(g.nv()));
  for (int iv = 0; iv < g.nv(); ++iv) h[iv] = g.v_parallel(iv);
  const auto ch = apply_op(c, h);
  EXPECT_GT(std::abs(g.moment_v_parallel(ch, 0)), 1e-4);
}

TEST(Scattering, NegativeSemidefiniteInWeightedInnerProduct) {
  // Discrete H-theorem: d/dt ⟨h,h⟩_w = 2⟨h, C h⟩_w ≤ 0.
  const auto g = make_grid();
  CollisionParams p;
  const auto c = build_scattering_operator(g, p);
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const auto h = random_h(g, seed);
    const auto ch = apply_op(c, h);
    EXPECT_LE(w_inner(g, h, ch), 1e-12) << "seed=" << seed;
  }
}

TEST(Scattering, LorentzEigenfunctionP2) {
  // A pure P_2(ξ) perturbation at one (species, energy) node is an exact
  // eigenfunction of the Lorentz term with eigenvalue −ν_D·l(l+1)/2 = −3ν_D.
  const auto g = make_grid(1, 6, 8);
  CollisionParams p;
  p.energy_relaxation = false;
  p.conserve_moments = false;  // P2 is orthogonal to the moments anyway
  const auto c = build_scattering_operator(g, p);
  const int ie = 2;
  std::vector<double> h(static_cast<size_t>(g.nv()), 0.0);
  for (int ix = 0; ix < g.n_xi(); ++ix) {
    h[g.iv(0, ie, ix)] = vgrid::legendre(2, g.xi(ix));
  }
  const auto ch = apply_op(c, h);
  const double x = std::sqrt(g.energy(ie));
  const double nu_d = deflection_frequency(species_collision_rate(p.nu_ee, g.species(0)), x);
  for (int ix = 0; ix < g.n_xi(); ++ix) {
    const int iv = g.iv(0, ie, ix);
    EXPECT_NEAR(ch[iv], -3.0 * nu_d * h[iv], 1e-10 * std::max(1.0, std::abs(h[iv])));
  }
  // Other energies untouched.
  for (int je = 0; je < g.n_energy(); ++je) {
    if (je == ie) continue;
    for (int ix = 0; ix < g.n_xi(); ++ix) {
      EXPECT_NEAR(ch[g.iv(0, je, ix)], 0.0, 1e-12);
    }
  }
}

TEST(Scattering, EnergyRelaxationDampsEnergyStructure) {
  const auto g = make_grid(1, 6, 4);
  CollisionParams p;
  p.pitch_scattering = false;
  p.conserve_moments = false;
  const auto c = build_scattering_operator(g, p);
  // h varying only in energy, zero energy-average at each pitch.
  std::vector<double> h(static_cast<size_t>(g.nv()));
  for (int iv = 0; iv < g.nv(); ++iv) h[iv] = g.energy(g.energy_of(iv)) - 1.5;
  const auto ch = apply_op(c, h);
  EXPECT_LT(w_inner(g, h, ch), -1e-6);
}

// --- cross-species exchange (full-Sugama field-particle structure) --------

double total_momentum(const vgrid::VelocityGrid& g, std::span<const double> h) {
  double acc = 0.0;
  for (int iv = 0; iv < g.nv(); ++iv) {
    const auto& sp = g.species(g.species_of(iv));
    acc += g.weight(iv) * sp.density * sp.mass * g.v_parallel(iv) * h[iv];
  }
  return acc;
}

double total_energy(const vgrid::VelocityGrid& g, std::span<const double> h) {
  double acc = 0.0;
  for (int iv = 0; iv < g.nv(); ++iv) {
    const auto& sp = g.species(g.species_of(iv));
    acc += g.weight(iv) * sp.density * sp.temperature *
           g.energy(g.energy_of(iv)) * h[iv];
  }
  return acc;
}

TEST(CrossSpecies, ConservesTotalsNotPerSpecies) {
  const auto g = make_grid(2, 6, 8);
  CollisionParams p;
  p.cross_species_exchange = true;
  const auto c = build_scattering_operator(g, p);
  // A per-species flow perturbation: ions flowing one way, electrons
  // stationary. Collisions must exchange momentum, so per-species momenta
  // change while the total is exactly invariant.
  std::vector<double> h(static_cast<size_t>(g.nv()), 0.0);
  for (int iv = 0; iv < g.nv(); ++iv) {
    if (g.species_of(iv) == 0) h[iv] = g.v_parallel(iv);
  }
  const auto ch = apply_op(c, h);
  EXPECT_NEAR(total_momentum(g, ch), 0.0, 1e-10);
  EXPECT_NEAR(total_energy(g, ch), 0.0, 1e-10);
  for (int is = 0; is < 2; ++is) {
    EXPECT_NEAR(g.moment_density(ch, is), 0.0, 1e-11) << "density s=" << is;
  }
  // Per-species momentum is NOT conserved: the exchange is real.
  EXPECT_GT(std::abs(g.moment_v_parallel(ch, 0)), 1e-6);
}

TEST(CrossSpecies, MaxwellianStillNullVector) {
  const auto g = make_grid(2, 5, 6);
  CollisionParams p;
  p.cross_species_exchange = true;
  const auto c = build_scattering_operator(g, p);
  std::vector<double> ones(static_cast<size_t>(g.nv()), 1.0);
  const auto ch = apply_op(c, ones);
  for (const double v : ch) EXPECT_NEAR(v, 0.0, 1e-11);
}

TEST(CrossSpecies, StillNegativeSemidefinite) {
  const auto g = make_grid(2, 5, 6);
  CollisionParams p;
  p.cross_species_exchange = true;
  const auto c = build_scattering_operator(g, p);
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    const auto h = random_h(g, seed);
    const auto ch = apply_op(c, h);
    EXPECT_LE(w_inner(g, h, ch), 1e-12) << "seed=" << seed;
  }
}

TEST(CrossSpecies, CouplesSpeciesBlocksOfCmat) {
  // Without exchange the operator is block-diagonal by species; with it,
  // genuine cross-species entries appear (the memory-relevant structure:
  // cmat must be stored dense either way, but now it is dense physically).
  const auto g = make_grid(2, 4, 4);
  CollisionParams p;
  const auto block = build_scattering_operator(g, p);
  p.cross_species_exchange = true;
  const auto full = build_scattering_operator(g, p);
  const int half = g.nv() / 2;
  double max_cross_block = 0, max_cross_full = 0;
  for (int i = 0; i < half; ++i) {
    for (int j = half; j < g.nv(); ++j) {
      max_cross_block = std::max(max_cross_block, std::abs(block(i, j)));
      max_cross_full = std::max(max_cross_full, std::abs(full(i, j)));
    }
  }
  EXPECT_LT(max_cross_block, 1e-14);
  EXPECT_GT(max_cross_full, 1e-6);
}

TEST(CrossSpecies, FlowsEquilibrateUnderRepeatedSteps) {
  // Two equal-mass species with opposite initial flows: stepping the
  // Crank–Nicolson map must drive the flow difference to zero while the
  // total stays pinned.
  vgrid::VelocityGridSpec spec;
  spec.n_species = 2;
  spec.n_energy = 5;
  spec.n_xi = 8;
  const auto g = vgrid::VelocityGrid(spec, std::vector<vgrid::Species>(2));
  CollisionParams p;
  p.nu_ee = 1.0;
  p.cross_species_exchange = true;
  const auto a = build_implicit_step_matrix(build_scattering_operator(g, p), 0.5);
  std::vector<double> h(static_cast<size_t>(g.nv()));
  for (int iv = 0; iv < g.nv(); ++iv) {
    h[iv] = (g.species_of(iv) == 0 ? 1.0 : -1.0) * g.v_parallel(iv);
  }
  const double p_tot0 = total_momentum(g, h);
  const double diff0 = g.moment_v_parallel(h, 0) - g.moment_v_parallel(h, 1);
  ASSERT_GT(std::abs(diff0), 0.1);
  std::vector<double> next(h.size());
  for (int step = 0; step < 200; ++step) {
    la::gemv<double, double, double>(a, h, std::span<double>(next));
    std::swap(h, next);
  }
  EXPECT_NEAR(total_momentum(g, h), p_tot0, 1e-8);
  const double diff = g.moment_v_parallel(h, 0) - g.moment_v_parallel(h, 1);
  EXPECT_LT(std::abs(diff), 0.02 * std::abs(diff0));
}

TEST(CrossSpecies, ChangesCmatFingerprintInputSide) {
  // The exchange flag feeds cmat, so it must be cmat-relevant: two inputs
  // differing only in it cannot share a tensor.
  CollisionTensor t1(8, 1), t2(8, 1);
  const auto g = make_grid(2, 2, 2);
  CollisionParams p;
  CmatRecipe r1{p, 0.1};
  p.cross_species_exchange = true;
  CmatRecipe r2{p, 0.1};
  t1.set_cell(0, r1.build_cell(g, build_scattering_operator(g, r1.params), 1.0));
  t2.set_cell(0, r2.build_cell(g, build_scattering_operator(g, r2.params), 1.0));
  EXPECT_NE(t1.fingerprint(), t2.fingerprint());
}

TEST(GyroDiffusion, RatesScaleWithKperp2AndVanishAtZero) {
  const auto g = make_grid();
  CollisionParams p;
  const auto r0 = gyro_diffusion_rates(g, p, 0.0);
  for (const double v : r0) EXPECT_DOUBLE_EQ(v, 0.0);
  const auto r1 = gyro_diffusion_rates(g, p, 1.0);
  const auto r4 = gyro_diffusion_rates(g, p, 4.0);
  for (int iv = 0; iv < g.nv(); ++iv) {
    EXPECT_GT(r1[iv], 0.0);
    EXPECT_NEAR(r4[iv], 4.0 * r1[iv], 1e-12);
  }
}

TEST(ImplicitStep, MatrixIsContractionInWNorm) {
  const auto g = make_grid(1, 5, 6);
  CollisionParams p;
  const auto scat = build_scattering_operator(g, p);
  const auto rates = gyro_diffusion_rates(g, p, 0.8);
  const auto c = build_cell_operator(scat, rates);
  const auto a = build_implicit_step_matrix(c, 0.5);
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const auto h = random_h(g, seed);
    const auto ah = apply_op(a, h);
    EXPECT_LE(w_inner(g, ah, ah), w_inner(g, h, h) * (1.0 + 1e-12));
  }
}

TEST(ImplicitStep, PreservesMaxwellianWithoutGyroDiffusion) {
  const auto g = make_grid();
  CollisionParams p;
  const auto scat = build_scattering_operator(g, p);
  const std::vector<double> zero_rates(static_cast<size_t>(g.nv()), 0.0);
  const auto a = build_implicit_step_matrix(build_cell_operator(scat, zero_rates), 0.2);
  std::vector<double> ones(static_cast<size_t>(g.nv()), 1.0);
  const auto ah = apply_op(a, ones);
  for (const double v : ah) EXPECT_NEAR(v, 1.0, 1e-10);
}

TEST(ImplicitStep, DampsMaxwellianWithGyroDiffusion) {
  const auto g = make_grid();
  CollisionParams p;
  const auto scat = build_scattering_operator(g, p);
  const auto rates = gyro_diffusion_rates(g, p, 2.0);
  const auto a = build_implicit_step_matrix(build_cell_operator(scat, rates), 0.5);
  std::vector<double> ones(static_cast<size_t>(g.nv()), 1.0);
  const auto ah = apply_op(a, ones);
  double norm = 0, base = 0;
  for (int iv = 0; iv < g.nv(); ++iv) {
    norm += g.weight(iv) * ah[iv] * ah[iv];
    base += g.weight(iv);
  }
  EXPECT_LT(norm, base);
}

TEST(ImplicitStep, MatchesExpansionForSmallDt) {
  const auto g = make_grid(1, 4, 4);
  CollisionParams p;
  const auto scat = build_scattering_operator(g, p);
  const auto rates = gyro_diffusion_rates(g, p, 0.3);
  const auto c = build_cell_operator(scat, rates);
  const double dt = 1e-5;
  const auto a = build_implicit_step_matrix(c, dt);
  const auto h = random_h(g, 31);
  const auto ah = apply_op(a, h);
  const auto ch = apply_op(c, h);
  for (int iv = 0; iv < g.nv(); ++iv) {
    EXPECT_NEAR(ah[iv], h[iv] + dt * ch[iv], 1e-8);
  }
}

TEST(ImplicitStep, ConservesDensityThroughStep) {
  const auto g = make_grid();
  CollisionParams p;
  const auto scat = build_scattering_operator(g, p);
  const std::vector<double> zero(static_cast<size_t>(g.nv()), 0.0);
  const auto a = build_implicit_step_matrix(build_cell_operator(scat, zero), 0.7);
  const auto h = random_h(g, 41);
  const auto ah = apply_op(a, h);
  for (int is = 0; is < g.n_species(); ++is) {
    EXPECT_NEAR(g.moment_density(ah, is), g.moment_density(h, is), 1e-10);
    EXPECT_NEAR(g.moment_energy(ah, is), g.moment_energy(h, is), 1e-10);
  }
}

/// Raw-bit digest of a step matrix: every double's exact bit pattern.
std::uint64_t step_digest(const la::MatrixD& a) {
  const auto d = a.data();
  return Hasher()
      .i64(a.rows())
      .i64(a.cols())
      .bytes(d.data(), d.size() * sizeof(double))
      .digest();
}

TEST(ImplicitStep, GoldenDigestPinsOperationOrder) {
  // Pins the exact bits of the cmat build, so a change to the order of the
  // LU's floating-point operations fails here and not only in the end-to-end
  // byte diffs. The grids are the ensemble_real host benchmark's (two
  // species, 8 energies × 8 pitch angles: nv = 128, four full 32-column
  // panels) and an nv = 15 grid, solved entirely in the 8-, 4-, 2- and
  // 1-column tails. The values also depend on libm's erf/exp/pow, so
  // another C library may legitimately move them.
  gyro::Input in = gyro::Input::small_test(2);
  in.n_energy = 8;
  in.n_xi = 8;
  in.validate();
  const auto g = in.make_velocity_grid();
  ASSERT_EQ(g.nv(), 128);
  const CmatRecipe recipe{in.collision, in.dt};
  const auto scat = build_scattering_operator(g, recipe.params);
  const std::uint64_t golden[] = {0x3bcec1056683a245ull, 0xdb49466f29922db8ull,
                                  0xcf4e9bbaff901560ull};
  const double kperp2s[] = {0.0, 0.013, 1.7};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(step_digest(recipe.build_cell(g, scat, kperp2s[i])), golden[i])
        << "k_perp^2 = " << kperp2s[i];
  }

  const auto g_odd = make_grid(1, 3, 5);
  ASSERT_EQ(g_odd.nv(), 15);
  const CmatRecipe r_odd{CollisionParams{}, 0.05};
  EXPECT_EQ(step_digest(r_odd.build_cell(
                g_odd, build_scattering_operator(g_odd, r_odd.params), 0.4)),
            0x73a77c1cdb73ef28ull);
}

TEST(Tensor, SetApplyMatchesDoubleGemv) {
  const auto g = make_grid(1, 4, 4);
  CollisionParams p;
  const auto scat = build_scattering_operator(g, p);
  const auto a = build_implicit_step_matrix(
      build_cell_operator(scat, gyro_diffusion_rates(g, p, 1.0)), 0.1);
  CollisionTensor t(g.nv(), 2);
  t.set_cell(1, a);
  Rng rng(55);
  std::vector<cplx> x(static_cast<size_t>(g.nv()));
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<cplx> y(x.size());
  t.apply(1, x, y);
  std::vector<cplx> ref(x.size());
  la::gemv<double, cplx, cplx>(a, x, std::span<cplx>(ref));
  for (size_t i = 0; i < x.size(); ++i) {
    // fp32 storage: relative accuracy ~1e-6
    EXPECT_NEAR(std::abs(y[i] - ref[i]), 0.0, 1e-5);
  }
}

TEST(Tensor, ApplyInPlaceMatchesApply) {
  const auto g = make_grid(1, 3, 4);
  CollisionParams p;
  const auto a = build_implicit_step_matrix(build_scattering_operator(g, p), 0.3);
  CollisionTensor t(g.nv(), 1);
  t.set_cell(0, a);
  std::vector<cplx> x(static_cast<size_t>(g.nv()), cplx(1.0, -2.0));
  std::vector<cplx> y(x.size());
  t.apply(0, x, y);
  t.apply_in_place(0, x);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Tensor, ApplyBatchBitExactWithScalarApply) {
  // The ensemble GEMM must reproduce the scalar mat-vec bit-for-bit for
  // every column, including batches that cross the internal column-block
  // width (16): the per-element accumulation order is identical.
  const int nv = 24;
  Rng rng(91);
  CollisionTensor t(nv, 3);
  la::MatrixD a(nv, nv);
  for (int cell = 0; cell < t.n_cells(); ++cell) {
    for (int i = 0; i < nv; ++i) {
      for (int j = 0; j < nv; ++j) a(i, j) = rng.uniform(-1, 1);
    }
    t.set_cell(cell, a);
  }
  for (const int k : {1, 3, 8, 19}) {
    std::vector<cplx> x(static_cast<size_t>(nv) * k), y(x.size());
    for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    std::vector<cplx> col(static_cast<size_t>(nv)), ref(static_cast<size_t>(nv));
    for (int cell = 0; cell < t.n_cells(); ++cell) {
      t.apply_batch(cell, x, y, k);
      for (int s = 0; s < k; ++s) {
        for (int iv = 0; iv < nv; ++iv) col[iv] = x[static_cast<size_t>(iv) * k + s];
        t.apply(cell, col, ref);
        for (int iv = 0; iv < nv; ++iv) {
          EXPECT_EQ(y[static_cast<size_t>(iv) * k + s], ref[iv])
              << "cell=" << cell << " k=" << k << " s=" << s << " iv=" << iv;
        }
      }
    }
  }
}

TEST(Tensor, CopyCellIsBitIdentical) {
  const auto g = make_grid(1, 3, 4);
  CollisionParams p;
  const auto a = build_implicit_step_matrix(build_scattering_operator(g, p), 0.3);
  CollisionTensor t(g.nv(), 2), ref(g.nv(), 2);
  t.set_cell(0, a);
  t.copy_cell(1, 0);
  ref.set_cell(0, a);
  ref.set_cell(1, a);
  EXPECT_EQ(t.fingerprint(), ref.fingerprint());
  const auto c0 = t.cell(0);
  const auto c1 = t.cell(1);
  for (size_t i = 0; i < c0.size(); ++i) EXPECT_EQ(c0[i], c1[i]);
}

TEST(Tensor, FingerprintAllZeroRegression) {
  // Pins the bulk-hash scheme: shape header then the raw fp32 buffer bytes.
  // Recomputed independently here so any change to fingerprint() (element
  // order, widening, chunking that alters the stream) is caught.
  CollisionTensor t(4, 2);
  const std::vector<unsigned char> zeros(4 * 4 * 2 * sizeof(float), 0);
  const std::uint64_t expected =
      Hasher().i64(4).i64(2).bytes(zeros.data(), zeros.size()).digest();
  EXPECT_EQ(t.fingerprint(), expected);
}

TEST(Tensor, BytesAndFlopsFormulas) {
  CollisionTensor t(16, 3);
  EXPECT_EQ(t.bytes(), 16u * 16u * 3u * 4u);
  EXPECT_DOUBLE_EQ(t.apply_flops(), 4.0 * 256.0);
  EXPECT_DOUBLE_EQ(t.cell_bytes(), 1024.0);
}

TEST(Tensor, FingerprintDetectsValueChanges) {
  CollisionTensor t1(4, 1), t2(4, 1);
  la::MatrixD a(4, 4);
  a(0, 0) = 1.5;
  t1.set_cell(0, a);
  t2.set_cell(0, a);
  EXPECT_EQ(t1.fingerprint(), t2.fingerprint());
  a(3, 3) = 1e-7;
  t2.set_cell(0, a);
  EXPECT_NE(t1.fingerprint(), t2.fingerprint());
}

TEST(Recipe, SameInputsSameCmatDifferentSweepIrrelevant) {
  // The paper's core observation, in miniature: two simulations whose
  // cmat-relevant parameters agree produce bit-identical cmat, regardless
  // of anything else in the input.
  const auto g = make_grid();
  CmatRecipe r;
  r.params.nu_ee = 0.05;
  r.dt = 0.02;
  const auto scat = build_scattering_operator(g, r.params);
  const auto c1 = r.build_cell(g, scat, 1.7);
  const auto c2 = r.build_cell(g, scat, 1.7);
  EXPECT_EQ(c1, c2);

  CollisionTensor t1(g.nv(), 1), t2(g.nv(), 1);
  t1.set_cell(0, c1);
  t2.set_cell(0, c2);
  EXPECT_EQ(t1.fingerprint(), t2.fingerprint());

  // Changing a cmat-relevant parameter changes the tensor.
  CmatRecipe r2 = r;
  r2.params.nu_ee = 0.06;
  const auto scat2 = build_scattering_operator(g, r2.params);
  CollisionTensor t3(g.nv(), 1);
  t3.set_cell(0, r2.build_cell(g, scat2, 1.7));
  EXPECT_NE(t3.fingerprint(), t1.fingerprint());

  // Changing the cell's kperp² changes it too (cmat depends on the cell).
  CollisionTensor t4(g.nv(), 1);
  t4.set_cell(0, r.build_cell(g, scat, 1.8));
  EXPECT_NE(t4.fingerprint(), t1.fingerprint());
}

TEST(Recipe, BuildFlopsScaleCubically) {
  EXPECT_GT(CmatRecipe::build_flops_per_cell(64),
            7.9 * CmatRecipe::build_flops_per_cell(32));
}

}  // namespace
}  // namespace xg::collision
