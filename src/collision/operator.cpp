#include "collision/operator.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"
#include "vgrid/quadrature.hpp"

namespace xg::collision {

double chandrasekhar(double x) {
  if (x < 1e-8) return x * 2.0 / (3.0 * std::sqrt(std::numbers::pi));
  const double phi = std::erf(x);
  const double dphi = 2.0 / std::sqrt(std::numbers::pi) * std::exp(-x * x);
  return (phi - x * dphi) / (2.0 * x * x);
}

double deflection_frequency(double nu_hat, double x) {
  if (x < 1e-8) {
    // lim (Φ − G)/x³ = 4/(3√π)
    return nu_hat * 4.0 / (3.0 * std::sqrt(std::numbers::pi));
  }
  return nu_hat * (std::erf(x) - chandrasekhar(x)) / (x * x * x);
}

double species_collision_rate(double nu_ee, const vgrid::Species& s) {
  const double z4 = s.charge * s.charge * s.charge * s.charge;
  return nu_ee * z4 * s.density / (std::sqrt(s.mass) * std::pow(s.temperature, 1.5));
}

namespace {

/// Lorentz operator on one (species, energy) pitch-angle block: the matrix
///   L_ij = Σ_l P_l(ξ_i) · (−l(l+1)/2) · (2l+1)/2 · w_j · P_l(ξ_j)
/// i.e. the spectral pitch-angle Laplacian with the quadrature projection.
/// Exact for distributions resolved by the n_xi Legendre modes.
la::MatrixD lorentz_block(const vgrid::VelocityGrid& grid) {
  const int nx = grid.n_xi();
  la::MatrixD l(nx, nx);
  for (int mode = 1; mode < nx; ++mode) {  // mode 0 has zero eigenvalue
    const double eig = -0.5 * mode * (mode + 1);
    const double norm = (2.0 * mode + 1.0) / 2.0;
    for (int i = 0; i < nx; ++i) {
      const double pi_ = vgrid::legendre(mode, grid.xi(i));
      for (int j = 0; j < nx; ++j) {
        l(i, j) += eig * norm * pi_ * grid.xi_weight(j) *
                   vgrid::legendre(mode, grid.xi(j));
      }
    }
  }
  return l;
}

/// Apply the moment-conserving projector: C ← P C P with
///   P = I − X M⁻¹ Xᵀ W,
/// the w-orthogonal projector onto the complement of the conserved moments.
/// Per-species conservation: X columns = {1, v_par, e} per species.
/// Cross-species exchange: per-species density columns plus ONE total-
/// momentum column (n_s·m_s·v_par) and ONE total-energy column (n_s·T_s·e),
/// so momentum/energy may flow between species while their sums are exact
/// invariants — the Sugama field-particle structure.
la::MatrixD project_conserving(const vgrid::VelocityGrid& grid,
                               const la::MatrixD& c0, bool cross_species) {
  const int nv = grid.nv();
  const int ns = grid.n_species();
  const int ncols = cross_species ? ns + 2 : ns * 3;

  la::MatrixD x(nv, ncols);
  for (int iv = 0; iv < nv; ++iv) {
    const int s = grid.species_of(iv);
    const auto& sp = grid.species(s);
    if (cross_species) {
      x(iv, s) = 1.0;  // density, still per species
      x(iv, ns + 0) = sp.density * sp.mass * grid.v_parallel(iv);
      x(iv, ns + 1) = sp.density * sp.temperature * grid.energy(grid.energy_of(iv));
    } else {
      x(iv, s * 3 + 0) = 1.0;
      x(iv, s * 3 + 1) = grid.v_parallel(iv);
      x(iv, s * 3 + 2) = grid.energy(grid.energy_of(iv));
    }
  }
  la::MatrixD m(ncols, ncols);
  for (int a = 0; a < ncols; ++a) {
    for (int b = 0; b < ncols; ++b) {
      double acc = 0.0;
      for (int iv = 0; iv < nv; ++iv) acc += x(iv, a) * grid.weight(iv) * x(iv, b);
      m(a, b) = acc;
    }
  }
  const la::MatrixD minv = la::lu_inverse(m);

  // P = I − X M⁻¹ Xᵀ W, built explicitly (nv is modest).
  la::MatrixD p(nv, nv);
  for (int i = 0; i < nv; ++i) p(i, i) = 1.0;
  for (int i = 0; i < nv; ++i) {
    for (int j = 0; j < nv; ++j) {
      double acc = 0.0;
      for (int a = 0; a < ncols; ++a) {
        for (int b = 0; b < ncols; ++b) {
          acc += x(i, a) * minv(a, b) * x(j, b);
        }
      }
      p(i, j) -= acc * grid.weight(j);
    }
  }
  return la::gemm(p, la::gemm(c0, p));
}

}  // namespace

la::MatrixD build_scattering_operator(const vgrid::VelocityGrid& grid,
                                      const CollisionParams& params) {
  const int nv = grid.nv();
  la::MatrixD c0(nv, nv);

  if (params.pitch_scattering) {
    const la::MatrixD lor = lorentz_block(grid);
    for (int is = 0; is < grid.n_species(); ++is) {
      const double nu_hat = species_collision_rate(params.nu_ee, grid.species(is));
      for (int ie = 0; ie < grid.n_energy(); ++ie) {
        const double x = std::sqrt(grid.energy(ie));  // v/v_th in energy units
        const double nu_d = deflection_frequency(nu_hat, x);
        for (int i = 0; i < grid.n_xi(); ++i) {
          for (int j = 0; j < grid.n_xi(); ++j) {
            c0(grid.iv(is, ie, i), grid.iv(is, ie, j)) += nu_d * lor(i, j);
          }
        }
      }
    }
  }

  if (params.energy_relaxation) {
    // −ν_E (I − P_ξ): relax toward the energy-average at fixed pitch.
    // P_ξ is the w_e-weighted projector; w_e from the grid's combined weight
    // at fixed (species, xi) — proportional to the energy weights.
    for (int is = 0; is < grid.n_species(); ++is) {
      const double nu_hat = species_collision_rate(params.nu_ee, grid.species(is));
      // effective energy-relaxation rate: thermal-velocity Chandrasekhar rate
      const double nu_e = 2.0 * nu_hat * chandrasekhar(1.0);
      for (int ix = 0; ix < grid.n_xi(); ++ix) {
        double wsum = 0.0;
        for (int ie = 0; ie < grid.n_energy(); ++ie) {
          wsum += grid.weight(grid.iv(is, ie, ix));
        }
        for (int ie = 0; ie < grid.n_energy(); ++ie) {
          const int i = grid.iv(is, ie, ix);
          c0(i, i) -= nu_e;
          for (int je = 0; je < grid.n_energy(); ++je) {
            const int j = grid.iv(is, je, ix);
            c0(i, j) += nu_e * grid.weight(j) / wsum;
          }
        }
      }
    }
  }

  if (params.conserve_moments) {
    return project_conserving(grid, c0, params.cross_species_exchange);
  }
  return c0;
}

std::vector<double> gyro_diffusion_rates(const vgrid::VelocityGrid& grid,
                                         const CollisionParams& params,
                                         double kperp2) {
  std::vector<double> rates(static_cast<size_t>(grid.nv()), 0.0);
  if (!params.gyro_diffusion || kperp2 <= 0.0) return rates;
  for (int iv = 0; iv < grid.nv(); ++iv) {
    const auto& sp = grid.species(grid.species_of(iv));
    const double nu_hat = species_collision_rate(params.nu_ee, sp);
    const double x = std::sqrt(grid.energy(grid.energy_of(iv)));
    const double nu_d = deflection_frequency(nu_hat, x);
    const double rho2 = sp.mass * sp.temperature / (sp.charge * sp.charge);
    const double xi = grid.xi(grid.xi_of(iv));
    // x² carries the v² dependence of the gyroradius at this energy node.
    rates[iv] = 0.25 * nu_d * kperp2 * rho2 * x * x * (1.0 + xi * xi);
  }
  return rates;
}

la::MatrixD build_cell_operator(const la::MatrixD& scattering,
                                std::span<const double> gyro_rates) {
  XG_REQUIRE(scattering.rows() == scattering.cols(),
             "build_cell_operator: scattering matrix must be square");
  XG_REQUIRE(static_cast<size_t>(scattering.rows()) == gyro_rates.size(),
             "build_cell_operator: rate vector size mismatch");
  la::MatrixD c = scattering;
  for (int i = 0; i < c.rows(); ++i) c(i, i) -= gyro_rates[i];
  return c;
}

la::MatrixD build_implicit_step_matrix(const la::MatrixD& c, double dt) {
  XG_REQUIRE(dt > 0.0, "build_implicit_step_matrix: dt must be positive");
  const int nv = c.rows();
  la::MatrixD lhs(nv, nv);
  la::MatrixD rhs(nv, nv);
  for (int i = 0; i < nv; ++i) {
    for (int j = 0; j < nv; ++j) {
      lhs(i, j) = -0.5 * dt * c(i, j);
      rhs(i, j) = 0.5 * dt * c(i, j);
    }
    lhs(i, i) += 1.0;
    rhs(i, i) += 1.0;
  }
  la::LuFactorization(std::move(lhs)).solve_in_place(rhs);
  return rhs;
}

}  // namespace xg::collision
