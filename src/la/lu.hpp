// LU factorization with partial pivoting, solve, and inverse.
//
// Builds the implicit collision-step matrix
//   A = (I − Δt/2 C)⁻¹ (I + Δt/2 C)
// for every cell with a distinct k⊥² — the "collisional constant tensor"
// whose per-ensemble sharing is the subject of the paper. Not on the
// per-step path, but it is the shared-cmat setup cost: one nv×nv
// factorization and an nv-column solve per distinct cell.
//
// Both kernels vectorise without reordering any element's arithmetic: the
// factorization's rank-1 row update runs across fixed-width column chunks,
// and the matrix solve substitutes whole rows of the right-hand side in
// fixed-width column panels (running values in vector registers). Each
// element therefore sees the same subtractions in the same order as the
// scalar single-vector solve, and the results are bit-identical to it.
#pragma once

#include <span>
#include <vector>

#include "la/matrix.hpp"

namespace xg::la {

/// LU factorization (PA = LU) of a square real matrix with partial pivoting.
class LuFactorization {
 public:
  /// Factor `a` in place (a copy is taken). Throws xg::Error if singular
  /// to working precision.
  explicit LuFactorization(MatrixD a);

  [[nodiscard]] int n() const { return lu_.rows(); }

  /// Solve A x = b; returns x.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A X = B in place: B is overwritten by X, column for column
  /// bit-identical to solve(std::span) of that column.
  void solve_in_place(MatrixD& b) const;

  /// Solve A X = B; returns X with B's shape.
  [[nodiscard]] MatrixD solve(const MatrixD& b) const;

  /// Explicit inverse (used to precompute the collision-step operator).
  [[nodiscard]] MatrixD inverse() const;

  /// det(A) from the factorization (sign included).
  [[nodiscard]] double determinant() const;

  /// Growth-factor style conditioning hint: max|U| / max|A|.
  [[nodiscard]] double growth_factor() const { return growth_; }

 private:
  void solve_in_place(std::span<double> x) const;

  MatrixD lu_;
  std::vector<int> pivot_;
  int pivot_sign_ = 1;
  double growth_ = 1.0;
};

/// Convenience: x = A⁻¹ b without keeping the factorization.
std::vector<double> lu_solve(const MatrixD& a, std::span<const double> b);

/// Convenience: A⁻¹.
MatrixD lu_inverse(const MatrixD& a);

}  // namespace xg::la
