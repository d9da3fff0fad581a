// Unit and property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xg::la {
namespace {

MatrixD random_matrix(int n, std::uint64_t seed, double diag_boost = 0.0) {
  Rng rng(seed);
  MatrixD a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += diag_boost;
  }
  return a;
}

TEST(Matrix, IndexingIsRowMajor) {
  MatrixD a(2, 3);
  a(0, 0) = 1;
  a(0, 2) = 3;
  a(1, 0) = 4;
  EXPECT_DOUBLE_EQ(a.data()[0], 1);
  EXPECT_DOUBLE_EQ(a.data()[2], 3);
  EXPECT_DOUBLE_EQ(a.data()[3], 4);
  EXPECT_EQ(a.row(1).size(), 3u);
}

TEST(Matrix, IdentityGemvIsIdentity) {
  const auto eye = MatrixD::identity(4);
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y(4);
  gemv<double, double, double>(eye, x, std::span<double>(y));
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Matrix, GemvAlphaBeta) {
  MatrixD a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  std::vector<double> x{1, 1};
  std::vector<double> y{10, 20};
  gemv<double, double, double>(a, x, std::span<double>(y), 2.0, 1.0);
  EXPECT_DOUBLE_EQ(y[0], 2 * 3 + 10);
  EXPECT_DOUBLE_EQ(y[1], 2 * 7 + 20);
}

TEST(Matrix, RealMatrixTimesComplexVector) {
  // The cmat application pattern: real constant matrix acting on complex
  // state must equal acting on real and imaginary parts separately.
  const auto a = random_matrix(8, 21);
  Rng rng(22);
  std::vector<cplx> x(8);
  std::vector<double> xr(8), xi(8);
  for (int i = 0; i < 8; ++i) {
    xr[i] = rng.uniform(-1, 1);
    xi[i] = rng.uniform(-1, 1);
    x[i] = {xr[i], xi[i]};
  }
  std::vector<cplx> y(8);
  gemv<double, cplx, cplx>(a, x, std::span<cplx>(y));
  std::vector<double> yr(8), yi(8);
  gemv<double, double, double>(a, xr, std::span<double>(yr));
  gemv<double, double, double>(a, xi, std::span<double>(yi));
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(y[i].real(), yr[i], 1e-14);
    EXPECT_NEAR(y[i].imag(), yi[i], 1e-14);
  }
}

TEST(Matrix, GemmMatchesNaive) {
  const auto a = random_matrix(17, 1);
  const auto b = random_matrix(17, 2);
  const auto c = gemm(a, b);
  for (int i = 0; i < 17; i += 5) {
    for (int j = 0; j < 17; j += 3) {
      double ref = 0;
      for (int k = 0; k < 17; ++k) ref += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), ref, 1e-12);
    }
  }
}

TEST(Matrix, GemmIdentityIsNoop) {
  const auto a = random_matrix(9, 3);
  const auto c = gemm(a, MatrixD::identity(9));
  EXPECT_LT(max_abs_diff(a, c), 1e-15);
}

TEST(Lu, SolveRecoversKnownSolution) {
  const auto a = random_matrix(12, 5, /*diag_boost=*/4.0);
  Rng rng(6);
  std::vector<double> x_true(12);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  std::vector<double> b(12);
  gemv<double, double, double>(a, x_true, std::span<double>(b));
  const auto x = lu_solve(a, b);
  for (int i = 0; i < 12; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Lu, InverseTimesMatrixIsIdentity) {
  const auto a = random_matrix(20, 7, 3.0);
  const auto inv = lu_inverse(a);
  const auto prod = gemm(a, inv);
  EXPECT_LT(max_abs_diff(prod, MatrixD::identity(20)), 1e-9);
}

TEST(Lu, SingularMatrixThrows) {
  MatrixD a(3, 3);
  // rank 1
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) a(i, j) = (i + 1.0) * (j + 1.0);
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Lu, NonSquareThrows) {
  MatrixD a(2, 3);
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Lu, DeterminantOfDiagonal) {
  MatrixD a(3, 3);
  a(0, 0) = 2;
  a(1, 1) = 3;
  a(2, 2) = 4;
  EXPECT_NEAR(LuFactorization(a).determinant(), 24.0, 1e-12);
}

TEST(Lu, DeterminantTracksRowSwaps) {
  // Permutation matrix with a single swap has det = -1.
  MatrixD a(2, 2);
  a(0, 1) = 1;
  a(1, 0) = 1;
  EXPECT_NEAR(LuFactorization(a).determinant(), -1.0, 1e-15);
}

TEST(Lu, PivotingHandlesZeroLeadingDiagonal) {
  MatrixD a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const auto x = lu_solve(a, std::vector<double>{3.0, 5.0});
  EXPECT_NEAR(x[0], 5.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

/// Expects column j of `x` to equal solve(column j of `b`) bit for bit.
void expect_columns_match_vector_solve(const LuFactorization& lu,
                                       const MatrixD& b, const MatrixD& x) {
  ASSERT_EQ(x.rows(), b.rows());
  ASSERT_EQ(x.cols(), b.cols());
  std::vector<double> col(static_cast<size_t>(b.rows()));
  int mismatches = 0;
  for (int j = 0; j < b.cols(); ++j) {
    for (int i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    const auto xc = lu.solve(col);
    for (int i = 0; i < b.rows(); ++i) mismatches += !(x(i, j) == xc[i]);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Lu, MatrixSolveMatchesVectorSolve) {
  // The multi-RHS solve substitutes whole rows in fixed-width column panels
  // (32 wide) plus power-of-two tails; each element must still see exactly
  // the single-vector solve's operations, so the match is bitwise. Column
  // counts cover one column, a panel minus/plus one, a full panel, a
  // multi-tail width and a square solve. The matrices are random without
  // diagonal dominance, so partial pivoting swaps rows at most steps.
  for (const int n : {1, 5, 33, 128}) {
    const auto a = random_matrix(n, 9 + n);
    const LuFactorization lu(a);
    for (const int m : {1, 31, 32, 33, 37, n}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " m=" << m);
      Rng rng(static_cast<std::uint64_t>(n) * 100 + m);
      MatrixD b(n, m);
      for (auto& v : b.data()) v = rng.uniform(-1.0, 1.0);
      expect_columns_match_vector_solve(lu, b, lu.solve(b));
    }
  }
}

TEST(Lu, InverseMatchesColumnSolvesOfIdentity) {
  for (const int n : {1, 5, 33, 128}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const LuFactorization lu(random_matrix(n, 40 + n));
    expect_columns_match_vector_solve(lu, MatrixD::identity(n), lu.inverse());
  }
}

// Property sweep: residual ||Ax-b|| stays tiny across sizes and seeds.
class LuResidual : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LuResidual, ResidualIsSmall) {
  const auto [n, seed] = GetParam();
  const auto a = random_matrix(n, seed, 2.0);
  Rng rng(seed + 1000);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto x = lu_solve(a, b);
  std::vector<double> r(n);
  gemv<double, double, double>(a, x, std::span<double>(r));
  double err = 0;
  for (int i = 0; i < n; ++i) err = std::max(err, std::abs(r[i] - b[i]));
  EXPECT_LT(err, 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LuResidual,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16, 33, 64, 100),
                       ::testing::Values(1, 2, 3)));

TEST(Norms, Frobenius) {
  MatrixD a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_NEAR(frobenius_norm(a), 5.0, 1e-14);
}

}  // namespace
}  // namespace xg::la
