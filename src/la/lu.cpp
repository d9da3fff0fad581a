#include "la/lu.hpp"

#include <cmath>

#include "la/cpu.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::la {

namespace {
/// Columns per substitution panel and per row-update chunk, in doubles: 32
/// running values are eight independent subtraction chains in AVX2
/// registers. At nv = 128 the solve took 0.29/0.29/0.34 ms with AVX2 and
/// 0.36/0.35/0.41 ms with SSE2 at 32/16/64 columns.
constexpr int kPanel = 32;

/// Forward then back substitution for W right-hand-side columns starting at
/// `x` (row stride `ldx`), already row-permuted. The running values of row i
/// live in `acc` while rows k ≠ i stream through; the column loops are fully
/// unrolled (W ≤ 32), which is what lets GCC at -O2 keep `acc` in vector
/// registers instead of a load/subtract/store round trip through the stack
/// per k (1.6× on the nv = 128 solve). Per element the subtractions run over
/// k in exactly the order of the single-vector solve (increasing k forward,
/// increasing k from i+1 back) and end in a true division by U(i,i), so
/// every W gives bit-identical results to it.
template <int W>
[[gnu::always_inline]] inline void substitute_panel(
    const double* __restrict lu, int n, double* x, size_t ldx) {
  for (int i = 1; i < n; ++i) {
    const double* __restrict li = lu + static_cast<size_t>(i) * n;
    double* xi = x + i * ldx;
    double acc[W];
    #pragma GCC unroll 32
    for (int b = 0; b < W; ++b) acc[b] = xi[b];
    for (int k = 0; k < i; ++k) {
      const double lik = li[k];
      const double* xk = x + k * ldx;
      #pragma GCC unroll 32
      for (int b = 0; b < W; ++b) acc[b] -= lik * xk[b];
    }
    #pragma GCC unroll 32
    for (int b = 0; b < W; ++b) xi[b] = acc[b];
  }
  for (int i = n - 1; i >= 0; --i) {
    const double* __restrict ui = lu + static_cast<size_t>(i) * n;
    double* xi = x + i * ldx;
    double acc[W];
    #pragma GCC unroll 32
    for (int b = 0; b < W; ++b) acc[b] = xi[b];
    for (int k = i + 1; k < n; ++k) {
      const double uik = ui[k];
      const double* xk = x + k * ldx;
      #pragma GCC unroll 32
      for (int b = 0; b < W; ++b) acc[b] -= uik * xk[b];
    }
    const double uii = ui[i];
    #pragma GCC unroll 32
    for (int b = 0; b < W; ++b) xi[b] = acc[b] / uii;
  }
}

/// Solves the `m - c0` columns left after the full panels, one panel of
/// each power-of-two width W, W/2, ..., 1 that fits (at most one each).
template <int W>
[[gnu::always_inline]] inline void substitute_tail(const double* lu, int n,
                                                   double* x, int m, int c0) {
  if constexpr (W >= 1) {
    if (m - c0 >= W) {
      substitute_panel<W>(lu, n, x + c0, static_cast<size_t>(m));
      c0 += W;
    }
    substitute_tail<W / 2>(lu, n, x, m, c0);
  }
}

/// Solves all m columns of the row-permuted n×m right-hand side `x`.
template <int W>
[[gnu::always_inline]] inline void substitute_body(const double* lu, int n,
                                                   double* x, int m) {
  int c0 = 0;
  for (; c0 + W <= m; c0 += W) {
    substitute_panel<W>(lu, n, x + c0, static_cast<size_t>(m));
  }
  substitute_tail<W / 2>(lu, n, x, m, c0);
}

/// r[j] -= l·s[j] for j < len in fixed-width chunks, then one chunk of each
/// power-of-two width below W: every element gets the one update it would in
/// a scalar loop, so the vectorised row update is bit-exact.
template <int W>
[[gnu::always_inline]] inline void row_update(double* __restrict r,
                                              const double* __restrict s,
                                              double l, int len) {
  int j = 0;
  for (; j + W <= len; j += W) {
    for (int b = 0; b < W; ++b) r[j + b] -= l * s[j + b];
  }
  if constexpr (W > 1) {
    row_update<W / 2>(r + j, s + j, l, len - j);
  }
}

/// Step k of the elimination on the n×n row-major `a`, after the pivot swap:
/// stores the multipliers L(i,k) and applies the rank-1 update to the
/// trailing rows. Each trailing element sees the same update sequence over
/// k as the scalar loop, whatever the vector width.
template <int W>
[[gnu::always_inline]] inline void eliminate_body(double* a, int n, int k) {
  const double* rk = a + static_cast<size_t>(k) * n;
  const double akk = rk[k];
  for (int i = k + 1; i < n; ++i) {
    double* ri = a + static_cast<size_t>(i) * n;
    const double lik = ri[k] / akk;
    ri[k] = lik;
    row_update<W>(ri + k + 1, rk + k + 1, lik, n - k - 1);
  }
}

#ifdef XG_X86_DISPATCH
// AVX2 clones of the kernels above (no "fma", see la/cpu.hpp).
[[gnu::target("avx2")]] void substitute_avx2(const double* lu, int n,
                                             double* x, int m) {
  substitute_body<kPanel>(lu, n, x, m);
}

[[gnu::target("avx2")]] void eliminate_avx2(double* a, int n, int k) {
  eliminate_body<kPanel>(a, n, k);
}
#endif

void substitute(const double* lu, int n, double* x, int m) {
#ifdef XG_X86_DISPATCH
  if (cpu_has_avx2()) {
    substitute_avx2(lu, n, x, m);
    return;
  }
#endif
  substitute_body<kPanel>(lu, n, x, m);
}

void eliminate(double* a, int n, int k) {
#ifdef XG_X86_DISPATCH
  if (cpu_has_avx2()) {
    eliminate_avx2(a, n, k);
    return;
  }
#endif
  eliminate_body<kPanel>(a, n, k);
}
}  // namespace

LuFactorization::LuFactorization(MatrixD a) : lu_(std::move(a)) {
  XG_REQUIRE(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const int n = lu_.rows();
  pivot_.resize(n);

  double max_a = 0.0;
  for (const double v : lu_.data()) max_a = std::max(max_a, std::abs(v));

  for (int k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below k.
    int piv = k;
    double best = std::abs(lu_(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    pivot_[k] = piv;
    if (piv != k) {
      pivot_sign_ = -pivot_sign_;
      auto rk = lu_.row(k);
      auto rp = lu_.row(piv);
      std::swap_ranges(rk.begin(), rk.end(), rp.begin());
    }
    if (best == 0.0) {
      throw Error(strprintf("LU: matrix singular at column %d of %d", k, n));
    }
    eliminate(lu_.data().data(), n, k);
  }

  double max_u = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) max_u = std::max(max_u, std::abs(lu_(i, j)));
  }
  growth_ = (max_a > 0.0) ? max_u / max_a : 1.0;
}

void LuFactorization::solve_in_place(std::span<double> x) const {
  const int n = lu_.rows();
  XG_ASSERT(x.size() == static_cast<size_t>(n));
  // Apply the row permutation.
  for (int k = 0; k < n; ++k) {
    if (pivot_[k] != k) std::swap(x[k], x[pivot_[k]]);
  }
  // Forward substitution with unit-diagonal L.
  for (int i = 1; i < n; ++i) {
    const auto ri = lu_.row(i);
    double acc = x[i];
    for (int j = 0; j < i; ++j) acc -= ri[j] * x[j];
    x[i] = acc;
  }
  // Back substitution with U.
  for (int i = n - 1; i >= 0; --i) {
    const auto ri = lu_.row(i);
    double acc = x[i];
    for (int j = i + 1; j < n; ++j) acc -= ri[j] * x[j];
    x[i] = acc / ri[i];
  }
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void LuFactorization::solve_in_place(MatrixD& b) const {
  XG_REQUIRE(b.rows() == n(), "LU solve: dimension mismatch");
  const int n_ = n();
  // Apply the row permutation to whole rows, in the single-vector order.
  for (int k = 0; k < n_; ++k) {
    if (pivot_[k] != k) {
      auto rk = b.row(k);
      auto rp = b.row(pivot_[k]);
      std::swap_ranges(rk.begin(), rk.end(), rp.begin());
    }
  }
  substitute(lu_.data().data(), n_, b.data().data(), b.cols());
}

MatrixD LuFactorization::solve(const MatrixD& b) const {
  MatrixD x = b;
  solve_in_place(x);
  return x;
}

MatrixD LuFactorization::inverse() const {
  MatrixD x = MatrixD::identity(n());
  solve_in_place(x);
  return x;
}

double LuFactorization::determinant() const {
  double det = pivot_sign_;
  for (int i = 0; i < n(); ++i) det *= lu_(i, i);
  return det;
}

std::vector<double> lu_solve(const MatrixD& a, std::span<const double> b) {
  return LuFactorization(a).solve(b);
}

MatrixD lu_inverse(const MatrixD& a) { return LuFactorization(a).inverse(); }

}  // namespace xg::la
