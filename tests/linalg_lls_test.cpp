#include "linalg/lls.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace hetsched::linalg {
namespace {

TEST(Qr, SquareSystemExactSolve) {
  // A x = b with known x.
  Matrix a{{2, 1}, {1, 3}};
  const std::vector<double> b{5, 10};
  const LlsResult r = solve_lls(a, b);
  EXPECT_NEAR(r.coeffs[0], 1.0, 1e-12);
  EXPECT_NEAR(r.coeffs[1], 3.0, 1e-12);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-10);
}

TEST(Qr, OverdeterminedConsistentSystem) {
  // Three points exactly on y = 2x + 1.
  Matrix a{{0, 1}, {1, 1}, {2, 1}};
  const std::vector<double> b{1, 3, 5};
  const LlsResult r = solve_lls(a, b);
  EXPECT_NEAR(r.coeffs[0], 2.0, 1e-12);
  EXPECT_NEAR(r.coeffs[1], 1.0, 1e-12);
  EXPECT_NEAR(r.r2, 1.0, 1e-12);
}

TEST(Qr, LeastSquaresMinimizesResidual) {
  // Classic: fit a constant to {0, 1} -> mean 0.5, residual sqrt(0.5).
  Matrix a{{1.0}, {1.0}};
  const std::vector<double> b{0.0, 1.0};
  const LlsResult r = solve_lls(a, b);
  EXPECT_NEAR(r.coeffs[0], 0.5, 1e-12);
  EXPECT_NEAR(r.residual_norm, std::sqrt(0.5), 1e-12);
}

TEST(Qr, RankDeficientThrows) {
  Matrix a{{1, 2}, {2, 4}, {3, 6}};  // second column = 2 * first
  const std::vector<double> b{1, 2, 3};
  EXPECT_THROW(solve_lls(a, b), Error);
}

TEST(Qr, SizeMismatchThrows) {
  Matrix a(3, 2);
  const std::vector<double> b{1, 2};
  EXPECT_THROW(solve_lls(a, b), Error);
}

TEST(Qr, HouseholderFactorsReproduceResidual) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const std::vector<double> b{1, 1, 1};
  const QrFactors f = householder_qr(a, {1, 1, 1});
  // R must be upper triangular.
  EXPECT_DOUBLE_EQ(f.r(1, 0), 0.0);
  // Residual of the LS solution equals tail norm.
  const LlsResult r = solve_lls(a, b);
  EXPECT_NEAR(r.residual_norm, f.tail_norm, 1e-12);
}

TEST(Basis, PolynomialShape) {
  const Basis p = Basis::polynomial(3, 0);
  EXPECT_EQ(p.size(), 4u);
  const std::vector<double> xs{2.0};
  const Matrix d = p.design(xs);
  EXPECT_DOUBLE_EQ(d(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 3), 1.0);
}

TEST(Basis, EvalMatchesDesign) {
  const Basis p = Basis::polynomial(2, 0);
  const std::vector<double> c{1.0, -2.0, 3.0};  // x^2 - 2x + 3
  EXPECT_DOUBLE_EQ(p.eval(c, 5.0), 25.0 - 10.0 + 3.0);
}

TEST(Fit, RecoverExactCubic) {
  // The paper's Tai basis: {N^3, N^2, N, 1} over the Basic-model N sweep.
  const Basis basis = Basis::polynomial(3, 0);
  const std::vector<double> truth{2.5e-9, 1.0e-6, 3.0e-4, 0.05};
  const std::vector<double> xs{400, 600, 800, 1200, 1600, 2400, 3200, 4800,
                               6400};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(basis.eval(truth, x));
  const LlsResult r = fit(basis, xs, ys);
  for (std::size_t i = 0; i < truth.size(); ++i)
    EXPECT_NEAR(r.coeffs[i], truth[i], std::abs(truth[i]) * 1e-6 + 1e-15)
        << "coefficient " << i;
}

TEST(Fit, RecoverQuadraticCommBasis) {
  // The paper's Tci basis: {N^2, N, 1}.
  const Basis basis = Basis::polynomial(2, 0);
  const std::vector<double> truth{4.0e-7, 1.0e-4, 0.8};
  const std::vector<double> xs{400, 800, 1600, 3200, 6400};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(basis.eval(truth, x));
  const LlsResult r = fit(basis, xs, ys);
  for (std::size_t i = 0; i < truth.size(); ++i)
    EXPECT_NEAR(r.coeffs[i], truth[i], std::abs(truth[i]) * 1e-6);
}

TEST(Fit, MinimumSampleCountEnforced) {
  const Basis basis = Basis::polynomial(3, 0);
  const std::vector<double> xs{1, 2, 3};  // 3 samples, 4 coefficients
  EXPECT_THROW(fit(basis, xs, xs), Error);
}

TEST(Fit, NoisyRecoveryWithinTolerance) {
  const Basis basis = Basis::polynomial(3, 0);
  const std::vector<double> truth{1.0e-9, 2.0e-6, 1.0e-3, 0.2};
  Rng rng(2024);
  std::vector<double> xs, ys;
  for (double x = 400; x <= 6400; x += 200) {
    xs.push_back(x);
    ys.push_back(basis.eval(truth, x) * rng.lognormal_factor(0.01));
  }
  const LlsResult r = fit(basis, xs, ys);
  // Multiplicative noise plus N^3/N^2 collinearity inflates per-coefficient
  // variance; the leading coefficient still lands within ~20 %, and the
  // *predictions* (what the estimator consumes) stay tight.
  EXPECT_NEAR(r.coeffs[0], truth[0], truth[0] * 0.2);
  EXPECT_GT(r.r2, 0.999);
  const double pred = basis.eval(r.coeffs, 6400.0);
  const double want = basis.eval(truth, 6400.0);
  EXPECT_NEAR(pred, want, want * 0.02);
}

TEST(Fit, CustomBasisFunctions) {
  // Mixed basis like the P-T model: {P, 1/P, 1}.
  const Basis basis(std::vector<Basis::Fn>{
      [](double p) { return p; },
      [](double p) { return 1.0 / p; },
      [](double) { return 1.0; },
  });
  const std::vector<double> truth{0.5, 8.0, 2.0};
  const std::vector<double> xs{1, 2, 3, 4, 6, 8};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(basis.eval(truth, x));
  const LlsResult r = fit(basis, xs, ys);
  EXPECT_NEAR(r.coeffs[0], 0.5, 1e-10);
  EXPECT_NEAR(r.coeffs[1], 8.0, 1e-10);
  EXPECT_NEAR(r.coeffs[2], 2.0, 1e-10);
}

TEST(Fit, IllConditionedColumnsStillSolve) {
  // Columns spanning 10 orders of magnitude (N^3 vs 1): the solver's
  // column equilibration must cope.
  const Basis basis = Basis::polynomial(3, 0);
  const std::vector<double> truth{1e-10, 1e-5, 1e-2, 10.0};
  std::vector<double> xs, ys;
  for (double x = 1000; x <= 10000; x += 1000) {
    xs.push_back(x);
    ys.push_back(basis.eval(truth, x));
  }
  const LlsResult r = fit(basis, xs, ys);
  EXPECT_NEAR(r.coeffs[0], truth[0], truth[0] * 1e-4);
  EXPECT_NEAR(r.coeffs[3], truth[3], truth[3] * 1e-4);
}

// Property-style sweep: random polynomials of each degree are recovered.
class PolyRecovery : public ::testing::TestWithParam<int> {};

TEST_P(PolyRecovery, RandomCoefficientsRecovered) {
  const int degree = GetParam();
  const Basis basis = Basis::polynomial(degree, 0);
  Rng rng(1000 + static_cast<unsigned>(degree));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> truth;
    for (int j = 0; j <= degree; ++j)
      truth.push_back(rng.uniform(-2.0, 2.0) *
                      std::pow(10.0, -degree + j));  // scale per power
    std::vector<double> xs, ys;
    for (double x = 1.0; x <= 20.0; x += 1.0) {
      xs.push_back(x);
      ys.push_back(basis.eval(truth, x));
    }
    const LlsResult r = fit(basis, xs, ys);
    for (std::size_t i = 0; i < truth.size(); ++i)
      EXPECT_NEAR(r.coeffs[i], truth[i], 1e-7 + std::abs(truth[i]) * 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyRecovery, ::testing::Values(1, 2, 3, 4));

// Differential pin of the row fold the online refit solves with:
// factors built one row at a time by qr_add_row must solve (qr_solve)
// to the coefficients of a from-scratch solve_lls of the same rows, to
// 1e-9 relative, on over a thousand random windows. Weighted windows
// are also pinned against solve_robust_lls, whose Huber IRLS fixed
// point is the plain LS solution of the weight-scaled rows.

constexpr double kFoldRelTol = 1e-9;
/// Windows above this full-solve condition estimate are excluded from
/// the strict 1e-9 pin (the comparison itself loses digits there).
constexpr double kFoldCondCap = 1e6;

struct WindowData {
  Matrix a;
  std::vector<double> b;
};

WindowData random_window(Rng& rng, std::size_t rows, std::size_t cols) {
  WindowData w;
  w.a = Matrix(rows, cols);
  w.b.resize(rows);
  const double col_scale = std::pow(10.0, rng.uniform(-2.0, 2.0));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j)
      w.a(i, j) = rng.uniform(-2.0, 2.0) * (j == 0 ? col_scale : 1.0);
    w.b[i] = rng.uniform(-5.0, 5.0);
  }
  return w;
}

/// Every coefficient pair agrees to `tol` relative (with an absolute
/// floor for coefficients near zero).
void expect_coeffs_match(const std::vector<double>& got,
                         const std::vector<double>& want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j)
    EXPECT_NEAR(got[j], want[j],
                tol * (1.0 + std::max(std::abs(got[j]), std::abs(want[j]))))
        << "coefficient " << j;
}

TEST(IncrementalQr, UpdateMatchesFullRefitOnRandomWindows) {
  Rng rng(0x11aa22bb33cc44ddULL);
  std::size_t strict = 0;
  for (int c = 0; c < 1100; ++c) {
    const std::size_t cols = 1 + rng.uniform_index(6);
    const std::size_t rows = cols + rng.uniform_index(20);
    const WindowData w = random_window(rng, rows, cols);

    QrFactors f = qr_empty(cols);
    double sum_y = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<double> row(w.a.row(i).begin(), w.a.row(i).end());
      qr_add_row(f, row, w.b[i]);
      sum_y += w.b[i];
    }
    const LlsResult full = solve_lls(w.a, w.b);
    if (full.cond > kFoldCondCap) continue;
    ++strict;
    const LlsResult inc = qr_solve(f, rows, sum_y);
    expect_coeffs_match(inc.coeffs, full.coeffs, kFoldRelTol);
    EXPECT_NEAR(inc.residual_norm, full.residual_norm,
                kFoldRelTol * (1.0 + full.residual_norm));
    EXPECT_NEAR(inc.r2, full.r2, 1e-7);
  }
  EXPECT_GE(strict, 1000u);
}

TEST(SlidingWindow, WeightedWindowsMatchRobustRefit) {
  // solve_robust_lls's coefficients are, at its IRLS fixed point, the
  // exact LS solution of the system with each row scaled by
  // sqrt(final weight). Folding those scaled rows must therefore
  // reproduce the robust coefficients.
  Rng rng(0x1357924680acebdfULL);
  std::size_t strict = 0;
  for (int c = 0; c < 150; ++c) {
    const std::size_t cols = 1 + rng.uniform_index(4);
    const std::size_t rows = cols + 4 + rng.uniform_index(10);
    std::vector<double> truth(cols);
    for (double& v : truth) v = rng.uniform(-3.0, 3.0);
    WindowData w = random_window(rng, rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      double y = 0.0;
      for (std::size_t j = 0; j < cols; ++j) y += w.a(i, j) * truth[j];
      // Noise plus the occasional gross outlier so the Huber weights
      // are genuinely non-trivial on most windows.
      w.b[i] = y + rng.normal(0.0, 0.05) +
               (rng.uniform() < 0.15 ? rng.uniform(3.0, 8.0) : 0.0);
    }
    const LlsResult robust = solve_robust_lls(w.a, w.b);
    if (robust.cond > kFoldCondCap) continue;
    bool degenerate = false;
    QrFactors f = qr_empty(cols);
    double sum_y = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double sw = std::sqrt(robust.weights[i]);
      if (sw == 0.0) {
        degenerate = true;  // zero-MAD early exit; rank would change
        break;
      }
      std::vector<double> row(cols);
      for (std::size_t j = 0; j < cols; ++j) row[j] = sw * w.a(i, j);
      qr_add_row(f, row, sw * w.b[i]);
      sum_y += sw * w.b[i];
    }
    if (degenerate) continue;
    ++strict;
    expect_coeffs_match(qr_solve(f, rows, sum_y).coeffs, robust.coeffs,
                        kFoldRelTol);
  }
  EXPECT_GE(strict, 120u);
}

TEST(IncrementalQr, GuardsRejectMalformedInput) {
  EXPECT_THROW(qr_empty(0), Error);
  QrFactors f = qr_empty(2);
  std::vector<double> narrow{1.0};
  EXPECT_THROW(qr_add_row(f, narrow, 1.0), Error);
  std::vector<double> nan_row{1.0, std::nan("")};
  EXPECT_THROW(qr_add_row(f, nan_row, 1.0), Error);
  std::vector<double> row{1.0, 2.0};
  EXPECT_THROW(
      qr_add_row(f, row, std::numeric_limits<double>::infinity()), Error);
  // Fewer rows than coefficients: underdetermined, must throw.
  qr_add_row(f, row, 1.0);
  EXPECT_THROW(qr_solve(f, 1, 1.0), Error);
  // Rank-deficient factor (duplicate direction only).
  std::vector<double> twice{2.0, 4.0};
  qr_add_row(f, twice, 2.0);
  EXPECT_THROW(qr_solve(f, 2, 3.0), Error);
}

}  // namespace
}  // namespace hetsched::linalg
