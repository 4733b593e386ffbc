// Linear least squares via Householder QR.
//
// This replaces GSL's `gsl_multifit_linear`, which the paper uses to
// extract the model coefficients k0..k11 (§3.2, §3.3). Householder QR is
// numerically safer than normal equations for the paper's tall thin design
// matrices (columns like N^3 span ten orders of magnitude over the sweep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hetsched::linalg {

/// Result of a least-squares solve.
struct LlsResult {
  std::vector<double> coeffs;   ///< minimizer of ||A x - b||_2
  double residual_norm = 0.0;   ///< ||A x - b||_2 at the minimizer
  double r2 = 0.0;              ///< coefficient of determination vs mean(b)
  /// Conditioning estimate of the equilibrated system: max|R_ii| /
  /// min|R_ii| of the QR factor. A cheap lower bound on cond_2(A after
  /// column scaling); the rank guard caps it at rows / eps, so fits
  /// that pass are numerically meaningful.
  double cond = 0.0;
  /// Robust solves only (solve_robust_lls / fit_robust): the final IRLS
  /// Huber weight of each sample, in row order (1 = trusted, < 1 =
  /// downweighted). Empty for a plain solve_lls.
  std::vector<double> weights;
  /// Robust solves only: 1 where the sample's final weight fell below
  /// RobustOptions::outlier_weight (the sample was effectively rejected),
  /// else 0. Row order; empty for a plain solve_lls.
  std::vector<std::uint8_t> outliers;
  /// IRLS iterations executed (0 for a plain solve_lls).
  int robust_iterations = 0;

  /// Number of set entries in `outliers`.
  std::size_t outlier_count() const;
};

/// Solves min ||A x - b||. Requires A.rows() >= A.cols() >= 1 and
/// b.size() == A.rows(). Throws hetsched::Error on non-finite input
/// (a NaN measurement would silently poison every coefficient) and on
/// rank deficiency (a diagonal of R smaller than rows * eps * max|R|).
LlsResult solve_lls(const Matrix& a, std::span<const double> b);

/// Tuning knobs of the Huber IRLS solve (see solve_robust_lls).
struct RobustOptions {
  /// Huber tuning constant in units of the robust residual scale:
  /// residuals within k*s keep weight 1, larger ones are downweighted
  /// by k*s/|r|. 1.345 gives 95% efficiency on clean Gaussian data.
  double huber_k = 1.345;
  /// Iteration cap; IRLS with Huber weights converges monotonically, so
  /// a small cap only truncates the last digits.
  int max_iterations = 25;
  /// Convergence: stop when no coefficient moved by more than
  /// tol * (1 + |coeff|) between iterations.
  double tol = 1e-10;
  /// Samples whose final weight is below this are flagged in
  /// LlsResult::outliers (diagnostic only; weights already applied).
  double outlier_weight = 0.5;
  /// Run the IRLS on the *relative* residuals: row i of (A, b) is scaled
  /// by 1/|b_i| before iterating, so the Huber loss judges each sample
  /// by its fractional error instead of its absolute one. This is the
  /// right loss when b spans orders of magnitude and the corruption is
  /// multiplicative (a straggler making a run 3x slower is 3x slower at
  /// every N) — with absolute residuals the largest samples set the MAD
  /// scale and a 3x outlier at small N hides inside it. Rows with
  /// b_i == 0 keep scale 1. The reported residual_norm / r2 are still
  /// computed against the unscaled samples.
  bool relative_residuals = false;
};

/// Robust variant of solve_lls: Huber-weighted iteratively reweighted
/// least squares. Starts from the plain LS solution, estimates the
/// residual scale by the MAD, downweights large residuals, and re-solves
/// until the coefficients settle. Degrades to plain LS when the system
/// is square (no redundancy to reject from) or when the MAD collapses to
/// zero (a majority of residuals already sit on the model). The returned
/// residual_norm / r2 are computed against the *unweighted* samples, so
/// they stay comparable to a plain solve.
LlsResult solve_robust_lls(const Matrix& a, std::span<const double> b,
                           const RobustOptions& opts = {});

/// QR factors of a least-squares system A x ~ b: R and the leading
/// entries of Q^T b, with Q itself implicit.
struct QrFactors {
  Matrix r;                     ///< cols x cols upper-triangular factor
  std::vector<double> qtb;      ///< first cols entries of Q^T b
  double tail_norm = 0.0;       ///< norm of remaining entries (= residual)
};

/// In-place Householder QR of a whole system: returns R (upper
/// triangular, cols x cols) and applies the implicit Q^T to `b`.
/// Exposed for testing.
QrFactors householder_qr(Matrix a, std::vector<double> b);

/// The factors of an empty `cols`-column system: R = 0, qtb = 0,
/// tail_norm = 0. Rows are folded in with qr_add_row.
QrFactors qr_empty(std::size_t cols);

/// Folds one sample (row, y) into `f` with Givens rotations that consume
/// `row` in place: after the call, f factors the stacked system
/// [A; row] x ~ [b; y]. O(cols^2), no allocation. The online refit folds
/// each class's window this way, one row per observation. Requires
/// row.size() == f.r.cols() and finite entries.
void qr_add_row(QrFactors& f, std::span<double> row, double y);

/// Solves folded factors by back substitution, with solve_lls's rank
/// guard (a diagonal of R at most rows * eps * max |R_ii| throws).
/// `rows` is the number of samples folded into `f` and `sum_y` their
/// sum; they feed the rank tolerance and the r2 statistic (ss_tot is
/// recovered from the factors as ||qtb||^2 + tail^2 - sum_y^2 / rows).
/// The columns are not equilibrated, so callers scale them. Throws
/// hetsched::Error when rows < cols or the factors are rank deficient.
LlsResult qr_solve(const QrFactors& f, std::size_t rows, double sum_y);

/// A basis function family for semi-empirical fits:
/// model(x) = sum_j c_j * basis_j(x).
class Basis {
 public:
  using Fn = std::function<double(double)>;

  /// Named basis from explicit functions.
  explicit Basis(std::vector<Fn> fns);

  /// {x^hi, x^(hi-1), ..., x^lo}; e.g. polynomial(3, 0) is the paper's
  /// Tai basis {N^3, N^2, N, 1}.
  static Basis polynomial(int hi, int lo = 0);

  std::size_t size() const { return fns_.size(); }

  /// Builds the design matrix for sample positions xs.
  Matrix design(std::span<const double> xs) const;

  /// Evaluates sum_j coeffs[j]*basis_j(x).
  double eval(std::span<const double> coeffs, double x) const;

 private:
  std::vector<Fn> fns_;
};

/// Fits `basis` coefficients to samples (xs, ys). Requires at least
/// basis.size() samples.
LlsResult fit(const Basis& basis, std::span<const double> xs,
              std::span<const double> ys);

/// Robust (Huber IRLS) variant of fit(); same requirements.
LlsResult fit_robust(const Basis& basis, std::span<const double> xs,
                     std::span<const double> ys,
                     const RobustOptions& opts = {});

}  // namespace hetsched::linalg
