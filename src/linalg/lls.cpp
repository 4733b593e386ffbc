#include "linalg/lls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace hetsched::linalg {

QrFactors householder_qr(Matrix a, std::vector<double> b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HETSCHED_CHECK(m >= n && n >= 1, "householder_qr: need rows >= cols >= 1");
  HETSCHED_CHECK(b.size() == m, "householder_qr: b size mismatch");

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += a(i, k) * a(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;  // column already zero; R(k,k)=0 -> rank check later
    const double alpha = a(k, k) >= 0.0 ? -norm : norm;
    // v = x - alpha*e1, normalized so v[k] = 1 implicitly via beta.
    double vkk = a(k, k) - alpha;
    a(k, k) = alpha;
    // beta = 2 / (v^T v); with v = (vkk, a(k+1..m-1, k)).
    double vtv = vkk * vkk;
    for (std::size_t i = k + 1; i < m; ++i) vtv += a(i, k) * a(i, k);
    if (vtv == 0.0) continue;
    const double beta = 2.0 / vtv;

    // Apply H = I - beta v v^T to remaining columns and to b.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = vkk * a(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += a(i, k) * a(i, j);
      s *= beta;
      a(k, j) -= s * vkk;
      for (std::size_t i = k + 1; i < m; ++i) a(i, j) -= s * a(i, k);
    }
    {
      double s = vkk * b[k];
      for (std::size_t i = k + 1; i < m; ++i) s += a(i, k) * b[i];
      s *= beta;
      b[k] -= s * vkk;
      for (std::size_t i = k + 1; i < m; ++i) b[i] -= s * a(i, k);
    }
    // Zero the sub-diagonal of this column (values were the v entries).
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) = 0.0;
  }

  QrFactors f;
  f.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) f.r(i, j) = a(i, j);
  f.qtb.assign(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
  double tail = 0.0;
  for (std::size_t i = n; i < m; ++i) tail += b[i] * b[i];
  f.tail_norm = std::sqrt(tail);
  return f;
}

namespace {

/// Rank guard and back substitution of solve_lls and qr_solve: throws
/// `rank_msg` when a diagonal of R is at most rows * eps * max |R_ii|,
/// else solves R x = qtb. The result carries x, the conditioning
/// estimate and the residual norm; r2 is the caller's.
LlsResult back_substitute(const QrFactors& f, std::size_t rows,
                          const char* rank_msg) {
  const std::size_t n = f.r.cols();
  double rmax = 0.0, rmin = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    rmax = std::max(rmax, std::abs(f.r(i, i)));
    rmin = std::min(rmin, std::abs(f.r(i, i)));
  }
  const double tol = static_cast<double>(rows) *
                     std::numeric_limits<double>::epsilon() * rmax;
  for (std::size_t i = 0; i < n; ++i)
    HETSCHED_CHECK(std::abs(f.r(i, i)) > tol, rank_msg);

  LlsResult res;
  res.coeffs.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = f.qtb[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= f.r(ii, j) * res.coeffs[j];
    res.coeffs[ii] = s / f.r(ii, ii);
  }
  res.cond = rmin > 0.0 ? rmax / rmin
                        : std::numeric_limits<double>::infinity();
  res.residual_norm = f.tail_norm;
  return res;
}

}  // namespace

LlsResult solve_lls(const Matrix& a, std::span<const double> b) {
  HETSCHED_CHECK(b.size() == a.rows(), "solve_lls: b size mismatch");
  const std::size_t n = a.cols();

  // NaN/Inf guard: a single non-finite sample would propagate through
  // the Householder reflections into *every* coefficient and surface
  // much later as a nonsense prediction. Fail at the boundary instead.
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < n; ++j)
      HETSCHED_CHECK(std::isfinite(a(i, j)),
                     "solve_lls: non-finite entry in design matrix");
  for (const double v : b)
    HETSCHED_CHECK(std::isfinite(v),
                   "solve_lls: non-finite entry in right-hand side");

  // Column scaling: equilibrate so R's rank test is meaningful when columns
  // span many orders of magnitude (N^3 vs 1 over N in [400, 9600]).
  Matrix as = a;
  std::vector<double> scale(n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    double m = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
      m = std::max(m, std::abs(a(i, j)));
    if (m > 0.0) {
      scale[j] = 1.0 / m;
      for (std::size_t i = 0; i < a.rows(); ++i) as(i, j) *= scale[j];
    }
  }

  const QrFactors f = householder_qr(std::move(as), {b.begin(), b.end()});
  LlsResult res =
      back_substitute(f, a.rows(), "solve_lls: rank-deficient design matrix");
  for (std::size_t j = 0; j < n; ++j) res.coeffs[j] *= scale[j];
  // The input guard plus the rank guard make a non-finite coefficient
  // impossible in exact arithmetic; this catches the remaining route
  // (overflow during substitution) before it leaves the solver.
  for (const double v : res.coeffs)
    HETSCHED_ASSERT(std::isfinite(v),
                    "solve_lls: non-finite coefficient after back "
                    "substitution");

  // R^2 against the mean model.
  double mean_b = 0.0;
  for (double v : b) mean_b += v;
  mean_b /= static_cast<double>(b.size());
  double ss_tot = 0.0;
  for (double v : b) ss_tot += (v - mean_b) * (v - mean_b);
  const double ss_res = res.residual_norm * res.residual_norm;
  res.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return res;
}

QrFactors qr_empty(std::size_t cols) {
  HETSCHED_CHECK(cols >= 1, "qr_empty: need cols >= 1");
  QrFactors f;
  f.r = Matrix(cols, cols);
  f.qtb.assign(cols, 0.0);
  return f;
}

void qr_add_row(QrFactors& f, std::span<double> row, double y) {
  const std::size_t n = f.r.cols();
  HETSCHED_CHECK(f.r.rows() == n && f.qtb.size() == n,
                 "qr_add_row: malformed factors");
  HETSCHED_CHECK(row.size() == n, "qr_add_row: row width mismatch");
  for (const double v : row)
    HETSCHED_CHECK(std::isfinite(v), "qr_add_row: non-finite design entry");
  HETSCHED_CHECK(std::isfinite(y), "qr_add_row: non-finite sample");

  double beta = y;
  for (std::size_t k = 0; k < n; ++k) {
    if (row[k] == 0.0) continue;
    // Givens rotation zeroing row[k] against R(k,k).
    const double rkk = f.r(k, k);
    const double h = std::hypot(rkk, row[k]);
    const double c = rkk / h;
    const double s = row[k] / h;
    f.r(k, k) = h;
    row[k] = 0.0;
    for (std::size_t j = k + 1; j < n; ++j) {
      const double rj = f.r(k, j);
      const double wj = row[j];
      f.r(k, j) = c * rj + s * wj;
      row[j] = -s * rj + c * wj;
    }
    const double zk = f.qtb[k];
    f.qtb[k] = c * zk + s * beta;
    beta = -s * zk + c * beta;
  }
  // Whatever is left of the rotated rhs is orthogonal to the column
  // space tracked by R: it joins the residual tail.
  f.tail_norm = std::hypot(f.tail_norm, beta);
}

LlsResult qr_solve(const QrFactors& f, std::size_t rows, double sum_y) {
  const std::size_t n = f.r.cols();
  HETSCHED_CHECK(f.r.rows() == n && f.qtb.size() == n,
                 "qr_solve: malformed factors");
  HETSCHED_CHECK(rows >= n, "qr_solve: fewer rows than coefficients");

  LlsResult res =
      back_substitute(f, rows, "qr_solve: rank-deficient factorization");
  for (const double v : res.coeffs)
    HETSCHED_ASSERT(std::isfinite(v),
                    "qr_solve: non-finite coefficient after back "
                    "substitution");
  // ss_tot = sum (y_i - mean)^2 = ||b||^2 - sum_y^2 / rows, and the
  // factors carry ||b||^2 = ||qtb||^2 + tail^2 through every rotation.
  double b_sq = f.tail_norm * f.tail_norm;
  for (const double z : f.qtb) b_sq += z * z;
  const double ss_tot = b_sq - sum_y * sum_y / static_cast<double>(rows);
  const double ss_res = res.residual_norm * res.residual_norm;
  res.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return res;
}

std::size_t LlsResult::outlier_count() const {
  return static_cast<std::size_t>(
      std::count(outliers.begin(), outliers.end(), std::uint8_t{1}));
}

namespace {

/// Unweighted residuals b - A x.
std::vector<double> residuals(const Matrix& a, std::span<const double> b,
                              std::span<const double> x) {
  std::vector<double> r(b.size());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double yi = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) yi += a(i, j) * x[j];
    r[i] = b[i] - yi;
  }
  return r;
}

/// Median absolute deviation about zero (residuals of an LS fit are
/// already centered enough for a scale estimate), scaled to be
/// consistent with the Gaussian standard deviation.
double mad_scale(std::vector<double> r) {
  for (double& v : r) v = std::abs(v);
  const std::size_t mid = r.size() / 2;
  std::nth_element(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(mid),
                   r.end());
  double med = r[mid];
  if (r.size() % 2 == 0) {
    const double lo =
        *std::max_element(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(mid));
    med = 0.5 * (lo + med);
  }
  return 1.4826 * med;
}

/// Recomputes residual_norm / r2 of `res` against the unweighted data so
/// a robust result stays comparable to a plain solve_lls.
void refresh_unweighted_stats(const Matrix& a, std::span<const double> b,
                              LlsResult* res) {
  const std::vector<double> r = residuals(a, b, res->coeffs);
  double ss_res = 0.0;
  for (const double v : r) ss_res += v * v;
  res->residual_norm = std::sqrt(ss_res);
  double mean_b = 0.0;
  for (const double v : b) mean_b += v;
  mean_b /= static_cast<double>(b.size());
  double ss_tot = 0.0;
  for (const double v : b) ss_tot += (v - mean_b) * (v - mean_b);
  res->r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
}

}  // namespace

LlsResult solve_robust_lls(const Matrix& a, std::span<const double> b,
                           const RobustOptions& opts) {
  HETSCHED_CHECK(opts.huber_k > 0.0, "solve_robust_lls: huber_k > 0 required");
  HETSCHED_CHECK(opts.max_iterations >= 1,
                 "solve_robust_lls: max_iterations >= 1 required");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Relative-residual mode: scale each row to unit |b| and run the
  // ordinary absolute-residual IRLS on the scaled system. The scaled
  // residual b_i/|b_i| - (A x)_i/|b_i| is exactly the signed relative
  // error of sample i, so the MAD / Huber machinery below needs no other
  // changes. Weights and outlier flags keep their row order; the final
  // stats are refreshed against the original system so residual_norm /
  // r2 stay comparable to a plain solve.
  if (opts.relative_residuals) {
    Matrix sa(m, n);
    std::vector<double> sb(m);
    for (std::size_t i = 0; i < m; ++i) {
      const double scale = b[i] != 0.0 ? 1.0 / std::abs(b[i]) : 1.0;
      for (std::size_t j = 0; j < n; ++j) sa(i, j) = scale * a(i, j);
      sb[i] = scale * b[i];
    }
    RobustOptions inner = opts;
    inner.relative_residuals = false;
    LlsResult res = solve_robust_lls(sa, sb, inner);
    refresh_unweighted_stats(a, b, &res);
    return res;
  }

  LlsResult res = solve_lls(a, b);
  res.weights.assign(m, 1.0);
  res.outliers.assign(m, 0);
  // A square system interpolates every sample — there is no redundancy
  // to reject from, so the LS solution is already the robust one.
  if (m <= n) return res;

  Matrix wa(m, n);
  std::vector<double> wb(m);
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    const std::vector<double> r = residuals(a, b, res.coeffs);
    const double s = mad_scale(r);
    // MAD of zero: a majority of the samples sit exactly on the model
    // (synthetic data, or an exact polynomial). Any nonzero residual is
    // then an outlier by definition; mark them and stop — downweighting
    // by 1/|r| with s = 0 would zero their rows and change the rank.
    if (s <= 0.0) {
      for (std::size_t i = 0; i < m; ++i)
        if (std::abs(r[i]) > 0.0) {
          res.weights[i] = 0.0;
          res.outliers[i] = 1;
        }
      break;
    }
    const double threshold = opts.huber_k * s;
    bool reweighted = false;
    for (std::size_t i = 0; i < m; ++i) {
      const double w =
          std::abs(r[i]) <= threshold ? 1.0 : threshold / std::abs(r[i]);
      if (w != res.weights[i]) reweighted = true;
      res.weights[i] = w;
    }
    // A fixed point of the weights is a fixed point of the solve.
    if (!reweighted) break;

    // Weighted solve: scale each row by sqrt(w). Huber weights are
    // strictly positive, so the scaling cannot create rank deficiency.
    for (std::size_t i = 0; i < m; ++i) {
      const double sw = std::sqrt(res.weights[i]);
      for (std::size_t j = 0; j < n; ++j) wa(i, j) = sw * a(i, j);
      wb[i] = sw * b[i];
    }
    const LlsResult step = solve_lls(wa, wb);
    res.robust_iterations = iter + 1;
    bool converged = true;
    for (std::size_t j = 0; j < n; ++j)
      converged = converged &&
                  std::abs(step.coeffs[j] - res.coeffs[j]) <=
                      opts.tol * (1.0 + std::abs(res.coeffs[j]));
    res.coeffs = step.coeffs;
    res.cond = step.cond;
    if (converged) break;
  }

  for (std::size_t i = 0; i < m; ++i)
    res.outliers[i] =
        res.weights[i] < opts.outlier_weight ? std::uint8_t{1} : res.outliers[i];
  refresh_unweighted_stats(a, b, &res);
  return res;
}

Basis::Basis(std::vector<Fn> fns) : fns_(std::move(fns)) {
  HETSCHED_CHECK(!fns_.empty(), "Basis requires at least one function");
}

Basis Basis::polynomial(int hi, int lo) {
  HETSCHED_CHECK(hi >= lo, "polynomial basis: hi < lo");
  std::vector<Fn> fns;
  for (int p = hi; p >= lo; --p)
    fns.push_back([p](double x) { return std::pow(x, p); });
  return Basis(std::move(fns));
}

Matrix Basis::design(std::span<const double> xs) const {
  Matrix d(xs.size(), fns_.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    for (std::size_t j = 0; j < fns_.size(); ++j) d(i, j) = fns_[j](xs[i]);
  return d;
}

double Basis::eval(std::span<const double> coeffs, double x) const {
  HETSCHED_CHECK(coeffs.size() == fns_.size(), "Basis::eval: coeff count");
  double s = 0.0;
  for (std::size_t j = 0; j < fns_.size(); ++j) s += coeffs[j] * fns_[j](x);
  return s;
}

LlsResult fit(const Basis& basis, std::span<const double> xs,
              std::span<const double> ys) {
  HETSCHED_CHECK(xs.size() == ys.size(), "fit: xs/ys size mismatch");
  HETSCHED_CHECK(xs.size() >= basis.size(),
                 "fit: fewer samples than coefficients");
  return solve_lls(basis.design(xs), ys);
}

LlsResult fit_robust(const Basis& basis, std::span<const double> xs,
                     std::span<const double> ys, const RobustOptions& opts) {
  HETSCHED_CHECK(xs.size() == ys.size(), "fit_robust: xs/ys size mismatch");
  HETSCHED_CHECK(xs.size() >= basis.size(),
                 "fit_robust: fewer samples than coefficients");
  return solve_robust_lls(basis.design(xs), ys, opts);
}

}  // namespace hetsched::linalg
