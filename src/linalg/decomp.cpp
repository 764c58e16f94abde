#include "linalg/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/contracts.hpp"
#include "linalg/ops.hpp"
#include "parallel/parallel_for.hpp"

namespace vmincqr::linalg {

namespace {

/// Column-update work (remaining rows x solved columns) below which the
/// Cholesky row loop stays inline. Depends only on (n, j), never on the
/// thread count, so the factorization is identical either way.
constexpr std::size_t kMinParallelCholWork = 16384;

}  // namespace

std::optional<Matrix> cholesky(const Matrix& a) {
  VMINCQR_CHECK_SHAPE(a.rows() == a.cols(),
                      "cholesky: matrix must be square, got " +
                          shape_string(a));
  VMINCQR_CHECK_FINITE(a, "cholesky: input matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    VMINCQR_AUDIT(ljj > 0.0, "cholesky: nonpositive pivot escaped the check");
    l(j, j) = ljj;
    // Rows below the diagonal of column j are independent of each other:
    // each l(i, j) reads only finished columns (< j) plus a(i, j). Chunks
    // write disjoint entries, so the factorization is order-free.
    parallel::parallel_for(
        n - j - 1, /*grain=*/0,
        [&](std::size_t begin, std::size_t end) {
          const double* lj = l.row_ptr(j);
          for (std::size_t i = j + 1 + begin; i < j + 1 + end; ++i) {
            double s = a(i, j);
            const double* li = l.row_ptr(i);
            for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
            l(i, j) = s / ljj;
          }
        },
        /*use_pool=*/(n - j - 1) * j >= kMinParallelCholWork);
  }
  return l;
}

Matrix cholesky_jittered(const Matrix& a, double initial_jitter,
                         int max_tries) {
  VMINCQR_CHECK_SHAPE(a.rows() == a.cols(),
                      "cholesky_jittered: matrix must be square");
  // Scratch hoisted out of the retry loop: cholesky() never mutates its
  // input, so only the diagonal needs refreshing between attempts.
  Matrix trial = a;
  double jitter = 0.0;
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    if (jitter > 0.0) {
      for (std::size_t i = 0; i < trial.rows(); ++i) {
        trial(i, i) = a(i, i) + jitter;
      }
    }
    if (auto l = cholesky(trial)) return *std::move(l);
    jitter = (attempt == 0) ? initial_jitter : jitter * 10.0;
  }
  throw std::runtime_error(
      "cholesky_jittered: matrix not positive definite after max jitter");
}

Vector forward_substitute(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  VMINCQR_CHECK_SHAPE(l.cols() == n && b.size() == n,
                      "forward_substitute: dimension mismatch");
  Vector x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* row = l.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) s -= row[k] * x[k];
    x[i] = s / row[i];
  }
  return x;
}

void forward_substitute_row(const Matrix& l, const Matrix& b_rows,
                            std::size_t row, Vector* x) {
  const std::size_t n = l.rows();
  VMINCQR_CHECK_SHAPE(l.cols() == n && b_rows.cols() == n &&
                          row < b_rows.rows(),
                      "forward_substitute_row: dimension mismatch");
  x->resize(n);
  Vector& out = *x;
  const double* b = b_rows.row_ptr(row);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* li = l.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * out[k];
    out[i] = s / li[i];
  }
}

Vector backward_substitute_transposed(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  VMINCQR_CHECK_SHAPE(l.cols() == n && b.size() == n,
                      "backward_substitute_transposed: dimension mismatch");
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

Vector solve_spd(const Matrix& a, const Vector& b) {
  auto l = cholesky(a);
  if (!l) throw std::runtime_error("solve_spd: matrix not positive definite");
  Vector x = backward_substitute_transposed(*l, forward_substitute(*l, b));
  VMINCQR_AUDIT(core::all_finite(x), "solve_spd: non-finite solution");
  return x;
}

Matrix solve_spd(const Matrix& a, const Matrix& b) {
  auto l = cholesky(a);
  if (!l) throw std::runtime_error("solve_spd: matrix not positive definite");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    Vector xc =
        backward_substitute_transposed(*l, forward_substitute(*l, b.col(c)));
    x.set_col(c, xc);
  }
  return x;
}

namespace {

// Householder QR with column pivoting, applied in place: the by-value
// Matrix is the scratch buffer the reflectors overwrite.
// Returns the solution of min ||A x - b||, zeroing coefficients beyond the
// numerical rank.
Vector qr_least_squares(Matrix a, Vector b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  // Column squared norms for pivoting.
  Vector col_norms(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const double* row = a.row_ptr(r);
    for (std::size_t c = 0; c < n; ++c) col_norms[c] += row[c] * row[c];
  }

  const std::size_t kmax = std::min(m, n);
  std::size_t rank = kmax;
  double max_diag = 0.0;

  for (std::size_t k = 0; k < kmax; ++k) {
    // Pivot: bring the column with the largest remaining norm to position k.
    std::size_t pivot = k;
    for (std::size_t c = k + 1; c < n; ++c) {
      if (col_norms[c] > col_norms[pivot]) pivot = c;
    }
    if (pivot != k) {
      std::swap(perm[k], perm[pivot]);
      std::swap(col_norms[k], col_norms[pivot]);
      for (std::size_t r = 0; r < m; ++r) std::swap(a(r, k), a(r, pivot));
    }

    // Householder vector for column k, rows k..m-1.
    double norm_x = 0.0;
    for (std::size_t r = k; r < m; ++r) norm_x += a(r, k) * a(r, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x <= 0.0) {
      rank = k;
      break;
    }
    const double alpha = (a(k, k) >= 0.0) ? -norm_x : norm_x;
    Vector v(m - k, 0.0);
    v[0] = a(k, k) - alpha;
    for (std::size_t r = k + 1; r < m; ++r) v[r - k] = a(r, k);
    double vtv = 0.0;
    for (double vi : v) vtv += vi * vi;
    if (vtv <= 0.0) {
      rank = k;
      break;
    }

    // Apply reflector to A(k:, k:) and b(k:).
    for (std::size_t c = k; c < n; ++c) {
      double s = 0.0;
      for (std::size_t r = k; r < m; ++r) s += v[r - k] * a(r, c);
      const double factor = 2.0 * s / vtv;
      for (std::size_t r = k; r < m; ++r) a(r, c) -= factor * v[r - k];
    }
    {
      double s = 0.0;
      for (std::size_t r = k; r < m; ++r) s += v[r - k] * b[r];
      const double factor = 2.0 * s / vtv;
      for (std::size_t r = k; r < m; ++r) b[r] -= factor * v[r - k];
    }

    max_diag = std::max(max_diag, std::abs(a(k, k)));
    // Downdate remaining column norms.
    for (std::size_t c = k + 1; c < n; ++c) {
      col_norms[c] -= a(k, c) * a(k, c);
      if (col_norms[c] < 0.0) col_norms[c] = 0.0;
    }
  }

  // Determine numerical rank from the R diagonal.
  const double tol = max_diag * 1e-12 * static_cast<double>(std::max(m, n));
  std::size_t eff_rank = 0;
  for (std::size_t k = 0; k < rank; ++k) {
    if (std::abs(a(k, k)) > tol) {
      ++eff_rank;
    } else {
      break;
    }
  }

  // Back substitution on the leading eff_rank x eff_rank triangle.
  Vector z(n, 0.0);
  for (std::size_t ii = eff_rank; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t c = ii + 1; c < eff_rank; ++c) s -= a(ii, c) * z[c];
    z[ii] = s / a(ii, ii);
  }

  // Undo the permutation.
  Vector x(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) x[perm[k]] = z[k];
  return x;
}

}  // namespace

Vector least_squares(const Matrix& a, const Vector& b) {
  VMINCQR_CHECK_SHAPE(a.rows() == b.size(),
                      "least_squares: dimension mismatch");
  VMINCQR_CHECK_FINITE(a, "least_squares: design matrix");
  VMINCQR_CHECK_FINITE(b, "least_squares: rhs");
  if (a.cols() == 0) return {};
  return qr_least_squares(a, b);
}

Vector ridge_solve(const Matrix& a, const Vector& b, double lambda) {
  VMINCQR_REQUIRE(lambda >= 0.0, "ridge_solve: lambda must be >= 0");
  VMINCQR_CHECK_SHAPE(a.rows() == b.size(), "ridge_solve: dimension mismatch");
  // Exact-zero lambda is the documented "no ridge" sentinel.
  if (lambda == 0.0) return least_squares(a, b);
  Matrix g = gram(a);
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += lambda;
  return solve_spd(g, transpose_matvec(a, b));
}

double log_det_from_cholesky(const Matrix& l) {
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

}  // namespace vmincqr::linalg
