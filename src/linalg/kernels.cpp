#include "linalg/kernels.hpp"

namespace vmincqr::linalg {
namespace {

/// Rows of A processed together: one pass over a B row (or x) feeds this
/// many output rows, cutting B/x traffic by the block factor while leaving
/// every per-element accumulation order untouched.
constexpr std::size_t kRowBlock = 4;

}  // namespace

// Blocking here only re-uses loads; each c(i, j) still receives its k-terms
// in ascending k starting from the caller's initial value, with the exact
// same `a(i, k) == 0.0` skips as the scalar reference (a skipped term is not
// a no-op in IEEE: x + 0.0 flips -0.0 to +0.0, so skips must match).

void gemm(std::size_t m, std::size_t k, std::size_t n, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc) {
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t i1 = i0 + kRowBlock < m ? i0 + kRowBlock : m;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double* brow = b + kk * ldb;
      for (std::size_t i = i0; i < i1; ++i) {
        const double aik = a[i * lda + kk];
        // Sparsity fast path: skipping an exact zero is lossless.
        if (aik == 0.0) continue;
        double* crow = c + i * ldc;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

void gemm_at(std::size_t m, std::size_t k, std::size_t n, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) {
  // c(kk, j) accumulates over samples i in ascending order, skipping terms
  // whose B factor is exactly zero — the order and skip-set of the scalar
  // gradient loops this replaces (MLP backward skips dh == 0 samples).
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    const double* brow = b + i * ldb;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      double* crow = c + kk * ldc;
      for (std::size_t j = 0; j < n; ++j) {
        const double bij = brow[j];
        // Sparsity fast path: skipping an exact zero is lossless.
        if (bij == 0.0) continue;
        crow[j] += aik * bij;
      }
    }
  }
}

void gemv(std::size_t m, std::size_t n, const double* a, std::size_t lda,
          const double* x, double* y) {
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t i1 = i0 + kRowBlock < m ? i0 + kRowBlock : m;
    double acc[kRowBlock] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t rows = i1 - i0;
    for (std::size_t j = 0; j < n; ++j) {
      const double xj = x[j];
      for (std::size_t r = 0; r < rows; ++r) {
        acc[r] += a[(i0 + r) * lda + j] * xj;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) y[i0 + r] = acc[r];
  }
}

double dot_kernel(std::size_t n, const double* a, const double* b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void row_sq_dists(const double* a, std::size_t d, const double* b,
                  std::size_t ldb, std::size_t nb, double* out) {
  for (std::size_t j0 = 0; j0 < nb; j0 += kRowBlock) {
    const std::size_t j1 = j0 + kRowBlock < nb ? j0 + kRowBlock : nb;
    double acc[kRowBlock] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t rows = j1 - j0;
    for (std::size_t c = 0; c < d; ++c) {
      const double ac = a[c];
      for (std::size_t r = 0; r < rows; ++r) {
        const double diff = ac - b[(j0 + r) * ldb + c];
        acc[r] += diff * diff;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) out[j0 + r] = acc[r];
  }
}

}  // namespace vmincqr::linalg
