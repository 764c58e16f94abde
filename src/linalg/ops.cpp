#include "linalg/ops.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "linalg/kernels.hpp"

namespace vmincqr::linalg {

Matrix matmul(const Matrix& a, const Matrix& b) {
  VMINCQR_CHECK_SHAPE(a.cols() == b.rows(), "matmul: " + shape_string(a) +
                                                 " * " + shape_string(b));
  Matrix out(a.rows(), b.cols(), 0.0);
  // The kernel keeps the classic i-k-j per-element order and the lossless
  // exact-zero skip on A, so it matches the old scalar loop bit for bit.
  gemm(a.rows(), a.cols(), b.cols(), a.row_ptr(0), a.cols(), b.row_ptr(0),
       b.cols(), out.row_ptr(0), out.cols());
  return out;
}

Vector matvec(const Matrix& a, const Vector& x) {
  VMINCQR_CHECK_SHAPE(a.cols() == x.size(),
                      "matvec: " + shape_string(a) + " * vector of " +
                          std::to_string(x.size()));
  Vector out(a.rows(), 0.0);
  // Per-row ascending-j accumulation, as the old loop.
  gemv(a.rows(), a.cols(), a.row_ptr(0), a.cols(), x.data(), out.data());
  return out;
}

Matrix gram(const Matrix& a) {
  Matrix out(a.cols(), a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_ptr(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double ri = row[i];
      // Sparsity fast path: skipping an exact zero is lossless.
      if (ri == 0.0) continue;  // vmincqr-lint: allow(float-equality)
      double* orow = out.row_ptr(i);
      for (std::size_t j = i; j < a.cols(); ++j) orow[j] += ri * row[j];
    }
  }
  // Mirror the upper triangle.
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) out(j, i) = out(i, j);
  }
  return out;
}

Vector transpose_matvec(const Matrix& a, const Vector& y) {
  VMINCQR_CHECK_SHAPE(a.rows() == y.size(),
                      "transpose_matvec: dimension mismatch");
  Vector out(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double yr = y[r];
    // Sparsity fast path: skipping an exact zero is lossless.
    if (yr == 0.0) continue;  // vmincqr-lint: allow(float-equality)
    const double* row = a.row_ptr(r);
    for (std::size_t c = 0; c < a.cols(); ++c) out[c] += yr * row[c];
  }
  return out;
}

double dot(const Vector& a, const Vector& b) {
  VMINCQR_CHECK_SHAPE(a.size() == b.size(), "dot: length mismatch");
  // Single ascending-order accumulator, as the old loop.
  return dot_kernel(a.size(), a.data(), b.data());
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

Vector add(const Vector& a, const Vector& b) {
  VMINCQR_CHECK_SHAPE(a.size() == b.size(), "add: length mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(const Vector& a, const Vector& b) {
  VMINCQR_CHECK_SHAPE(a.size() == b.size(), "sub: length mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(const Vector& v, double s) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] * s;
  return out;
}

void axpy(double s, const Vector& b, Vector& a) {
  VMINCQR_CHECK_SHAPE(a.size() == b.size(), "axpy: length mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double row_sq_dist(const Matrix& a, std::size_t i, const Matrix& b,
                   std::size_t j) {
  const double* ra = a.row_ptr(i);
  const double* rb = b.row_ptr(j);
  double acc = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    const double d = ra[c] - rb[c];
    acc += d * d;
  }
  return acc;
}

}  // namespace vmincqr::linalg
