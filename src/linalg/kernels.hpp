// Blocked, register-tiled dense micro-kernels — the compute core the
// predict/fit hot cones dispatch onto.
//
// Blocking only changes WHICH loads are shared between output elements,
// never the per-element floating-point summation order: out(i, j) still
// accumulates its k-terms in ascending k, exactly like the scalar loops
// these kernels replaced. Results are bit-identical to that reference and
// thread-count invariant (the invariance battery and the pinned digests in
// tests/parallel_invariance_test.cpp gate this).
#pragma once

#include <cstddef>
#include <cstdint>

namespace vmincqr::linalg {

// Compatibility shim: the e2ebench refit replay still constructs
// `KernelPolicyGuard(config.kernel_policy)`. The kernels have one numeric
// path, so the enum has one value and the guard does nothing. Both go with
// the ROADMAP "stage spans" item, which deletes that replay.
enum class KernelPolicy : std::uint8_t { kBitExact };

class KernelPolicyGuard {
 public:
  explicit KernelPolicyGuard(KernelPolicy /*policy*/) noexcept {}
};

// --- micro-kernels ---------------------------------------------------------
//
// All matrices are dense row-major with explicit leading dimensions, so the
// kernels slice blocks out of larger matrices without copies. No bounds
// checks (hot path); callers own shape validation.

/// C(m x n, ldc) += A(m x k, lda) * B(k x n, ldb). C must be initialized by
/// the caller (zeros, or a bias row — whatever the reference scalar loop
/// started from). Preserves the classic i-k-j per-element order including
/// the exact-zero skip on A entries.
void gemm(std::size_t m, std::size_t k, std::size_t n, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc);

/// C(k x n, ldc) += A(m x k, lda)^T * B(m x n, ldb) — the gradient-side
/// kernel (accumulating X^T * dL without materializing the transpose). Per
/// output element the m-terms accumulate in ascending m, skipping exact-zero
/// B entries.
void gemm_at(std::size_t m, std::size_t k, std::size_t n, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc);

/// y(m) = A(m x n, lda) * x(n), overwriting y; each row keeps its
/// ascending-j dot order.
void gemv(std::size_t m, std::size_t n, const double* a, std::size_t lda,
          const double* x, double* y);

/// Ascending-order dot product (the reference semantics of linalg::dot).
[[nodiscard]] double dot_kernel(std::size_t n, const double* a,
                                const double* b);

/// out[j] = squared Euclidean distance between row `a` (length d) and row j
/// of B(nb x d, ldb), for j in [0, nb). Each pair's d-terms accumulate in
/// ascending order (the row_sq_dist reference).
void row_sq_dists(const double* a, std::size_t d, const double* b,
                  std::size_t ldb, std::size_t nb, double* out);

}  // namespace vmincqr::linalg
