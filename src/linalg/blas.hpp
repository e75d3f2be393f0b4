// Typed dense BLAS-3 / LAPACK kernels (double and float instantiations).
//
// These are the "native precision" kernels: FP64 and FP32 execution paths of
// the tile Cholesky, plus the oracles tests compare against. Mixed 16-bit
// GEMM semantics live in precision/mixed_gemm.hpp; this header is classic
// uniform-precision arithmetic.
//
// Naming follows BLAS conventions restricted to the cases tile Cholesky
// needs: lower-triangular, right-side transposed solves, 'N'/'T' GEMM.
#pragma once

#include <cstddef>

#include "precision/simd_kernels.hpp"

namespace mpgeo {

/// In-place lower Cholesky of the leading n x n block (ld-strided, column
/// major). Returns 0 on success, or 1-based index of the first non-positive
/// pivot (matching LAPACK dpotrf's info); the columns before it are then
/// factored, it and the later ones untouched. Per element, for columns j
/// ascending: v = a(i,j); v = v - L(i,p)*L(j,p) for p ascending; the pivot
/// is v at i = j, L(j,j) = sqrt(pivot) and L(i,j) = v / L(j,j) below it.
/// Runs active_kernel_variant() for double, the portable loop for float.
template <class T>
int potrf_lower(std::size_t n, T* a, std::size_t lda);

/// B := alpha * B * inv(L)^T where L is n x n lower triangular (non-unit) and
/// B is m x n. The TRSM flavour used by the tile Cholesky panel update. Per
/// element: v = alpha*b, then v = v - x(i,p)*L(j,p) for p ascending, then
/// x(i,j) = v / L(j,j). Runs active_kernel_variant()
/// (precision/simd_kernels.hpp); every variant keeps that sequence.
template <class T>
void trsm_right_lower_trans(std::size_t m, std::size_t n, T alpha, const T* l,
                            std::size_t ldl, T* b, std::size_t ldb);

/// X := alpha * inv(L) * X where L is m x m lower triangular and X is m x n.
/// The forward-substitution flavour used to apply Sigma^{-1/2} to vectors.
template <class T>
void trsm_left_lower_notrans(std::size_t m, std::size_t n, T alpha, const T* l,
                             std::size_t ldl, T* x, std::size_t ldx);

/// X := alpha * inv(L)^T * X (backward substitution with the transposed
/// lower factor) — the second half of a Cholesky solve L L^T x = b.
template <class T>
void trsm_left_lower_trans(std::size_t m, std::size_t n, T alpha, const T* l,
                           std::size_t ldl, T* x, std::size_t ldx);

/// Lower triangle of C := alpha * A * A^T + beta * C; A is n x k, C n x n,
/// in double (the tile Cholesky's SYRK is the paper's DSYRK). Per element:
/// acc = acc + a(i,p)*a(j,p) for p ascending from 0, then alpha*acc +
/// beta*c. Runs active_kernel_variant().
void syrk_lower_notrans(std::size_t n, std::size_t k, double alpha,
                        const double* a, std::size_t lda, double beta,
                        double* c, std::size_t ldc);

/// C := alpha * op(A) * op(B) + beta * C (column major, full storage).
template <class T>
void gemm(char transa, char transb, std::size_t m, std::size_t n,
          std::size_t k, T alpha, const T* a, std::size_t lda, const T* b,
          std::size_t ldb, T beta, T* c, std::size_t ldc);

/// y := alpha * A * x + beta * y; A is m x n.
template <class T>
void gemv_notrans(std::size_t m, std::size_t n, T alpha, const T* a,
                  std::size_t lda, const T* x, T beta, T* y);

/// Dot product of length-n vectors.
template <class T>
T dot(std::size_t n, const T* x, const T* y);

/// Frobenius norm of an m x n ld-strided buffer.
template <class T>
double frobenius_norm(std::size_t m, std::size_t n, const T* a, std::size_t lda);

/// Mirror the strictly-lower triangle into the upper one (make symmetric).
template <class T>
void symmetrize_from_lower(std::size_t n, T* a, std::size_t lda);

// potrf_lower (double), trsm_right_lower_trans and syrk_lower_notrans on
// kernel variant `v`, which must be available on this CPU
// (kernel_variant_available). KernelVariant::Portable is the scalar loop:
// the fallback, and the oracle the vector kernels are tested against. Tests
// and benchmarks run every variant through these; the functions above run
// active_kernel_variant().
int potrf_lower(KernelVariant v, std::size_t n, double* a, std::size_t lda);
template <class T>
void trsm_right_lower_trans(KernelVariant v, std::size_t m, std::size_t n,
                            T alpha, const T* l, std::size_t ldl, T* b,
                            std::size_t ldb);
void syrk_lower_notrans(KernelVariant v, std::size_t n, std::size_t k,
                        double alpha, const double* a, std::size_t lda,
                        double beta, double* c, std::size_t ldc);

}  // namespace mpgeo
