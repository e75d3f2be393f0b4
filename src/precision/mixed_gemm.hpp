// Emulation of tensor-core GEMM numerics on CPU.
//
// Computes C = alpha * op(A) * op(B) + beta * C on column-major buffers
// (pack_gemm_operand lays out and input-rounds op(A) and op(B)^T,
// mixed_gemm_packed multiplies them) with the rounding semantics of each
// Precision:
//
//   FP64     — IEEE double throughout.
//   FP32     — inputs, products and accumulation in IEEE float.
//   TF32     — inputs rounded to 10-bit mantissa, FP32 accumulation
//              (Ampere/Hopper TF32 mode).
//   BF16_32  — inputs rounded to bfloat16, FP32 accumulation.
//   FP16_32  — inputs rounded to binary16, FP32 accumulation.
//   FP16     — inputs rounded to binary16; products exact, accumulated into a
//              binary16 running sum per 4-wide block-FMA step, matching the
//              tensor-core model of Blanchard et al. (SISC 2020).
//
// Every output element's operation sequence is fixed, whichever kernel
// variant (precision/simd_kernels.hpp) runs it. With acc the running sum,
// p ascending over the inner dimension and x, y the input-rounded operands:
//
//   FP64                  acc = acc + x*y in double (multiply, then add).
//   FP32                  acc = acc + x*y in float (multiply, then add).
//   TF32/BF16_32/FP16_32  acc = fma(x, y, acc) in float: the product of two
//                         inputs of at most 11 significant bits is exact, so
//                         the fused form is the FP32 accumulation of exact
//                         products.
//   FP16                  per block of 4 products, s = fma(x, y, s) in
//                         double from s = acc (binary16 products are exact
//                         in double), then acc = through_half(s); a trailing
//                         partial block rounds the same way.
//
// and finally out = alpha*acc + beta*c in double, rounded to the output
// format (float below FP64, through_half for FP16).
//
// All entry points take double buffers: callers materialize tile storage to
// double (exact) and the emulation applies the format's rounding. Operand
// preparation (layout + input rounding) is split out so the operand cache
// can hoist it: `pack_gemm_operand` produces the packs `mixed_gemm_packed`
// consumes, in the column-major layout of the cache's Widened entries.
#pragma once

#include <cstddef>
#include <vector>

#include "precision/precision.hpp"
#include "precision/simd_kernels.hpp"

namespace mpgeo {

/// Pack op(X) — rows x k; X is rows x k (ld `ldx`) for trans 'N', k x rows
/// for 'T' — column-major into `out` (leading dimension `rows`), rounded to
/// the input format of `prec`. GEMM reads A as op(A) (m x k) and B as
/// op(B)^T (n x k) in this layout. T is double, or float for sub-FP64
/// `prec` (input-rounded values are exactly float-representable).
template <class T>
void pack_gemm_operand(char trans, std::size_t rows, std::size_t k,
                       const double* x, std::size_t ldx, Precision prec,
                       std::vector<T>& out);

/// C := alpha * A * B^T + beta * C over packed operands: `a` is m x k and
/// `b` is n x k, both column-major with leading dimension equal to their row
/// count (pack_gemm_operand's output, or an operand-cache Widened entry
/// holding the same bytes); C is m x n with leading dimension ldc. Double
/// packs carry FP64 operands, float packs input-rounded sub-FP64 operands.
/// Runs active_kernel_variant() (precision/simd_kernels.hpp).
void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const double* a,
                       const double* b, double beta, double* c,
                       std::size_t ldc);
void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const float* a,
                       const float* b, double beta, double* c,
                       std::size_t ldc);

/// mixed_gemm_packed on kernel variant `v`, which must be available on this
/// CPU (kernel_variant_available). Tests and benchmarks run every variant
/// through these; the overloads above run active_kernel_variant().
void mixed_gemm_packed(KernelVariant v, Precision prec, std::size_t m,
                       std::size_t n, std::size_t k, double alpha,
                       const double* a, const double* b, double beta,
                       double* c, std::size_t ldc);
void mixed_gemm_packed(KernelVariant v, Precision prec, std::size_t m,
                       std::size_t n, std::size_t k, double alpha,
                       const float* a, const float* b, double beta, double* c,
                       std::size_t ldc);

/// Number of flops a GEMM of these dimensions performs (2mnk + 2mn for the
/// beta/alpha application), used by benchmarks.
double gemm_flops(std::size_t m, std::size_t n, std::size_t k);

}  // namespace mpgeo
