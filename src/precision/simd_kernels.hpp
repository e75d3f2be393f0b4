// Kernel variants of the dense tile kernels (mixed_gemm_packed, TRSM, SYRK,
// POTRF) and the once-per-process choice between them.
//
// Neither the repo build nor any package that compiles src/ passes -march,
// so vector code cannot be enabled at build time. The vector kernels carry
// function-level target attributes instead: one register-blocked body
// (simd_kernels.inc) compiled once per ISA, AVX2 with 2x4 accumulator blocks
// and AVX-512 with 3x8. The dispatching entry points (mixed_gemm_packed,
// trsm_right_lower_trans, syrk_lower_notrans, potrf_lower) run the widest
// variant cpuid reports. Every variant performs every output element's
// operation sequence exactly (mixed_gemm.hpp documents the GEMM sequences;
// TRSM, SYRK and POTRF follow their scalar loops in blas.cpp), so the choice
// never changes a result bit. Tests run each variant the CPU offers against
// one-accumulator-per-output oracles.
#pragma once

#include <cstddef>
#include <cstdint>

#include "precision/precision.hpp"

namespace mpgeo {

enum class KernelVariant : std::uint8_t {
  /// One accumulator per output element; runs on any CPU. The fallback, and
  /// the loop the vector kernels are checked against.
  Portable,
  /// AVX2+FMA+F16C micro-kernels: a tile's rows across 256-bit lanes, 2 row
  /// vectors by 4 columns of accumulators.
  Avx2,
  /// AVX-512 (F, DQ, VL) micro-kernels on the same body: 512-bit lanes, 3 row
  /// vectors by 8 columns of accumulators.
  Avx512,
};

/// True when this CPU can run `v` (always for Portable).
bool kernel_variant_available(KernelVariant v);

/// The variant the dispatching kernels run: the first available of Avx512,
/// Avx2 and Portable. Decided on first use and fixed for the life of the
/// process.
KernelVariant active_kernel_variant();

/// "portable", "avx2" or "avx512".
const char* to_string(KernelVariant v);

// The vector kernels, one namespace per ISA, callable only when
// kernel_variant_available() holds for that variant. Contracts match the
// dispatching functions of the same name, minus their argument checks.
#define MPGEO_VECTOR_KERNELS                                                  \
  /* See mpgeo::mixed_gemm_packed. */                                         \
  void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,        \
                         std::size_t k, double alpha, const double* a,        \
                         const double* b, double beta, double* c,             \
                         std::size_t ldc);                                    \
  void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,        \
                         std::size_t k, double alpha, const float* a,         \
                         const float* b, double beta, double* c,              \
                         std::size_t ldc);                                    \
  /* See mpgeo::trsm_right_lower_trans (double and float). */                 \
  template <class T>                                                          \
  void trsm_right_lower_trans(std::size_t m, std::size_t n, T alpha,          \
                              const T* l, std::size_t ldl, T* b,              \
                              std::size_t ldb);                               \
  /* See mpgeo::syrk_lower_notrans. */                                        \
  void syrk_lower_notrans(std::size_t n, std::size_t k, double alpha,         \
                          const double* a, std::size_t lda, double beta,      \
                          double* c, std::size_t ldc);                        \
  /* See mpgeo::potrf_lower (double). */                                      \
  int potrf_lower(std::size_t n, double* a, std::size_t lda);

namespace avx2 {
MPGEO_VECTOR_KERNELS
}  // namespace avx2

namespace avx512 {
MPGEO_VECTOR_KERNELS
}  // namespace avx512

#undef MPGEO_VECTOR_KERNELS

}  // namespace mpgeo
