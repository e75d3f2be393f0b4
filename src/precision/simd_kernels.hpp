// Kernel variants of the dense tile kernels (mixed_gemm, TRSM, SYRK) and the
// once-per-process choice between them.
//
// Neither the repo build nor any package that compiles src/ passes -march,
// so vector code cannot be enabled at build time. The AVX2 kernels below
// carry function-level target attributes instead, and the dispatching entry
// points (mixed_gemm_packed, trsm_right_lower_trans, syrk_lower_notrans) run
// them when cpuid reports AVX2, FMA and F16C. Both variants perform every
// output element's operation sequence exactly (mixed_gemm.hpp documents the
// GEMM sequences; TRSM and SYRK follow their textbook loops in blas.cpp), so
// the choice never changes a result bit. Tests run each variant the CPU
// offers against one-accumulator-per-output oracles.
#pragma once

#include <cstddef>
#include <cstdint>

#include "precision/precision.hpp"

namespace mpgeo {

enum class KernelVariant : std::uint8_t {
  /// One accumulator per output element; runs on any CPU. The fallback, and
  /// the loop the vector kernels are checked against.
  Portable,
  /// AVX2+FMA+F16C micro-kernels: a tile's rows across vector lanes, its
  /// columns register-blocked.
  Avx2,
};

/// True when this CPU can run `v` (always for Portable).
bool kernel_variant_available(KernelVariant v);

/// The variant the dispatching kernels run: Avx2 when available, else
/// Portable. Decided on first use and fixed for the life of the process.
KernelVariant active_kernel_variant();

/// "portable" or "avx2".
const char* to_string(KernelVariant v);

// The AVX2 kernels, callable only when kernel_variant_available(Avx2).
// Contracts match the dispatching functions of the same name.
namespace avx2 {

/// See mpgeo::mixed_gemm_packed.
void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const double* a,
                       const double* b, double beta, double* c,
                       std::size_t ldc);
void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const float* a,
                       const float* b, double beta, double* c,
                       std::size_t ldc);

/// See mpgeo::trsm_right_lower_trans (double and float).
template <class T>
void trsm_right_lower_trans(std::size_t m, std::size_t n, T alpha, const T* l,
                            std::size_t ldl, T* b, std::size_t ldb);

/// See mpgeo::syrk_lower_notrans. Double only: the tile Cholesky's SYRK is
/// FP64 (the paper's DSYRK), so float SYRK stays on the portable loop.
void syrk_lower_notrans(std::size_t n, std::size_t k, double alpha,
                        const double* a, std::size_t lda, double beta,
                        double* c, std::size_t ldc);

}  // namespace avx2
}  // namespace mpgeo
