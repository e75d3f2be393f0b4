// Helpers shared by the tile-kernel tests: the kernel variants this CPU
// runs, bitwise comparison, and a plain GEMM through the packed kernels.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "precision/mixed_gemm.hpp"
#include "precision/simd_kernels.hpp"

namespace mpgeo {

/// Every kernel variant this CPU can run, Portable first.
inline std::vector<KernelVariant> available_variants() {
  std::vector<KernelVariant> out;
  for (const KernelVariant v : {KernelVariant::Portable, KernelVariant::Avx2,
                                KernelVariant::Avx512}) {
    if (kernel_variant_available(v)) out.push_back(v);
  }
  return out;
}

/// Bitwise equality; any two NaNs match (NaN payloads are not part of the
/// documented rounding: F16C and the software binary16 converter quiet NaNs
/// differently).
template <class T>
bool same_bits(T a, T b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// C := A * B + beta * C at `prec` (A m x k, B k x n, C m x n, column-major
/// and unpadded) through the tile kernels' path: pack_gemm_operand, then the
/// dispatching mixed_gemm_packed.
inline void packed_product(Precision prec, std::size_t m, std::size_t n,
                           std::size_t k, const double* a, const double* b,
                           double beta, double* c) {
  const auto run = [&](auto zero) {
    std::vector<decltype(zero)> ap, bp;
    pack_gemm_operand('N', m, k, a, m, prec, ap);
    pack_gemm_operand('T', n, k, b, k, prec, bp);  // op(B)^T = B^T
    mixed_gemm_packed(prec, m, n, k, 1.0, ap.data(), bp.data(), beta, c, m);
  };
  if (prec == Precision::FP64) {
    run(0.0);
  } else {
    run(0.0f);
  }
}

}  // namespace mpgeo
