#include "precision/mixed_gemm.hpp"

#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "precision/convert.hpp"
#include "precision/float16.hpp"
#include "precision/simd_kernels.hpp"

namespace mpgeo {
namespace {

// One-accumulator policies of the portable kernel, one per operation
// sequence documented in mixed_gemm.hpp. x and y are input-rounded operands
// widened to double, so every product below is exact in double.
//
// AccTC32 rounds the double sum acc + x*y to float: double holds the exact
// product and 53 >= 2*24 + 2 makes the sum's double rounding innocuous, so
// this equals the float fma(x, y, acc) of the vector kernel. AccFP16 keeps
// the pending block sum s = acc + up to 4 products in double and rounds it
// through binary16 (Blanchard, Higham, Lopez, Mary, Pranesh 2020,
// eq. (2.1)); a trailing partial block rounds the same way.
struct AccFP64 {
  double acc = 0.0;
  void step(double x, double y) { acc += x * y; }
  double value() const { return acc; }
};

struct AccFP32 {
  float acc = 0.0f;
  void step(double x, double y) { acc += static_cast<float>(x * y); }
  double value() const { return acc; }
};

struct AccTC32 {
  float acc = 0.0f;
  void step(double x, double y) { acc = static_cast<float>(acc + x * y); }
  double value() const { return acc; }
};

struct AccFP16 {
  double acc = 0.0;   // last block-rounded value
  double s = 0.0;     // pending block sum (acc + up to 4 products)
  unsigned pending = 0;
  void step(double x, double y) {
    if (pending == 0) s = acc;
    s += x * y;
    if (++pending == 4) {
      acc = through_half(s);
      pending = 0;
    }
  }
  double value() const { return pending ? through_half(s) : acc; }
};

// The final scale-and-add happens at the format's output precision.
inline double round_output(Precision prec, double out) {
  switch (prec) {
    case Precision::FP64: return out;
    case Precision::FP16: return through_half(out);
    default: return static_cast<double>(static_cast<float>(out));
  }
}

template <class Acc, class T>
void gemm_one_accumulator(Precision prec, std::size_t m, std::size_t n,
                          std::size_t k, double alpha, const T* a, const T* b,
                          double beta, double* c, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      Acc acc;
      for (std::size_t p = 0; p < k; ++p) {
        acc.step(static_cast<double>(a[i + p * m]),
                 static_cast<double>(b[j + p * n]));
      }
      double& out = c[i + j * ldc];
      out = round_output(prec, alpha * acc.value() + beta * out);
    }
  }
}

template <class T>
void portable_gemm(Precision prec, std::size_t m, std::size_t n, std::size_t k,
                   double alpha, const T* a, const T* b, double beta,
                   double* c, std::size_t ldc) {
  switch (prec) {
    case Precision::FP64:
      return gemm_one_accumulator<AccFP64>(prec, m, n, k, alpha, a, b, beta, c,
                                           ldc);
    case Precision::FP32:
      return gemm_one_accumulator<AccFP32>(prec, m, n, k, alpha, a, b, beta, c,
                                           ldc);
    case Precision::TF32:
    case Precision::BF16_32:
    case Precision::FP16_32:
      return gemm_one_accumulator<AccTC32>(prec, m, n, k, alpha, a, b, beta, c,
                                           ldc);
    case Precision::FP16:
      return gemm_one_accumulator<AccFP16>(prec, m, n, k, alpha, a, b, beta, c,
                                           ldc);
  }
  MPGEO_ASSERT(false);
}

/// Shared argument checks of every mixed_gemm_packed entry point. Double
/// packs carry FP64 operands only, float packs sub-FP64 ones: FP64 operands
/// must not round through float, and the vector kernels read sub-FP64
/// operands as float.
template <class T>
bool packed_args_ok(Precision prec, std::size_t m, std::size_t n,
                    std::size_t ldc) {
  MPGEO_REQUIRE(ldc >= m, "mixed_gemm_packed: ldc too small");
  if constexpr (std::is_same_v<T, double>) {
    MPGEO_REQUIRE(prec == Precision::FP64,
                  "mixed_gemm_packed: double packs carry FP64 operands");
  } else {
    MPGEO_REQUIRE(prec != Precision::FP64,
                  "mixed_gemm_packed: FP64 operands need double packs");
  }
  return m > 0 && n > 0;
}

template <class T>
void run_packed(KernelVariant v, Precision prec, std::size_t m, std::size_t n,
                std::size_t k, double alpha, const T* a, const T* b,
                double beta, double* c, std::size_t ldc) {
  MPGEO_REQUIRE(kernel_variant_available(v),
                "mixed_gemm_packed: kernel variant not available on this CPU");
  if (!packed_args_ok<T>(prec, m, n, ldc)) return;
  switch (v) {
    case KernelVariant::Avx512:
      return avx512::mixed_gemm_packed(prec, m, n, k, alpha, a, b, beta, c,
                                       ldc);
    case KernelVariant::Avx2:
      return avx2::mixed_gemm_packed(prec, m, n, k, alpha, a, b, beta, c, ldc);
    case KernelVariant::Portable:
      return portable_gemm(prec, m, n, k, alpha, a, b, beta, c, ldc);
  }
}

}  // namespace

template <class T>
void pack_gemm_operand(char trans, std::size_t rows, std::size_t k,
                       const double* x, std::size_t ldx, Precision prec,
                       std::vector<T>& out) {
  MPGEO_REQUIRE(trans == 'N' || trans == 'T', "pack_gemm_operand: bad trans");
  MPGEO_REQUIRE(ldx >= (trans == 'N' ? rows : k),
                "pack_gemm_operand: ldx too small");
  out.resize(rows * k);
  if (trans == 'N') {
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t i = 0; i < rows; ++i)
        out[i + p * rows] = static_cast<T>(x[i + p * ldx]);
  } else {
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t p = 0; p < k; ++p)
        out[i + p * rows] = static_cast<T>(x[p + i * ldx]);
  }
  round_inputs(std::span<T>(out), prec);
  count_operand_conversion();
}

template void pack_gemm_operand<double>(char, std::size_t, std::size_t,
                                        const double*, std::size_t, Precision,
                                        std::vector<double>&);
template void pack_gemm_operand<float>(char, std::size_t, std::size_t,
                                       const double*, std::size_t, Precision,
                                       std::vector<float>&);

void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const double* a,
                       const double* b, double beta, double* c,
                       std::size_t ldc) {
  run_packed(active_kernel_variant(), prec, m, n, k, alpha, a, b, beta, c,
             ldc);
}

void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const float* a,
                       const float* b, double beta, double* c,
                       std::size_t ldc) {
  run_packed(active_kernel_variant(), prec, m, n, k, alpha, a, b, beta, c,
             ldc);
}

void mixed_gemm_packed(KernelVariant v, Precision prec, std::size_t m,
                       std::size_t n, std::size_t k, double alpha,
                       const double* a, const double* b, double beta,
                       double* c, std::size_t ldc) {
  run_packed(v, prec, m, n, k, alpha, a, b, beta, c, ldc);
}

void mixed_gemm_packed(KernelVariant v, Precision prec, std::size_t m,
                       std::size_t n, std::size_t k, double alpha,
                       const float* a, const float* b, double beta, double* c,
                       std::size_t ldc) {
  run_packed(v, prec, m, n, k, alpha, a, b, beta, c, ldc);
}

double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(k) +
         2.0 * static_cast<double>(m) * static_cast<double>(n);
}

}  // namespace mpgeo
