#include "linalg/blas.hpp"

#include <cmath>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "precision/simd_kernels.hpp"

namespace mpgeo {

namespace {

// The scalar loops: KernelVariant::Portable, the fallback on CPUs without
// AVX2/FMA/F16C and the oracle the vector kernels are tested against.

template <class T>
int potrf_loop(std::size_t n, T* a, std::size_t lda) {
  for (std::size_t j = 0; j < n; ++j) {
    // a(j,j) -= sum_{p<j} a(j,p)^2
    T diag = a[j + j * lda];
    for (std::size_t p = 0; p < j; ++p) diag -= a[j + p * lda] * a[j + p * lda];
    if (!(diag > T{0})) return static_cast<int>(j) + 1;
    const T ljj = std::sqrt(diag);
    a[j + j * lda] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      T v = a[i + j * lda];
      for (std::size_t p = 0; p < j; ++p) v -= a[i + p * lda] * a[j + p * lda];
      a[i + j * lda] = v / ljj;
    }
  }
  return 0;
}

template <class T>
void trsm_loop(std::size_t m, std::size_t n, T alpha, const T* l,
               std::size_t ldl, T* b, std::size_t ldb) {
  // X L^T = B  =>  for j = 0..n-1:
  //   X(:,j) = (alpha*B(:,j) - sum_{p<j} X(:,p)*L(j,p)) / L(j,j)
  for (std::size_t j = 0; j < n; ++j) {
    const T ljj = l[j + j * ldl];
    for (std::size_t i = 0; i < m; ++i) {
      T v = alpha * b[i + j * ldb];
      for (std::size_t p = 0; p < j; ++p) v -= b[i + p * ldb] * l[j + p * ldl];
      b[i + j * ldb] = v / ljj;
    }
  }
}

void syrk_loop(std::size_t n, std::size_t k, double alpha, const double* a,
               std::size_t lda, double beta, double* c, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += a[i + p * lda] * a[j + p * lda];
      c[i + j * ldc] = alpha * acc + beta * c[i + j * ldc];
    }
  }
}

void require_available(KernelVariant v) {
  MPGEO_REQUIRE(kernel_variant_available(v),
                "kernel variant not available on this CPU");
}

}  // namespace

int potrf_lower(KernelVariant v, std::size_t n, double* a, std::size_t lda) {
  require_available(v);
  MPGEO_REQUIRE(lda >= n || n == 0, "potrf: lda too small");
  switch (v) {
    case KernelVariant::Avx512: return avx512::potrf_lower(n, a, lda);
    case KernelVariant::Avx2: return avx2::potrf_lower(n, a, lda);
    case KernelVariant::Portable: break;
  }
  return potrf_loop(n, a, lda);
}

template <class T>
int potrf_lower(std::size_t n, T* a, std::size_t lda) {
  if constexpr (std::is_same_v<T, double>) {
    return potrf_lower(active_kernel_variant(), n, a, lda);
  } else {
    MPGEO_REQUIRE(lda >= n || n == 0, "potrf: lda too small");
    return potrf_loop(n, a, lda);
  }
}

template <class T>
void trsm_right_lower_trans(KernelVariant v, std::size_t m, std::size_t n,
                            T alpha, const T* l, std::size_t ldl, T* b,
                            std::size_t ldb) {
  require_available(v);
  MPGEO_REQUIRE(ldl >= n || n == 0, "trsm: ldl too small");
  MPGEO_REQUIRE(ldb >= m || m == 0, "trsm: ldb too small");
  for (std::size_t j = 0; j < n; ++j) {
    MPGEO_REQUIRE(l[j + j * ldl] != T{0}, "trsm: singular triangular factor");
  }
  switch (v) {
    case KernelVariant::Avx512:
      return avx512::trsm_right_lower_trans(m, n, alpha, l, ldl, b, ldb);
    case KernelVariant::Avx2:
      return avx2::trsm_right_lower_trans(m, n, alpha, l, ldl, b, ldb);
    case KernelVariant::Portable:
      return trsm_loop(m, n, alpha, l, ldl, b, ldb);
  }
}

template <class T>
void trsm_right_lower_trans(std::size_t m, std::size_t n, T alpha, const T* l,
                            std::size_t ldl, T* b, std::size_t ldb) {
  trsm_right_lower_trans(active_kernel_variant(), m, n, alpha, l, ldl, b, ldb);
}

void syrk_lower_notrans(KernelVariant v, std::size_t n, std::size_t k,
                        double alpha, const double* a, std::size_t lda,
                        double beta, double* c, std::size_t ldc) {
  require_available(v);
  MPGEO_REQUIRE(lda >= n || n == 0, "syrk: lda too small");
  MPGEO_REQUIRE(ldc >= n || n == 0, "syrk: ldc too small");
  switch (v) {
    case KernelVariant::Avx512:
      return avx512::syrk_lower_notrans(n, k, alpha, a, lda, beta, c, ldc);
    case KernelVariant::Avx2:
      return avx2::syrk_lower_notrans(n, k, alpha, a, lda, beta, c, ldc);
    case KernelVariant::Portable:
      return syrk_loop(n, k, alpha, a, lda, beta, c, ldc);
  }
}

void syrk_lower_notrans(std::size_t n, std::size_t k, double alpha,
                        const double* a, std::size_t lda, double beta,
                        double* c, std::size_t ldc) {
  syrk_lower_notrans(active_kernel_variant(), n, k, alpha, a, lda, beta, c,
                     ldc);
}

template <class T>
void trsm_left_lower_notrans(std::size_t m, std::size_t n, T alpha, const T* l,
                             std::size_t ldl, T* x, std::size_t ldx) {
  MPGEO_REQUIRE(ldl >= m || m == 0, "trsm: ldl too small");
  MPGEO_REQUIRE(ldx >= m || m == 0, "trsm: ldx too small");
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      T v = alpha * x[i + j * ldx];
      for (std::size_t p = 0; p < i; ++p) v -= l[i + p * ldl] * x[p + j * ldx];
      const T lii = l[i + i * ldl];
      MPGEO_REQUIRE(lii != T{0}, "trsm: singular triangular factor");
      x[i + j * ldx] = v / lii;
    }
  }
}

template <class T>
void trsm_left_lower_trans(std::size_t m, std::size_t n, T alpha, const T* l,
                           std::size_t ldl, T* x, std::size_t ldx) {
  MPGEO_REQUIRE(ldl >= m || m == 0, "trsm: ldl too small");
  MPGEO_REQUIRE(ldx >= m || m == 0, "trsm: ldx too small");
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t ii = m; ii-- > 0;) {
      T v = alpha * x[ii + j * ldx];
      for (std::size_t p = ii + 1; p < m; ++p) {
        v -= l[p + ii * ldl] * x[p + j * ldx];  // L^T(ii, p) = L(p, ii)
      }
      const T lii = l[ii + ii * ldl];
      MPGEO_REQUIRE(lii != T{0}, "trsm: singular triangular factor");
      x[ii + j * ldx] = v / lii;
    }
  }
}

// Packed + register-tiled GEMM below. Each output element keeps one
// accumulator sweeping p in ascending order, so results are bit-identical
// to the textbook triple loop (no reassociation) — packing only turns the
// `lda`-strided operand walks into stride-1 streams, and the 4-wide register
// tiles reuse each packed column across a block of outputs instead of
// refetching it from cache per element.

/// Problems smaller than this run the unpacked loop: the O(mk + kn) packing
/// pass is pure overhead when the whole working set already fits in L1.
constexpr std::size_t kPackThresholdFlops = 4096;

template <class T>
void gemm(char transa, char transb, std::size_t m, std::size_t n,
          std::size_t k, T alpha, const T* a, std::size_t lda, const T* b,
          std::size_t ldb, T beta, T* c, std::size_t ldc) {
  MPGEO_REQUIRE(transa == 'N' || transa == 'T', "gemm: bad transa");
  MPGEO_REQUIRE(transb == 'N' || transb == 'T', "gemm: bad transb");
  MPGEO_REQUIRE(ldc >= m || m == 0, "gemm: ldc too small");
  auto ea = [&](std::size_t i, std::size_t p) {
    return transa == 'N' ? a[i + p * lda] : a[p + i * lda];
  };
  auto eb = [&](std::size_t p, std::size_t j) {
    return transb == 'N' ? b[p + j * ldb] : b[j + p * ldb];
  };
  if (m * n * k < kPackThresholdFlops) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        T acc{};
        for (std::size_t p = 0; p < k; ++p) acc += ea(i, p) * eb(p, j);
        c[i + j * ldc] = alpha * acc + beta * c[i + j * ldc];
      }
    }
    return;
  }

  // Pack op(A) row-major and op(B) column-major so the micro-kernel streams
  // both operands stride-1 regardless of trans flags (the 'N' case walks A
  // in `lda`-sized strides otherwise, thrashing cache on 256+ tiles).
  thread_local std::vector<T> at, bp;
  at.resize(m * k);
  bp.resize(k * n);
  if (transa == 'N') {
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t i = 0; i < m; ++i) at[p + i * k] = a[i + p * lda];
  } else {
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t p = 0; p < k; ++p) at[p + i * k] = a[p + i * lda];
  }
  if (transb == 'N') {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < k; ++p) bp[p + j * k] = b[p + j * ldb];
  } else {
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j) bp[p + j * k] = b[j + p * ldb];
  }

  // 4x4 register tile: 16 independent accumulators, each packed column of A
  // and B loaded once per p instead of once per output element.
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const T* b0 = &bp[(j + 0) * k];
    const T* b1 = &bp[(j + 1) * k];
    const T* b2 = &bp[(j + 2) * k];
    const T* b3 = &bp[(j + 3) * k];
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const T* a0 = &at[(i + 0) * k];
      const T* a1 = &at[(i + 1) * k];
      const T* a2 = &at[(i + 2) * k];
      const T* a3 = &at[(i + 3) * k];
      T acc[4][4] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const T av[4] = {a0[p], a1[p], a2[p], a3[p]};
        const T bv[4] = {b0[p], b1[p], b2[p], b3[p]};
        for (int r = 0; r < 4; ++r) {
          acc[r][0] += av[r] * bv[0];
          acc[r][1] += av[r] * bv[1];
          acc[r][2] += av[r] * bv[2];
          acc[r][3] += av[r] * bv[3];
        }
      }
      for (int cc = 0; cc < 4; ++cc) {
        for (int r = 0; r < 4; ++r) {
          T& out = c[i + std::size_t(r) + (j + std::size_t(cc)) * ldc];
          out = alpha * acc[r][cc] + beta * out;
        }
      }
    }
    for (; i < m; ++i) {  // row tail: 1x4
      const T* ai = &at[i * k];
      T acc0{}, acc1{}, acc2{}, acc3{};
      for (std::size_t p = 0; p < k; ++p) {
        const T av = ai[p];
        acc0 += av * b0[p];
        acc1 += av * b1[p];
        acc2 += av * b2[p];
        acc3 += av * b3[p];
      }
      c[i + (j + 0) * ldc] = alpha * acc0 + beta * c[i + (j + 0) * ldc];
      c[i + (j + 1) * ldc] = alpha * acc1 + beta * c[i + (j + 1) * ldc];
      c[i + (j + 2) * ldc] = alpha * acc2 + beta * c[i + (j + 2) * ldc];
      c[i + (j + 3) * ldc] = alpha * acc3 + beta * c[i + (j + 3) * ldc];
    }
  }
  for (; j < n; ++j) {  // column tail: m x 1
    const T* bj = &bp[j * k];
    for (std::size_t i = 0; i < m; ++i) {
      const T* ai = &at[i * k];
      T acc{};
      for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      c[i + j * ldc] = alpha * acc + beta * c[i + j * ldc];
    }
  }
}

template <class T>
void gemv_notrans(std::size_t m, std::size_t n, T alpha, const T* a,
                  std::size_t lda, const T* x, T beta, T* y) {
  for (std::size_t i = 0; i < m; ++i) {
    T acc{};
    for (std::size_t j = 0; j < n; ++j) acc += a[i + j * lda] * x[j];
    y[i] = alpha * acc + beta * y[i];
  }
}

template <class T>
T dot(std::size_t n, const T* x, const T* y) {
  T acc{};
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

template <class T>
double frobenius_norm(std::size_t m, std::size_t n, const T* a,
                      std::size_t lda) {
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      const double v = static_cast<double>(a[i + j * lda]);
      acc += v * v;
    }
  return std::sqrt(acc);
}

template <class T>
void symmetrize_from_lower(std::size_t n, T* a, std::size_t lda) {
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i) a[j + i * lda] = a[i + j * lda];
}

// Explicit instantiations for the two native precisions.
#define MPGEO_INSTANTIATE(T)                                                   \
  template int potrf_lower<T>(std::size_t, T*, std::size_t);                   \
  template void trsm_right_lower_trans<T>(std::size_t, std::size_t, T,         \
                                          const T*, std::size_t, T*,           \
                                          std::size_t);                        \
  template void trsm_right_lower_trans<T>(KernelVariant, std::size_t,          \
                                          std::size_t, T, const T*,            \
                                          std::size_t, T*, std::size_t);       \
  template void trsm_left_lower_notrans<T>(std::size_t, std::size_t, T,        \
                                           const T*, std::size_t, T*,          \
                                           std::size_t);                       \
  template void trsm_left_lower_trans<T>(std::size_t, std::size_t, T,          \
                                         const T*, std::size_t, T*,            \
                                         std::size_t);                         \
  template void gemm<T>(char, char, std::size_t, std::size_t, std::size_t, T,  \
                        const T*, std::size_t, const T*, std::size_t, T, T*,   \
                        std::size_t);                                          \
  template void gemv_notrans<T>(std::size_t, std::size_t, T, const T*,         \
                                std::size_t, const T*, T, T*);                 \
  template T dot<T>(std::size_t, const T*, const T*);                          \
  template double frobenius_norm<T>(std::size_t, std::size_t, const T*,        \
                                    std::size_t);                              \
  template void symmetrize_from_lower<T>(std::size_t, T*, std::size_t);

MPGEO_INSTANTIATE(double)
MPGEO_INSTANTIATE(float)
#undef MPGEO_INSTANTIATE

}  // namespace mpgeo
