#include "precision/simd_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MPGEO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace mpgeo {

bool kernel_variant_available(KernelVariant v) {
  switch (v) {
    case KernelVariant::Portable:
      return true;
    case KernelVariant::Avx2:
#ifdef MPGEO_SIMD_X86
      // __builtin_cpu_supports also checks that the OS saves YMM state; the
      // init call makes it safe from static initializers too.
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
             __builtin_cpu_supports("f16c");
#else
      return false;
#endif
  }
  return false;
}

KernelVariant active_kernel_variant() {
  static const KernelVariant v = kernel_variant_available(KernelVariant::Avx2)
                                     ? KernelVariant::Avx2
                                     : KernelVariant::Portable;
  return v;
}

const char* to_string(KernelVariant v) {
  return v == KernelVariant::Avx2 ? "avx2" : "portable";
}

namespace avx2 {

#ifdef MPGEO_SIMD_X86

namespace {

// Everything that touches a 256-bit vector carries the target attribute;
// the rest of the library is compiled for the baseline ISA. The build's
// -ffp-contract=off keeps GCC from fusing the explicit multiply-then-add
// sequences below into FMAs inside these FMA-enabled functions.
#define MPGEO_AVX2 __attribute__((target("avx2,fma,f16c")))
#define MPGEO_AVX2_INLINE \
  __attribute__((target("avx2,fma,f16c"), always_inline)) inline

// Blocking shared by all kernels: MR vectors of rows by NR columns of
// accumulators (8 of the 16 ymm registers), packed operand blocks so the
// inner loop streams both operands stride-1 whatever the leading dimension.
constexpr int kMR = 2;
constexpr int kNR = 4;

alignas(32) constexpr long long kLaneMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

/// Mask of the first n (0..4) 64-bit lanes.
MPGEO_AVX2_INLINE __m256i first_lanes(int n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMask + 4 - n));
}

/// through_half on 4 doubles: round to float, then to binary16 with F16C,
/// then widen back — the scalar through_half's two roundings. Equal to it
/// bit for bit except in NaN payloads.
MPGEO_AVX2_INLINE __m256d through_half4(__m256d v) {
  const __m128i h =
      _mm_cvtps_ph(_mm256_cvtpd_ps(v), _MM_FROUND_TO_NEAREST_INT);
  return _mm256_cvtps_pd(_mm_cvtph_ps(h));
}

// GEMM policies, one per operation sequence of mixed_gemm.hpp. `Pack` is the
// element type of the packed blocks, `Vec` the accumulator; `step` is one
// p-step of one output lane, `block_round` ends an FP16 block of kBlock
// steps (kBlock 0: no blocks), `to_quads` widens an accumulator to doubles
// for the epilogue and `round_out` rounds an output to the format. Fp64 and
// Fp32 also serve TRSM as the double and float lane types.
struct Fp64 {
  using Pack = double;
  using Vec = __m256d;
  static constexpr int kLanes = 4;
  static constexpr std::size_t kBlock = 0;
  MPGEO_AVX2_INLINE static Vec zero() { return _mm256_setzero_pd(); }
  MPGEO_AVX2_INLINE static Vec load(const Pack* p) {
    return _mm256_loadu_pd(p);
  }
  MPGEO_AVX2_INLINE static Vec bcast(const Pack* p) {
    return _mm256_broadcast_sd(p);
  }
  MPGEO_AVX2_INLINE static void store(Pack* p, Vec v) {
    _mm256_storeu_pd(p, v);
  }
  MPGEO_AVX2_INLINE static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  MPGEO_AVX2_INLINE static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  MPGEO_AVX2_INLINE static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  MPGEO_AVX2_INLINE static Vec step(Vec acc, Vec x, Vec y) {
    return _mm256_add_pd(acc, _mm256_mul_pd(x, y));
  }
  MPGEO_AVX2_INLINE static Vec block_round(Vec v) { return v; }
  MPGEO_AVX2_INLINE static void to_quads(Vec v, __m256d* q) { q[0] = v; }
  MPGEO_AVX2_INLINE static __m256d round_out(__m256d v) { return v; }
};

struct Fp32 {
  using Pack = float;
  using Vec = __m256;
  static constexpr int kLanes = 8;
  static constexpr std::size_t kBlock = 0;
  MPGEO_AVX2_INLINE static Vec zero() { return _mm256_setzero_ps(); }
  MPGEO_AVX2_INLINE static Vec load(const Pack* p) {
    return _mm256_loadu_ps(p);
  }
  MPGEO_AVX2_INLINE static Vec bcast(const Pack* p) {
    return _mm256_broadcast_ss(p);
  }
  MPGEO_AVX2_INLINE static void store(Pack* p, Vec v) {
    _mm256_storeu_ps(p, v);
  }
  MPGEO_AVX2_INLINE static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  MPGEO_AVX2_INLINE static Vec sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  MPGEO_AVX2_INLINE static Vec div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  MPGEO_AVX2_INLINE static Vec step(Vec acc, Vec x, Vec y) {
    return _mm256_add_ps(acc, _mm256_mul_ps(x, y));
  }
  MPGEO_AVX2_INLINE static Vec block_round(Vec v) { return v; }
  MPGEO_AVX2_INLINE static void to_quads(Vec v, __m256d* q) {
    q[0] = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    q[1] = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }
  MPGEO_AVX2_INLINE static __m256d round_out(__m256d v) {
    return _mm256_cvtps_pd(_mm256_cvtpd_ps(v));
  }
};

/// TF32/BF16_32/FP16_32: FP32 accumulation of exact products, fused.
struct Tc32 : Fp32 {
  MPGEO_AVX2_INLINE static Vec step(Vec acc, Vec x, Vec y) {
    return _mm256_fmadd_ps(x, y, acc);
  }
};

/// FP16: binary16 operands widened to double when packed, block sums in
/// double (exact products, so fused), each block rounded through binary16.
struct Fp16 : Fp64 {
  static constexpr std::size_t kBlock = 4;
  MPGEO_AVX2_INLINE static Vec step(Vec acc, Vec x, Vec y) {
    return _mm256_fmadd_pd(x, y, acc);
  }
  MPGEO_AVX2_INLINE static Vec block_round(Vec v) { return through_half4(v); }
  MPGEO_AVX2_INLINE static __m256d round_out(__m256d v) {
    return through_half4(v);
  }
};

/// Grow-only per-thread scratch holding a kernel's packed blocks. Every
/// kernel instantiation shares it — one runs at a time on a thread — so a
/// worker keeps one buffer rather than one per precision and element type.
std::byte* scratch_bytes(std::size_t bytes) {
  thread_local std::vector<std::byte> buf;
  if (buf.size() < bytes) buf.resize(bytes);
  return buf.data();
}

/// Pack rows [0, rows) of the column-major block at `a` into out[p*R + r],
/// zero-padding rows [rows, R).
template <class Pack, class Src>
MPGEO_AVX2 void pack_rows(const Src* a, std::size_t lda, std::size_t rows,
                          std::size_t k, std::size_t R, Pack* out) {
  for (std::size_t p = 0; p < k; ++p) {
    const Src* col = a + p * lda;
    Pack* o = out + p * R;
    for (std::size_t r = 0; r < rows; ++r) o[r] = static_cast<Pack>(col[r]);
    for (std::size_t r = rows; r < R; ++r) o[r] = Pack(0);
  }
}

/// Pack the n rows of the column-major `b` as panels of kNR rows:
/// out[(jb*k + p)*kNR + c] = b(jb*kNR + c, p), zero past n.
template <class Pack, class Src>
MPGEO_AVX2 void pack_panels(const Src* b, std::size_t ldb, std::size_t n,
                            std::size_t k, Pack* out) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
    const std::size_t cols = std::min<std::size_t>(kNR, n - j0);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t c = 0; c < std::size_t(kNR); ++c) {
        out[p * kNR + c] =
            c < cols ? static_cast<Pack>(b[j0 + c + p * ldb]) : Pack(0);
      }
    }
    out += k * kNR;
  }
}

/// The micro-kernel: acc[r][c] runs every p-step of the outputs in row
/// vector r of the packed row block `ap` and column c of the panel `bp`.
template <class P>
MPGEO_AVX2_INLINE void accumulate(std::size_t k, const typename P::Pack* ap,
                                  const typename P::Pack* bp,
                                  typename P::Vec (&acc)[kMR][kNR]) {
  constexpr std::size_t R = kMR * P::kLanes;
#pragma GCC unroll 8
  for (int r = 0; r < kMR; ++r) {
#pragma GCC unroll 8
    for (int c = 0; c < kNR; ++c) acc[r][c] = P::zero();
  }
  const std::size_t block = P::kBlock ? P::kBlock : k;
  for (std::size_t p0 = 0; p0 < k; p0 += block) {
    const std::size_t end = std::min(k, p0 + block);
    for (std::size_t p = p0; p < end; ++p) {
      typename P::Vec x[kMR];
#pragma GCC unroll 8
      for (int r = 0; r < kMR; ++r) x[r] = P::load(ap + p * R + r * P::kLanes);
#pragma GCC unroll 8
      for (int c = 0; c < kNR; ++c) {
        const typename P::Vec y = P::bcast(bp + p * kNR + c);
#pragma GCC unroll 8
        for (int r = 0; r < kMR; ++r) acc[r][c] = P::step(acc[r][c], x[r], y);
      }
    }
    if constexpr (P::kBlock != 0) {
#pragma GCC unroll 8
      for (int r = 0; r < kMR; ++r) {
#pragma GCC unroll 8
        for (int c = 0; c < kNR; ++c) acc[r][c] = P::block_round(acc[r][c]);
      }
    }
  }
}

/// c[l] = round_out(alpha*q[l] + beta*c[l]) for lanes l in [lo, hi).
template <class P>
MPGEO_AVX2_INLINE void finish_quad(__m256d q, double* c, int lo, int hi,
                                   __m256d alpha, __m256d beta) {
  if (lo == 0 && hi == 4) {
    const __m256d cv = _mm256_loadu_pd(c);
    _mm256_storeu_pd(c, P::round_out(_mm256_add_pd(
                            _mm256_mul_pd(alpha, q), _mm256_mul_pd(beta, cv))));
    return;
  }
  const __m256i mask = _mm256_andnot_si256(first_lanes(lo), first_lanes(hi));
  const __m256d cv = _mm256_maskload_pd(c, mask);
  _mm256_maskstore_pd(c, mask,
                      P::round_out(_mm256_add_pd(_mm256_mul_pd(alpha, q),
                                                 _mm256_mul_pd(beta, cv))));
}

/// C := alpha * A * B^T + beta * C with A m x k (lda), B n x k (ldb); with
/// `lower`, only elements i >= j are computed and stored (SYRK).
template <class P, class Src>
MPGEO_AVX2 void gemm_blocked(std::size_t m, std::size_t n, std::size_t k,
                             double alpha, const Src* a, std::size_t lda,
                             const Src* b, std::size_t ldb, double beta,
                             double* c, std::size_t ldc, bool lower) {
  using Pack = typename P::Pack;
  constexpr std::size_t R = kMR * P::kLanes;
  constexpr int kQuads = P::kLanes / 4;
  // Scratch: B as kNR-row panels, then one row block of A.
  const std::size_t panels = (n + kNR - 1) / kNR;
  Pack* const bpack = reinterpret_cast<Pack*>(
      scratch_bytes((panels * kNR + R) * k * sizeof(Pack)));
  Pack* const apack = bpack + panels * kNR * k;
  pack_panels(b, ldb, n, k, bpack);
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vb = _mm256_set1_pd(beta);
  for (std::size_t i0 = 0; i0 < m; i0 += R) {
    const std::size_t rows = std::min(R, m - i0);
    pack_rows(a + i0, lda, rows, k, R, apack);
    for (std::size_t jb = 0; jb < panels; ++jb) {
      const std::size_t j0 = jb * kNR;
      if (lower && j0 >= i0 + rows) break;  // the rest lies above the diagonal
      typename P::Vec acc[kMR][kNR];
      accumulate<P>(k, apack, bpack + jb * k * kNR, acc);
      const int cols = int(std::min<std::size_t>(kNR, n - j0));
#pragma GCC unroll 8
      for (int cc = 0; cc < kNR; ++cc) {
        if (cc >= cols) break;
        const std::size_t j = j0 + std::size_t(cc);
        const int first = lower && j > i0 ? int(j - i0) : 0;
        double* cj = c + i0 + j * ldc;
#pragma GCC unroll 8
        for (int r = 0; r < kMR; ++r) {
          __m256d q[kQuads];
          P::to_quads(acc[r][cc], q);
#pragma GCC unroll 8
          for (int g = 0; g < kQuads; ++g) {
            const int base = r * P::kLanes + 4 * g;
            const int lo = std::max(first - base, 0);
            const int hi = std::min(int(rows) - base, 4);
            if (lo < hi) finish_quad<P>(q[g], cj + base, lo, hi, va, vb);
          }
        }
      }
    }
  }
}

/// X * L^T = alpha * B in place, row blocks of R rows solved in a packed
/// copy. Per element: v = alpha*b; v = v - x(i,p)*L(j,p) for p ascending;
/// x(i,j) = v / L(j,j) — the textbook loop's sequence.
template <class T>
MPGEO_AVX2 void trsm_blocked(std::size_t m, std::size_t n, T alpha,
                             const T* l, std::size_t ldl, T* b,
                             std::size_t ldb) {
  using L = std::conditional_t<std::is_same_v<T, double>, Fp64, Fp32>;
  using Vec = typename L::Vec;
  constexpr std::size_t R = kMR * L::kLanes;
  const std::size_t panels = (n + kNR - 1) / kNR;
  const std::size_t np = panels * kNR;  // columns padded to whole panels
  // Scratch: the L panels, L's diagonal, one row block of X. Panel jb of L
  // holds L(j0 + c, p) for p < j0 + kNR at
  // lpack[kNR*kNR*jb*(jb+1)/2 + p*kNR + c], zero outside L.
  const std::size_t nl = kNR * kNR * panels * (panels + 1) / 2;
  T* const lpack =
      reinterpret_cast<T*>(scratch_bytes((nl + np + R * np) * sizeof(T)));
  T* const diag = lpack + nl;
  T* const xblk = diag + np;
  for (std::size_t jb = 0; jb < panels; ++jb) {
    const std::size_t j0 = jb * kNR;
    T* o = lpack + kNR * kNR * jb * (jb + 1) / 2;
    for (std::size_t p = 0; p < j0 + kNR; ++p) {
      for (std::size_t c = 0; c < std::size_t(kNR); ++c) {
        const bool inside = j0 + c < n && p < n;
        o[p * kNR + c] = inside ? l[j0 + c + p * ldl] : T(0);
      }
    }
  }
  for (std::size_t j = 0; j < np; ++j) diag[j] = j < n ? l[j + j * ldl] : T(1);
  std::fill(xblk + R * n, xblk + R * np, T(0));

  const Vec va = L::bcast(&alpha);
  for (std::size_t i0 = 0; i0 < m; i0 += R) {
    const std::size_t rows = std::min(R, m - i0);
    pack_rows(b + i0, ldb, rows, n, R, xblk);
    for (std::size_t jb = 0; jb < panels; ++jb) {
      const std::size_t j0 = jb * kNR;
      const T* lp = lpack + kNR * kNR * jb * (jb + 1) / 2;
      Vec acc[kMR][kNR];
#pragma GCC unroll 8
      for (int c = 0; c < kNR; ++c) {
#pragma GCC unroll 8
        for (int r = 0; r < kMR; ++r) {
          acc[r][c] = L::mul(va, L::load(&xblk[(j0 + c) * R + r * L::kLanes]));
        }
      }
      for (std::size_t p = 0; p < j0; ++p) {
        Vec x[kMR];
#pragma GCC unroll 8
        for (int r = 0; r < kMR; ++r) {
          x[r] = L::load(&xblk[p * R + r * L::kLanes]);
        }
#pragma GCC unroll 8
        for (int c = 0; c < kNR; ++c) {
          const Vec y = L::bcast(lp + p * kNR + c);
#pragma GCC unroll 8
          for (int r = 0; r < kMR; ++r) {
            acc[r][c] = L::sub(acc[r][c], L::mul(x[r], y));
          }
        }
      }
      // The panel's own triangle: column c takes the solved columns c2 < c
      // (p = j0 + c2, still ascending), then divides.
#pragma GCC unroll 8
      for (int c = 0; c < kNR; ++c) {
#pragma GCC unroll 8
        for (int c2 = 0; c2 < c; ++c2) {
          const Vec y = L::bcast(lp + (j0 + c2) * kNR + c);
#pragma GCC unroll 8
          for (int r = 0; r < kMR; ++r) {
            acc[r][c] = L::sub(acc[r][c], L::mul(acc[r][c2], y));
          }
        }
        const Vec d = L::bcast(&diag[j0 + c]);
#pragma GCC unroll 8
        for (int r = 0; r < kMR; ++r) acc[r][c] = L::div(acc[r][c], d);
      }
#pragma GCC unroll 8
      for (int c = 0; c < kNR; ++c) {
#pragma GCC unroll 8
        for (int r = 0; r < kMR; ++r) {
          L::store(&xblk[(j0 + c) * R + r * L::kLanes], acc[r][c]);
        }
      }
    }
    for (std::size_t p = 0; p < n; ++p) {
      std::copy_n(&xblk[p * R], rows, b + i0 + p * ldb);
    }
  }
}

}  // namespace

void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const double* a,
                       const double* b, double beta, double* c,
                       std::size_t ldc) {
  MPGEO_ASSERT(prec == Precision::FP64);
  if (m == 0 || n == 0) return;
  gemm_blocked<Fp64>(m, n, k, alpha, a, m, b, n, beta, c, ldc, false);
}

void mixed_gemm_packed(Precision prec, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const float* a,
                       const float* b, double beta, double* c,
                       std::size_t ldc) {
  if (m == 0 || n == 0) return;
  switch (prec) {
    case Precision::FP64:
      break;
    case Precision::FP32:
      return gemm_blocked<Fp32>(m, n, k, alpha, a, m, b, n, beta, c, ldc,
                                false);
    case Precision::TF32:
    case Precision::BF16_32:
    case Precision::FP16_32:
      return gemm_blocked<Tc32>(m, n, k, alpha, a, m, b, n, beta, c, ldc,
                                false);
    case Precision::FP16:
      return gemm_blocked<Fp16>(m, n, k, alpha, a, m, b, n, beta, c, ldc,
                                false);
  }
  MPGEO_ASSERT(false);
}

template <class T>
void trsm_right_lower_trans(std::size_t m, std::size_t n, T alpha, const T* l,
                            std::size_t ldl, T* b, std::size_t ldb) {
  if (m == 0 || n == 0) return;
  trsm_blocked(m, n, alpha, l, ldl, b, ldb);
}

void syrk_lower_notrans(std::size_t n, std::size_t k, double alpha,
                        const double* a, std::size_t lda, double beta,
                        double* c, std::size_t ldc) {
  if (n == 0) return;
  gemm_blocked<Fp64>(n, n, k, alpha, a, lda, a, lda, beta, c, ldc, true);
}

#else  // !MPGEO_SIMD_X86: kernel_variant_available(Avx2) is false.

void mixed_gemm_packed(Precision, std::size_t, std::size_t, std::size_t,
                       double, const double*, const double*, double, double*,
                       std::size_t) {
  MPGEO_ASSERT(false);
}

void mixed_gemm_packed(Precision, std::size_t, std::size_t, std::size_t,
                       double, const float*, const float*, double, double*,
                       std::size_t) {
  MPGEO_ASSERT(false);
}

template <class T>
void trsm_right_lower_trans(std::size_t, std::size_t, T, const T*,
                            std::size_t, T*, std::size_t) {
  MPGEO_ASSERT(false);
}

void syrk_lower_notrans(std::size_t, std::size_t, double, const double*,
                        std::size_t, double, double*, std::size_t) {
  MPGEO_ASSERT(false);
}

#endif

template void trsm_right_lower_trans<double>(std::size_t, std::size_t, double,
                                             const double*, std::size_t,
                                             double*, std::size_t);
template void trsm_right_lower_trans<float>(std::size_t, std::size_t, float,
                                            const float*, std::size_t, float*,
                                            std::size_t);

}  // namespace avx2
}  // namespace mpgeo
