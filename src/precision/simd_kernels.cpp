#include "precision/simd_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MPGEO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace mpgeo {
namespace {

#ifdef MPGEO_SIMD_X86
struct CpuFeatures {
  bool avx2 = false;
  bool avx512 = false;
};

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = [] {
    // __builtin_cpu_supports also checks that the OS saves the YMM and ZMM
    // state; the init call makes it safe from static initializers too.
    __builtin_cpu_init();
    CpuFeatures out;
    out.avx2 = __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") && __builtin_cpu_supports("f16c");
    out.avx512 = out.avx2 && __builtin_cpu_supports("avx512f") &&
                 __builtin_cpu_supports("avx512dq") &&
                 __builtin_cpu_supports("avx512vl");
    return out;
  }();
  return f;
}

/// Grow-only per-thread scratch holding a kernel's packed blocks. Every
/// kernel of every ISA shares it — one runs at a time on a thread — so a
/// worker keeps one buffer rather than one per kernel and element type.
std::byte* scratch_bytes(std::size_t bytes) {
  thread_local std::vector<std::byte> buf;
  if (buf.size() < bytes) buf.resize(bytes);
  return buf.data();
}
#endif

}  // namespace

bool kernel_variant_available(KernelVariant v) {
  switch (v) {
    case KernelVariant::Portable:
      return true;
#ifdef MPGEO_SIMD_X86
    case KernelVariant::Avx2:
      return cpu_features().avx2;
    case KernelVariant::Avx512:
      return cpu_features().avx512;
#else
    case KernelVariant::Avx2:
    case KernelVariant::Avx512:
      return false;
#endif
  }
  return false;
}

KernelVariant active_kernel_variant() {
  static const KernelVariant v =
      kernel_variant_available(KernelVariant::Avx512) ? KernelVariant::Avx512
      : kernel_variant_available(KernelVariant::Avx2) ? KernelVariant::Avx2
                                                      : KernelVariant::Portable;
  return v;
}

const char* to_string(KernelVariant v) {
  switch (v) {
    case KernelVariant::Portable: return "portable";
    case KernelVariant::Avx2: return "avx2";
    case KernelVariant::Avx512: return "avx512";
  }
  return "?";
}

// Each ISA below defines its vector policy `Isa` and the function attributes
// that enable its instructions, then includes the kernel body. Everything
// that touches a vector register carries the attribute; the rest of the
// library is compiled for the baseline ISA. The build's -ffp-contract=off
// keeps GCC from fusing the explicit multiply-then-add sequences into FMAs
// inside these FMA-enabled functions.

namespace avx2 {

#ifdef MPGEO_SIMD_X86
#define MPGEO_KERNEL __attribute__((target("avx2,fma,f16c")))
#define MPGEO_KERNEL_INLINE \
  __attribute__((target("avx2,fma,f16c"), always_inline)) inline

namespace {

alignas(32) constexpr long long kLaneMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

/// Mask of the first n (0..4) 64-bit lanes.
MPGEO_KERNEL_INLINE __m256i first_lanes(int n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMask + 4 - n));
}

/// 256-bit vectors: 2 row vectors by 4 columns of accumulators, 8 of the 16
/// ymm registers.
struct Isa {
  static constexpr int kMR = 2;
  static constexpr int kNR = 4;

  struct F64 {
    using Pack = double;
    using Vec = __m256d;
    static constexpr int kLanes = 4;
    MPGEO_KERNEL_INLINE static Vec zero() { return _mm256_setzero_pd(); }
    MPGEO_KERNEL_INLINE static Vec load(const double* p) {
      return _mm256_loadu_pd(p);
    }
    MPGEO_KERNEL_INLINE static Vec bcast(const double* p) {
      return _mm256_broadcast_sd(p);
    }
    MPGEO_KERNEL_INLINE static void store(double* p, Vec v) {
      _mm256_storeu_pd(p, v);
    }
    MPGEO_KERNEL_INLINE static Vec add(Vec a, Vec b) {
      return _mm256_add_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec sub(Vec a, Vec b) {
      return _mm256_sub_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec mul(Vec a, Vec b) {
      return _mm256_mul_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec div(Vec a, Vec b) {
      return _mm256_div_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec fma(Vec x, Vec y, Vec acc) {
      return _mm256_fmadd_pd(x, y, acc);
    }
    MPGEO_KERNEL_INLINE static void to_double(Vec v, __m256d* q) { q[0] = v; }
  };

  struct F32 {
    using Pack = float;
    using Vec = __m256;
    static constexpr int kLanes = 8;
    MPGEO_KERNEL_INLINE static Vec zero() { return _mm256_setzero_ps(); }
    MPGEO_KERNEL_INLINE static Vec load(const float* p) {
      return _mm256_loadu_ps(p);
    }
    MPGEO_KERNEL_INLINE static Vec bcast(const float* p) {
      return _mm256_broadcast_ss(p);
    }
    MPGEO_KERNEL_INLINE static void store(float* p, Vec v) {
      _mm256_storeu_ps(p, v);
    }
    MPGEO_KERNEL_INLINE static Vec add(Vec a, Vec b) {
      return _mm256_add_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec sub(Vec a, Vec b) {
      return _mm256_sub_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec mul(Vec a, Vec b) {
      return _mm256_mul_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec div(Vec a, Vec b) {
      return _mm256_div_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec fma(Vec x, Vec y, Vec acc) {
      return _mm256_fmadd_ps(x, y, acc);
    }
    MPGEO_KERNEL_INLINE static void to_double(Vec v, __m256d* q) {
      q[0] = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
      q[1] = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    }
  };

  MPGEO_KERNEL_INLINE static __m256d through_float(__m256d v) {
    return _mm256_cvtps_pd(_mm256_cvtpd_ps(v));
  }
  MPGEO_KERNEL_INLINE static __m256d through_half(__m256d v) {
    const __m128i h =
        _mm_cvtps_ph(_mm256_cvtpd_ps(v), _MM_FROUND_TO_NEAREST_INT);
    return _mm256_cvtps_pd(_mm_cvtph_ps(h));
  }
  MPGEO_KERNEL_INLINE static __m256d load_lanes(const double* c, int lo,
                                                int hi) {
    return _mm256_maskload_pd(
        c, _mm256_andnot_si256(first_lanes(lo), first_lanes(hi)));
  }
  MPGEO_KERNEL_INLINE static void store_lanes(double* c, __m256d v, int lo,
                                              int hi) {
    _mm256_maskstore_pd(c, _mm256_andnot_si256(first_lanes(lo), first_lanes(hi)),
                        v);
  }
};

}  // namespace
#endif

#include "precision/simd_kernels.inc"

#undef MPGEO_KERNEL
#undef MPGEO_KERNEL_INLINE

}  // namespace avx2

namespace avx512 {

#ifdef MPGEO_SIMD_X86
#define MPGEO_KERNEL \
  __attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma,f16c")))
#define MPGEO_KERNEL_INLINE                                                 \
  __attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma,f16c"),         \
                 always_inline)) inline

namespace {

/// Mask of lanes [lo, hi) of 8.
MPGEO_KERNEL_INLINE __mmask8 lanes(int lo, int hi) {
  return __mmask8((1u << hi) - (1u << lo));
}

// Float <-> double conversions of 8 lanes. The zero-masking forms under a
// full mask compile to the plain instructions; the plain intrinsics (and
// _mm512_castps512_ps256) trip GCC 12's -Wmaybe-uninitialized inside its
// own headers.
MPGEO_KERNEL_INLINE __m512d widen(__m256 v) {
  return _mm512_maskz_cvtps_pd(0xFF, v);
}
MPGEO_KERNEL_INLINE __m256 narrow(__m512d v) {
  return _mm512_maskz_cvtpd_ps(0xFF, v);
}

/// 512-bit vectors: 3 row vectors by 8 columns of accumulators, 24 of the 32
/// zmm registers.
struct Isa {
  static constexpr int kMR = 3;
  static constexpr int kNR = 8;

  struct F64 {
    using Pack = double;
    using Vec = __m512d;
    static constexpr int kLanes = 8;
    MPGEO_KERNEL_INLINE static Vec zero() { return _mm512_setzero_pd(); }
    MPGEO_KERNEL_INLINE static Vec load(const double* p) {
      return _mm512_loadu_pd(p);
    }
    MPGEO_KERNEL_INLINE static Vec bcast(const double* p) {
      return _mm512_set1_pd(*p);
    }
    MPGEO_KERNEL_INLINE static void store(double* p, Vec v) {
      _mm512_storeu_pd(p, v);
    }
    MPGEO_KERNEL_INLINE static Vec add(Vec a, Vec b) {
      return _mm512_add_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec sub(Vec a, Vec b) {
      return _mm512_sub_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec mul(Vec a, Vec b) {
      return _mm512_mul_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec div(Vec a, Vec b) {
      return _mm512_div_pd(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec fma(Vec x, Vec y, Vec acc) {
      return _mm512_fmadd_pd(x, y, acc);
    }
    MPGEO_KERNEL_INLINE static void to_double(Vec v, __m512d* q) { q[0] = v; }
  };

  struct F32 {
    using Pack = float;
    using Vec = __m512;
    static constexpr int kLanes = 16;
    MPGEO_KERNEL_INLINE static Vec zero() { return _mm512_setzero_ps(); }
    MPGEO_KERNEL_INLINE static Vec load(const float* p) {
      return _mm512_loadu_ps(p);
    }
    MPGEO_KERNEL_INLINE static Vec bcast(const float* p) {
      return _mm512_set1_ps(*p);
    }
    MPGEO_KERNEL_INLINE static void store(float* p, Vec v) {
      _mm512_storeu_ps(p, v);
    }
    MPGEO_KERNEL_INLINE static Vec add(Vec a, Vec b) {
      return _mm512_add_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec sub(Vec a, Vec b) {
      return _mm512_sub_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec mul(Vec a, Vec b) {
      return _mm512_mul_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec div(Vec a, Vec b) {
      return _mm512_div_ps(a, b);
    }
    MPGEO_KERNEL_INLINE static Vec fma(Vec x, Vec y, Vec acc) {
      return _mm512_fmadd_ps(x, y, acc);
    }
    MPGEO_KERNEL_INLINE static void to_double(Vec v, __m512d* q) {
      q[0] = widen(_mm512_extractf32x8_ps(v, 0));
      q[1] = widen(_mm512_extractf32x8_ps(v, 1));
    }
  };

  MPGEO_KERNEL_INLINE static __m512d through_float(__m512d v) {
    return widen(narrow(v));
  }
  MPGEO_KERNEL_INLINE static __m512d through_half(__m512d v) {
    const __m128i h = _mm256_cvtps_ph(narrow(v), _MM_FROUND_TO_NEAREST_INT);
    return widen(_mm256_cvtph_ps(h));
  }
  MPGEO_KERNEL_INLINE static __m512d load_lanes(const double* c, int lo,
                                                int hi) {
    return _mm512_maskz_loadu_pd(lanes(lo, hi), c);
  }
  MPGEO_KERNEL_INLINE static void store_lanes(double* c, __m512d v, int lo,
                                              int hi) {
    _mm512_mask_storeu_pd(c, lanes(lo, hi), v);
  }
};

}  // namespace
#endif

#include "precision/simd_kernels.inc"

#undef MPGEO_KERNEL
#undef MPGEO_KERNEL_INLINE

}  // namespace avx512
}  // namespace mpgeo
