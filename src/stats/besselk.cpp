#include "stats/besselk.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MPGEO_BESSEL_X86 1
#include <immintrin.h>
#endif

namespace mpgeo {
namespace {

constexpr double kEulerGamma = 0.57721566490153286060651209008;
constexpr double kPi = 3.14159265358979323846264338328;
constexpr int kMaxIter = 10000;
constexpr double kEps = 1e-16;

// One throw site per failure, shared by the scalar loops and the vector
// lanes, so every path fails with the same Error.
void require_order(double nu) {
  MPGEO_REQUIRE(nu >= 0.0, "bessel_k: order must be non-negative");
}
void require_argument(double x) {
  MPGEO_REQUIRE(x > 0.0, "bessel_k: argument must be positive");
}
[[noreturn]] void temme_failed() {
  throw_error(__FILE__, __LINE__, "bessel_k: Temme series failed to converge");
}
[[noreturn]] void cf2_failed() {
  throw_error(__FILE__, __LINE__, "bessel_k: CF2 failed to converge");
}

/// nu = nl + mu: the fractional order mu in [-1/2, 1/2] both regimes
/// evaluate at, and the nl upward recurrence steps from mu to nu.
struct Order {
  int nl;
  double mu;
};

Order split_order(double nu) {
  const int nl = static_cast<int>(nu + 0.5);
  const Order o{nl, nu - nl};
  MPGEO_ASSERT(std::fabs(o.mu) <= 0.5 + 1e-12);
  return o;
}

// Temme's nu-only factors: fact = pi mu / sin(pi mu) and the auxiliary
//   gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu)
//   gam2 = (1/Gamma(1-mu) + 1/Gamma(1+mu)) / 2
//   gampl = 1/Gamma(1+mu),  gammi = 1/Gamma(1-mu)
struct TemmeCoeffs {
  double fact, gam1, gam2, gampl, gammi;
};

TemmeCoeffs temme_coeffs(double mu) {
  TemmeCoeffs t;
  const double pimu = kPi * mu;
  t.fact = (std::fabs(pimu) < 1e-12) ? 1.0 : pimu / std::sin(pimu);
  t.gampl = 1.0 / std::tgamma(1.0 + mu);
  t.gammi = 1.0 / std::tgamma(1.0 - mu);
  t.gam2 = 0.5 * (t.gammi + t.gampl);
  if (std::fabs(mu) < 1e-9) {
    // Limit mu -> 0 with a second-order correction (gam1 is even in mu^2
    // around -gamma_E up to O(mu^2) terms that are negligible here).
    t.gam1 = -kEulerGamma;
  } else {
    t.gam1 = (t.gammi - t.gampl) / (2.0 * mu);
  }
  return t;
}

/// The Temme series' state at x before its first step: ff (which also
/// starts sum), p (which starts sum1) and q.
struct TemmeStart {
  double ff, p, q;
};

TemmeStart temme_start(double mu, const TemmeCoeffs& t, double x) {
  const double d = -std::log(0.5 * x);
  const double e = mu * d;
  const double fact2 = (std::fabs(e) < 1e-12) ? 1.0 : std::sinh(e) / e;
  const double ff = t.fact * (t.gam1 * std::cosh(e) + t.gam2 * fact2 * d);
  const double ee = std::exp(e);
  return {ff, 0.5 * ee / t.gampl, 0.5 / (ee * t.gammi)};
}

/// Temme series at x from `st` until its term is below kEps of the sum.
void temme_series(double mu, double x, const TemmeStart& st, double& sum,
                  double& sum1) {
  double ff = st.ff, p = st.p, q = st.q, c = 1.0;
  const double x2 = 0.25 * x * x;
  sum = ff;
  sum1 = p;
  for (int i = 1; i <= kMaxIter; ++i) {
    ff = (i * ff + p + q) / (i * i - mu * mu);
    c *= x2 / i;
    p /= (i - mu);
    q /= (i + mu);
    const double del = c * ff;
    sum += del;
    const double del1 = c * (p - i * ff);
    sum1 += del1;
    if (std::fabs(del) < std::fabs(sum) * kEps) return;
  }
  temme_failed();
}

// Scaled K at fractional order from the converged sums: e^x * K_mu(x) and
// e^x * K_{mu+1}(x).
void temme_finish(double x, double sum, double sum1, double& kmu,
                  double& kmu1) {
  const double scale = std::exp(x);
  kmu = sum * scale;
  kmu1 = sum1 * (2.0 / x) * scale;
}

/// Steed's continued fraction CF2 at x until the change in s is below kEps
/// of s: s and h before h's final a1 factor.
void cf2_fraction(double mu, double x, double& s_out, double& h_out) {
  double b = 2.0 * (1.0 + x);
  double d = 1.0 / b;
  double h = d, delh = d;
  double q1 = 0.0, q2 = 1.0;
  const double a1 = 0.25 - mu * mu;
  double q = a1, c = a1;
  double a = -a1;
  double s = 1.0 + q * delh;
  for (int i = 2; i <= kMaxIter; ++i) {
    a -= 2 * (i - 1);
    c = -a * c / i;
    const double qnew = (q1 - b * q2) / a;
    q1 = q2;
    q2 = qnew;
    q += c * qnew;
    b += 2.0;
    d = 1.0 / (b + a * d);
    delh = (b * d - 1.0) * delh;
    h += delh;
    const double dels = q * delh;
    s += dels;
    if (std::fabs(dels / s) < kEps) {
      s_out = s;
      h_out = h;
      return;
    }
  }
  cf2_failed();
}

// CF2 yields the scaled functions directly: no exp(-x).
void cf2_finish(double mu, double x, double s, double h, double& kmu,
                double& kmu1) {
  h = (0.25 - mu * mu) * h;
  kmu = std::sqrt(kPi / (2.0 * x)) / s;
  kmu1 = kmu * (mu + x + 0.5 - h) / x;
}

// Upward recurrence K_{m+1} = K_{m-1} + (2m/x) K_m from order mu to nu;
// entering iteration i, kmu = K_{mu+i-1} and kmu1 = K_{mu+i}.
double raise_order(const Order& o, double x, double kmu, double kmu1) {
  for (int i = 1; i <= o.nl; ++i) {
    const double knu1 = kmu + (2.0 * (o.mu + i)) / x * kmu1;
    kmu = kmu1;
    kmu1 = knu1;
  }
  return kmu;
}

// e^x * K_nu(x) via fractional-order seed + upward recurrence.
double scaled_bessel_k(double nu, double x) {
  require_order(nu);
  require_argument(x);
  const Order o = split_order(nu);
  double kmu, kmu1;
  if (x <= 2.0) {
    double sum, sum1;
    temme_series(o.mu, x, temme_start(o.mu, temme_coeffs(o.mu), x), sum,
                 sum1);
    temme_finish(x, sum, sum1, kmu, kmu1);
  } else {
    double s, h;
    cf2_fraction(o.mu, x, s, h);
    cf2_finish(o.mu, x, s, h, kmu, kmu1);
  }
  return raise_order(o, x, kmu, kmu1);
}

/// CF2's lane-invariant sequences: a and c depend only on mu and the step i,
/// so the lanes read them from a table that grows as far as the slowest lane
/// needs. Entries come from cf2_fraction's own operations, in its order.
class Cf2Table {
 public:
  void reset(double mu) {
    const double a1 = 0.25 - mu * mu;
    a_.assign({0.0, -a1});  // step 1 holds the loop's initial a and c
    c_.assign({0.0, a1});
  }
  double a(int i) { return at(a_, i); }
  double c(int i) { return at(c_, i); }

 private:
  double at(const std::vector<double>& v, int i) {
    if (std::size_t(i) >= v.size()) grow(i + 32);
    return v[std::size_t(i)];
  }
  void grow(int last) {
    for (int i = int(a_.size()); i <= last; ++i) {
      double a = a_.back();
      a -= 2 * (i - 1);
      a_.push_back(a);
      c_.push_back(-a * c_.back() / i);
    }
  }
  std::vector<double> a_, c_;
};

}  // namespace

// Each ISA below defines its lane policy `Lanes` and the function attribute
// MPGEO_BESSEL_KERNEL, then includes the lane bodies (besselk_simd.inc), as
// precision/simd_kernels.cpp does for the tile kernels.

namespace avx2 {

#ifdef MPGEO_BESSEL_X86
#define MPGEO_BESSEL_KERNEL __attribute__((target("avx2")))
#define MPGEO_BESSEL_INLINE \
  __attribute__((target("avx2"), always_inline)) inline

namespace {

/// 4 double lanes; a mask is a vector of all-ones or all-zeros lanes.
struct Lanes {
  using Vec = __m256d;
  using Mask = __m256d;
  static constexpr int kLanes = 4;
  MPGEO_BESSEL_INLINE static Vec set1(double v) { return _mm256_set1_pd(v); }
  MPGEO_BESSEL_INLINE static Vec load(const double* p) {
    return _mm256_loadu_pd(p);
  }
  MPGEO_BESSEL_INLINE static void store(double* p, Vec v) {
    _mm256_storeu_pd(p, v);
  }
  MPGEO_BESSEL_INLINE static Vec add(Vec a, Vec b) {
    return _mm256_add_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec sub(Vec a, Vec b) {
    return _mm256_sub_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec mul(Vec a, Vec b) {
    return _mm256_mul_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec div(Vec a, Vec b) {
    return _mm256_div_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec abs(Vec a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  MPGEO_BESSEL_INLINE static Mask lt(Vec a, Vec b) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  }
  MPGEO_BESSEL_INLINE static Mask none() { return _mm256_setzero_pd(); }
  /// Lanes of `m` not in `done`.
  MPGEO_BESSEL_INLINE static Mask fresh(Mask m, Mask done) {
    return _mm256_andnot_pd(done, m);
  }
  MPGEO_BESSEL_INLINE static Mask either(Mask a, Mask b) {
    return _mm256_or_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static bool all(Mask m) {
    return _mm256_movemask_pd(m) == 0xF;
  }
  /// `t` where `m` is set, `f` elsewhere.
  MPGEO_BESSEL_INLINE static Vec select(Mask m, Vec t, Vec f) {
    return _mm256_blendv_pd(f, t, m);
  }
};

}  // namespace

#include "stats/besselk_simd.inc"

#undef MPGEO_BESSEL_KERNEL
#undef MPGEO_BESSEL_INLINE
#endif

}  // namespace avx2

namespace avx512 {

#ifdef MPGEO_BESSEL_X86
#define MPGEO_BESSEL_KERNEL __attribute__((target("avx512f,avx2")))
#define MPGEO_BESSEL_INLINE \
  __attribute__((target("avx512f,avx2"), always_inline)) inline

namespace {

/// 8 double lanes; a mask is a k-register.
struct Lanes {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  MPGEO_BESSEL_INLINE static Vec set1(double v) { return _mm512_set1_pd(v); }
  MPGEO_BESSEL_INLINE static Vec load(const double* p) {
    return _mm512_loadu_pd(p);
  }
  MPGEO_BESSEL_INLINE static void store(double* p, Vec v) {
    _mm512_storeu_pd(p, v);
  }
  MPGEO_BESSEL_INLINE static Vec add(Vec a, Vec b) {
    return _mm512_add_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec sub(Vec a, Vec b) {
    return _mm512_sub_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec mul(Vec a, Vec b) {
    return _mm512_mul_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec div(Vec a, Vec b) {
    return _mm512_div_pd(a, b);
  }
  MPGEO_BESSEL_INLINE static Vec abs(Vec a) { return _mm512_abs_pd(a); }
  MPGEO_BESSEL_INLINE static Mask lt(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  MPGEO_BESSEL_INLINE static Mask none() { return 0; }
  MPGEO_BESSEL_INLINE static Mask fresh(Mask m, Mask done) {
    return Mask(m & ~done);
  }
  MPGEO_BESSEL_INLINE static Mask either(Mask a, Mask b) { return Mask(a | b); }
  MPGEO_BESSEL_INLINE static bool all(Mask m) { return m == 0xFF; }
  MPGEO_BESSEL_INLINE static Vec select(Mask m, Vec t, Vec f) {
    return _mm512_mask_blend_pd(m, f, t);
  }
};

}  // namespace

#include "stats/besselk_simd.inc"

#undef MPGEO_BESSEL_KERNEL
#undef MPGEO_BESSEL_INLINE
#endif

}  // namespace avx512

namespace {

/// Runs the Temme series of entries [0, n') on variant v, where n' is n
/// rounded down to whole vectors (0 on Portable): sum lands in ff, sum1 in p.
/// Returns n'.
std::size_t temme_lanes(KernelVariant v, double mu, std::size_t n,
                        const double* x, double* ff, double* p, double* q) {
#ifdef MPGEO_BESSEL_X86
  switch (v) {
    case KernelVariant::Avx512:
      return avx512::temme_sums(mu, n, x, ff, p, q);
    case KernelVariant::Avx2:
      return avx2::temme_sums(mu, n, x, ff, p, q);
    case KernelVariant::Portable:
      break;
  }
#else
  (void)v, (void)mu, (void)n, (void)x, (void)ff, (void)p, (void)q;
#endif
  return 0;
}

/// Runs CF2 for entries [0, n') of x on variant v, as temme_lanes.
std::size_t cf2_lanes(KernelVariant v, double mu, std::size_t n,
                      const double* x, Cf2Table& table, double* s, double* h) {
#ifdef MPGEO_BESSEL_X86
  switch (v) {
    case KernelVariant::Avx512:
      return avx512::cf2_sums(mu, n, x, table, s, h);
    case KernelVariant::Avx2:
      return avx2::cf2_sums(mu, n, x, table, s, h);
    case KernelVariant::Portable:
      break;
  }
#else
  (void)v, (void)mu, (void)n, (void)x, (void)table, (void)s, (void)h;
#endif
  return 0;
}

/// Per-thread grouping buffers, grown to the largest batch this thread ran.
struct BatchScratch {
  std::vector<std::uint32_t> at;  ///< original index of each grouped entry
  std::vector<double> x;          ///< arguments, Temme group then CF2 group
  std::vector<double> w[3];       ///< per-entry series or fraction state
  Cf2Table cf2;
};

}  // namespace

double bessel_k(double nu, double x) {
  return scaled_bessel_k(nu, x) * std::exp(-x);
}

double log_bessel_k(double nu, double x) {
  return std::log(scaled_bessel_k(nu, x)) - x;
}

void log_bessel_k_batch(KernelVariant v, double nu, std::span<const double> x,
                        std::span<double> out) {
  MPGEO_REQUIRE(kernel_variant_available(v),
                "log_bessel_k_batch: kernel variant not available on this CPU");
  MPGEO_REQUIRE(x.size() == out.size(), "log_bessel_k_batch: size mismatch");
  const std::size_t n = x.size();
  if (n == 0) return;
  MPGEO_REQUIRE(n <= UINT32_MAX, "log_bessel_k_batch: batch too large");
  require_order(nu);
  const Order o = split_order(nu);

  // Group by regime, each group in input order: Temme at [0, nt), CF2 at
  // [nt, n). The copy also makes out aliasing x safe.
  thread_local BatchScratch sc;
  std::size_t nt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    require_argument(x[i]);
    nt += x[i] <= 2.0;
  }
  sc.at.resize(n);
  sc.x.resize(n);
  for (std::vector<double>& w : sc.w) w.resize(n);
  for (std::size_t i = 0, t = 0, f = nt; i < n; ++i) {
    const std::size_t j = x[i] <= 2.0 ? t++ : f++;
    sc.at[j] = std::uint32_t(i);
    sc.x[j] = x[i];
  }
  const double* gx = sc.x.data();
  double* w0 = sc.w[0].data();
  double* w1 = sc.w[1].data();
  double* w2 = sc.w[2].data();
  const auto emit = [&](std::size_t j, double kmu, double kmu1) {
    out[sc.at[j]] = std::log(raise_order(o, gx[j], kmu, kmu1)) - gx[j];
  };

  if (nt > 0) {
    // w0 = ff then sum, w1 = p then sum1, w2 = q.
    const TemmeCoeffs tc = temme_coeffs(o.mu);
    for (std::size_t j = 0; j < nt; ++j) {
      const TemmeStart st = temme_start(o.mu, tc, gx[j]);
      w0[j] = st.ff;
      w1[j] = st.p;
      w2[j] = st.q;
    }
    for (std::size_t j = temme_lanes(v, o.mu, nt, gx, w0, w1, w2); j < nt;
         ++j) {
      temme_series(o.mu, gx[j], {w0[j], w1[j], w2[j]}, w0[j], w1[j]);
    }
    for (std::size_t j = 0; j < nt; ++j) {
      double kmu, kmu1;
      temme_finish(gx[j], w0[j], w1[j], kmu, kmu1);
      emit(j, kmu, kmu1);
    }
  }
  if (nt < n) {
    // w0 = s, w1 = h.
    const std::size_t nc = n - nt;
    sc.cf2.reset(o.mu);
    for (std::size_t j = cf2_lanes(v, o.mu, nc, gx + nt, sc.cf2, w0, w1);
         j < nc; ++j) {
      cf2_fraction(o.mu, gx[nt + j], w0[j], w1[j]);
    }
    for (std::size_t j = 0; j < nc; ++j) {
      double kmu, kmu1;
      cf2_finish(o.mu, gx[nt + j], w0[j], w1[j], kmu, kmu1);
      emit(nt + j, kmu, kmu1);
    }
  }
}

}  // namespace mpgeo
