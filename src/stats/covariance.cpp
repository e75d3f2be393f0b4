#include "stats/covariance.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "stats/besselk.hpp"

namespace mpgeo {

std::string to_string(CovKind k) {
  switch (k) {
    case CovKind::SqExp: return "sqexp";
    case CovKind::Matern: return "matern";
    case CovKind::PowExp: return "powexp";
  }
  MPGEO_ASSERT(false);
  return {};
}

std::vector<std::string> Covariance::param_names() const {
  switch (kind_) {
    case CovKind::Matern: return {"sigma2", "beta", "nu"};
    case CovKind::PowExp: return {"sigma2", "beta", "alpha"};
    case CovKind::SqExp: break;
  }
  return {"sigma2", "beta"};
}

void Covariance::check_params(std::span<const double> theta) const {
  MPGEO_REQUIRE(theta.size() == num_params(),
                "covariance: wrong number of parameters");
  for (double t : theta) {
    MPGEO_REQUIRE(t > 0.0, "covariance: parameters must be positive");
  }
  if (kind_ == CovKind::PowExp) {
    MPGEO_REQUIRE(theta[2] <= 2.0,
                  "covariance: powered exponential needs alpha <= 2 for "
                  "positive definiteness");
  }
}

namespace {

// std::lgamma writes the POSIX global `signgam`, a data race once tiles are
// generated in parallel. nu > 0 here, so the sign is always +1 and the
// reentrant variant — same glibc implementation, same bits — is a drop-in.
double log_gamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

// Per-family batch kernels. Every evaluation in the library — scalar
// Covariance::value, covariance_tile columns, whole-tile fills — funnels
// through these loops, so there is exactly one definition of each formula
// and batch/scalar bit-identity holds by construction.

void batch_sqexp(double sigma2, double beta, const double* h, double* out,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = sigma2 * std::exp(-(h[i] * h[i]) / beta);
  }
}

void batch_powexp(double sigma2, double beta, double alpha, const double* h,
                  double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = h[i] < 1e-300 ? sigma2
                           : sigma2 * std::exp(-std::pow(h[i] / beta, alpha));
  }
}

// Closed-form Matérn for the half-integer orders (nu = p + 1/2):
//   nu = 0.5: sigma2 * e^{-r}
//   nu = 1.5: sigma2 * (1 + r) e^{-r}
//   nu = 2.5: sigma2 * (1 + r + r^2/3) e^{-r}
// One exp per entry instead of a Temme-series/continued-fraction Bessel-K
// evaluation — the bulk of the fast path's arithmetic win. The h < 1e-14
// guard matches the general-nu path so the diagonal is exactly sigma2.
void batch_matern_half(double nu, double sigma2, double beta, const double* h,
                       double* out, std::size_t n) {
  if (nu == 0.5) {
    for (std::size_t i = 0; i < n; ++i) {
      const double r = h[i] / beta;
      out[i] = h[i] < 1e-14 ? sigma2 : sigma2 * std::exp(-r);
    }
  } else if (nu == 1.5) {
    for (std::size_t i = 0; i < n; ++i) {
      const double r = h[i] / beta;
      out[i] = h[i] < 1e-14 ? sigma2 : sigma2 * (1.0 + r) * std::exp(-r);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double r = h[i] / beta;
      out[i] = h[i] < 1e-14
                   ? sigma2
                   : sigma2 * (1.0 + r + r * r / 3.0) * std::exp(-r);
    }
  }
}

void batch_matern_general(KernelVariant v, double nu, double sigma2,
                          double beta, const double* h, double* out,
                          std::size_t n) {
  // sigma2 * 2^{1-nu}/Gamma(nu) * r^nu * K_nu(r), computed in log space so
  // that large r underflows smoothly instead of producing 0 * inf. The
  // normalizer is theta-only, hoisted here; the summation order matches the
  // seed per-entry formula, so results are unchanged bit for bit. The
  // entries with r > 0 go through log_bessel_k_batch a chunk at a time,
  // which keeps the per-worker scratch small.
  constexpr std::size_t kChunk = 2048;
  thread_local std::vector<double> log_k;
  const double log_norm = (1.0 - nu) * std::log(2.0) - log_gamma(nu);
  for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::size_t i1 = std::min(n, i0 + kChunk);
    log_k.resize(i1 - i0);
    std::size_t m = 0;
    for (std::size_t i = i0; i < i1; ++i) {
      if (!(h[i] < 1e-14)) log_k[m++] = h[i] / beta;
    }
    const std::span<double> chunk(log_k.data(), m);
    log_bessel_k_batch(v, nu, chunk, chunk);
    // out may alias h: entry i is read before it is written.
    for (std::size_t i = i0, j = 0; i < i1; ++i) {
      if (h[i] < 1e-14) {
        out[i] = sigma2;
        continue;
      }
      const double r = h[i] / beta;
      const double log_c = log_norm + nu * std::log(r) + log_k[j++];
      out[i] = sigma2 * std::exp(log_c);
    }
  }
}

bool is_half_integer_matern(double nu) {
  return nu == 0.5 || nu == 1.5 || nu == 2.5;
}

// Dispatch after validation: theta checked, h[i] >= 0.
void batch_unchecked(KernelVariant v, CovKind kind,
                     std::span<const double> theta, const double* h,
                     double* out, std::size_t n) {
  const double sigma2 = theta[0];
  const double beta = theta[1];
  switch (kind) {
    case CovKind::SqExp:
      batch_sqexp(sigma2, beta, h, out, n);
      return;
    case CovKind::PowExp:
      batch_powexp(sigma2, beta, theta[2], h, out, n);
      return;
    case CovKind::Matern:
      if (is_half_integer_matern(theta[2])) {
        batch_matern_half(theta[2], sigma2, beta, h, out, n);
      } else {
        batch_matern_general(v, theta[2], sigma2, beta, h, out, n);
      }
      return;
  }
  MPGEO_ASSERT(false);
}

}  // namespace

double Covariance::value(double h, std::span<const double> theta) const {
  check_params(theta);
  MPGEO_REQUIRE(h >= 0.0, "covariance: negative distance");
  double out;
  batch_unchecked(active_kernel_variant(), kind_, theta, &h, &out, 1);
  return out;
}

void covariance_batch(const Covariance& cov, std::span<const double> theta,
                      std::span<const double> h, std::span<double> out) {
  covariance_batch(active_kernel_variant(), cov, theta, h, out);
}

void covariance_batch(KernelVariant v, const Covariance& cov,
                      std::span<const double> theta, std::span<const double> h,
                      std::span<double> out) {
  MPGEO_REQUIRE(kernel_variant_available(v),
                "covariance_batch: kernel variant not available on this CPU");
  cov.check_params(theta);
  MPGEO_REQUIRE(h.size() == out.size(), "covariance_batch: size mismatch");
  for (std::size_t i = 0; i < h.size(); ++i) {
    MPGEO_REQUIRE(h[i] >= 0.0, "covariance: negative distance");
  }
  batch_unchecked(v, cov.kind(), theta, h.data(), out.data(), h.size());
}

double reference_covariance_value(const Covariance& cov, double h,
                                  std::span<const double> theta) {
  cov.check_params(theta);
  MPGEO_REQUIRE(h >= 0.0, "covariance: negative distance");
  const double sigma2 = theta[0];
  const double beta = theta[1];
  switch (cov.kind()) {
    case CovKind::SqExp:
      return sigma2 * std::exp(-(h * h) / beta);
    case CovKind::PowExp: {
      const double alpha = theta[2];
      if (h < 1e-300) return sigma2;
      return sigma2 * std::exp(-std::pow(h / beta, alpha));
    }
    case CovKind::Matern: {
      const double nu = theta[2];
      if (h < 1e-14) return sigma2;
      const double r = h / beta;
      const double log_c = (1.0 - nu) * std::log(2.0) - log_gamma(nu) +
                           nu * std::log(r) + log_bessel_k(nu, r);
      return sigma2 * std::exp(log_c);
    }
  }
  MPGEO_ASSERT(false);
  return 0;
}

void covariance_tile(const Covariance& cov, const LocationSet& locs,
                     std::span<const double> theta, std::size_t r0,
                     std::size_t c0, std::size_t mb, std::size_t nb,
                     double* out, std::size_t ld, double nugget) {
  cov.check_params(theta);
  MPGEO_REQUIRE(r0 + mb <= locs.size() && c0 + nb <= locs.size(),
                "covariance_tile: tile exceeds location set");
  MPGEO_REQUIRE(ld >= mb, "covariance_tile: ld too small");
  for (std::size_t j = 0; j < nb; ++j) {
    const std::size_t gj = c0 + j;
    double* col = out + j * ld;
    distance_block(locs, r0, gj, mb, 1, col, mb);
    batch_unchecked(active_kernel_variant(), cov.kind(), theta, col, col, mb);
    if (gj >= r0 && gj < r0 + mb) col[gj - r0] += nugget * theta[0];
  }
}

Matrix<double> covariance_matrix(const Covariance& cov,
                                 const LocationSet& locs,
                                 std::span<const double> theta,
                                 double nugget) {
  const std::size_t n = locs.size();
  Matrix<double> sigma(n, n);
  covariance_tile(cov, locs, theta, 0, 0, n, n, sigma.data(), sigma.ld(),
                  nugget);
  return sigma;
}

}  // namespace mpgeo
