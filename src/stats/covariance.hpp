// The covariance families of the paper (Section III-A) plus the powered
// exponential ExaGeoStat also ships:
//   * 2D/3D squared exponential:  C(h) = sigma2 * exp(-h^2 / beta)
//   * 2D Matérn:                  C(h) = sigma2 * 2^{1-nu}/Gamma(nu)
//                                        * (h/beta)^nu * K_nu(h/beta)
//   * powered exponential:        C(h) = sigma2 * exp(-(h/beta)^alpha),
//                                 0 < alpha <= 2 (alpha = 2 recovers a
//                                 Gaussian kernel, alpha = 1 exponential)
// Parameter vectors theta follow the paper: (sigma2, beta) for sq-exp,
// (sigma2, beta, nu) for Matérn, (sigma2, beta, alpha) for pow-exp.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "precision/simd_kernels.hpp"
#include "stats/locations.hpp"

namespace mpgeo {

enum class CovKind {
  SqExp,    ///< squared exponential (any dimension)
  Matern,   ///< Matérn with smoothness nu (paper uses it in 2D)
  PowExp,   ///< powered exponential with exponent alpha in (0, 2]
};

std::string to_string(CovKind k);

class Covariance {
 public:
  explicit Covariance(CovKind kind) : kind_(kind) {}

  CovKind kind() const { return kind_; }
  std::size_t num_params() const { return kind_ == CovKind::SqExp ? 2 : 3; }
  std::vector<std::string> param_names() const;

  /// C(h; theta) for distance h >= 0. Continuous at h = 0 (returns sigma2).
  /// Evaluates through the same per-element kernels as covariance_batch, so
  /// scalar and batched results are bit-identical by construction; for
  /// general-nu Matérn one entry runs the scalar Bessel loops, which the
  /// batch's vector lanes reproduce bit for bit.
  double value(double h, std::span<const double> theta) const;

  /// Validate a parameter vector (arity, positivity). Throws mpgeo::Error.
  void check_params(std::span<const double> theta) const;

 private:
  CovKind kind_;
};

/// Batched evaluation out[i] = C(h[i]; theta): parameters are checked once
/// and per-family constants hoisted out of a tight per-element loop. The
/// Matérn half-integer smoothnesses the paper's applications use (nu = 0.5,
/// 1.5, 2.5) take closed forms — one exp per entry, no Bessel-K. General nu
/// hoists the 2^{1-nu}/Gamma(nu) normalizer and evaluates K_nu through
/// log_bessel_k_batch (stats/besselk.hpp), whose vector lanes run on
/// active_kernel_variant(); every entry is bit-identical to
/// Covariance::value and to the scalar Bessel path. In-place evaluation
/// (out == h) is allowed: the map is elementwise.
void covariance_batch(const Covariance& cov, std::span<const double> theta,
                      std::span<const double> h, std::span<double> out);

/// The same on kernel variant `v` (it must be kernel_variant_available), so
/// tests and benchmarks can run every variant the CPU offers.
void covariance_batch(KernelVariant v, const Covariance& cov,
                      std::span<const double> theta, std::span<const double> h,
                      std::span<double> out);

/// The seed per-entry evaluation this repo started from: parameter checks on
/// every call and the log-space Bessel-K Matérn for *every* order, including
/// half-integer nu. Kept as ground truth for the batch-equivalence tests and
/// as the baseline bench_covariance measures the fast path against.
double reference_covariance_value(const Covariance& cov, double h,
                                  std::span<const double> theta);

/// Dense covariance matrix Sigma(theta)_{ij} = C(||s_i - s_j||; theta).
/// A small nugget (`nugget * sigma2` on the diagonal) keeps the matrix
/// numerically SPD for near-duplicate locations; the paper's synthetic
/// generator avoids duplicates the same way.
Matrix<double> covariance_matrix(const Covariance& cov,
                                 const LocationSet& locs,
                                 std::span<const double> theta,
                                 double nugget = 1e-8);

/// One tile of the covariance matrix: rows [r0, r0+mb) x cols [c0, c0+nb).
/// Internally column-blocked: distances land in the output column, then one
/// covariance_batch call maps them to values in place.
void covariance_tile(const Covariance& cov, const LocationSet& locs,
                     std::span<const double> theta, std::size_t r0,
                     std::size_t c0, std::size_t mb, std::size_t nb,
                     double* out, std::size_t ld, double nugget = 1e-8);

}  // namespace mpgeo
