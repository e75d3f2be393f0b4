// Modified Bessel function of the second kind K_nu(x) for real order.
//
// Required by the Matérn covariance (paper Section III-A). Implemented from
// scratch with the classic two-regime scheme (Temme 1975; cf. Numerical
// Recipes "bessik"): a Temme power series for x <= 2 and Steed's CF2
// continued fraction for x > 2, both evaluated at the fractional order
// mu in [-1/2, 1/2] and raised by stable upward recurrence
//   K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x).
// Accuracy: ~1e-13 relative over nu in [0, 30], x in (0, 700).
//
// log_bessel_k_batch evaluates many arguments at one order, as the general-nu
// Matérn covariance fill does. It computes the order's own quantities once
// (Temme's gamma factors, CF2's coefficient sequences), groups the arguments
// by regime, and runs each group's series or continued fraction across the
// lanes of an AVX2 or AVX-512 vector. Every lane follows the scalar operation
// sequence and stops at the scalar iteration, so each result is bit-identical
// to log_bessel_k, which stays the portable fallback and the oracle.
#pragma once

#include <span>

#include "precision/simd_kernels.hpp"

namespace mpgeo {

/// K_nu(x) for nu >= 0, x > 0. Throws mpgeo::Error on domain violations.
/// Underflows smoothly to 0 for large x (x >~ 705).
double bessel_k(double nu, double x);

/// log(K_nu(x)), usable when K itself would underflow (large x).
double log_bessel_k(double nu, double x);

/// out[i] = log_bessel_k(nu, x[i]) for every i, bit for bit, on kernel
/// variant `v`, which must be kernel_variant_available();
/// KernelVariant::Portable runs the scalar loops with the order's quantities
/// hoisted. Throws the scalar function's mpgeo::Error for an order or
/// argument out of domain and for an argument that does not converge. `out`
/// may alias `x`. Scratch is per thread and sized to the batch.
void log_bessel_k_batch(KernelVariant v, double nu, std::span<const double> x,
                        std::span<double> out);

}  // namespace mpgeo
