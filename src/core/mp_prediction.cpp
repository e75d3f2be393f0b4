#include "core/mp_prediction.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/tiled_covariance.hpp"
#include "linalg/blas.hpp"

namespace mpgeo {

std::vector<double> symv_tiled(const TileMatrix& a, std::span<const double> x,
                               OperandCache* cache) {
  MPGEO_REQUIRE(x.size() == a.n(), "symv_tiled: size mismatch");
  const std::size_t nt = a.num_tiles();
  const std::size_t nb = a.nb();
  std::vector<double> y(a.n(), 0.0);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const AnyTile& t = a.tile(m, k);
      const auto buf =
          cached_operand(cache, t, 0, Precision::FP64);
      const std::size_t rows = t.rows();
      const std::size_t cols = t.cols();
      // y_m += T x_k
      gemv_notrans<double>(rows, cols, 1.0, buf->data(), rows,
                           x.data() + k * nb, 1.0, y.data() + m * nb);
      if (m != k) {
        // y_k += T^T x_m (mirrored upper block)
        for (std::size_t j = 0; j < cols; ++j) {
          double acc = 0.0;
          for (std::size_t i = 0; i < rows; ++i) {
            acc += (*buf)[i + j * rows] * x[m * nb + i];
          }
          y[k * nb + j] += acc;
        }
      }
    }
  }
  return y;
}

void cholesky_solve_tiled(const TileMatrix& l, std::vector<double>& b,
                          OperandCache* cache) {
  MPGEO_REQUIRE(b.size() == l.n(), "cholesky_solve_tiled: size mismatch");
  forward_solve_tiled(l, b, cache);  // y = L^{-1} b
  // Backward pass: x = L^{-T} y, processed bottom-up over tile rows.
  const std::size_t nt = l.num_tiles();
  const std::size_t nb = l.nb();
  for (std::size_t m = nt; m-- > 0;) {
    const std::size_t rows = l.tile_rows(m);
    double* bm = b.data() + m * nb;
    // bm -= L(p, m)^T x_p for already-solved tile rows p > m.
    for (std::size_t p = m + 1; p < nt; ++p) {
      const AnyTile& t = l.tile(p, m);
      const auto buf =
          cached_operand(cache, t, 0, Precision::FP64);
      for (std::size_t j = 0; j < t.cols(); ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < t.rows(); ++i) {
          acc += (*buf)[i + j * t.rows()] * b[p * nb + i];
        }
        bm[j] -= acc;
      }
    }
    const AnyTile& diag = l.tile(m, m);
    const auto lbuf =
        cached_operand(cache, diag, 0, Precision::FP64);
    trsm_left_lower_trans<double>(rows, 1, 1.0, lbuf->data(), rows, bm, rows);
  }
}

KrigingResult mp_krige(const Covariance& cov, const LocationSet& observed,
                       std::span<const double> z, const LocationSet& targets,
                       std::span<const double> theta,
                       const MpKrigeOptions& options) {
  cov.check_params(theta);
  MPGEO_REQUIRE(observed.dim == targets.dim,
                "mp_krige: observed/target dimensionality mismatch");
  const std::size_t n = observed.size();
  MPGEO_REQUIRE(z.size() == n, "mp_krige: observation count mismatch");

  TileMatrix sigma =
      build_tiled_covariance(cov, observed, theta, options.tile, options.nugget);
  MpCholeskyOptions copts;
  copts.u_req = options.u_req;
  copts.num_threads = options.num_threads;
  const MpCholeskyResult fac = mp_cholesky(sigma, copts);
  MPGEO_REQUIRE(fac.info == 0,
                "mp_krige: covariance lost positive definiteness at the "
                "requested accuracy — tighten u_req");

  // One cache across all solves against the (now immutable) factor: each
  // panel tile is widened once instead of once per target.
  OperandCache solve_cache;
  std::vector<double> zw(z.begin(), z.end());
  forward_solve_tiled(sigma, zw, &solve_cache);

  const std::size_t m = targets.size();
  KrigingResult out;
  out.mean.resize(m);
  out.variance.resize(m);
  const double sill = cov.value(0.0, theta);
  std::vector<double> k(n);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int d = 0; d < observed.dim; ++d) {
        const double diff = observed.coords[i * observed.dim + d] -
                            targets.coords[j * targets.dim + d];
        acc += diff * diff;
      }
      k[i] = cov.value(std::sqrt(acc), theta);
    }
    forward_solve_tiled(sigma, k, &solve_cache);
    double mean = 0.0, reduction = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mean += k[i] * zw[i];
      reduction += k[i] * k[i];
    }
    out.mean[j] = mean;
    out.variance[j] = std::max(0.0, sill - reduction);
  }
  return out;
}

RefinementResult mp_solve_refined(TileMatrix& a, std::span<const double> b,
                                  const RefinementOptions& options) {
  MPGEO_REQUIRE(b.size() == a.n(), "mp_solve_refined: rhs size mismatch");
  MPGEO_REQUIRE(options.tolerance > 0, "mp_solve_refined: bad tolerance");

  // Keep a pristine FP64 copy of Sigma for the exact residuals; factor `a`
  // in place at the (loose) preconditioner accuracy.
  const TileMatrix original = a;
  MpCholeskyOptions copts;
  copts.u_req = options.factor_u_req;
  copts.num_threads = options.num_threads;

  RefinementResult out;
  out.factorization = mp_cholesky(a, copts);
  MPGEO_REQUIRE(out.factorization.info == 0,
                "mp_solve_refined: factorization broke down; lower "
                "factor_u_req or improve conditioning");

  double norm_b = 0.0;
  for (double v : b) norm_b += v * v;
  norm_b = std::sqrt(norm_b);
  MPGEO_REQUIRE(norm_b > 0.0, "mp_solve_refined: zero right-hand side");

  // One cache for the repeated triangular solves against the fixed factor,
  // one for the repeated FP64 residual products against pristine Sigma.
  OperandCache solve_cache, residual_cache;

  // x0 = M^{-1} b with M the low-precision factorization.
  out.x.assign(b.begin(), b.end());
  cholesky_solve_tiled(a, out.x, &solve_cache);

  for (out.iterations = 0; out.iterations < options.max_iterations;
       ++out.iterations) {
    // Exact FP64 residual r = b - Sigma x.
    std::vector<double> r = symv_tiled(original, out.x, &residual_cache);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
    double norm_r = 0.0;
    for (double v : r) norm_r += v * v;
    norm_r = std::sqrt(norm_r);
    out.relative_residual = norm_r / norm_b;
    if (out.relative_residual <= options.tolerance) {
      out.converged = true;
      break;
    }
    // Correction through the low-precision factor.
    cholesky_solve_tiled(a, r, &solve_cache);
    for (std::size_t i = 0; i < out.x.size(); ++i) out.x[i] += r[i];
  }
  return out;
}

}  // namespace mpgeo
