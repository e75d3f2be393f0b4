#include "core/mle.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tiled_covariance.hpp"
#include "stats/field.hpp"

namespace mpgeo {
namespace {

constexpr double kFailedLogLik = -1e100;
constexpr double kLog2Pi = 1.83787706640934548356065947281;

}  // namespace

double mp_log_likelihood(const Covariance& cov, const LocationSet& locs,
                         std::span<const double> theta,
                         std::span<const double> z, const MleOptions& options) {
  MleWorkspace workspace;
  return mp_log_likelihood(cov, locs, theta, z, options, workspace);
}

double mp_log_likelihood(const Covariance& cov, const LocationSet& locs,
                         std::span<const double> theta,
                         std::span<const double> z, const MleOptions& options,
                         MleWorkspace& workspace) {
  const std::size_t n = locs.size();
  MPGEO_REQUIRE(z.size() == n, "mp_log_likelihood: observation size mismatch");

  // Bind the workspace to this LocationSet on first use and fail fast on a
  // mismatch afterwards: the cached tile distances (and a server-shared
  // geometry) are only valid for the exact coordinate sequence they were
  // built from, and the old "same size, different locations" reuse produced
  // silently wrong likelihoods.
  const std::uint64_t fp = location_fingerprint(locs);
  if (workspace.locs_fingerprint == 0) {
    workspace.locs_fingerprint = fp;
  } else {
    MPGEO_REQUIRE(workspace.locs_fingerprint == fp,
                  "MleWorkspace: reused with a different LocationSet than the "
                  "one it is bound to (location fingerprint mismatch); reset "
                  "locs_fingerprint to rebind");
  }

  if (options.exact) {
    return exact_log_likelihood(cov, locs, theta, z, options.nugget);
  }

  // Sigma(theta). The theta-invariant tile distances are computed once per
  // fit and one reused buffer is refilled; after mp_cholesky re-stored
  // tiles per the precision map, fill_tiled_covariance resets them to FP64.
  // Generation runs as GENERATE tasks on the session, or else on a pool of
  // the size the factorization uses (one worker under replica-level
  // parallelism in run_monte_carlo).
  const bool ooc = options.ooc.enabled;
  if (!workspace.geometry || workspace.geometry->n() != n ||
      workspace.geometry->nb() != options.tile) {
    workspace.geometry = std::make_shared<const TileGeometry>(
        locs, options.tile, options.metrics);
  }
  if (!workspace.sigma || workspace.sigma->n() != n ||
      workspace.sigma->nb() != options.tile) {
    workspace.sigma = std::make_unique<TileMatrix>(n, options.tile);
  }
  if (ooc && !workspace.sigma->spill_enabled()) {
    // The fill spills every resident tile before it attaches to the pager
    // (zero tiles compress to almost nothing), so it never spikes the
    // global ledger with a fresh resident matrix.
    SpillOptions sp;
    sp.enabled = true;
    sp.metrics = options.metrics;
    workspace.sigma->enable_spill(sp);
  }
  CovGenOptions gen;  // shared with the escalation regenerate callback
  gen.parallel = true;
  gen.num_threads = options.num_threads;
  gen.session = options.session;
  gen.geometry = workspace.geometry.get();
  gen.metrics = options.metrics;
  gen.ooc = options.ooc;
  TileMatrix& sigma = *workspace.sigma;
  // Out of core, every fill and factorization is a pager tenant; its stats
  // count toward the fit's and the workspace's lifetime totals.
  const auto count_paging = [ooc, &workspace](const OocStats& st) {
    if (!ooc) return;
    workspace.ooc_run.accumulate(st);
    workspace.ooc.accumulate(st);
  };
  count_paging(
      fill_tiled_covariance(sigma, cov, locs, theta, options.nugget, gen));

  MpCholeskyOptions chol;
  chol.u_req = options.u_req;
  chol.comm = options.comm;
  chol.num_threads = options.num_threads;
  chol.fp16_32_rule_eps = options.fp16_32_rule_eps;
  chol.metrics = options.metrics;
  chol.escalation = options.escalation;
  chol.fault_injector = options.fault_injector;
  chol.session = options.session;
  chol.dist = options.dist;
  chol.compress_wire = options.compress_wire;
  chol.truncation = options.truncation;
  chol.ooc = options.ooc;
  // Escalation retries restore Sigma by refilling it from the covariance —
  // the generator is the cheapest pristine source (no snapshot copy), the
  // refill reuses the cached tile distances, and it copes with the tiles
  // the failed attempt left spilled (covgen discards stale blobs in place),
  // so retries stay under the residency budget.
  chol.regenerate = [&cov, &locs, theta, &options, &gen,
                      &count_paging](TileMatrix& s) {
    count_paging(
        fill_tiled_covariance(s, cov, locs, theta, options.nugget, gen));
  };
  MpCholeskyResult res;
  try {
    res = mp_cholesky(sigma, chol);
  } catch (...) {
    // A mid-factorization throw (injected fault, kernel invariant) leaves
    // tiles re-stored per the precision map; the workspace outlives this
    // evaluation, so restore FP64 storage before propagating or the caller
    // inherits a degraded Sigma buffer. Spilled tiles stay spilled and are
    // only relabelled (the next fill overwrites every value anyway).
    sigma.reset_storage(Storage::FP64);
    throw;
  }
  count_paging(res.ooc);
  if (res.info != 0) return kFailedLogLik;

  // Out of core the factor stays spilled: both passes decode one tile at a
  // time into scratch, leased against the shared pager's budget when set.
  double logdet = 0.0;
  try {
    logdet = logdet_tiled(sigma, options.ooc.shared);
  } catch (const Error&) {
    return kFailedLogLik;  // rounding drove a pivot non-positive
  }
  std::vector<double> y(z.begin(), z.end());
  forward_solve_tiled(sigma, y, nullptr, options.ooc.shared);
  double quad = 0.0;
  for (double v : y) quad += v * v;
  const double ll = -0.5 * double(n) * kLog2Pi - 0.5 * logdet - 0.5 * quad;
  return std::isfinite(ll) ? ll : kFailedLogLik;
}

MleResult fit_mle(const Covariance& cov, const LocationSet& locs,
                  std::span<const double> z, const MleOptions& options) {
  // One workspace for the whole fit: the optimizer evaluates the likelihood
  // hundreds of times against the same locations, so the distance cache and
  // the Sigma buffer are shared across every evaluation.
  MleWorkspace workspace;
  return fit_mle(cov, locs, z, options, workspace);
}

MleResult fit_mle(const Covariance& cov, const LocationSet& locs,
                  std::span<const double> z, const MleOptions& options,
                  MleWorkspace& workspace) {
  // Per-fit paging counters start at zero even when the workspace is pooled
  // and reused; the lifetime view keeps accumulating in workspace.ooc.
  workspace.ooc_run = OocStats{};
  const std::size_t p = cov.num_params();
  const std::vector<double> lo(p, options.lower_bound);
  const std::vector<double> hi(p, options.upper_bound);
  // The paper's protocol: BOBYQA "consistently initiating from the lower
  // bound values". Starting exactly on the boundary degenerates the initial
  // simplex, so we nudge inward by one tolerance-scale step.
  std::vector<double> start(p, options.lower_bound + 1e-3);

  const Objective objective = [&](std::span<const double> theta) {
    return -mp_log_likelihood(cov, locs, theta, z, options, workspace);
  };
  const OptimResult opt = minimize(objective, start, lo, hi, options.optim);

  MleResult result;
  result.theta = opt.x;
  result.loglik = -opt.fx;
  result.evaluations = opt.evaluations;
  result.converged = opt.converged;
  result.ooc = workspace.ooc_run;
  return result;
}

}  // namespace mpgeo
