// Maximum likelihood estimation driver (paper Section III-A / VII-B).
//
// Evaluates the Gaussian log-likelihood (eq. 1) through the mixed-precision
// tile Cholesky and maximizes it with the bounded derivative-free optimizer,
// reproducing the paper's experimental protocol: parameters boxed in
// [0.01, 2], optimizer started at the lower bounds, tolerance 1e-9.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/comm_map.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tile_geometry.hpp"
#include "core/tile_matrix.hpp"
#include "optim/optimizer.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace mpgeo {

class MetricsRegistry;
class FaultInjector;
class ExecutorSession;

struct MleOptions {
  /// Required accuracy u_req driving the precision maps. Use `exact` for the
  /// paper's "exact computation" baseline column.
  double u_req = 1e-9;
  bool exact = false;       ///< full-FP64 dense likelihood (no tiling effects)
  std::size_t tile = 100;   ///< tile size for the mixed-precision path
  double nugget = 1e-8;     ///< diagonal regularization (x sigma2)
  /// Experimentally determined FP16_32 rule epsilon (0 = theoretical bound);
  /// see build_precision_map.
  double fp16_32_rule_eps = 0.0;
  CommMapOptions comm;
  std::size_t num_threads = 0;
  OptimOptions optim{1e-9, 4000, 0.25};
  double lower_bound = 0.01;  ///< paper: all params in [0.01, 2]
  double upper_bound = 2.0;
  /// covgen.*, executor and mp_cholesky counters (null = off).
  MetricsRegistry* metrics = nullptr;
  /// Breakdown recovery (DESIGN.md 5e), on by default for the MLE: a POTRF
  /// breakdown promotes the offending band and re-factors up to two times
  /// (regenerating Sigma from the covariance, not snapshotting) before the
  /// evaluation falls back to the -1e100 sentinel as before. The optimizer
  /// then keeps exploring instead of walking a cliff wherever rounding
  /// breaks SPD-ness.
  EscalationOptions escalation{/*max_attempts=*/2, /*promote_ladder=*/false};
  /// Deterministic fault injection for tests/benches (null = off).
  FaultInjector* fault_injector = nullptr;
  /// Rank-sharded factorization (src/dist): forwarded to every mp_cholesky
  /// so each likelihood evaluation runs the block-cyclic SEND/RECV path.
  /// Bit-identical to ranks == 1 (the default) — see MpCholeskyOptions::dist.
  DistOptions dist;
  /// Run every internal task graph (covariance generation, factorization)
  /// on this persistent shared pool instead of spinning per-evaluation
  /// pools (runtime/executor_session.hpp). num_threads is then ignored.
  /// This is how the FitServer (src/serve) multiplexes many concurrent
  /// fits onto one executor; results are bit-identical either way.
  ExecutorSession* session = nullptr;
  /// Compress wire payloads of the rank-sharded path (tile codec, lossless
  /// over the wire-rounded payload — bit-identical on/off). Forwarded to
  /// every factorization; see MpCholeskyOptions::compress_wire.
  bool compress_wire = false;
  /// Sub-ladder storage truncation of every Sigma before factoring (the
  /// compressed-tier numeric path; MpCholeskyOptions::truncation). Perturbs
  /// values within the Higham–Mary budget — the accuracy suite bounds the
  /// theta-hat impact against FP64.
  TruncationOptions truncation;
  /// Out-of-core fit: the workspace Sigma gets a spill tier (anonymous
  /// tmpfile unless it already has one) and every evaluation pages —
  /// generation write-installs + dead-spills tiles, the factorization pages
  /// under OutOfCoreOptions as usual (each graph on a pager of its own
  /// under ooc.resident_byte_budget), and logdet / forward-solve read the
  /// spilled factor in place, decoding one tile at a time into scratch
  /// without restoring or re-spilling it. With ooc.shared set, both graphs
  /// register as tenants of the process-wide pager and logdet / solve lease
  /// each decoded tile's bytes from the same global budget — this is how
  /// the FitServer oversubscribes memory across concurrent fits. Every
  /// combination is bit-identical to the fully resident fit.
  OutOfCoreOptions ooc;
};

/// Reusable per-fit state for mp_log_likelihood: the distance cache and the
/// Sigma tile buffer, built lazily on first use and shared across all
/// evaluations of one fit. A workspace binds to the first LocationSet it is
/// used with (recorded as `locs_fingerprint`); reusing it with a different
/// set — even one of the same size, which formerly yielded silently wrong
/// likelihoods from stale distances — fails fast with mpgeo::Error. Reset
/// `locs_fingerprint` to 0 to rebind (the FitServer's workspace pool does
/// this when re-leasing to a new tenant).
///
/// `geometry` is shared, not owned: tenants whose location sets share a
/// fingerprint can point their workspaces at one theta-invariant
/// TileGeometry (it is immutable after construction, so concurrent fits
/// read it safely); mp_log_likelihood fills it lazily when null.
struct MleWorkspace {
  std::shared_ptr<const TileGeometry> geometry;
  std::unique_ptr<TileMatrix> sigma;
  std::uint64_t locs_fingerprint = 0;  ///< 0 = not yet bound
  /// Lifetime paging stats: every out-of-core factorization this workspace
  /// ever ran accumulates here, across fits and re-leases.
  OocStats ooc;
  /// Paging stats of the current fit only. fit_mle zeroes this at fit start
  /// and snapshots it into MleResult::ooc at fit end, so per-fit gates
  /// (demand_faults <= uses) hold even when a pooled workspace is reused —
  /// previously a reused pager surface would have kept accumulating.
  OocStats ooc_run;
};

struct MleResult {
  std::vector<double> theta;
  double loglik = 0.0;
  int evaluations = 0;
  bool converged = false;
  /// Paging stats summed over this fit's evaluations (MleOptions::ooc);
  /// all-zero when the fit ran fully resident.
  OocStats ooc;
};

/// One mixed-precision log-likelihood evaluation. Returns -infinity-like
/// (-1e100) when Sigma(theta) loses positive definiteness under rounding.
double mp_log_likelihood(const Covariance& cov, const LocationSet& locs,
                         std::span<const double> theta,
                         std::span<const double> z, const MleOptions& options);

/// Same evaluation against a caller-held workspace, so an optimizer loop
/// computes the tile distances once and refills one Sigma buffer per
/// candidate theta instead of rebuilding both. Results are bit-identical to
/// the workspace-free overload.
double mp_log_likelihood(const Covariance& cov, const LocationSet& locs,
                         std::span<const double> theta,
                         std::span<const double> z, const MleOptions& options,
                         MleWorkspace& workspace);

/// Fit theta-hat = argmax l(theta) from observations z.
MleResult fit_mle(const Covariance& cov, const LocationSet& locs,
                  std::span<const double> z, const MleOptions& options = {});

/// Same fit against a caller-held workspace, so a serving layer can pool
/// workspaces across fits and pre-share the TileGeometry among tenants with
/// identical location sets. Bit-identical to the workspace-free overload.
MleResult fit_mle(const Covariance& cov, const LocationSet& locs,
                  std::span<const double> z, const MleOptions& options,
                  MleWorkspace& workspace);

}  // namespace mpgeo
