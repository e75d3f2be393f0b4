// Precision-escalation recovery tests (DESIGN.md 5e): covariances that
// provably break down at coarse accuracy, convergence of the escalated
// factorization to the FP64-reference log-likelihood, the attempt bound,
// PrecisionMap monotonicity, the injected-POTRF acceptance scenario at
// several pool sizes (tsan label), and the MLE workspace-restoration bugfix.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/mle.hpp"
#include "core/mp_cholesky.hpp"
#include "core/precision_map.hpp"
#include "core/tiled_covariance.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/task_graph.hpp"
#include "stats/covariance.hpp"
#include "stats/field.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

constexpr double kLog2Pi = 1.83787706640934548356065947281;

/// Gaussian log-likelihood from an already-factored TileMatrix.
double loglik_from_factor(const TileMatrix& l, const std::vector<double>& z) {
  const double logdet = logdet_tiled(l);
  std::vector<double> y(z);
  forward_solve_tiled(l, y);
  double quad = 0.0;
  for (double v : y) quad += v * v;
  return -0.5 * double(z.size()) * kLog2Pi - 0.5 * logdet - 0.5 * quad;
}

/// A near-unit-range Matérn (nu = 2.5) covariance that deterministically
/// loses positive definiteness at u_req = 0.5 on the default ladder: the
/// smooth kernel keeps off-diagonal tile norms close to the diagonal's, so
/// the Higham–Mary rule demotes aggressively and FP16 rounding breaks
/// POTRF at an early diagonal tile for this (seed, n, nb).
struct BreakingProblem {
  Covariance cov{CovKind::Matern};
  std::vector<double> theta{1.0, 1.0, 2.5};
  LocationSet locs;
  std::vector<double> z;
  static constexpr std::size_t kN = 192;
  static constexpr std::size_t kNb = 24;
  static constexpr double kNugget = 1e-8;
  static constexpr double kUreq = 0.5;

  BreakingProblem() {
    Rng rng(21);
    locs = generate_locations(kN, 2, rng);
    Rng frng = rng.spawn(7);
    z = sample_field(cov, locs, theta, frng);
  }
  TileMatrix matrix() const {
    return build_tiled_covariance(cov, locs, theta, kNb, kNugget);
  }
  MpCholeskyOptions options() const {
    MpCholeskyOptions o;
    o.u_req = kUreq;
    return o;
  }
};

/// Transitive successor closure of `root` (excluding `root` itself).
std::set<TaskId> transitive_closure(const TaskGraph& g, TaskId root) {
  std::set<TaskId> out;
  std::vector<TaskId> stack{root};
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    for (TaskId succ : g.task(t).successors) {
      if (out.insert(succ).second) stack.push_back(succ);
    }
  }
  return out;
}

TEST(Escalation, PrecisionMapHelpersAreMonotone) {
  const std::vector<Precision> ladder = default_precision_ladder();
  EXPECT_EQ(promote_one(Precision::FP16, ladder), Precision::FP16_32);
  EXPECT_EQ(promote_one(Precision::FP16_32, ladder), Precision::FP32);
  EXPECT_EQ(promote_one(Precision::FP32, ladder), Precision::FP64);
  EXPECT_EQ(promote_one(Precision::FP64, ladder), Precision::FP64);

  PrecisionMap map(4, Precision::FP16);
  const PrecisionMap before(map);
  // Band through k=2 touches (2,0), (2,1), (2,2), (3,2): four tiles.
  EXPECT_EQ(escalate_band(map, 2, ladder), 4u);
  EXPECT_EQ(map.kernel(2, 1), Precision::FP16_32);
  EXPECT_EQ(map.kernel(3, 2), Precision::FP16_32);
  EXPECT_EQ(map.kernel(1, 0), Precision::FP16);  // outside the band
  EXPECT_TRUE(precision_at_least(map, before));
  EXPECT_FALSE(precision_at_least(before, map));

  // escalate_all saturates at the all-FP64 map in ladder-length steps.
  for (int i = 0; i < 3; ++i) escalate_all(map, ladder);
  EXPECT_EQ(escalate_all(map, ladder), 0u);
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_EQ(map.kernel(m, k), Precision::FP64);
    }
  }
}

TEST(Escalation, CoarseLadderProvablyBreaksDown) {
  const BreakingProblem p;
  TileMatrix a = p.matrix();
  MpCholeskyOptions o = p.options();  // escalation off by default
  const MpCholeskyResult res = mp_cholesky(a, o);
  EXPECT_GT(res.info, 0);
  EXPECT_GE(res.breakdown_tile, 0);
  EXPECT_EQ(res.breakdowns, 1);
  EXPECT_EQ(res.escalations, 0);
  ASSERT_EQ(res.attempt_failures.size(), 1u);
  EXPECT_FALSE(res.attempt_failures[0].failed.empty());
  EXPECT_FALSE(res.attempt_failures[0].ok());
}

TEST(Escalation, ConvergesToFp64ReferenceLoglik) {
  const BreakingProblem p;

  TileMatrix ref = p.matrix();
  const MpCholeskyResult r64 = fp64_cholesky(ref);
  ASSERT_EQ(r64.info, 0);
  const double ll64 = loglik_from_factor(ref, p.z);

  // The initial map, for the monotonicity assertion below.
  TileMatrix a = p.matrix();
  MpCholeskyOptions o = p.options();
  const PrecisionMap initial =
      build_precision_map(a, o.u_req, o.ladder, o.fp16_32_rule_eps);

  MetricsRegistry metrics;
  o.metrics = &metrics;
  o.escalation.max_attempts = 8;
  // Band-only promotion chases the wandering breakdown tile forever on this
  // matrix; the ladder-wide policy is the one that guarantees convergence.
  o.escalation.promote_ladder = true;
  const MpCholeskyResult res = mp_cholesky(a, o);  // snapshot restore path
  ASSERT_EQ(res.info, 0);
  EXPECT_GE(res.breakdowns, 1);
  EXPECT_GE(res.escalations, 1);
  EXPECT_LE(res.escalations, 8);
  EXPECT_EQ(res.attempt_failures.size(), std::size_t(res.breakdowns));

  const double ll = loglik_from_factor(a, p.z);
  EXPECT_LT(std::fabs(ll - ll64) / std::fabs(ll64), 1e-6);

  // The recovered map never demotes any tile below its initial precision.
  EXPECT_TRUE(precision_at_least(res.pmap, initial));
  EXPECT_FALSE(precision_at_least(initial, res.pmap));

  const auto snap = metrics.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(counter("cholesky.breakdowns"), std::uint64_t(res.breakdowns));
  EXPECT_EQ(counter("cholesky.escalations"), std::uint64_t(res.escalations));
}

TEST(Escalation, RespectsAttemptBound) {
  const BreakingProblem p;
  TileMatrix a = p.matrix();
  MpCholeskyOptions o = p.options();
  o.escalation.max_attempts = 2;  // band-only: provably insufficient here
  const MpCholeskyResult res = mp_cholesky(a, o);
  EXPECT_GT(res.info, 0);
  EXPECT_EQ(res.escalations, 2);
  EXPECT_EQ(res.breakdowns, 3);  // every attempt broke
  EXPECT_EQ(res.attempt_failures.size(), 3u);
}

// The ISSUE's acceptance scenario: a seeded injected POTRF failure on an
// 8x8-tile factorization produces a RunReport with exactly the transitive-
// dependent set cancelled, then the escalation retry completes and matches
// the no-injection FP64 log-likelihood — at every pool size.
TEST(Escalation, InjectedPotrfFailureCancelsClosureThenRecovers) {
  const std::size_t n = 128;
  const std::size_t nb = 16;  // 8x8 tiles
  Rng rng(5);
  const LocationSet locs = generate_locations(n, 2, rng);
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> theta = {1.0, 0.1};
  Rng frng = rng.spawn(3);
  const std::vector<double> z = sample_field(cov, locs, theta, frng);
  const auto matrix = [&] {
    return build_tiled_covariance(cov, locs, theta, nb, 1e-8);
  };

  for (const std::size_t threads : {1u, 2u, 8u}) {
    MpCholeskyOptions o;
    o.u_req = 1e-9;
    o.num_threads = threads;
    o.capture_trace = true;

    // Reference run: no injection; also yields the task ids of the graph
    // (construction is deterministic, so ids are stable across runs).
    TileMatrix ref = matrix();
    const MpCholeskyResult rr = mp_cholesky(ref, o);
    ASSERT_EQ(rr.info, 0);
    const double ll_ref = loglik_from_factor(ref, z);
    ASSERT_TRUE(rr.graph);
    TaskId victim = 0;
    bool found = false;
    for (TaskId t = 0; t < rr.graph->num_tasks(); ++t) {
      const TaskInfo& info = rr.graph->task(t).info;
      if (info.kind == KernelKind::POTRF && info.tm == 3) {
        victim = t;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
    const std::set<TaskId> closure = transitive_closure(*rr.graph, victim);

    // Injected run: one NaN into POTRF(3)'s diagonal, then recovery.
    FaultInjectionOptions fi;
    fi.kind = FaultKind::ConvertNaN;
    fi.target_task = victim;
    fi.max_injections = 1;
    FaultInjector inj(fi);
    o.fault_injector = &inj;
    o.escalation.max_attempts = 2;
    TileMatrix a = matrix();
    const MpCholeskyResult res = mp_cholesky(a, o);

    ASSERT_EQ(res.info, 0) << "threads=" << threads;
    EXPECT_EQ(res.breakdowns, 1);
    EXPECT_EQ(res.escalations, 1);
    EXPECT_EQ(res.breakdown_tile, -1);  // cleared by the clean retry
    EXPECT_EQ(inj.injections(), 1u);
    ASSERT_EQ(res.attempt_failures.size(), 1u);
    const RunReport& report = res.attempt_failures[0];
    ASSERT_EQ(report.failed.size(), 1u);
    EXPECT_EQ(report.failed[0], victim);
    const std::set<TaskId> cancelled(report.cancelled.begin(),
                                     report.cancelled.end());
    EXPECT_EQ(cancelled, closure) << "threads=" << threads;

    const double ll = loglik_from_factor(a, z);
    EXPECT_LT(std::fabs(ll - ll_ref) / std::fabs(ll_ref), 1e-6)
        << "threads=" << threads;
  }
}

TEST(Escalation, MleRecoversLikelihoodViaRegeneration) {
  const BreakingProblem p;

  // FP64 reference likelihood through the same tiled pipeline.
  TileMatrix ref = p.matrix();
  ASSERT_EQ(fp64_cholesky(ref).info, 0);
  const double ll64 = loglik_from_factor(ref, p.z);

  MleOptions o;
  o.u_req = BreakingProblem::kUreq;
  o.tile = BreakingProblem::kNb;
  o.nugget = BreakingProblem::kNugget;

  // Escalation off: the evaluation hits the breakdown and returns the
  // -1e100 sentinel, exactly the pre-escalation behavior.
  o.escalation = EscalationOptions{0, false};
  const double ll_off = mp_log_likelihood(p.cov, p.locs, p.theta, p.z, o);
  EXPECT_EQ(ll_off, -1e100);

  // Escalation on: the regenerate callback refills Sigma from the
  // covariance between attempts (no snapshot copy) and the evaluation
  // converges to the FP64 reference.
  o.escalation = EscalationOptions{8, true};
  const double ll_on = mp_log_likelihood(p.cov, p.locs, p.theta, p.z, o);
  EXPECT_LT(std::fabs(ll_on - ll64) / std::fabs(ll64), 1e-6);
}

TEST(Escalation, MleInjectionRetryMatchesCleanValue) {
  const BreakingProblem p;
  MleOptions o;
  o.tile = BreakingProblem::kNb;
  o.nugget = BreakingProblem::kNugget;  // default u_req = 1e-9: no natural
                                        // breakdown, only the injected one
  const double clean = mp_log_likelihood(p.cov, p.locs, p.theta, p.z, o);
  ASSERT_GT(clean, -1e99);

  // One NaN into POTRF(0) — task 0 of every factorization graph. The
  // default MleOptions escalation (2 attempts) regenerates and retries.
  FaultInjectionOptions fi;
  fi.kind = FaultKind::ConvertNaN;
  fi.target_task = 0;
  fi.max_injections = 1;
  FaultInjector inj(fi);
  o.fault_injector = &inj;
  const double recovered = mp_log_likelihood(p.cov, p.locs, p.theta, p.z, o);
  EXPECT_EQ(inj.injections(), 1u);
  EXPECT_LT(std::fabs(recovered - clean) / std::fabs(clean), 1e-6);
}

// Regression for the workspace bug: a mid-factorization throw used to leave
// MleWorkspace::sigma tiles in degraded (FP16/FP32) storage, corrupting
// every later evaluation of the same fit. The error path must restore FP64,
// both for a resident Sigma and for an out-of-core one whose degraded tiles
// are spilled when the throw lands.
TEST(Escalation, MleWorkspaceStorageRestoredAfterInjectedThrow) {
  const BreakingProblem p;
  MleOptions base;
  base.u_req = BreakingProblem::kUreq;  // coarse: storage genuinely degrades
  base.tile = BreakingProblem::kNb;
  base.nugget = BreakingProblem::kNugget;

  // Precondition: this configuration demotes tile storage below FP64.
  {
    TileMatrix a = p.matrix();
    const PrecisionMap pm =
        build_precision_map(a, base.u_req, default_precision_ladder());
    bool any_demoted = false;
    for (std::size_t m = 0; m < pm.nt(); ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        any_demoted |= pm.kernel(m, k) != Precision::FP64;
      }
    }
    ASSERT_TRUE(any_demoted);
  }

  for (const bool ooc : {false, true}) {
    SCOPED_TRACE(ooc ? "out-of-core" : "resident");
    MleOptions o = base;
    o.escalation = EscalationOptions{0, false};
    o.ooc.enabled = ooc;
    o.ooc.resident_byte_budget = ooc ? p.matrix().bytes() / 3 : 0;

    // Every task armed: the first task to start throws InjectedFault, which
    // is not a breakdown and must propagate through mp_log_likelihood.
    FaultInjectionOptions fi;
    fi.kind = FaultKind::TaskException;
    fi.probability = 1.0;
    fi.seed = 11;
    FaultInjector inj(fi);
    o.fault_injector = &inj;

    MleWorkspace workspace;
    EXPECT_THROW(
        mp_log_likelihood(p.cov, p.locs, p.theta, p.z, o, workspace),
        InjectedFault);
    ASSERT_TRUE(workspace.sigma);
    EXPECT_EQ(workspace.sigma->spill_enabled(), ooc);
    bool any_spilled = false;
    for (std::size_t m = 0; m < workspace.sigma->num_tiles(); ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        any_spilled |= workspace.sigma->spilled(m, k);
        EXPECT_EQ(workspace.sigma->tile(m, k).storage(), Storage::FP64)
            << "tile (" << m << "," << k << ") left degraded";
      }
    }
    EXPECT_EQ(any_spilled, ooc);

    // And the workspace is immediately reusable: a clean evaluation against
    // the same buffer succeeds.
    o.fault_injector = nullptr;
    o.escalation = EscalationOptions{8, true};
    const double ll =
        mp_log_likelihood(p.cov, p.locs, p.theta, p.z, o, workspace);
    EXPECT_GT(ll, -1e99);
  }
}

}  // namespace
}  // namespace mpgeo
