// fit-matern: fit_mle fits of the paper's 2D-Matern application, one after
// another, timed per likelihood evaluation.
//
// Why: filling the general-nu Bessel covariance is most of each evaluation,
// every evaluation spins up two dedicated pools, and at representative theta
// most tiles stay FP64 and nothing breaks down. The workload exercises
// covgen, per-call scheduling and the optimizer, and bypasses demoted
// kernels and escalation. The optimizer budget is fixed, so the evaluation
// count is too.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/comm_map.hpp"
#include "core/mle.hpp"
#include "core/mp_cholesky.hpp"
#include "core/precision_map.hpp"
#include "core/tile_geometry.hpp"
#include "core/tiled_covariance.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "optim/optimizer.hpp"
#include "stats/covariance.hpp"
#include "stats/field.hpp"
#include "stats/locations.hpp"

namespace perfbench {
namespace {

using namespace mpgeo;

constexpr double kSentinel = -1e100;
constexpr double kLog2Pi = 1.83787706640934548356065947281;
constexpr std::size_t kWorkers = 4;

struct Shape {
  std::size_t n, tile;
  int max_evaluations;
};

Shape shape(const Args& args) {
  return args.smoke ? Shape{256, 64, 3} : Shape{1024, 128, 10};
}

MleOptions fit_options(const Shape& s, std::size_t threads) {
  MleOptions o;
  o.u_req = 1e-9;
  o.fp16_32_rule_eps = 1e-6;
  o.tile = s.tile;
  o.num_threads = threads;
  o.optim.max_evaluations = s.max_evaluations;
  return o;
}

struct Inputs {
  LocationSet locs;
  std::vector<double> z;
};

const std::vector<double> kThetaTrue = {1.0, 0.05, 0.5};

Inputs make_inputs(const Args& args, const Shape& s) {
  Rng rng(args.seed);
  Inputs in;
  in.locs = generate_locations(s.n, 2, rng);
  in.z = sample_field(Covariance(CovKind::Matern), in.locs, kThetaTrue, rng);
  return in;
}

/// fit_mle's evaluation count under a budget B with p parameters:
/// Nelder-Mead starts with p + 1 evaluations and finishes the iteration
/// that reaches B (at most p + 2 more), then the pattern-search polish runs
/// max(64, what is left) = 64, finishing its last sweep (at most 2p - 1
/// more).
bool evaluations_as_budgeted(int evals, int budget, std::size_t params) {
  const int p = int(params);
  const int lo = std::max(budget, p + 1) + 64;
  return evals >= lo && evals <= lo + 3 * p;
}

/// One likelihood evaluation taken apart at the layer boundaries, computing
/// exactly what mp_log_likelihood computes against a workspace.
struct Decomposer {
  const Covariance& cov;
  const Inputs& in;
  const MleOptions& opts;
  std::shared_ptr<const TileGeometry> geometry;
  TileMatrix sigma;
  ExecTotals exec;
  double fill_s = 0.0, logdet_s = 0.0, solve_s = 0.0;
  int evals = 0;

  Decomposer(const Covariance& c, const Inputs& i, const MleOptions& o)
      : cov(c), in(i), opts(o),
        geometry(std::make_shared<const TileGeometry>(i.locs, o.tile)),
        sigma(i.locs.size(), o.tile) {}

  double eval(std::span<const double> theta, Ledger& led, std::uint64_t op) {
    Scope root(&led, "eval.decomposed", "", op);
    CovGenOptions gen;
    gen.parallel = opts.num_threads != 1;
    gen.num_threads = opts.num_threads;
    gen.geometry = geometry.get();
    double t0 = now_s();
    {
      Scope s(&led, "fill_tiled_covariance", "covgen", op, root.id());
      fill_tiled_covariance(sigma, cov, in.locs, theta, opts.nugget, gen);
    }
    fill_s += now_s() - t0;

    MpCholeskyOptions chol;
    chol.u_req = opts.u_req;
    chol.comm = opts.comm;
    chol.num_threads = opts.num_threads;
    chol.fp16_32_rule_eps = opts.fp16_32_rule_eps;
    chol.escalation = opts.escalation;
    chol.capture_trace = true;
    chol.regenerate = [&](TileMatrix& s) {
      fill_tiled_covariance(s, cov, in.locs, theta, opts.nugget, gen);
    };
    const double c0 = now_s();
    const MpCholeskyResult r = mp_cholesky(sigma, chol);
    const double c1 = now_s();
    led.add_factorization(r, sigma, kWorkers, c0, c1, root.id(), op, exec);
    ++evals;
    if (r.info != 0) return kSentinel;

    double logdet = 0.0;
    t0 = now_s();
    try {
      Scope s(&led, "logdet_tiled", "mle.logdet", op, root.id());
      logdet = logdet_tiled(sigma);
    } catch (const Error&) {
      return kSentinel;
    }
    logdet_s += now_s() - t0;
    std::vector<double> y(in.z.begin(), in.z.end());
    t0 = now_s();
    {
      Scope s(&led, "forward_solve_tiled", "mle.solve", op, root.id());
      forward_solve_tiled(sigma, y);
    }
    solve_s += now_s() - t0;
    double quad = 0.0;
    for (double v : y) quad += v * v;
    const double n = double(in.z.size());
    const double ll = -0.5 * n * kLog2Pi - 0.5 * logdet - 0.5 * quad;
    return std::isfinite(ll) ? ll : kSentinel;
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Checks of a fit: theta-hat inside the box, the budgeted evaluation
/// count, and mp_log_likelihood(theta-hat) against the exact dense FP64
/// likelihood within a tolerance scaled from u_req. The check's own
/// evaluation counts as one operation.
void check_fit(const Args& args, const Covariance& cov, const Inputs& in,
               const MleOptions& opts, MleResult fit, Result& out) {
  if (args.corrupt == "box") fit.theta[0] = opts.upper_bound * 1.5;
  if (args.corrupt == "evals") fit.evaluations /= 2;
  bool in_box = fit.theta.size() == cov.num_params();
  for (double t : fit.theta) {
    in_box = in_box && t >= opts.lower_bound && t <= opts.upper_bound;
  }
  out.check(in_box, "theta-hat outside the box [lower_bound, upper_bound]");
  const bool budgeted = out.check(
      evaluations_as_budgeted(fit.evaluations, opts.optim.max_evaluations,
                              cov.num_params()),
      "evaluation count " + std::to_string(fit.evaluations) +
          " differs from the budgeted count");
  if (!in_box) {
    out.op(false);
    return;
  }
  double mp = mp_log_likelihood(cov, in.locs, fit.theta, in.z, opts);
  if (args.corrupt == "loglik") mp *= 1.0 + 1e-6;
  const double exact =
      exact_log_likelihood(cov, in.locs, fit.theta, in.z, opts.nugget);
  const double rel = std::abs(mp - exact) / std::abs(exact);
  out.info("loglik_rel_gap", rel, "ratio", "lower");
  const bool agrees = out.check(
      rel <= 10.0 * opts.u_req,
      "mp_log_likelihood(theta-hat) differs from the exact likelihood by " +
          std::to_string(rel) + " relative (> 10 u_req)");
  out.op(budgeted && agrees);
}

/// fit_mle's loop (minimize over mp_log_likelihood against one workspace,
/// started just inside the lower bounds) run here so that every evaluation
/// is timed, and given a span when `led` is set. The traced pass checks
/// that it reproduces fit_mle bit for bit.
struct TimedFit {
  MleResult fit;
  double wall_s = 0.0;
  std::vector<double> eval_s, values;
  std::vector<std::vector<double>> thetas;
};

TimedFit timed_fit(const Covariance& cov, const Inputs& in,
                   const MleOptions& opts, Ledger* led, std::uint64_t op) {
  TimedFit tf;
  MleWorkspace ws;
  const std::size_t p = cov.num_params();
  const std::vector<double> lo(p, opts.lower_bound), hi(p, opts.upper_bound);
  const std::vector<double> start(p, opts.lower_bound + 1e-3);
  Scope fit_span(led, "fit", "optim", op);
  const Objective objective = [&](std::span<const double> theta) {
    Scope e(led, "mp_log_likelihood", "mle", op, fit_span.id());
    const double t0 = now_s();
    const double v = mp_log_likelihood(cov, in.locs, theta, in.z, opts, ws);
    tf.eval_s.push_back(now_s() - t0);
    tf.values.push_back(v);
    if (led) tf.thetas.emplace_back(theta.begin(), theta.end());
    return -v;
  };
  const double t0 = now_s();
  const OptimResult opt = minimize(objective, start, lo, hi, opts.optim);
  tf.wall_s = now_s() - t0;
  tf.fit.theta = opt.x;
  tf.fit.loglik = -opt.fx;
  tf.fit.evaluations = opt.evaluations;
  tf.fit.converged = opt.converged;
  return tf;
}

/// Count a fit's evaluations as operations (a sentinel fails one) and check
/// that the optimizer reported the evaluations it ran.
void count_evaluations(const TimedFit& tf, Result& out) {
  for (double v : tf.values) out.op(v != kSentinel);
  out.check(tf.fit.evaluations == int(tf.values.size()),
            "fit reports " + std::to_string(tf.fit.evaluations) +
                " evaluations but the objective ran " +
                std::to_string(tf.values.size()) + " times");
}

}  // namespace

void run_fit_matern(const Args& args, Result& out) {
  const Shape s = shape(args);
  const Covariance cov(CovKind::Matern);
  const MleOptions opts = fit_options(s, kWorkers);

  // Set-up: seeded inputs, then one warm-up evaluation at the optimizer's
  // start point (first-touch allocation and pool start-up leave the timed
  // fits).
  Inputs in;
  const std::vector<double> start(cov.num_params(), opts.lower_bound + 1e-3);
  const double setup_s = median_setup_seconds(3, [&] {
    in = make_inputs(args, s);
    MleWorkspace ws;
    mp_log_likelihood(cov, in.locs, start, in.z, opts, ws);
  });

  if (!args.trace) {
    std::vector<double> fit_s, eval_ms;
    double fit_total = 0.0;
    std::size_t evals = 0, sentinels = 0;
    TimedFit last;
    const double t_end = now_s() + args.seconds;
    do {
      last = timed_fit(cov, in, opts, nullptr, 0);
      count_evaluations(last, out);
      fit_s.push_back(last.wall_s);
      fit_total += last.wall_s;
      for (double e : last.eval_s) eval_ms.push_back(1e3 * e);
      for (double v : last.values) sentinels += v == kSentinel;
      evals += last.values.size();
    } while (now_s() < t_end);
    out.check(sentinels == 0, std::to_string(sentinels) +
                                  " evaluations returned the sentinel");
    check_fit(args, cov, in, opts, last.fit, out);

    // Baseline: the same evaluation at theta-hat with every tile in FP64
    // (a u_req no tile norm can meet keeps the whole map at FP64).
    MleOptions fp64 = opts;
    fp64.u_req = std::numeric_limits<double>::min();
    std::vector<double> ref_s;
    for (int r = 0; r < 3; ++r) {
      const double t0 = now_s();
      const double v =
          mp_log_likelihood(cov, in.locs, last.fit.theta, in.z, fp64);
      ref_s.push_back(now_s() - t0);
      out.op(
          out.check(v != kSentinel, "FP64 evaluation returned the sentinel"));
    }

    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("op_ms", median(eval_ms));
    out.set("ops_per_s", double(evals) / fit_total);
    out.info("fit_s", median(fit_s), "s", "lower");
    out.info("fp64_eval_ms", 1e3 * median(ref_s), "ms", "lower");
    out.info("eval_ms", 1e3 * fit_total / double(evals), "ms", "lower");
    out.info("sentinel_frac", double(sentinels) / double(evals), "ratio",
             "lower");
    out.info("evaluations_per_fit", double(last.values.size()), "count", "-");
    out.info("fits", double(fit_s.size()), "count", "-");
    return;
  }

  // Traced pass. 1) fit_mle itself, for the overhead figure and as the
  // reference the timed loop must reproduce.
  const double u0 = now_s();
  const MleResult plain = fit_mle(cov, in.locs, in.z, opts);
  const double untraced_s = now_s() - u0;

  // 2) the same fit with a span per mp_log_likelihood call and the
  // registry's counters.
  MetricsRegistry reg;
  MleOptions traced = opts;
  traced.metrics = &reg;
  Ledger fit_led;
  const TimedFit tf = timed_fit(cov, in, traced, &fit_led, 1);
  const double traced_s = tf.wall_s;
  const MleResult& fit = tf.fit;
  const std::vector<double>& values = tf.values;
  const std::vector<double>& eval_s = tf.eval_s;
  const std::vector<std::vector<double>>& thetas = tf.thetas;
  count_evaluations(tf, out);
  out.op(out.check(fit.theta.size() == plain.theta.size() &&
                       std::memcmp(fit.theta.data(), plain.theta.data(),
                                   fit.theta.size() * sizeof(double)) == 0 &&
                       same_bits(fit.loglik, plain.loglik) &&
                       fit.evaluations == plain.evaluations,
                   "the timed optimizer loop does not reproduce fit_mle "
                   "bitwise"));
  check_fit(args, cov, in, opts, fit, out);

  // 3) sampled evaluations replayed at layer boundaries; each must equal
  // the value mp_log_likelihood returned at the same theta.
  Decomposer dec(cov, in, opts);
  Ledger eval_led;
  const std::size_t stride = std::max<std::size_t>(1, thetas.size() / 8);
  for (std::size_t i = 0; i < thetas.size(); i += stride) {
    const double v = dec.eval(thetas[i], eval_led, 100 + i);
    out.op(out.check(same_bits(v, values[i]),
                     "decomposed log-likelihood differs from "
                     "mp_log_likelihood at evaluation " + std::to_string(i)));
  }

  // 4) maps on the last decomposed Sigma (refilled: the factorization
  // re-stored it), and one evaluation on a single worker.
  {
    CovGenOptions gen;
    gen.parallel = true;
    gen.num_threads = kWorkers;
    gen.geometry = dec.geometry.get();
    fill_tiled_covariance(dec.sigma, cov, in.locs, fit.theta, opts.nugget,
                          gen);
    std::vector<double> map_s;
    for (int r = 0; r < 3; ++r) {
      const double t0 = now_s();
      const PrecisionMap pm =
          build_precision_map(dec.sigma, opts.u_req, default_precision_ladder(),
                              opts.fp16_32_rule_eps);
      const CommMap cm = build_comm_map(pm, opts.comm);
      map_s.push_back(now_s() - t0);
    }
    out.set("maps.build_ms", 1e3 * median(map_s));
  }
  std::vector<double> one, four;
  const MleOptions single = fit_options(s, 1);
  for (int r = 0; r < 3; ++r) {
    double t0 = now_s();
    mp_log_likelihood(cov, in.locs, fit.theta, in.z, single);
    one.push_back(now_s() - t0);
    t0 = now_s();
    mp_log_likelihood(cov, in.locs, fit.theta, in.z, opts);
    four.push_back(now_s() - t0);
  }

  // Per-layer figures.
  const double n_evals = double(values.size());
  double eval_sum = 0.0;
  for (double e : eval_s) eval_sum += e;
  const double dec_evals = double(dec.evals);
  const double dec_wall = eval_led.root_seconds();
  const std::uint64_t breakdowns = reg.counter_value("cholesky.breakdowns");
  const std::uint64_t escalations = reg.counter_value("cholesky.escalations");

  out.set("covgen.fill_ms", 1e3 * dec.fill_s / dec_evals);
  out.set("covgen.share", dec.fill_s / dec_wall);
  out.set("covgen.mvalues_per_s",
          double(reg.counter_value("covgen.values")) /
              (1e-3 * double(reg.counter_value("covgen.nanos"))));
  set_exec_layers(out, dec.exec, dec_evals, reg, n_evals);
  out.set("sched.speedup_vs_1t", median(one) / median(four));
  out.set("mle.logdet_ms", 1e3 * dec.logdet_s / dec_evals);
  out.set("mle.solve_ms", 1e3 * dec.solve_s / dec_evals);
  std::vector<double> eval_ms;
  for (double e : eval_s) eval_ms.push_back(1e3 * e);
  out.set("mle.eval_p50_ms", median(eval_ms));
  const Tail tail = tail_with_ten_beyond(eval_ms);
  out.set("mle.eval_tail_ms", tail.value);
  out.set("mle.eval_tail_pct", tail.pct);
  out.info("mle.eval_samples", n_evals, "count", "-");
  out.info("mle.eval_tail_beyond", double(tail.beyond), "count", "-");
  out.set("mle.sentinel_frac", double(breakdowns - escalations) / n_evals);
  out.set("optim.evals", n_evals);
  out.set("optim.self_ms", 1e3 * (traced_s - eval_sum));
  set_ledger(out, eval_led, kWorkers, dec_evals);
  out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
  Ledger all = fit_led;
  for (Span sp : eval_led.spans()) {
    if (sp.parent >= 0) sp.parent += int(fit_led.spans().size());
    all.add(std::move(sp));
  }
  all.write_chrome(args.workdir + "/fit-matern.trace.json");
}

}  // namespace perfbench
