// Covariance-generation fast path (DESIGN.md 5d): batched kernels vs the
// scalar evaluation, closed-form half-integer Matérn vs the Bessel-K seed
// formula, the theta-invariant distance cache, parallel-vs-serial tile
// assembly bit-identity, and Sigma-buffer/workspace reuse through the MLE.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mle.hpp"
#include "core/mp_cholesky.hpp"
#include "core/sampled_norms.hpp"
#include "core/tile_geometry.hpp"
#include "core/tiled_covariance.hpp"
#include "obs/metrics.hpp"
#include "optim/optimizer.hpp"
#include "stats/covariance.hpp"
#include "stats/field.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Test-local oracle for mp_log_likelihood: Sigma rebuilt from scratch per
/// evaluation by build_tiled_covariance (serial, no distance cache, no
/// reused buffer), then the same factor, logdet and solve sequence
/// mp_log_likelihood runs. Escalation retries restore from mp_cholesky's
/// snapshot instead of a refill — the same pristine values.
double reference_loglik(const Covariance& cov, const LocationSet& locs,
                        std::span<const double> theta,
                        std::span<const double> z, const MleOptions& o) {
  constexpr double kFailed = -1e100;
  constexpr double kLog2Pi = 1.83787706640934548356065947281;
  TileMatrix sigma =
      build_tiled_covariance(cov, locs, theta, o.tile, o.nugget);
  MpCholeskyOptions chol;
  chol.u_req = o.u_req;
  chol.comm = o.comm;
  chol.num_threads = o.num_threads;
  chol.fp16_32_rule_eps = o.fp16_32_rule_eps;
  chol.escalation = o.escalation;
  if (mp_cholesky(sigma, chol).info != 0) return kFailed;
  double logdet = 0.0;
  try {
    logdet = logdet_tiled(sigma);
  } catch (const Error&) {
    return kFailed;
  }
  std::vector<double> y(z.begin(), z.end());
  forward_solve_tiled(sigma, y);
  double quad = 0.0;
  for (double v : y) quad += v * v;
  const double ll =
      -0.5 * double(locs.size()) * kLog2Pi - 0.5 * logdet - 0.5 * quad;
  return std::isfinite(ll) ? ll : kFailed;
}

/// fit_mle's protocol (start just inside the lower bounds, the same box and
/// optimizer options) driven by reference_loglik.
MleResult reference_fit(const Covariance& cov, const LocationSet& locs,
                        std::span<const double> z, const MleOptions& o) {
  const std::size_t p = cov.num_params();
  const std::vector<double> lo(p, o.lower_bound), hi(p, o.upper_bound);
  const std::vector<double> start(p, o.lower_bound + 1e-3);
  const OptimResult opt = minimize(
      [&](std::span<const double> theta) {
        return -reference_loglik(cov, locs, theta, z, o);
      },
      start, lo, hi, o.optim);
  MleResult r;
  r.theta = opt.x;
  r.loglik = -opt.fx;
  r.evaluations = opt.evaluations;
  r.converged = opt.converged;
  return r;
}

// Distances exercising every regime: exact zero, the h < 1e-14 Matérn
// guard, tiny, moderate, and underflow-large arguments.
std::vector<double> probe_distances() {
  std::vector<double> h = {0.0,  1e-16, 1e-13, 1e-6, 0.001, 0.01, 0.05,
                           0.1,  0.17,  0.25,  0.5,  0.9,   1.0,  1.41,
                           5.0,  20.0,  120.0};
  Rng rng(99);
  for (int i = 0; i < 200; ++i) h.push_back(rng.uniform(0.0, 2.0));
  return h;
}

struct KindCase {
  CovKind kind;
  std::vector<double> theta;
};

std::vector<KindCase> all_kind_cases() {
  return {
      {CovKind::SqExp, {1.3, 0.07}},
      {CovKind::PowExp, {1.1, 0.2, 1.0}},
      {CovKind::PowExp, {0.9, 0.15, 1.7}},
      {CovKind::Matern, {1.0, 0.1, 0.5}},
      {CovKind::Matern, {1.4, 0.08, 1.5}},
      {CovKind::Matern, {0.7, 0.12, 2.5}},
      {CovKind::Matern, {1.0, 0.1, 0.8}},   // general nu (Bessel path)
      {CovKind::Matern, {1.2, 0.09, 2.7}},  // general nu above the ladder
  };
}

TEST(CovarianceBatch, MatchesScalarBitwise) {
  const std::vector<double> h = probe_distances();
  for (const KindCase& c : all_kind_cases()) {
    const Covariance cov(c.kind);
    std::vector<double> batch(h.size());
    covariance_batch(cov, c.theta, h, batch);
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_TRUE(same_bits(batch[i], cov.value(h[i], c.theta)))
          << to_string(c.kind) << " nu/alpha-case h=" << h[i];
    }
  }
}

TEST(CovarianceBatch, InPlaceEvaluationIsSupported) {
  const Covariance cov(CovKind::Matern);
  const std::vector<double> theta = {1.0, 0.1, 1.5};
  std::vector<double> h = probe_distances();
  std::vector<double> expected(h.size());
  covariance_batch(cov, theta, h, expected);
  covariance_batch(cov, theta, h, h);  // elementwise map: aliasing is fine
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(same_bits(h[i], expected[i]));
  }
}

TEST(CovarianceBatch, SqExpPowExpBitIdenticalToSeedReference) {
  // The sqexp/powexp formulas are unchanged from the seed: the batch loop
  // must reproduce the seed per-entry evaluation bit for bit.
  const std::vector<double> h = probe_distances();
  for (const KindCase& c : all_kind_cases()) {
    if (c.kind == CovKind::Matern) continue;
    const Covariance cov(c.kind);
    std::vector<double> batch(h.size());
    covariance_batch(cov, c.theta, h, batch);
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_TRUE(
          same_bits(batch[i], reference_covariance_value(cov, h[i], c.theta)))
          << to_string(c.kind) << " h=" << h[i];
    }
  }
}

TEST(CovarianceBatch, GeneralNuMaternWithinTwoUlpOfSeedReference) {
  // General nu keeps the Bessel-K log-space formula with the theta-only
  // normalizer hoisted — same association, so this is exact in practice;
  // the contract allows <= 2 ulp for compiler-contraction slack.
  const std::vector<double> h = probe_distances();
  for (const double nu : {0.8, 1.0, 2.0, 2.7, 3.9}) {
    const Covariance cov(CovKind::Matern);
    const std::vector<double> theta = {1.1, 0.1, nu};
    std::vector<double> batch(h.size());
    covariance_batch(cov, theta, h, batch);
    for (std::size_t i = 0; i < h.size(); ++i) {
      const double ref = reference_covariance_value(cov, h[i], theta);
      double lo = ref, hi = ref;
      for (int ulp = 0; ulp < 2; ++ulp) {
        lo = std::nextafter(lo, -1.0);
        hi = std::nextafter(hi, 2.0);
      }
      EXPECT_GE(batch[i], lo) << "nu=" << nu << " h=" << h[i];
      EXPECT_LE(batch[i], hi) << "nu=" << nu << " h=" << h[i];
    }
  }
}

TEST(CovarianceBatch, ClosedFormHalfIntegerMaternMatchesBessel) {
  // nu in {0.5, 1.5, 2.5} now avoids bessel_k entirely; the closed forms
  // must agree with the seed Bessel evaluation to its own accuracy (~1e-13).
  for (const double nu : {0.5, 1.5, 2.5}) {
    const Covariance cov(CovKind::Matern);
    const std::vector<double> theta = {1.0, 0.1, nu};
    for (const double h : probe_distances()) {
      const double ref = reference_covariance_value(cov, h, theta);
      const double fast = cov.value(h, theta);
      if (ref > 1e-280) {
        EXPECT_NEAR(fast / ref, 1.0, 1e-11) << "nu=" << nu << " h=" << h;
      } else {
        EXPECT_LT(fast, 1e-270) << "nu=" << nu << " h=" << h;
      }
    }
  }
}

TEST(CovarianceBatch, Validation) {
  const Covariance cov(CovKind::SqExp);
  std::vector<double> h = {0.1, -0.5};
  std::vector<double> out(2);
  EXPECT_THROW(
      covariance_batch(cov, std::vector<double>{1.0, 0.1}, h, out), Error);
  std::vector<double> short_out(1);
  EXPECT_THROW(covariance_batch(cov, std::vector<double>{1.0, 0.1},
                                std::vector<double>{0.1, 0.2}, short_out),
               Error);
  EXPECT_THROW(covariance_batch(cov, std::vector<double>{1.0},
                                std::vector<double>{0.1}, short_out),
               Error);
}

TEST(DistanceBlock, MatchesPerEntryDistanceBitwise) {
  Rng rng(5);
  for (const int dim : {2, 3}) {
    const LocationSet locs = generate_locations(97, dim, rng);
    std::vector<double> block(40 * 7);
    distance_block(locs, 13, 55, 40, 7, block.data(), 40);
    for (std::size_t j = 0; j < 7; ++j) {
      for (std::size_t i = 0; i < 40; ++i) {
        EXPECT_TRUE(
            same_bits(block[i + j * 40], locs.distance(13 + i, 55 + j)))
            << dim << "D (" << i << "," << j << ")";
      }
    }
  }
  const LocationSet locs = generate_locations(30, 2, rng);
  std::vector<double> block(4);
  EXPECT_THROW(distance_block(locs, 28, 0, 4, 1, block.data(), 4), Error);
  EXPECT_THROW(distance_block(locs, 0, 0, 4, 1, block.data(), 2), Error);
}

TEST(TileGeometry, CachedBlocksMatchDistanceBitwise) {
  Rng rng(21);
  const LocationSet locs = generate_locations(230, 2, rng);  // ragged: 230/48
  const std::size_t nb = 48;
  const TileGeometry geo(locs, nb);
  EXPECT_EQ(geo.n(), 230u);
  EXPECT_EQ(geo.num_tiles(), 5u);
  EXPECT_EQ(geo.tile_rows(4), 230u - 4 * 48u);
  for (std::size_t m = 0; m < geo.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const std::span<const double> d = geo.tile_distances(m, k);
      const std::size_t mb = geo.tile_rows(m);
      ASSERT_EQ(d.size(), mb * geo.tile_rows(k));
      for (std::size_t j = 0; j < geo.tile_rows(k); ++j) {
        for (std::size_t i = 0; i < mb; ++i) {
          EXPECT_TRUE(same_bits(d[i + j * mb],
                                locs.distance(m * nb + i, k * nb + j)))
              << m << "," << k << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(CovarianceTile, MatchesScalarReferenceLoop) {
  Rng rng(31);
  const LocationSet locs = generate_locations(120, 2, rng);
  const double nugget = 1e-8;
  for (const KindCase& c : all_kind_cases()) {
    const Covariance cov(c.kind);
    std::vector<double> tile(35 * 30);
    covariance_tile(cov, locs, c.theta, 10, 5, 35, 30, tile.data(), 35,
                    nugget);
    for (std::size_t j = 0; j < 30; ++j) {
      for (std::size_t i = 0; i < 35; ++i) {
        const std::size_t gi = 10 + i, gj = 5 + j;
        double v = cov.value(locs.distance(gi, gj), c.theta);
        if (gi == gj) v += nugget * c.theta[0];
        EXPECT_TRUE(same_bits(tile[i + j * 35], v))
            << to_string(c.kind) << " (" << i << "," << j << ")";
      }
    }
  }
}

void expect_tiles_identical(const TileMatrix& a, const TileMatrix& b,
                            const std::string& label) {
  ASSERT_EQ(a.num_tiles(), b.num_tiles());
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const std::vector<double> va = a.tile(m, k).to_double();
      const std::vector<double> vb = b.tile(m, k).to_double();
      ASSERT_EQ(va.size(), vb.size());
      for (std::size_t i = 0; i < va.size(); ++i) {
        ASSERT_TRUE(same_bits(va[i], vb[i]))
            << label << " tile (" << m << "," << k << ") entry " << i;
      }
    }
  }
}

TEST(FillTiledCovariance, AllVariantsBitIdenticalToBuild) {
  Rng rng(41);
  const LocationSet locs = generate_locations(170, 2, rng);  // ragged: 170/48
  const std::size_t nb = 48;
  for (const KindCase& c : {KindCase{CovKind::SqExp, {1.0, 0.1}},
                            KindCase{CovKind::Matern, {1.0, 0.08, 1.5}},
                            KindCase{CovKind::Matern, {1.0, 0.08, 0.9}}}) {
    const Covariance cov(c.kind);
    const TileMatrix built =
        build_tiled_covariance(cov, locs, c.theta, nb, 1e-8);

    const TileGeometry geo(locs, nb);
    for (const bool parallel : {false, true}) {
      for (const bool cached : {false, true}) {
        CovGenOptions opts;
        opts.parallel = parallel;
        opts.num_threads = parallel ? 4 : 0;
        opts.geometry = cached ? &geo : nullptr;
        TileMatrix filled(locs.size(), nb);
        fill_tiled_covariance(filled, cov, locs, c.theta, 1e-8, opts);
        expect_tiles_identical(built, filled,
                               to_string(c.kind) +
                                   (parallel ? "+parallel" : "+serial") +
                                   (cached ? "+cached" : ""));
      }
    }
  }
}

TEST(FillTiledCovariance, RefillsBufferAfterStorageDegradation) {
  // After mp_cholesky re-stores tiles per the precision map, a refill must
  // reset them to FP64 and reproduce a fresh build exactly.
  Rng rng(43);
  const LocationSet locs = generate_locations(128, 2, rng);
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> theta = {1.0, 0.05};
  TileMatrix a = build_tiled_covariance(cov, locs, theta, 32, 1e-8);
  a.set_storage(1, 0, Storage::FP16);
  a.set_storage(2, 2, Storage::FP32);
  a.tile(3, 1).set(0, 0, 777.0);  // stale values must be overwritten too
  const TileGeometry geo(locs, 32);
  CovGenOptions opts;
  opts.geometry = &geo;
  fill_tiled_covariance(a, cov, locs, theta, 1e-8, opts);
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_EQ(a.tile(m, k).storage(), Storage::FP64);
    }
  }
  expect_tiles_identical(build_tiled_covariance(cov, locs, theta, 32, 1e-8),
                         a, "refill");
}

TEST(FillTiledCovariance, ParallelAssemblyDeterministic) {
  // Repeated parallel fills on a contended pool must be bit-identical —
  // tiles are disjoint, so scheduling order can never leak into values.
  // (Also the TSan coverage for the GENERATE task bodies.)
  Rng rng(47);
  const LocationSet locs = generate_locations(300, 2, rng);
  const Covariance cov(CovKind::Matern);
  const std::vector<double> theta = {1.0, 0.1, 0.5};
  const TileGeometry geo(locs, 25);
  CovGenOptions opts;
  opts.parallel = true;
  opts.num_threads = 4;
  opts.geometry = &geo;
  TileMatrix first(locs.size(), 25);
  fill_tiled_covariance(first, cov, locs, theta, 1e-8, opts);
  for (int rep = 0; rep < 3; ++rep) {
    TileMatrix again(locs.size(), 25);
    fill_tiled_covariance(again, cov, locs, theta, 1e-8, opts);
    expect_tiles_identical(first, again, "parallel rep");
  }
}

TEST(FillTiledCovariance, ReportsCovgenMetrics) {
  Rng rng(53);
  const LocationSet locs = generate_locations(96, 2, rng);
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> theta = {1.0, 0.1};
  MetricsRegistry reg;
  const TileGeometry geo(locs, 32, &reg);
  EXPECT_EQ(reg.counter_value("covgen.geometry_builds"), 1u);
  EXPECT_GT(reg.gauge_value("covgen.geometry_bytes"), 0.0);

  CovGenOptions opts;
  opts.metrics = &reg;
  TileMatrix a(locs.size(), 32);
  fill_tiled_covariance(a, cov, locs, theta, 1e-8, opts);  // uncached
  opts.geometry = &geo;
  fill_tiled_covariance(a, cov, locs, theta, 1e-8, opts);  // cached
  const std::uint64_t tiles_per_fill = 3 * (3 + 1) / 2;
  EXPECT_EQ(reg.counter_value("covgen.tiles"), 2 * tiles_per_fill);
  EXPECT_EQ(reg.counter_value("covgen.batch_calls"), 2 * tiles_per_fill);
  EXPECT_EQ(reg.counter_value("covgen.distance_blocks_computed"),
            tiles_per_fill);
  EXPECT_EQ(reg.counter_value("covgen.distance_cache_hits"), tiles_per_fill);
  // 96x96 lower triangle incl. diagonal tiles, per fill.
  EXPECT_EQ(reg.counter_value("covgen.values"), 2u * (3 * 32 * 32 + 3 * 32 * 32));
}

TEST(MleWorkspace, FastPathBitIdenticalAcrossEvaluations) {
  const Covariance cov(CovKind::Matern);
  const std::vector<double> truth = {1.0, 0.1, 0.5};
  Rng rng(61);
  const LocationSet locs = generate_locations(150, 2, rng);
  Rng field_rng = rng.spawn(7);
  const std::vector<double> z = sample_field(cov, locs, truth, field_rng);

  MleOptions fast;
  fast.u_req = 1e-9;
  fast.tile = 40;
  const MleOptions slow = fast;

  MleWorkspace ws;
  MetricsRegistry reg;
  fast.metrics = &reg;
  for (const std::vector<double>& theta :
       {std::vector<double>{1.0, 0.1, 0.5}, {0.6, 0.2, 1.5},
        {1.3, 0.05, 0.5}, {0.9, 0.15, 0.8}}) {
    const double a = mp_log_likelihood(cov, locs, theta, z, fast, ws);
    const double b = reference_loglik(cov, locs, theta, z, slow);
    EXPECT_TRUE(same_bits(a, b)) << "theta[2]=" << theta[2];
  }
  // One geometry for the whole sequence, served from cache every time.
  EXPECT_EQ(reg.counter_value("covgen.geometry_builds"), 1u);
  EXPECT_EQ(reg.counter_value("covgen.distance_blocks_computed"), 0u);
  EXPECT_GT(reg.counter_value("covgen.distance_cache_hits"), 0u);
}

TEST(MleWorkspace, FitMleFastPathBitIdentical) {
  // The acceptance gate: identical theta-hat (and likelihood) from fit_mle
  // and from the rebuild-per-evaluation reference fit for a fixed-seed
  // Matérn problem.
  const Covariance cov(CovKind::Matern);
  const std::vector<double> truth = {1.0, 0.1, 0.5};
  Rng rng(67);
  const LocationSet locs = generate_locations(120, 2, rng);
  Rng field_rng = rng.spawn(3);
  const std::vector<double> z = sample_field(cov, locs, truth, field_rng);

  MleOptions fast;
  fast.u_req = 1e-9;
  fast.tile = 30;
  fast.optim.max_evaluations = 250;

  const MleResult rf = fit_mle(cov, locs, z, fast);
  const MleResult rs = reference_fit(cov, locs, z, fast);
  ASSERT_EQ(rf.theta.size(), rs.theta.size());
  for (std::size_t p = 0; p < rf.theta.size(); ++p) {
    EXPECT_TRUE(same_bits(rf.theta[p], rs.theta[p])) << "param " << p;
  }
  EXPECT_TRUE(same_bits(rf.loglik, rs.loglik));
  EXPECT_EQ(rf.evaluations, rs.evaluations);
  EXPECT_EQ(rf.converged, rs.converged);
}

TEST(SampledNorms, NbOneDiagonalTilesAreExact) {
  // nb == 1 diagonal tiles have no off-diagonal entries: every sample is
  // rejected, and the accepted-sample divisor must not turn that into 0/0 —
  // the norm is exactly sigma2 (plus nothing).
  Rng rng(71);
  const LocationSet locs = generate_locations(16, 2, rng);
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> theta = {1.7, 0.1};
  Rng srng(5);
  const SampledNorms est =
      sample_tile_norms(cov, locs, theta, 4, 1, 64, srng);
  for (std::size_t k = 0; k < 4; ++k) {
    const double norm = est.tile_norms[k * (k + 1) / 2 + k];
    EXPECT_TRUE(std::isfinite(norm));
    EXPECT_NEAR(norm, 1.7, 1e-12);
  }
  EXPECT_TRUE(std::isfinite(est.global_norm));
}

}  // namespace
}  // namespace mpgeo
