// Tests for the QR/SVD kernels, low-rank addition/recompression, and the
// TLR Cholesky factorization (the HiCMA-style future-work substrate).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/tlr_cholesky.hpp"
#include "linalg/qr_svd.hpp"
#include "linalg/reference.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor_session.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

TEST(HouseholderQr, ReconstructsAndOrthogonal) {
  Rng rng(3);
  for (const auto& [m, n] : {std::pair{12u, 12u}, {20u, 7u}, {5u, 5u}}) {
    std::vector<double> a(m * n), orig;
    for (auto& x : a) x = rng.uniform(-1, 1);
    orig = a;
    std::vector<double> r;
    householder_qr(m, n, a.data(), m, r);
    // Q^T Q == I.
    for (std::size_t c1 = 0; c1 < n; ++c1) {
      for (std::size_t c2 = 0; c2 < n; ++c2) {
        double dot = 0.0;
        for (std::size_t i = 0; i < m; ++i) dot += a[i + c1 * m] * a[i + c2 * m];
        EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-12);
      }
    }
    // Q R == A.
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (std::size_t p = 0; p <= j; ++p) acc += a[i + p * m] * r[p + j * n];
        EXPECT_NEAR(acc, orig[i + j * m], 1e-12);
      }
    }
  }
}

TEST(HouseholderQr, RequiresTallMatrix) {
  std::vector<double> a(6), r;
  EXPECT_THROW(householder_qr(2, 3, a.data(), 2, r), Error);
}

TEST(JacobiSvd, DiagonalMatrixExact) {
  const std::size_t n = 4;
  std::vector<double> a(n * n, 0.0);
  const double d[] = {5.0, 0.5, 3.0, 1.0};
  for (std::size_t i = 0; i < n; ++i) a[i + i * n] = d[i];
  const SvdResult s = jacobi_svd(n, n, a.data(), n);
  EXPECT_NEAR(s.sigma[0], 5.0, 1e-13);
  EXPECT_NEAR(s.sigma[1], 3.0, 1e-13);
  EXPECT_NEAR(s.sigma[2], 1.0, 1e-13);
  EXPECT_NEAR(s.sigma[3], 0.5, 1e-13);
}

TEST(JacobiSvd, ReconstructionAndOrthogonality) {
  Rng rng(7);
  for (const auto& [m, n] : {std::pair{10u, 6u}, {6u, 10u}, {8u, 8u}}) {
    std::vector<double> a(m * n);
    for (auto& x : a) x = rng.uniform(-2, 2);
    const SvdResult s = jacobi_svd(m, n, a.data(), m);
    const std::size_t k = std::min(m, n);
    // Singular values descending and non-negative.
    for (std::size_t i = 0; i + 1 < k; ++i) {
      EXPECT_GE(s.sigma[i], s.sigma[i + 1]);
      EXPECT_GE(s.sigma[i + 1], 0.0);
    }
    // A == U diag(sigma) V^T.
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += s.u[i + p * m] * s.sigma[p] * s.v[j + p * n];
        }
        EXPECT_NEAR(acc, a[i + j * m], 1e-11) << m << "x" << n;
      }
    }
  }
}

TEST(JacobiSvd, AgreesWithFrobeniusNorm) {
  Rng rng(11);
  std::vector<double> a(9 * 9);
  for (auto& x : a) x = rng.uniform(-1, 1);
  const SvdResult s = jacobi_svd(9, 9, a.data(), 9);
  double f2 = 0.0, s2 = 0.0;
  for (double x : a) f2 += x * x;
  for (double sv : s.sigma) s2 += sv * sv;
  EXPECT_NEAR(f2, s2, 1e-10);
}

TEST(TruncationRank, CountsAboveThreshold) {
  const std::vector<double> sigma = {10.0, 1.0, 1e-3, 1e-9};
  EXPECT_EQ(truncation_rank(sigma, 1e-2), 2u);
  EXPECT_EQ(truncation_rank(sigma, 1e-5), 3u);
  EXPECT_EQ(truncation_rank(sigma, 1e-12), 4u);
  EXPECT_EQ(truncation_rank({}, 1e-2), 0u);
}

TEST(LowRankAdd, ExactSumWhenNoTruncation) {
  Rng rng(13);
  const std::size_t m = 14, n = 10;
  auto random_factor = [&](std::size_t r) {
    LowRankFactor f;
    f.m = m;
    f.n = n;
    f.rank = r;
    f.u.resize(m * r);
    f.v.resize(n * r);
    for (auto& x : f.u) x = rng.uniform(-1, 1);
    for (auto& x : f.v) x = rng.uniform(-1, 1);
    return f;
  };
  const LowRankFactor a = random_factor(2);
  const LowRankFactor b = random_factor(3);
  const LowRankFactor sum = lowrank_add(a, -1.0, b, 1e-14);
  std::vector<double> da(m * n), db(m * n), ds(m * n);
  a.to_dense(da.data(), m);
  b.to_dense(db.data(), m);
  sum.to_dense(ds.data(), m);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(ds[i], da[i] - db[i], 1e-10);
  }
  EXPECT_LE(sum.rank, 5u);
}

TEST(LowRankAdd, CancellationShrinksRank) {
  Rng rng(17);
  LowRankFactor a;
  a.m = 12;
  a.n = 12;
  a.rank = 3;
  a.u.resize(36);
  a.v.resize(36);
  for (auto& x : a.u) x = rng.uniform(-1, 1);
  for (auto& x : a.v) x = rng.uniform(-1, 1);
  // a - a == 0: the truncated sum collapses to (near) rank 1 of zeros.
  const LowRankFactor zero = lowrank_add(a, -1.0, a, 1e-10);
  EXPECT_EQ(zero.rank, 1u);
  std::vector<double> d(144);
  zero.to_dense(d.data(), 12);
  for (double x : d) EXPECT_NEAR(x, 0.0, 1e-10);
}

TEST(LowRankRecompress, RemovesRedundantRank) {
  Rng rng(19);
  // Build a rank-2 matrix stored with rank 6 (duplicated columns).
  LowRankFactor f;
  f.m = 16;
  f.n = 12;
  f.rank = 6;
  std::vector<double> u1(16), u2(16), v1(12), v2(12);
  for (auto& x : u1) x = rng.uniform(-1, 1);
  for (auto& x : u2) x = rng.uniform(-1, 1);
  for (auto& x : v1) x = rng.uniform(-1, 1);
  for (auto& x : v2) x = rng.uniform(-1, 1);
  f.u.resize(16 * 6);
  f.v.resize(12 * 6);
  for (int c = 0; c < 6; ++c) {
    const auto& uu = (c % 2) ? u2 : u1;
    const auto& vv = (c % 2) ? v2 : v1;
    for (int i = 0; i < 16; ++i) f.u[i + c * 16] = uu[i] * (1.0 + c);
    for (int j = 0; j < 12; ++j) f.v[j + c * 12] = vv[j];
  }
  std::vector<double> before(16 * 12);
  f.to_dense(before.data(), 16);
  const LowRankFactor g = lowrank_recompress(f, 1e-12);
  EXPECT_LE(g.rank, 2u);
  EXPECT_LT(lowrank_error(before.data(), 16, 12, 16, g), 1e-10);
}

class TlrCholeskyTest : public ::testing::Test {
 protected:
  Matrix<double> covariance(std::size_t n, double beta, double nugget) {
    Rng rng(23);
    LocationSet locs = generate_locations(n, 2, rng);
    const Covariance cov(CovKind::SqExp);
    return covariance_matrix(cov, locs, std::vector<double>{1.0, beta}, nugget);
  }
};

TEST_F(TlrCholeskyTest, ResidualTracksTolerance) {
  const Matrix<double> a = covariance(240, 0.05, 1e-2);
  for (const double tol : {1e-4, 1e-7, 1e-10}) {
    TlrFactor f(a, 40, tol);
    const TlrCholeskyResult r = tlr_cholesky(f);
    ASSERT_EQ(r.info, 0) << tol;
    EXPECT_LT(tlr_cholesky_residual(a, f), 500 * tol) << tol;
  }
}

TEST_F(TlrCholeskyTest, LogdetMatchesDense) {
  const Matrix<double> a = covariance(200, 0.05, 1e-2);
  TlrFactor f(a, 40, 1e-10);
  ASSERT_EQ(tlr_cholesky(f).info, 0);
  Matrix<double> l = a;
  cholesky_lower(l);
  EXPECT_NEAR(tlr_logdet(f), logdet_from_cholesky(l),
              1e-6 * std::fabs(logdet_from_cholesky(l)));
}

TEST_F(TlrCholeskyTest, ForwardSolveMatchesDense) {
  const Matrix<double> a = covariance(160, 0.05, 1e-2);
  TlrFactor f(a, 40, 1e-11);
  ASSERT_EQ(tlr_cholesky(f).info, 0);
  Matrix<double> l = a;
  cholesky_lower(l);
  Rng rng(29);
  std::vector<double> b(160);
  for (auto& v : b) v = rng.normal();
  std::vector<double> x_dense = b, x_tlr = b;
  forward_solve(l, x_dense);
  tlr_forward_solve(f, x_tlr);
  for (std::size_t i = 0; i < 160; ++i) {
    EXPECT_NEAR(x_tlr[i], x_dense[i], 1e-6 * (1 + std::fabs(x_dense[i])));
  }
}

TEST_F(TlrCholeskyTest, RanksStayBounded) {
  // The factor's panels should remain genuinely low-rank for a smooth
  // kernel: factorization must not inflate ranks beyond the tile size.
  const Matrix<double> a = covariance(240, 0.2, 1e-2);
  TlrFactor f(a, 40, 1e-8);
  const double rank_before = f.mean_rank();
  const TlrCholeskyResult r = tlr_cholesky(f);
  ASSERT_EQ(r.info, 0);
  EXPECT_LT(r.mean_rank, 40.0);
  EXPECT_LT(r.mean_rank, rank_before * 3 + 10);
}

TEST_F(TlrCholeskyTest, DetectsIndefiniteMatrix) {
  Matrix<double> bad(80, 80);
  for (std::size_t i = 0; i < 80; ++i) bad(i, i) = 1.0;
  bad(50, 50) = -1.0;
  TlrFactor f(bad, 20, 1e-8);
  const TlrCholeskyResult r = tlr_cholesky(f);
  EXPECT_NE(r.info, 0);
}

TEST_F(TlrCholeskyTest, ExecutorPlumbingKeepsFactorsBitIdentical) {
  // Pools of different sizes, with and without metrics, and a
  // session-backed run are alternative executor plumbings of the same task
  // graph: every one must produce the same factor bit for bit.
  const Matrix<double> a = covariance(200, 0.05, 1e-2);

  TlrFactor ref(a, 40, 1e-8);
  TlrCholeskyOptions two;
  two.num_threads = 2;
  ASSERT_EQ(tlr_cholesky(ref, two).info, 0);

  const auto identical = [&](const TlrFactor& f) {
    for (std::size_t k = 0; k < ref.num_tiles(); ++k) {
      if (f.diagonal(k) != ref.diagonal(k)) return false;
    }
    for (std::size_t m = 1; m < ref.num_tiles(); ++m) {
      for (std::size_t k = 0; k < m; ++k) {
        const LowRankFactor& x = f.off(m, k);
        const LowRankFactor& y = ref.off(m, k);
        if (x.rank != y.rank || x.u != y.u || x.v != y.v) return false;
      }
    }
    return true;
  };

  {
    TlrFactor f(a, 40, 1e-8);
    TlrCholeskyOptions opt;
    opt.num_threads = 3;
    MetricsRegistry metrics;
    opt.metrics = &metrics;
    ASSERT_EQ(tlr_cholesky(f, opt).info, 0);
    EXPECT_TRUE(identical(f));
    EXPECT_GT(metrics.counter_value("executor.tasks_retired"), 0u);
  }
  {
    ExecutorSessionOptions sopt;
    sopt.num_threads = 2;
    ExecutorSession session(sopt);
    TlrFactor f(a, 40, 1e-8);
    TlrCholeskyOptions opt;
    opt.session = &session;
    ASSERT_EQ(tlr_cholesky(f, opt).info, 0);
    EXPECT_TRUE(identical(f));
  }
}

TEST_F(TlrCholeskyTest, RaggedTilesHandled) {
  const Matrix<double> a = covariance(150, 0.05, 1e-2);  // 150 = 3*40 + 30
  TlrFactor f(a, 40, 1e-9);
  ASSERT_EQ(tlr_cholesky(f).info, 0);
  EXPECT_LT(tlr_cholesky_residual(a, f), 1e-6);
}

}  // namespace
}  // namespace mpgeo
