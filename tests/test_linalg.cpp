// Tests for src/linalg: BLAS kernels vs naive oracles (TRSM, SYRK and POTRF
// bit for bit, for every kernel variant the CPU offers), Cholesky reference,
// AnyTile storage semantics, tile kernels against dense equivalents.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernel_test_util.hpp"
#include "linalg/anytile.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "linalg/reference.hpp"
#include "linalg/tile_kernels.hpp"
#include "precision/convert.hpp"

namespace mpgeo {
namespace {

Matrix<double> random_spd(std::size_t n, Rng& rng) {
  // A = B B^T + n * I is SPD with comfortable margin.
  Matrix<double> b(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1.0, 1.0);
  Matrix<double> a(n, n);
  syrk_lower_notrans(n, n, 1.0, b.data(), n, 0.0, a.data(), n);
  symmetrize_from_lower<double>(n, a.data(), n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += double(n);
  return a;
}

TEST(Blas, PotrfReconstructsMatrix) {
  Rng rng(1);
  for (std::size_t n : {1u, 2u, 5u, 17u, 64u}) {
    Matrix<double> a = random_spd(n, rng);
    Matrix<double> l = a;
    ASSERT_EQ(potrf_lower(n, l.data(), n), 0);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < j; ++i) l(i, j) = 0.0;
    EXPECT_LT(cholesky_residual(a, l), 1e-13) << "n=" << n;
  }
}

TEST(Blas, PotrfDetectsIndefiniteMatrix) {
  Matrix<double> a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // negative pivot at j=1
  a(2, 2) = 1.0;
  EXPECT_EQ(potrf_lower(std::size_t{3}, a.data(), 3), 2);
}

TEST(Blas, TrsmRightLowerTransSolvesXLtEqualsB) {
  Rng rng(2);
  const std::size_t m = 7, n = 5;
  Matrix<double> spd = random_spd(n, rng);
  Matrix<double> l = spd;
  ASSERT_EQ(potrf_lower(n, l.data(), n), 0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i) l(i, j) = 0.0;
  Matrix<double> b(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) b(i, j) = rng.uniform(-2, 2);
  Matrix<double> x = b;
  trsm_right_lower_trans<double>(m, n, 1.0, l.data(), n, x.data(), m);
  // Verify X * L^T == B.
  Matrix<double> recon(m, n);
  gemm<double>('N', 'T', m, n, n, 1.0, x.data(), m, l.data(), n, 0.0,
               recon.data(), m);
  EXPECT_LT(max_abs_diff(recon, b), 1e-12);
}

TEST(Blas, TrsmLeftLowerSolvesForwardSubstitution) {
  Rng rng(3);
  const std::size_t n = 9;
  Matrix<double> spd = random_spd(n, rng);
  Matrix<double> l = spd;
  ASSERT_EQ(potrf_lower(n, l.data(), n), 0);
  std::vector<double> b(n), x;
  for (auto& v : b) v = rng.uniform(-1, 1);
  x = b;
  trsm_left_lower_notrans<double>(n, 1, 1.0, l.data(), n, x.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0;
    for (std::size_t p = 0; p <= i; ++p) acc += l(i, p) * x[p];
    EXPECT_NEAR(acc, b[i], 1e-12);
  }
}

TEST(Blas, SyrkMatchesGemmWithTranspose) {
  Rng rng(4);
  const std::size_t n = 6, k = 4;
  Matrix<double> a(n, k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < n; ++i) a(i, j) = rng.uniform(-1, 1);
  Matrix<double> c1(n, n), c2(n, n);
  syrk_lower_notrans(n, k, 1.0, a.data(), n, 0.0, c1.data(), n);
  symmetrize_from_lower<double>(n, c1.data(), n);
  gemm<double>('N', 'T', n, n, k, 1.0, a.data(), n, a.data(), n, 0.0,
               c2.data(), n);
  EXPECT_LT(max_abs_diff(c1, c2), 1e-14);
}

TEST(Blas, GemvAndDot) {
  Matrix<double> a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  std::vector<double> x = {1, 1, 1}, y = {10, 20};
  gemv_notrans<double>(2, 3, 1.0, a.data(), 2, x.data(), 0.5, y.data());
  EXPECT_DOUBLE_EQ(y[0], 6 + 5);
  EXPECT_DOUBLE_EQ(y[1], 15 + 10);
  EXPECT_DOUBLE_EQ(dot<double>(2, y.data(), y.data()), 11 * 11 + 25 * 25);
}

TEST(Blas, FrobeniusNorm) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3; a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(frobenius_norm(2, 2, a.data(), 2), 5.0);
}

TEST(Blas, FloatInstantiationWorks) {
  Matrix<float> a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) a(i, i) = 4.0f;
  EXPECT_EQ(potrf_lower(std::size_t{3}, a.data(), 3), 0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a(i, i), 2.0f);
}

// ---------------------------------------------------------------------------
// TRSM, SYRK and POTRF variants vs their scalar loops, bit for bit
// ---------------------------------------------------------------------------

/// The TRSM textbook loop: v = alpha*b; v = v - x(i,p)*L(j,p), p ascending;
/// x(i,j) = v / L(j,j).
template <class T>
void trsm_oracle(std::size_t m, std::size_t n, T alpha, const T* l,
                 std::size_t ldl, T* b, std::size_t ldb) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      T v = alpha * b[i + j * ldb];
      for (std::size_t p = 0; p < j; ++p) {
        const T prod = b[i + p * ldb] * l[j + p * ldl];
        v = v - prod;
      }
      b[i + j * ldb] = v / l[j + j * ldl];
    }
  }
}

/// The SYRK textbook loop over the lower triangle.
void syrk_oracle(std::size_t n, std::size_t k, double alpha, const double* a,
                 std::size_t lda, double beta, double* c, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const double prod = a[i + p * lda] * a[j + p * lda];
        acc = acc + prod;
      }
      c[i + j * ldc] = alpha * acc + beta * c[i + j * ldc];
    }
  }
}

// Ragged shapes around every variant's blocks: rows straddle the 8/16-row
// AVX2 and 24/48-row AVX-512 blocks (double/float), columns the 4- and
// 8-column panels.
constexpr std::size_t kRaggedRows[] = {1,  7,  8,  16, 17, 23, 24,
                                       25, 33, 47, 48, 49, 256};
constexpr std::size_t kRaggedCols[] = {1, 7, 8, 9, 15, 16, 17, 33, 256};

/// Random value of magnitude ~`scale` with a random significand and sign.
template <class T>
T draw(Rng& rng, double scale) {
  const double v = scale * rng.uniform(1.0, 2.0);
  return static_cast<T>(rng.uniform() < 0.5 ? -v : v);
}

/// Every variant of trsm_right_lower_trans against the textbook loop on a
/// unit-lower-ish L (diagonal in [1, 2)) with a padded leading dimension;
/// `scale` sets the magnitude of B. Returns the mismatch count.
template <class T>
std::size_t check_trsm(std::size_t m, std::size_t n, double scale, Rng& rng) {
  const std::size_t ldl = n + 3, ldb = m + 2;
  std::vector<T> l(ldl * n, T(0)), b(ldb * n);
  for (std::size_t j = 0; j < n; ++j) {
    l[j + j * ldl] = static_cast<T>(rng.uniform(1.0, 2.0));
    for (std::size_t i = j + 1; i < n; ++i) {
      l[i + j * ldl] = static_cast<T>(rng.uniform(-0.5, 0.5) / double(n));
    }
  }
  for (auto& x : b) x = draw<T>(rng, scale);
  std::vector<T> want = b;
  const T alpha = T(1.5);
  trsm_oracle(m, n, alpha, l.data(), ldl, want.data(), ldb);
  std::size_t bad = 0;
  for (const KernelVariant v : available_variants()) {
    std::vector<T> got = b;
    trsm_right_lower_trans(v, m, n, alpha, l.data(), ldl, got.data(), ldb);
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!same_bits(got[i], want[i]) && ++bad <= 3) {
        ADD_FAILURE() << to_string(v) << " m=" << m << " n=" << n
                      << " elem " << i << ": got " << got[i] << " want "
                      << want[i];
      }
    }
  }
  return bad;
}

TEST(BlasVariants, TrsmMatchesTextbookLoopBitForBit) {
  Rng rng(91);
  std::size_t bad = 0;
  for (const std::size_t m : kRaggedRows) {
    for (const std::size_t n : kRaggedCols) {
      bad += check_trsm<double>(m, n, 1.0, rng);
      bad += check_trsm<float>(m, n, 1.0, rng);
    }
  }
  // Subnormal and overflow edges of each format.
  for (const double scale : {std::ldexp(1.0, -1070), std::ldexp(1.0, 1020)}) {
    bad += check_trsm<double>(17, 33, scale, rng);
  }
  for (const double scale : {std::ldexp(1.0, -145), std::ldexp(1.0, 126)}) {
    bad += check_trsm<float>(17, 33, scale, rng);
  }
  EXPECT_EQ(bad, 0u);
}

/// Every variant of syrk_lower_notrans against the textbook loop, with
/// padded leading dimensions; the strict upper triangle must stay untouched.
std::size_t check_syrk(std::size_t n, std::size_t k, double scale, Rng& rng) {
  const std::size_t lda = n + 1, ldc = n + 5;
  std::vector<double> a(lda * k), c(ldc * n);
  for (auto& x : a) x = draw<double>(rng, scale);
  for (auto& x : c) x = draw<double>(rng, 1.0);
  std::vector<double> want = c;
  const double alpha = -1, beta = 1;
  syrk_oracle(n, k, alpha, a.data(), lda, beta, want.data(), ldc);
  std::size_t bad = 0;
  for (const KernelVariant v : available_variants()) {
    std::vector<double> got = c;
    syrk_lower_notrans(v, n, k, alpha, a.data(), lda, beta, got.data(), ldc);
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!same_bits(got[i], want[i]) && ++bad <= 3) {
        ADD_FAILURE() << to_string(v) << " n=" << n << " k=" << k << " elem "
                      << i << ": got " << got[i] << " want " << want[i];
      }
    }
  }
  return bad;
}

TEST(BlasVariants, SyrkMatchesTextbookLoopBitForBit) {
  // n is both the row and the column count, so it takes every ragged size.
  Rng rng(92);
  std::size_t bad = 0;
  for (const std::size_t n :
       {1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 33, 47, 48, 49, 256}) {
    for (const std::size_t k : {1, 7, 8, 16, 17, 33, 256}) {
      bad += check_syrk(n, k, 1.0, rng);
    }
  }
  for (const double scale : {std::ldexp(1.0, -540), std::ldexp(1.0, 510)}) {
    bad += check_syrk(33, 17, scale, rng);
  }
  EXPECT_EQ(bad, 0u);
}

/// Every variant of potrf_lower against the scalar loop (the Portable
/// variant) on an n x n matrix with a padded leading dimension, whose strict
/// upper triangle and padding hold values no variant may touch. With
/// `bad_pivot` < n, that diagonal entry is made negative so the
/// factorization breaks down there. Returns the mismatch count: info, and
/// every byte of the buffer.
std::size_t check_potrf(std::size_t n, std::size_t bad_pivot, Rng& rng) {
  const std::size_t lda = n + 3;
  std::vector<double> a(lda * n);
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  // Symmetric and diagonally dominant: SPD, with random significands.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j + 1; i < n; ++i) a[i + j * lda] /= double(n);
    a[j + j * lda] = rng.uniform(1.0, 2.0);
  }
  if (bad_pivot < n) a[bad_pivot + bad_pivot * lda] = -0.5;
  std::vector<double> want = a;
  const int want_info =
      potrf_lower(KernelVariant::Portable, n, want.data(), lda);
  EXPECT_EQ(want_info, bad_pivot < n ? int(bad_pivot) + 1 : 0);
  std::size_t bad = 0;
  for (const KernelVariant v : available_variants()) {
    std::vector<double> got = a;
    const int info = potrf_lower(v, n, got.data(), lda);
    if (info != want_info && ++bad <= 3) {
      ADD_FAILURE() << to_string(v) << " n=" << n << ": info " << info
                    << " want " << want_info;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!same_bits(got[i], want[i]) && ++bad <= 3) {
        ADD_FAILURE() << to_string(v) << " n=" << n << " elem " << i
                      << ": got " << got[i] << " want " << want[i];
      }
    }
  }
  return bad;
}

TEST(BlasVariants, PotrfMatchesScalarLoopBitForBit) {
  Rng rng(93);
  std::size_t bad = 0;
  for (const std::size_t n : {1, 7, 8, 9, 31, 32, 33, 128, 256}) {
    bad += check_potrf(n, n, rng);
  }
  // Breakdowns at the first column, inside a panel, on a panel's first
  // column and in a ragged last block: the columns before the pivot are
  // factored, the rest untouched, as in the scalar loop.
  for (const std::size_t pivot : {0, 3, 8, 19, 24, 36}) {
    bad += check_potrf(37, pivot, rng);
  }
  bad += check_potrf(256, 200, rng);
  EXPECT_EQ(bad, 0u);
}

TEST(BlasVariants, DispatchedTrsmRejectsSingularFactor) {
  std::vector<double> l = {1.0, 0.5, 0.0, 0.0};  // L(1,1) == 0
  std::vector<double> b(4, 1.0);
  EXPECT_THROW(trsm_right_lower_trans<double>(2, 2, 1.0, l.data(), 2, b.data(),
                                              2),
               Error);
}

TEST(Reference, LogdetMatchesProductOfEigenvaluesForDiagonal) {
  Matrix<double> a(3, 3);
  a(0, 0) = 1.0; a(1, 1) = 4.0; a(2, 2) = 9.0;
  cholesky_lower(a);
  EXPECT_NEAR(logdet_from_cholesky(a), std::log(36.0), 1e-14);
}

TEST(Reference, QuadraticFormMatchesDirectInverse) {
  // A = [[2, 1], [1, 2]]; A^{-1} = 1/3 [[2, -1], [-1, 2]].
  Matrix<double> a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
  Matrix<double> l = a;
  cholesky_lower(l);
  const std::vector<double> z = {1.0, 2.0};
  // z' A^{-1} z = (2*1 - 2*1*2 + 2*4)/3 = 6/3 = 2.
  EXPECT_NEAR(quadratic_form(l, z), 2.0, 1e-14);
}

TEST(Reference, CholeskyThrowsOnIndefinite) {
  Matrix<double> a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // det < 0
  EXPECT_THROW(cholesky_lower(a), Error);
}

TEST(AnyTile, StorageFormatsAndBytes) {
  AnyTile t64(8, 8, Storage::FP64);
  AnyTile t32(8, 8, Storage::FP32);
  AnyTile t16(8, 8, Storage::FP16);
  EXPECT_EQ(t64.bytes(), 8u * 8 * 8);
  EXPECT_EQ(t32.bytes(), 8u * 8 * 4);
  EXPECT_EQ(t16.bytes(), 8u * 8 * 2);
}

TEST(AnyTile, RoundTripAppliesStorageRounding) {
  std::vector<double> vals = {3.14159265358979, -1e-3, 7.0, 0.0};
  for (Storage s : {Storage::FP64, Storage::FP32, Storage::FP16}) {
    AnyTile t(2, 2, s);
    t.from_double(vals);
    std::vector<double> out = t.to_double();
    std::vector<double> expect = vals;
    round_through(expect, s);
    EXPECT_EQ(out, expect) << to_string(s);
  }
}

TEST(AnyTile, ConvertStorageNarrowsThenWideningKeepsRounded) {
  AnyTile t(1, 1, Storage::FP64);
  t.set(0, 0, 3.14159265358979);
  t.convert_storage(Storage::FP16);
  t.convert_storage(Storage::FP64);
  EXPECT_EQ(t.at(0, 0), through_half(3.14159265358979));
}

TEST(AnyTile, FrobeniusNormUsesStoredValues) {
  AnyTile t(2, 1, Storage::FP64);
  t.set(0, 0, 3.0);
  t.set(1, 0, 4.0);
  EXPECT_DOUBLE_EQ(t.frobenius_norm(), 5.0);
}

class TileKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = Rng(99);
    const std::size_t nb = 16;
    dense_ = random_spd(2 * nb, rng_);
    // Partition the 2x2-tile SPD matrix.
    c00_ = AnyTile(nb, nb, Storage::FP64);
    c10_ = AnyTile(nb, nb, Storage::FP64);
    c11_ = AnyTile(nb, nb, Storage::FP64);
    std::vector<double> buf(nb * nb);
    auto load = [&](AnyTile& t, std::size_t r0, std::size_t c0) {
      for (std::size_t j = 0; j < nb; ++j)
        for (std::size_t i = 0; i < nb; ++i)
          buf[i + j * nb] = dense_(r0 + i, c0 + j);
      t.from_double(buf);
    };
    load(c00_, 0, 0);
    load(c10_, nb, 0);
    load(c11_, nb, nb);
    nb_ = nb;
  }

  Rng rng_{0};
  Matrix<double> dense_;
  AnyTile c00_, c10_, c11_;
  std::size_t nb_ = 0;
};

TEST_F(TileKernelTest, TwoByTwoTileCholeskyMatchesDense) {
  ASSERT_EQ(potrf_tile(c00_), 0);
  trsm_tile(Precision::FP64, TileOperand{&c00_}, c10_, nullptr);
  syrk_tile(TileOperand{&c10_}, c11_, nullptr);
  ASSERT_EQ(potrf_tile(c11_), 0);

  Matrix<double> l = dense_;
  cholesky_lower(l);
  for (std::size_t j = 0; j < nb_; ++j) {
    for (std::size_t i = 0; i < nb_; ++i) {
      EXPECT_NEAR(c00_.at(i, j), l(i, j), 1e-11);
      EXPECT_NEAR(c10_.at(i, j), l(nb_ + i, j), 1e-11);
      if (i >= j) {
        EXPECT_NEAR(c11_.at(i, j), l(nb_ + i, nb_ + j), 1e-11);
      }
    }
  }
}

TEST_F(TileKernelTest, Fp32TrsmIntroducesBoundedError) {
  ASSERT_EQ(potrf_tile(c00_), 0);
  AnyTile fp64 = c10_, fp32 = c10_;
  trsm_tile(Precision::FP64, TileOperand{&c00_}, fp64, nullptr);
  trsm_tile(Precision::FP32, TileOperand{&c00_}, fp32, nullptr);
  double max_diff = 0.0, max_mag = 0.0;
  for (std::size_t j = 0; j < nb_; ++j)
    for (std::size_t i = 0; i < nb_; ++i) {
      max_diff = std::max(max_diff, std::fabs(fp64.at(i, j) - fp32.at(i, j)));
      max_mag = std::max(max_mag, std::fabs(fp64.at(i, j)));
    }
  EXPECT_GT(max_diff, 0.0);                       // FP32 really is coarser
  EXPECT_LT(max_diff, 1e-4 * (1.0 + max_mag));    // but bounded
}

TEST_F(TileKernelTest, GemmTileMatchesManualUpdate) {
  // C11 -= C10 * C10^T via gemm_tile (using c10 as both operands).
  AnyTile c11_copy = c11_;
  gemm_tile(Precision::FP64, TileOperand{&c10_}, TileOperand{&c10_}, c11_,
            nullptr);
  std::vector<double> a = c10_.to_double();
  std::vector<double> expect = c11_copy.to_double();
  gemm<double>('N', 'T', nb_, nb_, nb_, -1.0, a.data(), nb_, a.data(), nb_,
               1.0, expect.data(), nb_);
  std::vector<double> got = c11_.to_double();
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], expect[i], 1e-11);
}

TEST_F(TileKernelTest, PotrfTileBreakdownLeavesTileUntouched) {
  // The 2nb x 2nb SPD matrix with a negative entry on its diagonal: the
  // factorization stops partway, after writing leading columns of scratch.
  const std::size_t n = 2 * nb_;
  std::vector<double> vals(n * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) vals[i + j * n] = dense_(i, j);
  vals[20 + 20 * n] = -1.0;
  AnyTile bad(n, n, Storage::FP64);
  bad.from_double(vals);
  const std::vector<std::byte> before(bad.raw_bytes().begin(),
                                      bad.raw_bytes().end());
  std::vector<double> oracle = vals;
  const int info = potrf_lower(n, oracle.data(), n);
  ASSERT_EQ(info, 21);
  EXPECT_EQ(potrf_tile(bad), info);
  ASSERT_EQ(bad.raw_bytes().size(), before.size());
  EXPECT_EQ(std::memcmp(bad.raw_bytes().data(), before.data(), before.size()),
            0);

  // A smaller SPD tile next on the same thread: nothing the failed call left
  // in the scratch may reach its factor.
  std::vector<double> expect = c00_.to_double();
  ASSERT_EQ(potrf_lower(nb_, expect.data(), nb_), 0);
  for (std::size_t j = 0; j < nb_; ++j)
    for (std::size_t i = 0; i < j; ++i) expect[i + j * nb_] = 0.0;
  ASSERT_EQ(potrf_tile(c00_), 0);
  const std::vector<double> got = c00_.to_double();
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), got.size() * sizeof(double)),
            0);
}

TEST_F(TileKernelTest, KernelShapeValidation) {
  AnyTile bad(4, 8, Storage::FP64);
  EXPECT_THROW(potrf_tile(bad), Error);
  EXPECT_THROW(trsm_tile(Precision::FP16, TileOperand{&c00_}, c10_, nullptr),
               Error);  // no fp16 TRSM
  AnyTile mismatched(8, 8, Storage::FP64);
  EXPECT_THROW(syrk_tile(TileOperand{&mismatched}, c11_, nullptr), Error);
}

}  // namespace
}  // namespace mpgeo
