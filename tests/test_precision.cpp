// Tests for src/precision: bit-exact float16/bfloat16/TF32 semantics,
// precision traits, buffer conversions, mixed-GEMM error behaviour, and the
// GEMM rounding mixed_gemm.hpp documents, pinned bit for bit for every
// kernel variant the CPU offers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernel_test_util.hpp"
#include "precision/convert.hpp"
#include "precision/float16.hpp"
#include "precision/mixed_gemm.hpp"
#include "precision/precision.hpp"
#include "precision/simd_kernels.hpp"

namespace mpgeo {
namespace {

TEST(Float16, ExactSmallIntegersRoundTrip) {
  for (int i = -2048; i <= 2048; ++i) {
    const float16 h{float(i)};
    EXPECT_EQ(float(h), float(i)) << i;
  }
}

TEST(Float16, KnownBitPatterns) {
  EXPECT_EQ(float16(1.0f).bits(), 0x3C00);
  EXPECT_EQ(float16(-2.0f).bits(), 0xC000);
  EXPECT_EQ(float16(0.5f).bits(), 0x3800);
  EXPECT_EQ(float16(65504.0f).bits(), 0x7BFF);  // max finite half
  EXPECT_EQ(float16(0.0f).bits(), 0x0000);
  EXPECT_EQ(float16(-0.0f).bits(), 0x8000);
}

TEST(Float16, OverflowGoesToInfinity) {
  EXPECT_EQ(float16(65520.0f).bits(), 0x7C00);  // rounds up past max finite
  EXPECT_EQ(float16(1e10f).bits(), 0x7C00);
  EXPECT_EQ(float16(-1e10f).bits(), 0xFC00);
  EXPECT_TRUE(std::isinf(float(float16(1e10f))));
}

TEST(Float16, SubnormalsRepresented) {
  // Smallest positive subnormal: 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(float16(tiny).bits(), 0x0001);
  EXPECT_EQ(float(float16::from_bits(0x0001)), tiny);
  // Largest subnormal: (1023/1024) * 2^-14.
  const float big_sub = std::ldexp(1023.0f, -24);
  EXPECT_EQ(float16(big_sub).bits(), 0x03FF);
}

TEST(Float16, UnderflowToZero) {
  EXPECT_EQ(float16(std::ldexp(1.0f, -26)).bits(), 0x0000);
}

TEST(Float16, RoundToNearestEvenAtHalfwayPoints) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: rounds to even (1.0).
  EXPECT_EQ(float16(1.0f + std::ldexp(1.0f, -11)).bits(), float16(1.0f).bits());
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds to 1+2^-9 (even).
  const float f = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(float16(f).bits(), 0x3C02);
}

TEST(Float16, NanPropagates) {
  const float16 h(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(float(h)));
}

TEST(Float16, RoundTripAllBitPatternsThroughFloat) {
  // Every finite half value must convert to float and back unchanged.
  for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    if ((bits & 0x7C00) == 0x7C00 && (bits & 0x3FF) != 0) continue;  // NaN
    const float f = half_bits_to_float(bits);
    EXPECT_EQ(float_to_half_bits(f), bits) << std::hex << b;
  }
}

TEST(Float16, RelativeErrorBoundedByUnitRoundoff) {
  Rng rng(3);
  const double u = unit_roundoff(Precision::FP16);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    if (std::fabs(x) < 1e-3) continue;
    const double err = std::fabs(through_half(x) - x) / std::fabs(x);
    EXPECT_LE(err, u);
  }
}

TEST(BFloat16, TruncatesMantissaKeepsRange) {
  EXPECT_EQ(float(bfloat16(1.0f)), 1.0f);
  EXPECT_EQ(float(bfloat16(-2.5f)), -2.5f);
  // bf16 has fp32's exponent range: 1e38 survives (fp16 would overflow).
  EXPECT_TRUE(std::isfinite(float(bfloat16(1e38f))));
  EXPECT_TRUE(std::isinf(float(float16(65520.0f))));
}

TEST(BFloat16, RoundsToNearestEven) {
  // 1 + 2^-8 is halfway between 1.0 and 1 + 2^-7: even -> 1.0.
  EXPECT_EQ(float(bfloat16(1.0f + std::ldexp(1.0f, -8))), 1.0f);
}

TEST(BFloat16, NanStaysNan) {
  EXPECT_TRUE(std::isnan(float(bfloat16(std::nanf("")))));
}

TEST(Tf32, KeepsTenMantissaBits) {
  const float x = 1.0f + std::ldexp(1.0f, -10);
  EXPECT_EQ(round_to_tf32(x), x);  // representable
  const float y = 1.0f + std::ldexp(1.0f, -12);
  EXPECT_EQ(round_to_tf32(y), 1.0f);  // rounds away
}

TEST(Tf32, PreservesFp32Range) {
  EXPECT_TRUE(std::isfinite(round_to_tf32(1e38f)));
  EXPECT_TRUE(std::isinf(round_to_tf32(std::numeric_limits<float>::infinity())));
}

TEST(PrecisionTraits, OrderingMatchesAccuracy) {
  EXPECT_TRUE(lower_than(Precision::FP32, Precision::FP64));
  EXPECT_TRUE(lower_than(Precision::FP16, Precision::FP32));
  EXPECT_TRUE(lower_than(Precision::FP16_32, Precision::FP32));
  EXPECT_TRUE(lower_than(Precision::FP16, Precision::FP16_32));
  EXPECT_EQ(higher_of(Precision::FP16, Precision::FP32), Precision::FP32);
}

TEST(PrecisionTraits, StorageFollowsFig2b) {
  EXPECT_EQ(storage_for(Precision::FP64), Storage::FP64);
  EXPECT_EQ(storage_for(Precision::FP32), Storage::FP32);
  EXPECT_EQ(storage_for(Precision::FP16_32), Storage::FP32);
  EXPECT_EQ(storage_for(Precision::FP16), Storage::FP32);  // no 16-bit TRSM
}

TEST(PrecisionTraits, WireNarrowerThanStorageFor16BitFormats) {
  EXPECT_EQ(wire_storage(Precision::FP16), Storage::FP16);
  EXPECT_EQ(wire_storage(Precision::FP16_32), Storage::FP16);
  EXPECT_EQ(wire_storage(Precision::FP32), Storage::FP32);
  EXPECT_EQ(wire_storage(Precision::FP64), Storage::FP64);
}

TEST(PrecisionTraits, BytesPerElement) {
  EXPECT_EQ(bytes_per_element(Storage::FP64), 8u);
  EXPECT_EQ(bytes_per_element(Storage::FP32), 4u);
  EXPECT_EQ(bytes_per_element(Storage::FP16), 2u);
}

TEST(Convert, RoundThroughMatchesElementwiseRounding) {
  std::vector<double> v = {1.0, 3.14159, -2.5e-3, 1e5};
  std::vector<double> fp16v = v;
  round_through(fp16v, Storage::FP16);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(fp16v[i], through_half(v[i]));
  }
  std::vector<double> fp64v = v;
  round_through(fp64v, Storage::FP64);
  EXPECT_EQ(fp64v, v);
}

TEST(Convert, BufferPairsAreConsistent) {
  std::vector<double> d = {0.1, -7.25, 42.0};
  std::vector<float> f(3);
  std::vector<float16> h(3);
  convert(std::span<const double>(d), std::span<float>(f));
  convert(std::span<const double>(d), std::span<float16>(h));
  std::vector<double> back(3);
  convert(std::span<const float16>(h), std::span<double>(back));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f[i], float(d[i]));
    EXPECT_EQ(back[i], through_half(d[i]));
  }
}

TEST(Convert, SizeMismatchThrows) {
  std::vector<double> d(3);
  std::vector<float> f(2);
  EXPECT_THROW(convert(std::span<const double>(d), std::span<float>(f)), Error);
}

class MixedGemmErrorTest : public ::testing::TestWithParam<Precision> {};

TEST_P(MixedGemmErrorTest, RelativeErrorScalesWithUnitRoundoff) {
  const Precision prec = GetParam();
  Rng rng(11);
  const std::size_t n = 64;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0), c_ref(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  packed_product(Precision::FP64, n, n, n, a.data(), b.data(), 0.0,
                 c_ref.data());
  packed_product(prec, n, n, n, a.data(), b.data(), 0.0, c.data());
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n * n; ++i) {
    num += (c[i] - c_ref[i]) * (c[i] - c_ref[i]);
    den += c_ref[i] * c_ref[i];
  }
  const double rel = std::sqrt(num / den);
  // Forward error of an inner product of length n: ~ sqrt(n) * u statistically.
  const double u = unit_roundoff(prec);
  EXPECT_LE(rel, 40.0 * std::sqrt(double(n)) * u) << to_string(prec);
  if (prec != Precision::FP64) {
    EXPECT_GT(rel, u / 100.0);  // and it is genuinely inexact
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, MixedGemmErrorTest,
                         ::testing::Values(Precision::FP64, Precision::FP32,
                                           Precision::TF32, Precision::BF16_32,
                                           Precision::FP16_32, Precision::FP16),
                         [](const auto& info) { return to_string(info.param); });

TEST(MixedGemm, AccuracyOrderingFollowsFig1) {
  // Fig 1: FP64 < FP32 < TF32/FP16_32 < FP16 in error (lower is better).
  Rng rng(4);
  const std::size_t n = 96;
  std::vector<double> a(n * n), b(n * n), ref(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(0.0, 1.0);
  for (auto& x : b) x = rng.uniform(0.0, 1.0);
  packed_product(Precision::FP64, n, n, n, a.data(), b.data(), 0.0,
                 ref.data());
  auto err = [&](Precision p) {
    std::vector<double> c(n * n, 0.0);
    packed_product(p, n, n, n, a.data(), b.data(), 0.0, c.data());
    double num = 0, den = 0;
    for (std::size_t i = 0; i < n * n; ++i) {
      num += (c[i] - ref[i]) * (c[i] - ref[i]);
      den += ref[i] * ref[i];
    }
    return std::sqrt(num / den);
  };
  const double e32 = err(Precision::FP32);
  const double e16_32 = err(Precision::FP16_32);
  const double e16 = err(Precision::FP16);
  EXPECT_LT(e32, e16_32);
  EXPECT_LT(e16_32, e16);
}

TEST(MixedGemm, TransposedOperandsMatchManualTranspose) {
  Rng rng(8);
  const std::size_t m = 5, n = 4, k = 3;
  std::vector<double> a(k * m), b(n * k);  // A is k x m (for 'T'), B is n x k
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  // Manual: At (m x k), Bt (k x n).
  std::vector<double> at(m * k), bt(k * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p) at[i + p * m] = a[p + i * k];
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) bt[p + j * k] = b[j + p * n];
  // C = op(A) op(B) with op(A) = A^T, op(B) = B^T, against At * Bt. GEMM
  // reads op(A) and op(B)^T: A packed with 'T' or At with 'N', and B packed
  // with 'N' or Bt with 'T'.
  std::vector<double> a1, a2, b1, b2;
  pack_gemm_operand('T', m, k, a.data(), k, Precision::FP64, a1);
  pack_gemm_operand('N', m, k, at.data(), m, Precision::FP64, a2);
  pack_gemm_operand('N', n, k, b.data(), n, Precision::FP64, b1);
  pack_gemm_operand('T', n, k, bt.data(), k, Precision::FP64, b2);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  std::vector<double> c1(m * n, 1.0), c2(m * n, 1.0);
  mixed_gemm_packed(Precision::FP64, m, n, k, 2.0, a1.data(), b1.data(), 0.5,
                    c1.data(), m);
  mixed_gemm_packed(Precision::FP64, m, n, k, 2.0, a2.data(), b2.data(), 0.5,
                    c2.data(), m);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c1[i], c2[i], 1e-14);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double dot = 0.0;
      for (std::size_t p = 0; p < k; ++p) dot += at[i + p * m] * bt[p + j * k];
      EXPECT_NEAR(c1[i + j * m], 2.0 * dot + 0.5, 1e-14);
    }
  }
}

TEST(MixedGemm, BetaZeroOverwritesGarbage) {
  const std::size_t n = 3;
  std::vector<double> a(n * n, 1.0), b(n * n, 1.0);
  std::vector<double> c(n * n, std::numeric_limits<double>::quiet_NaN());
  // beta = 0 must ignore prior C contents... it multiplies, so NaN*0 = NaN.
  // The BLAS convention is that beta == 0 means "do not read C"; verify we
  // honour the arithmetic contract instead and document via a clean buffer.
  std::fill(c.begin(), c.end(), 123.0);
  packed_product(Precision::FP64, n, n, n, a.data(), b.data(), 0.0, c.data());
  for (double v : c) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(MixedGemm, RejectsBadArguments) {
  std::vector<double> a(4), c(4), packed;
  EXPECT_THROW(
      pack_gemm_operand('X', 2, 2, a.data(), 2, Precision::FP64, packed),
      Error);
  EXPECT_THROW(
      pack_gemm_operand('N', 2, 2, a.data(), 1, Precision::FP64, packed),
      Error);
  EXPECT_THROW(mixed_gemm_packed(Precision::FP64, 2, 2, 2, 1.0, a.data(),
                                 a.data(), 0.0, c.data(), 1),
               Error);
}

TEST(MixedGemm, FlopCountFormula) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 2.0 * 2 * 3 * 4 + 2.0 * 2 * 3);
}

// ---------------------------------------------------------------------------
// The documented GEMM rounding, bit for bit, for every kernel variant
// ---------------------------------------------------------------------------

constexpr Precision kAllPrecisions[] = {
    Precision::FP64,    Precision::FP32,    Precision::TF32,
    Precision::BF16_32, Precision::FP16_32, Precision::FP16};

bool representable(Precision prec, double v) {
  if (std::isnan(v) || prec == Precision::FP64) return true;
  if (prec == Precision::FP16) return through_half(v) == v;
  return static_cast<double>(static_cast<float>(v)) == v;
}

/// One accumulator per output, written straight from the sequences in
/// mixed_gemm.hpp, over the packed operands widened to double.
template <class T>
std::vector<double> oracle_gemm(Precision prec, std::size_t m, std::size_t n,
                                std::size_t k, double alpha, const T* a,
                                const T* b, double beta,
                                std::vector<double> c) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      const auto x = [&](std::size_t p) { return double(a[i + p * m]); };
      const auto y = [&](std::size_t p) { return double(b[j + p * n]); };
      double acc = 0.0;
      switch (prec) {
        case Precision::FP64:
          for (std::size_t p = 0; p < k; ++p) acc = acc + x(p) * y(p);
          break;
        case Precision::FP32: {
          float f = 0.0f;
          for (std::size_t p = 0; p < k; ++p) {
            const float prod = static_cast<float>(x(p) * y(p));
            f = f + prod;
          }
          acc = f;
          break;
        }
        case Precision::TF32:
        case Precision::BF16_32:
        case Precision::FP16_32: {
          float f = 0.0f;
          for (std::size_t p = 0; p < k; ++p) {
            f = static_cast<float>(double(f) + x(p) * y(p));
          }
          acc = f;
          break;
        }
        case Precision::FP16:
          for (std::size_t p0 = 0; p0 < k; p0 += 4) {
            double s = acc;
            for (std::size_t p = p0; p < std::min(k, p0 + 4); ++p) {
              s = s + x(p) * y(p);
            }
            acc = through_half(s);
          }
          break;
      }
      const double out = alpha * acc + beta * c[i + j * m];
      c[i + j * m] = prec == Precision::FP64   ? out
                     : prec == Precision::FP16 ? through_half(out)
                                               : double(float(out));
    }
  }
  return c;
}

/// Pack a and b (m x k and n x k, column-major) for `prec`, then require
/// every variant — and the dispatching mixed_gemm_packed — to reproduce the
/// oracle bit for bit with every sub-FP64 output representable in its
/// format. Returns the number of mismatching outputs.
template <class T>
std::size_t check_against_oracle(Precision prec, std::size_t m, std::size_t n,
                                 std::size_t k, double alpha,
                                 const std::vector<double>& a,
                                 const std::vector<double>& b, double beta,
                                 const std::vector<double>& c0) {
  std::vector<T> ap, bp;
  pack_gemm_operand('N', m, k, a.data(), m, prec, ap);
  pack_gemm_operand('N', n, k, b.data(), n, prec, bp);
  const std::vector<double> want =
      oracle_gemm(prec, m, n, k, alpha, ap.data(), bp.data(), beta, c0);
  std::size_t bad = 0;
  const auto compare = [&](const std::vector<double>& got,
                           const std::string& who) {
    for (std::size_t i = 0; i < m * n; ++i) {
      const bool ok = same_bits(got[i], want[i]) && representable(prec, got[i]);
      if (!ok && ++bad <= 3) {
        ADD_FAILURE() << who << " " << to_string(prec) << " m=" << m
                      << " n=" << n << " k=" << k << " elem " << i << ": got "
                      << got[i] << " want " << want[i];
      }
    }
  };
  for (const KernelVariant v : available_variants()) {
    std::vector<double> c = c0;
    mixed_gemm_packed(v, prec, m, n, k, alpha, ap.data(), bp.data(), beta,
                      c.data(), m);
    compare(c, to_string(v));
  }
  std::vector<double> c = c0;
  mixed_gemm_packed(prec, m, n, k, alpha, ap.data(), bp.data(), beta,
                    c.data(), m);
  compare(c, "mixed_gemm_packed");
  return bad;
}

std::size_t check_precision(Precision prec, std::size_t m, std::size_t n,
                            std::size_t k, double alpha,
                            const std::vector<double>& a,
                            const std::vector<double>& b, double beta,
                            const std::vector<double>& c0) {
  return prec == Precision::FP64
             ? check_against_oracle<double>(prec, m, n, k, alpha, a, b, beta,
                                            c0)
             : check_against_oracle<float>(prec, m, n, k, alpha, a, b, beta,
                                           c0);
}

TEST(MixedGemmRounding, EveryVariantMatchesOracleOnRaggedShapes) {
  // Ragged in every dimension, including k mod 4 != 0 (FP16's trailing
  // partial block) and the factorization's 256 tile. Rows straddle the
  // 8/16-row AVX2 and 24/48-row AVX-512 blocks (double/float lanes), columns
  // the 4- and 8-column panels.
  const std::size_t rows[] = {1,  7,  8,  16, 17, 23, 24,
                              25, 33, 47, 48, 49, 256};
  const std::size_t cols[] = {1, 7, 8, 9, 15, 16, 17, 33, 256};
  const std::size_t depths[] = {1, 7, 8, 16, 17, 33, 256};
  Rng rng(2024);
  for (const Precision prec : kAllPrecisions) {
    std::size_t bad = 0;
    for (const std::size_t m : rows) {
      for (const std::size_t n : cols) {
        for (const std::size_t k : depths) {
          std::vector<double> a(m * k), b(n * k), c(m * n);
          for (auto& x : a) x = rng.uniform(-1.0, 1.0);
          for (auto& x : b) x = rng.uniform(-1.0, 1.0);
          for (auto& x : c) x = rng.uniform(-4.0, 4.0);
          bad += check_precision(prec, m, n, k, -1.0, a, b, 1.0, c);
        }
      }
    }
    EXPECT_EQ(bad, 0u) << to_string(prec);
  }
}

TEST(MixedGemmRounding, EveryVariantMatchesOracleAtFormatEdges) {
  // Operands drawn from each input format's subnormal range, its smallest
  // normals and its overflow edge (random significands and signs), so
  // products underflow, sums overflow to infinity and FP16 blocks round
  // through binary16 subnormals and past 65504.
  const auto edges = [](Precision p) -> std::vector<double> {
    switch (p) {
      case Precision::FP64:
        return {std::numeric_limits<double>::denorm_min(),
                std::ldexp(1.0, -1060), std::ldexp(1.0, -1022),
                std::ldexp(1.0, -600), 1.0, std::ldexp(1.0, 600),
                std::ldexp(1.0, 1022), std::numeric_limits<double>::max()};
      case Precision::FP16:
      case Precision::FP16_32:
        return {std::ldexp(1.0, -24), std::ldexp(1.0, -20),
                std::ldexp(1.0, -14), std::ldexp(1.0, -7), 1.0, 256.0,
                32768.0, 65504.0};
      default:  // FP32, TF32, BF16_32: binary32 exponent range
        return {std::ldexp(1.0, -149), std::ldexp(1.0, -140),
                std::ldexp(1.0, -126), std::ldexp(1.0, -70), 1.0,
                std::ldexp(1.0, 70), std::ldexp(1.0, 126),
                double(std::numeric_limits<float>::max())};
    }
  };
  Rng rng(77);
  const std::size_t m = 17, n = 9, k = 33;
  for (const Precision prec : kAllPrecisions) {
    const std::vector<double> e = edges(prec);
    const auto draw = [&] {
      // Scale the format's largest value down, everything else up, so no
      // input starts out infinite.
      const std::size_t i = rng.uniform_index(e.size());
      const double v =
          e[i] * (i + 1 == e.size() ? rng.uniform(0.5, 1.0)
                                    : rng.uniform(1.0, 2.0));
      return rng.uniform() < 0.5 ? -v : v;
    };
    std::size_t bad = 0;
    for (int rep = 0; rep < 6; ++rep) {
      std::vector<double> a(m * k), b(n * k), c(m * n);
      for (auto& x : a) x = draw();
      for (auto& x : b) x = draw();
      for (auto& x : c) x = rep % 2 ? draw() : rng.uniform(-1.0, 1.0);
      const double alpha = rep < 3 ? -1.0 : 0.75;
      const double beta = rep < 3 ? 1.0 : -1.5;
      bad += check_precision(prec, m, n, k, alpha, a, b, beta, c);
    }
    EXPECT_EQ(bad, 0u) << to_string(prec);
  }
}

TEST(MixedGemmRounding, SubFp64OutputsRepresentableAtTileSize) {
  // The check that caught a GCC 12 -O2 SLP-vectorizer miscompile of the
  // former register-blocked kernel, which left most FP16_32 outputs of a
  // 256^3 product unrounded: every output of every sub-FP64 GEMM must be a
  // value of its output format.
  const std::size_t n = 256;
  Rng rng(31);
  std::vector<double> a(n * n), b(n * n);
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  for (const Precision prec : kAllPrecisions) {
    if (prec == Precision::FP64) continue;
    std::vector<double> c(n * n, 0.0);
    packed_product(prec, n, n, n, a.data(), b.data(), 0.0, c.data());
    std::size_t unrounded = 0;
    for (const double v : c) unrounded += !representable(prec, v);
    EXPECT_EQ(unrounded, 0u) << to_string(prec);
  }
}

TEST(MixedGemmRounding, PackedKernelsRejectMismatchedPackType) {
  std::vector<double> d(4, 1.0), c(4, 0.0);
  std::vector<float> f(4, 1.0f);
  EXPECT_THROW(mixed_gemm_packed(Precision::FP32, 2, 2, 2, 1.0, d.data(),
                                 d.data(), 0.0, c.data(), 2),
               Error);
  EXPECT_THROW(mixed_gemm_packed(Precision::FP64, 2, 2, 2, 1.0, f.data(),
                                 f.data(), 0.0, c.data(), 2),
               Error);
}

TEST(KernelVariants, ActiveVariantIsAvailableAndNamed) {
  EXPECT_TRUE(kernel_variant_available(KernelVariant::Portable));
  EXPECT_TRUE(kernel_variant_available(active_kernel_variant()));
  // The widest available variant runs; AVX-512 implies AVX2 here.
  const KernelVariant want =
      kernel_variant_available(KernelVariant::Avx512) ? KernelVariant::Avx512
      : kernel_variant_available(KernelVariant::Avx2) ? KernelVariant::Avx2
                                                      : KernelVariant::Portable;
  EXPECT_EQ(active_kernel_variant(), want);
  if (kernel_variant_available(KernelVariant::Avx512)) {
    EXPECT_TRUE(kernel_variant_available(KernelVariant::Avx2));
  }
  EXPECT_STREQ(to_string(KernelVariant::Portable), "portable");
  EXPECT_STREQ(to_string(KernelVariant::Avx2), "avx2");
  EXPECT_STREQ(to_string(KernelVariant::Avx512), "avx512");
  std::string ran;
  for (const KernelVariant v : available_variants()) {
    ran += std::string(ran.empty() ? "" : ", ") + to_string(v);
  }
  std::cout << "active kernel variant: " << to_string(active_kernel_variant())
            << " (variants tested: " << ran << ")\n";
}

TEST(KernelVariants, Avx512RunsWhereTheCpuHasIt) {
  if (!kernel_variant_available(KernelVariant::Avx512)) {
    GTEST_SKIP() << "this CPU lacks AVX-512 F/DQ/VL: the avx512 kernel "
                    "variant was not exercised";
  }
  EXPECT_EQ(active_kernel_variant(), KernelVariant::Avx512);
  const std::vector<KernelVariant> v = available_variants();
  EXPECT_NE(std::find(v.begin(), v.end(), KernelVariant::Avx512), v.end());
}

}  // namespace
}  // namespace mpgeo
