// Tests for the versioned operand cache (shared-memory STC) and the
// vectorized precision-conversion kernels it leans on:
//   * cache mechanics — hit/miss, fill-once under contention, per-datum
//     invalidation, buffers outliving their entry;
//   * pack semantics — cached packs hold exactly the bytes the uncached
//     pack_gemm_operand preparation would produce for either GEMM operand
//     role, and float-stored packs widen to exactly the double packs for
//     every sub-FP64 precision;
//   * converter properties — the branch-minimal half converters, the fused
//     through_half and the batched 4-wide kernels are pinned bit-for-bit to
//     the branchy reference implementations below across normals,
//     subnormals, NaN and +-Inf;
//   * stale-pack safety — readers of a new data version never see a pack of
//     the old one;
//   * end-to-end — mp_cholesky's factor bits match a serial loop over the
//     same kernels without a cache, across precision ladders and both
//     conversion strategies, and every pack dies with its tile's last
//     access.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/comm_map.hpp"
#include "core/mp_cholesky.hpp"
#include "core/precision_map.hpp"
#include "core/tile_matrix.hpp"
#include "linalg/anytile.hpp"
#include "linalg/operand_cache.hpp"
#include "linalg/tile_kernels.hpp"
#include "precision/convert.hpp"
#include "precision/float16.hpp"
#include "precision/mixed_gemm.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {
namespace {

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

AnyTile random_tile(std::size_t rows, std::size_t cols, Storage s,
                    std::uint64_t seed) {
  Rng rng(seed);
  AnyTile t(rows, cols, s);
  std::vector<double> v(rows * cols);
  for (auto& x : v) x = rng.uniform(-3.0, 3.0);
  t.from_double(v);
  return t;
}

// ---------------------------------------------------------------------------
// Cache mechanics
// ---------------------------------------------------------------------------

TEST(OperandCache, HitMissAndFillOnce) {
  OperandCache cache;
  const OperandKey key{&cache, 3, Precision::FP32};
  int fills = 0;
  const auto fill = [&](std::span<double> dst) {
    ++fills;
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = double(i);
  };
  const auto a = cache.get(key, 8, fill);
  const auto b = cache.get(key, 8, fill);
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ((*a)[5], 5.0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(OperandCache, ConcurrentGettersFillOnce) {
  OperandCache cache;
  const OperandKey key{&cache, 0, Precision::FP64};
  std::atomic<int> fills{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int r = 0; r < 100; ++r) {
        const auto buf = cache.get(key, 64, [&](std::span<double> dst) {
          fills.fetch_add(1);
          for (auto& x : dst) x = 7.0;
        });
        ASSERT_EQ((*buf)[0], 7.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(fills.load(), 1);
}

TEST(OperandCache, InvalidateDropsEveryKeyOfDatum) {
  OperandCache cache;
  int datum = 0, other = 0;
  const auto fill = [](std::span<double> dst) {
    for (auto& x : dst) x = 1.0;
  };
  cache.get(OperandKey{&datum, 0, Precision::FP64}, 16, fill);
  cache.get(OperandKey{&datum, 0, Precision::FP32}, 16, fill);
  cache.get(OperandKey{&other, 0, Precision::FP64}, 16, fill);
  cache.invalidate(&datum);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().bytes, 16 * sizeof(double));  // `other` survives
  // Both keys of `datum` are gone; `other` still hits.
  cache.get(OperandKey{&datum, 0, Precision::FP64}, 16, fill);
  EXPECT_EQ(cache.stats().misses, 4u);
  cache.get(OperandKey{&other, 0, Precision::FP64}, 16, fill);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(OperandCache, BufferSurvivesInvalidation) {
  OperandCache cache;
  int datum = 0;
  const auto buf = cache.get(
      OperandKey{&datum, 0, Precision::FP64}, 4, [](std::span<double> dst) {
        for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = double(i);
      });
  cache.invalidate(&datum);
  EXPECT_EQ((*buf)[3], 3.0);  // reader's shared_ptr keeps the payload alive
}

// ---------------------------------------------------------------------------
// Pack semantics: cached packs == uncached preparation, bit for bit
// ---------------------------------------------------------------------------

TEST(OperandPack, MatchesGemmPackReference) {
  for (const Storage s : {Storage::FP64, Storage::FP32, Storage::FP16}) {
    const AnyTile t = random_tile(13, 9, s, 42 + std::size_t(s));
    const std::vector<double> widened = t.to_double();
    for (const Precision p :
         {Precision::FP64, Precision::FP32, Precision::TF32,
          Precision::BF16_32, Precision::FP16_32, Precision::FP16}) {
      std::vector<double> pack(t.size());
      pack_operand(t, p, pack);
      // One column-major entry serves both GEMM operand roles: A of an
      // 'N'-side consumer (the tile as is) and B of a 'T'-side one, whose
      // op(B)^T is the tile again; the 'T' packing of the stored transpose
      // must agree too.
      std::vector<double> as_is, from_t;
      pack_gemm_operand('N', t.rows(), t.cols(), widened.data(), t.rows(), p,
                        as_is);
      std::vector<double> transposed(t.size());
      for (std::size_t i = 0; i < t.rows(); ++i)
        for (std::size_t j = 0; j < t.cols(); ++j)
          transposed[j + i * t.cols()] = widened[i + j * t.rows()];
      pack_gemm_operand('T', t.rows(), t.cols(), transposed.data(), t.cols(),
                        p, from_t);
      ASSERT_EQ(pack.size(), as_is.size());
      EXPECT_EQ(std::memcmp(pack.data(), as_is.data(),
                            pack.size() * sizeof(double)),
                0)
          << "storage " << int(s) << " prec " << to_string(p);
      EXPECT_EQ(std::memcmp(pack.data(), from_t.data(),
                            pack.size() * sizeof(double)),
                0)
          << "storage " << int(s) << " prec " << to_string(p);
    }
  }
}

TEST(OperandPack, FloatPackWidensToDoublePackBits) {
  // Sub-FP64 input rounding always begins with a cast to float, so the
  // float-domain pack must widen to exactly the double-domain pack.
  for (const Storage s : {Storage::FP64, Storage::FP32, Storage::FP16}) {
    const AnyTile t = random_tile(11, 7, s, 99 + std::size_t(s));
    for (const Precision p :
         {Precision::FP32, Precision::TF32, Precision::BF16_32,
          Precision::FP16_32, Precision::FP16}) {
      std::vector<double> pd(t.size());
      std::vector<float> pf(t.size());
      pack_operand(t, p, pd);
      pack_operand_f32(t, p, pf);
      for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(bits_of(double(pf[i])), bits_of(pd[i]))
            << "storage " << int(s) << " prec " << to_string(p) << " elem "
            << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Converter properties: fast kernels pinned to the branchy references
// ---------------------------------------------------------------------------

// The original branchy scalar converters, kept verbatim as ground truth. The
// fast inline kernels in precision/float16.hpp must agree with them
// bit-for-bit.
std::uint16_t float_to_half_bits_ref(float f) {
  const std::uint32_t u = detail::float_bits(f);
  const std::uint32_t sign = (u >> 16) & 0x8000u;
  const std::int32_t exp32 = static_cast<std::int32_t>((u >> 23) & 0xFF);
  std::uint32_t mant = u & 0x007FFFFFu;

  if (exp32 == 0xFF) {  // Inf or NaN
    if (mant == 0) return static_cast<std::uint16_t>(sign | 0x7C00u);
    return static_cast<std::uint16_t>(sign | 0x7C00u | (mant >> 13) | 1u);
  }

  // Unbiased exponent, then rebias for half (bias 15).
  std::int32_t exp16 = exp32 - 127 + 15;

  if (exp16 >= 0x1F) {  // overflow -> Inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  if (exp16 <= 0) {
    // Subnormal half (or zero). Shift in the implicit bit, then round.
    if (exp16 < -10) return static_cast<std::uint16_t>(sign);  // underflow to 0
    mant |= 0x00800000u;  // implicit leading 1
    const int shift = 14 - exp16;  // 14..24
    const std::uint32_t rounded = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t half_ulp = 1u << (shift - 1);
    std::uint32_t result = rounded;
    if (rem > half_ulp || (rem == half_ulp && (rounded & 1u))) ++result;
    return static_cast<std::uint16_t>(sign | result);
  }

  // Normal half; round mantissa from 23 to 10 bits (RNE).
  std::uint32_t result = (static_cast<std::uint32_t>(exp16) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (result & 1u))) {
    ++result;  // may carry into exponent; 0x7C00 (Inf) is then correct
  }
  return static_cast<std::uint16_t>(sign | result);
}

float half_bits_to_float_ref(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp16 = (h >> 10) & 0x1Fu;
  std::uint32_t mant = h & 0x3FFu;

  if (exp16 == 0x1F) {  // Inf or NaN
    return detail::bits_float(sign | 0x7F800000u | (mant << 13));
  }
  if (exp16 == 0) {
    if (mant == 0) return detail::bits_float(sign);  // +-0
    // Subnormal: normalize.
    std::int32_t e = -1;
    do {
      ++e;
      mant <<= 1;
    } while ((mant & 0x400u) == 0);
    mant &= 0x3FFu;
    return detail::bits_float(sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
                              (mant << 13));
  }
  return detail::bits_float(sign | ((exp16 - 15 + 127) << 23) | (mant << 13));
}


TEST(ConverterProperty, HalfToFloatAllBitPatterns) {
  for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
    const auto bits = std::uint16_t(h);
    EXPECT_EQ(bits_of(half_bits_to_float(bits)),
              bits_of(half_bits_to_float_ref(bits)))
        << "h = " << h;
  }
}

TEST(ConverterProperty, FloatToHalfAllHalfValuesRoundTrip) {
  // Every exact half value must convert back to its (canonical) bits.
  for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
    const auto bits = std::uint16_t(h);
    const float f = half_bits_to_float_ref(bits);
    EXPECT_EQ(float_to_half_bits(f), float_to_half_bits_ref(f))
        << "h = " << h;
  }
}

TEST(ConverterProperty, FloatToHalfStructuredSweep) {
  // High half-word sweeps sign/exponent/mantissa-top through every value —
  // normals, subnormals, zeros, Inf, NaN; low-word patterns exercise the
  // RNE guard/round/sticky cases (0x1000 is the exact tie).
  Rng rng(7);
  const std::uint32_t lows[] = {0u, 1u, 0xFFFu, 0x1000u, 0x1001u,
                                std::uint32_t(rng.uniform_index(1u << 16))};
  for (std::uint32_t hi = 0; hi <= 0xFFFF; ++hi) {
    for (const std::uint32_t lo : lows) {
      const std::uint32_t u = (hi << 16) | lo;
      float f;
      std::memcpy(&f, &u, sizeof f);
      ASSERT_EQ(float_to_half_bits(f), float_to_half_bits_ref(f))
          << "bits = " << u;
    }
  }
}

TEST(ConverterProperty, ThroughHalfMatchesReferenceChain) {
  // The fused normal-range fast path of through_half must agree with the
  // two-converter reference chain on every float (double inputs first cast
  // to float in both, so sweeping floats covers the domain).
  Rng rng(11);
  const std::uint32_t lows[] = {0u, 1u, 0xFFFu, 0x1000u, 0x1001u,
                                std::uint32_t(rng.uniform_index(1u << 16))};
  for (std::uint32_t hi = 0; hi <= 0xFFFF; ++hi) {
    for (const std::uint32_t lo : lows) {
      const std::uint32_t u = (hi << 16) | lo;
      float f;
      std::memcpy(&f, &u, sizeof f);
      const double expect = double(half_bits_to_float_ref(
          float_to_half_bits_ref(f)));
      ASSERT_EQ(bits_of(through_half(double(f))), bits_of(expect))
          << "bits = " << u;
    }
  }
}

TEST(ConverterProperty, BatchedHalfRoundingMatchesScalar) {
  // The 4-wide buffer kernels (including their scalar tails) against
  // elementwise conversion, over values spanning all the special classes.
  Rng rng(13);
  std::vector<double> d;
  for (int i = 0; i < 1003; ++i) d.push_back(rng.uniform(-70000.0, 70000.0));
  for (int i = 0; i < 50; ++i) d.push_back(rng.uniform(-1e-5, 1e-5));
  d.insert(d.end(), {0.0, -0.0, 65504.0, 65520.0, -65520.0, 5.9e-8, 6.1e-5,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()});

  std::vector<double> batched = d;
  round_through_half_n(batched.data(), batched.size());
  std::vector<float> fbatched(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    fbatched[i] = static_cast<float>(d[i]);
  round_through_half_f32_n(fbatched.data(), fbatched.size());

  for (std::size_t i = 0; i < d.size(); ++i) {
    const double expect = double(half_bits_to_float_ref(
        float_to_half_bits_ref(static_cast<float>(d[i]))));
    EXPECT_EQ(bits_of(batched[i]), bits_of(expect)) << "elem " << i;
    EXPECT_EQ(bits_of(double(fbatched[i])), bits_of(expect)) << "elem " << i;
  }
}

// ---------------------------------------------------------------------------
// Stale-pack safety through the task graph
// ---------------------------------------------------------------------------

TEST(OperandCacheGraph, WriterInvalidatesAndReadersSeeNewVersion) {
  // read(v0) -> write -> read(v1) on one tile: consumers key the cache with
  // the version captured at insertion, as mp_cholesky does, and the retire
  // hook invalidates written data — the most eager rule a caller could pick.
  AnyTile tile(4, 4, Storage::FP64);
  std::vector<double> init(16, 1.0);
  tile.from_double(init);

  OperandCache cache;
  TaskGraph graph;
  const DataId did = graph.add_data({"tile", tile.bytes(), -1});

  OperandCache::Buffer before, after;
  const std::uint64_t v0 = graph.data_version(did);
  graph.add_task({.name = "read0"}, {{did, AccessMode::Read}}, [&] {
    before = cached_operand(&cache, tile, v0, Precision::FP64);
  });
  graph.add_task({.name = "write"}, {{did, AccessMode::ReadWrite}}, [&] {
    tile.set(0, 0, 2.0);
  });
  const std::uint64_t v1 = graph.data_version(did);
  EXPECT_EQ(v0, 0u);
  EXPECT_EQ(v1, 1u);
  const TaskId t3 = graph.add_task(
      {.name = "read1"}, {{did, AccessMode::Read}}, [&] {
        after = cached_operand(&cache, tile, v1, Precision::FP64);
      });
  // add_task stamps the dependence-analysis version on the access itself.
  EXPECT_EQ(graph.task(t3).accesses[0].version, 1u);

  ExecutorOptions opts;
  opts.num_threads = 2;
  opts.retire_hook = [&](const Task& t) {
    for (const Access& acc : t.accesses)
      if (acc.mode != AccessMode::Read) cache.invalidate(&tile);
  };
  execute(graph, opts);

  EXPECT_EQ((*before)[0], 1.0);  // v0 pack, kept alive by its reader
  EXPECT_EQ((*after)[0], 2.0);   // v1 pack reflects the committed write
  EXPECT_GE(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);  // the v1 read could not reuse v0
}

// ---------------------------------------------------------------------------
// End-to-end: mp_cholesky against a serial oracle, and pack lifetimes
// ---------------------------------------------------------------------------

TileMatrix spd_problem(std::size_t n, std::size_t nb, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> b(n, std::vector<double>(n));
  for (auto& row : b)
    for (auto& x : row) x = rng.uniform(-1.0, 1.0);
  TileMatrix tiles(n, nb);
  std::vector<double> buf;
  for (std::size_t m = 0; m < tiles.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      AnyTile& t = tiles.tile(m, k);
      buf.assign(t.size(), 0.0);
      for (std::size_t j = 0; j < t.cols(); ++j) {
        for (std::size_t i = 0; i < t.rows(); ++i) {
          const std::size_t gi = m * nb + i, gj = k * nb + j;
          double acc = (gi == gj) ? double(n) : 0.0;
          for (std::size_t q = 0; q < n; ++q) acc += b[gi][q] * b[gj][q];
          // Decay off-diagonal tile mass so the rule mixes precisions.
          if (m != k)
            acc *= std::exp(-0.8 * std::fabs(double(m) - double(k)));
          buf[i + j * t.rows()] = acc;
        }
      }
      t.from_double(buf);
    }
  }
  return tiles;
}

/// Test-local oracle: Algorithm 1 as a serial right-looking loop over the
/// same tile kernels, on mp_cholesky's precision, storage and comm maps, with
/// STC panels rounded through their wire format where the comm map says. A
/// null `cache` packs every operand privately; a cache that is never
/// invalidated keeps every pack the factorization fills.
void factor_serially(TileMatrix& a, const MpCholeskyOptions& opts,
                     OperandCache* cache) {
  const std::size_t nt = a.num_tiles();
  const PrecisionMap pmap = build_precision_map(a, opts.u_req, opts.ladder,
                                                opts.fp16_32_rule_eps);
  const CommMap cmap = build_comm_map(pmap, opts.comm);
  for (std::size_t m = 0; m < nt; ++m)
    for (std::size_t k = 0; k <= m; ++k)
      a.tile(m, k).convert_storage(pmap.storage(m, k));
  for (std::size_t k = 0; k < nt; ++k) {
    ASSERT_EQ(potrf_tile(a.tile(k, k)), 0) << "tile " << k;
    for (std::size_t m = k + 1; m < nt; ++m) {
      trsm_tile(pmap.trsm_precision(m, k), TileOperand{&a.tile(k, k)},
                a.tile(m, k), cache);
      if (cmap.uses_stc(m, k, pmap))
        a.tile(m, k).round_through_wire(wire_storage(cmap.comm(m, k)));
    }
    for (std::size_t m = k + 1; m < nt; ++m)
      syrk_tile(TileOperand{&a.tile(m, k)}, a.tile(m, m), cache);
    for (std::size_t m = k + 2; m < nt; ++m)
      for (std::size_t n = k + 1; n < m; ++n)
        gemm_tile(pmap.kernel(m, n), TileOperand{&a.tile(m, k)},
                  TileOperand{&a.tile(n, k)}, a.tile(m, n), cache);
  }
}

const std::vector<Precision> kMixedLadder = {
    Precision::FP64, Precision::FP32, Precision::FP16_32, Precision::FP16};

void expect_factors_bit_identical(const TileMatrix& a, const TileMatrix& b) {
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const AnyTile& ta = a.tile(m, k);
      const AnyTile& tb = b.tile(m, k);
      ASSERT_EQ(ta.storage(), tb.storage()) << "tile " << m << "," << k;
      const std::vector<double> wa = ta.to_double();
      const std::vector<double> wb = tb.to_double();
      ASSERT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(double)),
                0)
          << "tile " << m << "," << k;
    }
  }
}

TEST(MpCholeskyCache, BitIdenticalAcrossLaddersAndStrategies) {
  // With FP32 on the ladder, u_req 1e-6 keeps this problem's off-diagonal
  // tiles at FP32; at 1e-4 the mixed ladder drops them to FP16 and Auto
  // ships the panels STC, so the oracle's wire rounding runs too.
  const std::size_t n = 160, nb = 32;
  const TileMatrix pristine = spd_problem(n, nb, 31);
  const std::vector<std::vector<Precision>> ladders = {
      {Precision::FP64}, {Precision::FP64, Precision::FP32}, kMixedLadder};
  std::size_t stc_panels = 0;
  for (const double u_req : {1e-6, 1e-4}) {
    for (const auto& ladder : ladders) {
      for (const ConversionStrategy strat :
           {ConversionStrategy::Auto, ConversionStrategy::AllTTC}) {
        MpCholeskyOptions opts;
        opts.u_req = u_req;
        opts.ladder = ladder;
        opts.comm.strategy = strat;
        opts.num_threads = 3;

        TileMatrix cached = pristine;
        const MpCholeskyResult rc = mp_cholesky(cached, opts);
        ASSERT_EQ(rc.info, 0);

        TileMatrix oracle = pristine;
        factor_serially(oracle, opts, nullptr);

        EXPECT_GT(rc.operand_cache.hits, 0u);
        expect_factors_bit_identical(cached, oracle);
        for (std::size_t m = 0; m < rc.pmap.nt(); ++m)
          for (std::size_t k = 0; k < m; ++k)
            stc_panels += rc.cmap.uses_stc(m, k, rc.pmap) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(stc_panels, 0u);
}

TEST(MpCholeskyCache, PacksDieWithTheirLastAccess) {
  // A tile's packs are freed when the last access of its datum retires: the
  // cache is empty on return at any pool size, and the serial run's peak
  // stays below the bytes of all fills together. The fills equal those of a
  // cache that frees nothing, so no pack died before a later reader.
  const std::size_t n = 192, nb = 32;
  const TileMatrix pristine = spd_problem(n, nb, 31);
  MpCholeskyOptions opts;
  opts.u_req = 1e-5;  // GEMMs at FP32, FP16_32 and FP16 on this problem
  opts.ladder = kMixedLadder;

  TileMatrix kept = pristine;
  OperandCache keep_all;
  factor_serially(kept, opts, &keep_all);
  const OperandCache::Stats all = keep_all.stats();
  ASSERT_GT(all.bytes, 0u);

  for (const std::size_t threads : {1u, 3u}) {
    opts.num_threads = threads;
    TileMatrix a = pristine;
    const MpCholeskyResult r = mp_cholesky(a, opts);
    ASSERT_EQ(r.info, 0);
    EXPECT_EQ(r.operand_cache.bytes, 0u) << threads << " workers";
    EXPECT_EQ(r.operand_cache.misses, all.misses) << threads << " workers";
    if (threads == 1) {
      EXPECT_LT(r.operand_cache.peak_bytes, all.bytes);
    }
    expect_factors_bit_identical(a, kept);
  }
}

}  // namespace
}  // namespace mpgeo
