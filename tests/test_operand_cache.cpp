// Tests for the versioned operand cache (shared-memory STC) and the
// vectorized precision-conversion kernels it leans on:
//   * cache mechanics — hit/miss, fill-once under contention, LRU eviction
//     against the byte budget, per-datum invalidation;
//   * pack semantics — cached packs hold exactly the bytes the uncached
//     pack_gemm_operand preparation would produce for either GEMM operand
//     role, and float-stored packs widen to exactly the double packs for
//     every sub-FP64 precision;
//   * converter properties — the branch-minimal half converters, the fused
//     through_half and the batched 4-wide kernels are pinned bit-for-bit to
//     the branchy reference implementations across normals, subnormals,
//     NaN and +-Inf;
//   * stale-pack safety — a write retiring in the task graph invalidates
//     the datum's packs, and readers of the new version never see old bytes;
//   * end-to-end bit-identity — mp_cholesky produces the same factor bits
//     with the cache on and off across precision ladders and both
//     conversion strategies.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tile_matrix.hpp"
#include "linalg/anytile.hpp"
#include "linalg/operand_cache.hpp"
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

TEST(OperandCache, LruEvictionRespectsByteBudget) {
  // Budget of 3 x 64 doubles: the 4th distinct entry must evict the least
  // recently used one. Cold tier off — this pins the plain drop-on-evict
  // hot-LRU mechanics; demotion/restore has its own tests below.
  OperandCache cache(3 * 64 * sizeof(double), /*cold_tier=*/false);
  const auto fill = [](std::span<double> dst) {
    for (auto& x : dst) x = 1.0;
  };
  int data[4] = {};
  for (int i = 0; i < 4; ++i)
    cache.get(OperandKey{&data[i], 0, Precision::FP64}, 64, fill);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, cache.byte_budget());
  EXPECT_EQ(s.peak_bytes, 4u * 64 * sizeof(double));
  // The evicted entry was &data[0] (least recently used): re-fetch misses.
  cache.get(OperandKey{&data[0], 0, Precision::FP64}, 64, fill);
  EXPECT_EQ(cache.stats().misses, 5u);
  // &data[3] is still resident.
  cache.get(OperandKey{&data[3], 0, Precision::FP64}, 64, fill);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(OperandCache, ZeroBudgetDisablesCaching) {
  // byte_budget == 0 means *off*, not "use the default": every get packs a
  // private buffer and nothing is retained.
  OperandCache cache(0);
  EXPECT_FALSE(cache.enabled());
  int datum = 0, fills = 0;
  const OperandKey key{&datum, 0, Precision::FP64};
  const auto fill = [&](std::span<double> dst) {
    ++fills;
    for (auto& x : dst) x = 3.0;
  };
  const auto a = cache.get(key, 8, fill);
  const auto b = cache.get(key, 8, fill);
  EXPECT_EQ(fills, 2);          // no memoization
  EXPECT_NE(a.get(), b.get());  // distinct private buffers
  EXPECT_EQ((*a)[7], 3.0);
  EXPECT_EQ((*b)[7], 3.0);
  const auto s = cache.stats();
  EXPECT_EQ(s.bypasses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.bytes, 0u);
  // A positive budget reports enabled.
  EXPECT_TRUE(OperandCache(1024).enabled());
}

TEST(OperandCache, ColdTierDemotesAndRestoresBitExactly) {
  // Budget of 3 x 64 doubles, cold tier on: the 4th entry demotes the LRU
  // one into the compressed tier instead of dropping it. Re-fetching the
  // demoted key restores from the compressed bytes — a *hit* whose payload
  // is bit-identical to the original fill, with the fill never re-run.
  OperandCache cache(3 * 64 * sizeof(double));
  int data[4] = {};
  int fills = 0;
  const auto fill_for = [&](int which) {
    return [&fills, which](std::span<double> dst) {
      ++fills;
      for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = double(which) + double(i) / 64.0;
    };
  };
  for (int i = 0; i < 4; ++i)
    cache.get(OperandKey{&data[i], 0, Precision::FP64}, 64, fill_for(i));
  {
    const auto s = cache.stats();
    EXPECT_EQ(fills, 4);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_GE(s.demotions, 1u);
    EXPECT_EQ(s.evictions, s.demotions);  // every hot eviction demoted
    EXPECT_EQ(s.cold_evictions, 0u);      // smooth payloads compress small
    EXPECT_GT(s.compressed_bytes, 0u);
    EXPECT_LE(s.bytes, cache.byte_budget());
  }
  // &data[0] was demoted first: this get restores it without re-filling.
  const auto buf = cache.get(
      OperandKey{&data[0], 0, Precision::FP64}, 64, fill_for(0));
  EXPECT_EQ(fills, 4);  // restore, not a re-pack
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ((*buf)[i], double(0) + double(i) / 64.0);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.restores, 1u);
  EXPECT_LE(s.bytes, cache.byte_budget());
}

TEST(OperandCache, ColdTierEvictsForRealWhenCompressedBytesOverflow) {
  // Incompressible payloads: the codec's stored fallback keeps cold entries
  // ~raw-sized, so demotions immediately overflow the budget and the cold
  // tier must evict for real. A dropped key then misses again.
  Rng rng(5);
  OperandCache cache(2 * 64 * sizeof(double));
  int data[4] = {};
  int fills = 0;
  const auto fill = [&](std::span<double> dst) {
    ++fills;
    for (auto& x : dst) x = rng.uniform(-1.0, 1.0);
  };
  for (int i = 0; i < 4; ++i)
    cache.get(OperandKey{&data[i], 0, Precision::FP64}, 64, fill);
  const auto s = cache.stats();
  EXPECT_GE(s.demotions, 1u);
  EXPECT_GE(s.cold_evictions, 1u);
  EXPECT_LE(s.bytes, cache.byte_budget());
  // &data[0] went cold first and was dropped first: a re-get is a miss.
  cache.get(OperandKey{&data[0], 0, Precision::FP64}, 64, fill);
  EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(OperandCache, InvalidateDropsColdEntries) {
  // Demote a datum's pack, then invalidate the datum: the cold entry and its
  // compressed bytes must go with it. Budget of one pack plus slack, so the
  // demoted entry survives in the cold tier instead of overflowing it.
  OperandCache cache(64 * sizeof(double) + 256);
  int datum = 0, other = 0;
  const auto fill = [](std::span<double> dst) {
    for (auto& x : dst) x = 1.0;
  };
  cache.get(OperandKey{&datum, 0, Precision::FP64}, 64, fill);
  cache.get(OperandKey{&other, 0, Precision::FP64}, 64,
            fill);  // demotes &datum's pack
  ASSERT_GE(cache.stats().demotions, 1u);
  ASSERT_GT(cache.stats().compressed_bytes, 0u);
  cache.invalidate(&datum);
  const auto s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.compressed_bytes, 0u);
  // The cold entry is gone: re-getting the key is a miss, not a restore.
  cache.get(OperandKey{&datum, 0, Precision::FP64}, 64, fill);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().restores, 0u);
}

TEST(OperandCache, ColdTierRestoresFloatPacksBitExactly) {
  // The f32 pack path demotes and restores through the same machinery with
  // elem_size 4. One-pack budget plus cold-tier slack; a repeating payload
  // keeps the cold bytes comfortably inside it.
  OperandCache cache(64 * sizeof(float) + 128);
  int datum = 0, other = 0, fills = 0;
  const auto fill = [&](std::span<float> dst) {
    ++fills;
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = float(i & 3);
  };
  cache.get_f32(OperandKey{&datum, 0, Precision::FP32}, 64, fill);
  cache.get_f32(OperandKey{&other, 0, Precision::FP32},
                64, fill);  // demotes &datum's pack
  ASSERT_GE(cache.stats().demotions, 1u);
  const auto buf = cache.get_f32(
      OperandKey{&datum, 0, Precision::FP32}, 64, fill);
  EXPECT_EQ(fills, 2);  // restored, not re-filled
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ((*buf)[i], float(i & 3));
  EXPECT_EQ(cache.stats().restores, 1u);
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
  // read(v0) -> write -> read(v1) on one tile, wired exactly like
  // mp_cholesky: consumers key the cache with the version captured at
  // insertion; the retire hook invalidates written data.
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
// End-to-end: mp_cholesky factor bits are cache-invariant
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
  const std::size_t n = 160, nb = 32;
  const TileMatrix pristine = spd_problem(n, nb, 31);
  const std::vector<std::vector<Precision>> ladders = {
      {Precision::FP64},
      {Precision::FP64, Precision::FP32},
      {Precision::FP64, Precision::FP32, Precision::FP16_32,
       Precision::FP16}};
  for (const auto& ladder : ladders) {
    for (const ConversionStrategy strat :
         {ConversionStrategy::Auto, ConversionStrategy::AllTTC}) {
      MpCholeskyOptions opts;
      opts.u_req = 1e-6;
      opts.ladder = ladder;
      opts.comm.strategy = strat;
      opts.num_threads = 3;

      TileMatrix cached = pristine;
      opts.use_operand_cache = true;
      const MpCholeskyResult rc = mp_cholesky(cached, opts);
      ASSERT_EQ(rc.info, 0);

      TileMatrix uncached = pristine;
      opts.use_operand_cache = false;
      const MpCholeskyResult ru = mp_cholesky(uncached, opts);
      ASSERT_EQ(ru.info, 0);

      EXPECT_GT(rc.operand_cache.hits, 0u);
      EXPECT_EQ(ru.operand_cache.hits, 0u);
      expect_factors_bit_identical(cached, uncached);
    }
  }
}

TEST(MpCholeskyCache, TinyBudgetStillBitIdentical) {
  // A budget of one tile pack forces constant eviction; values must not
  // change, only the hit rate.
  const std::size_t n = 128, nb = 32;
  const TileMatrix pristine = spd_problem(n, nb, 57);
  MpCholeskyOptions opts;
  opts.u_req = 1e-6;
  opts.num_threads = 2;

  TileMatrix cached = pristine;
  opts.use_operand_cache = true;
  opts.operand_cache_bytes = nb * nb * sizeof(double);
  const MpCholeskyResult rc = mp_cholesky(cached, opts);
  ASSERT_EQ(rc.info, 0);
  EXPECT_GT(rc.operand_cache.evictions, 0u);

  TileMatrix uncached = pristine;
  opts.use_operand_cache = false;
  const MpCholeskyResult ru = mp_cholesky(uncached, opts);
  ASSERT_EQ(ru.info, 0);
  expect_factors_bit_identical(cached, uncached);
}

}  // namespace
}  // namespace mpgeo
