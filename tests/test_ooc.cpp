// Out-of-core factorization tests (core/ooc_pager.hpp, DESIGN.md 5i):
// live-range analysis, bit-identity of the paged factorization against the
// fully-resident run at every budget x pool size, pager stats sanity (the
// budget holds to budget + one tile unless a fault takes the overshoot
// escape), rank-sharded paging (eviction racing the late SEND-side read),
// the spill file's fixed-slot size bound, reads of a spilled factor in place
// (logdet, forward solve and both map builders), and escalation recovery
// through the copy-from-spilled snapshot path. Labelled tsan: the workers'
// restores, cold evictions and dead spills race on the pager mutex for real
// here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mp_cholesky.hpp"
#include "core/ooc_pager.hpp"
#include "core/precision_map.hpp"
#include "core/shared_pager.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_covariance.hpp"
#include "linalg/matrix.hpp"
#include "linalg/operand_cache.hpp"
#include "obs/metrics.hpp"
#include "runtime/live_ranges.hpp"
#include "runtime/task_graph.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

/// Well-conditioned SPD matrix with tile-norm decay away from the diagonal
/// (the test_mp_cholesky / test_dist idiom): coarse u_req gives a genuinely
/// mixed precision map without breakdown risk.
TileMatrix random_spd_problem(std::size_t n, std::size_t nb,
                              std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> b(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1.0, 1.0);
  TileMatrix tiles(n, nb);
  std::vector<double> buf;
  for (std::size_t m = 0; m < tiles.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      AnyTile& t = tiles.tile(m, k);
      buf.resize(t.size());
      for (std::size_t j = 0; j < t.cols(); ++j) {
        for (std::size_t i = 0; i < t.rows(); ++i) {
          const std::size_t gi = m * nb + i, gj = k * nb + j;
          double acc = (gi == gj) ? double(n) : 0.0;
          for (std::size_t q = 0; q < n; ++q) acc += b(gi, q) * b(gj, q);
          if (m != k) acc *= std::exp(-1.5 * double(m - k));
          buf[i + j * t.rows()] = acc;
        }
      }
      t.from_double(buf);
    }
  }
  return tiles;
}

/// Bitwise equality of two factored TileMatrices (storage formats included).
::testing::AssertionResult factors_identical(const TileMatrix& a,
                                             const TileMatrix& b) {
  if (a.num_tiles() != b.num_tiles()) {
    return ::testing::AssertionFailure() << "tile-count mismatch";
  }
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const AnyTile& ta = a.tile(m, k);
      const AnyTile& tb = b.tile(m, k);
      if (ta.storage() != tb.storage()) {
        return ::testing::AssertionFailure()
               << "storage mismatch at (" << m << "," << k << ")";
      }
      const auto ra = ta.raw_bytes();
      const auto rb = tb.raw_bytes();
      if (ra.size() != rb.size() ||
          std::memcmp(ra.data(), rb.data(), ra.size()) != 0) {
        return ::testing::AssertionFailure()
               << "bytes differ at (" << m << "," << k << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(LiveRangesTest, BracketsAndCountsDeclaredAccesses) {
  TaskGraph g;
  const DataId x = g.add_data({"x", 64});
  const DataId y = g.add_data({"y", 64});
  const DataId dead = g.add_data({"dead", 64});
  (void)dead;
  // t0 writes x; t1 reads x, writes y; t2 reads x twice (dedup) and y.
  g.add_task({}, {{x, AccessMode::Write}});
  g.add_task({}, {{x, AccessMode::Read}, {y, AccessMode::Write}});
  g.add_task({}, {{x, AccessMode::Read},
                  {x, AccessMode::ReadWrite},
                  {y, AccessMode::Read}});
  const std::vector<DataLiveRange> lr = compute_live_ranges(g);
  ASSERT_EQ(lr.size(), 3u);
  EXPECT_EQ(lr[x].first_use, 0u);
  EXPECT_EQ(lr[x].last_use, 2u);
  EXPECT_EQ(lr[x].uses, 3u);  // two Access entries in t2 count once
  EXPECT_EQ(lr[y].first_use, 1u);
  EXPECT_EQ(lr[y].last_use, 2u);
  EXPECT_EQ(lr[y].uses, 2u);
  EXPECT_FALSE(lr[dead].live());
  EXPECT_EQ(lr[dead].first_use, kNoTask);
}

/// The core guarantee: at every budget and pool size the paged
/// factorization produces the same bits as the fully-resident run — while
/// genuinely paging (the tight budgets force cold evictions
/// mid-factorization).
TEST(OutOfCoreCholeskyTest, BitIdenticalAcrossBudgetsAndSchedulers) {
  const std::size_t n = 160, nb = 32;
  const TileMatrix pristine = random_spd_problem(n, nb, 11);
  MpCholeskyOptions base;
  base.u_req = 1e-4;
  base.num_threads = 4;

  TileMatrix ref = pristine;
  const MpCholeskyResult r0 = mp_cholesky(ref, base);
  ASSERT_EQ(r0.info, 0);
  const std::size_t full = r0.stored_bytes;

  for (const std::size_t budget : {full / 4, std::size_t(45 * full / 100),
                                   std::size_t(0)}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      TileMatrix a = pristine;
      SpillOptions sopts;
      sopts.enabled = true;
      a.enable_spill(sopts);
      a.spill_all();  // the matrix starts on disk

      MpCholeskyOptions opt = base;
      opt.num_threads = threads;
      opt.ooc.enabled = true;
      opt.ooc.resident_byte_budget = budget;
      const MpCholeskyResult r = mp_cholesky(a, opt);
      ASSERT_EQ(r.info, 0) << "budget=" << budget << " threads=" << threads;
      // Same precision map (spilled norms == resident norms) and, after
      // restoring the spilled factor, the same bits.
      for (std::size_t m = 0; m < a.num_tiles(); ++m) {
        for (std::size_t k = 0; k <= m; ++k) {
          EXPECT_EQ(r.pmap.kernel(m, k), r0.pmap.kernel(m, k));
        }
      }
      a.restore_all();
      EXPECT_TRUE(factors_identical(ref, a))
          << "budget=" << budget << " threads=" << threads;
      if (budget != 0 && budget < full / 2) {
        EXPECT_GT(r.ooc.cold_evictions, 0u)
            << "budget=" << budget << " threads=" << threads;
      }
      EXPECT_GT(r.ooc.evictions, 0u);  // dead tiles spill as they finish
      EXPECT_EQ(r.ooc.prefetches, 0u);  // nothing restores ahead of demand
      EXPECT_GT(r.ooc.demand_faults, 0u);
    }
  }
}

TEST(OutOfCoreCholeskyTest, BudgetHoldsUpToDemandFaultOvershoot) {
  // 55 tiles, so a 3-tile budget makes the working-set bound meaningful.
  const std::size_t n = 320, nb = 32;
  const TileMatrix pristine = random_spd_problem(n, nb, 13);

  std::size_t max_tile = 0, full = 0;
  for (std::size_t m = 0; m < pristine.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      max_tile = std::max(max_tile, pristine.tile(m, k).bytes());
      full += pristine.tile(m, k).bytes();
    }
  }

  // Brutally tight (3 tiles: 4 workers pinning up to 3 tiles each must take
  // the overshoot escape), then a 25% budget with room for every worker's
  // working set.
  for (const std::size_t budget : {3 * max_tile, full / 4}) {
    TileMatrix a = pristine;
    SpillOptions sopts;
    sopts.enabled = true;
    a.enable_spill(sopts);
    a.spill_all();

    MetricsRegistry reg;
    MpCholeskyOptions opt;
    opt.u_req = 1e-4;
    opt.num_threads = 4;
    opt.metrics = &reg;
    opt.capture_trace = true;  // residency samples
    opt.ooc.enabled = true;
    opt.ooc.resident_byte_budget = budget;
    const MpCholeskyResult r = mp_cholesky(a, opt);
    ASSERT_EQ(r.info, 0) << "budget=" << budget;

    // Half the matrix is a slack envelope that proves the pager bounded the
    // working set — the resident run would sit at `full`.
    EXPECT_GT(r.ooc.peak_resident_bytes, 0u);
    EXPECT_LT(r.ooc.peak_resident_bytes, full / 2);
    EXPECT_GT(r.ooc.cold_evictions, 0u) << "budget=" << budget;
    // The contract: accounted residency stays within budget + one tile
    // unless a fault found no victim and nothing in flight.
    if (r.ooc.overshoot_admits == 0) {
      EXPECT_LE(r.ooc.peak_resident_bytes, budget + max_tile)
          << "budget=" << budget;
    }

    // Residency samples were captured and peak at the same quantity.
    ASSERT_FALSE(r.ooc_residency.empty());
    double peak_sample = 0.0;
    for (const auto& [ts, v] : r.ooc_residency) {
      EXPECT_GE(ts, 0.0);
      peak_sample = std::max(peak_sample, v);
    }
    EXPECT_EQ(std::size_t(peak_sample), r.ooc.peak_resident_bytes);

    // finish() reported the pager counters into the registry.
    EXPECT_EQ(reg.counter_value("ooc.cold_evictions"), r.ooc.cold_evictions);
    EXPECT_EQ(reg.counter_value("ooc.evictions"), r.ooc.evictions);
    EXPECT_EQ(reg.counter_value("ooc.prefetches"), r.ooc.prefetches);
    EXPECT_EQ(reg.counter_value("ooc.demand_faults"), r.ooc.demand_faults);
  }
}

/// Rank-sharded + paged: SEND tasks read the owner tile through the graph,
/// so the pager pins panels for serialization exactly like compute reads —
/// the "eviction racing a late SEND-side access" case is just another
/// declared access. Factors stay bit-identical to the unsharded resident run.
TEST(OutOfCoreCholeskyTest, DistShardedPagingStaysBitIdentical) {
  const std::size_t n = 160, nb = 32;
  const TileMatrix pristine = random_spd_problem(n, nb, 17);
  MpCholeskyOptions base;
  base.u_req = 1e-4;
  base.num_threads = 4;

  TileMatrix ref = pristine;
  const MpCholeskyResult r0 = mp_cholesky(ref, base);
  ASSERT_EQ(r0.info, 0);

  TileMatrix a = pristine;
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();
  MpCholeskyOptions opt = base;
  opt.dist.ranks = 2;
  opt.ooc.enabled = true;
  opt.ooc.resident_byte_budget = r0.stored_bytes / 3;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  ASSERT_EQ(r.info, 0);
  EXPECT_GT(r.wire.messages, 0u);
  a.restore_all();
  EXPECT_TRUE(factors_identical(ref, a));
}

/// The spill file holds one fixed slot per tile, so no sequence of spills,
/// restores, storage changes and discards grows it past packed tiles x nb^2
/// x 8 bytes, and every restore stays bit-exact.
TEST(SpillSlotTest, FileStaysWithinSlotCapacityAcrossCycles) {
  const std::size_t n = 96, nb = 24;
  TileMatrix a = random_spd_problem(n, nb, 19);
  TileMatrix ref = a;  // resident twin that takes the same storage changes
  const std::size_t nt = a.num_tiles();
  const std::size_t capacity = nt * (nt + 1) / 2 * nb * nb * sizeof(double);

  SpillOptions sopts;
  sopts.enabled = true;
  sopts.path = ::testing::TempDir() + "mpgeo_spill_slots.bin";
  a.enable_spill(sopts);
  const auto within_capacity = [&](const char* when, int cycle) {
    EXPECT_LE(a.spill_stats().file_bytes, capacity)
        << when << ", cycle " << cycle;
    EXPECT_LE(std::filesystem::file_size(sopts.path), capacity)
        << when << ", cycle " << cycle;
  };

  for (int cycle = 0; cycle < 8; ++cycle) {
    if (cycle == 2) {
      // Storage change: narrowing the off-diagonal tiles changes every
      // re-spilled blob's size inside its slot.
      for (std::size_t m = 1; m < nt; ++m) {
        for (std::size_t k = 0; k < m; ++k) {
          const Storage s = (m + k) % 2 ? Storage::FP32 : Storage::FP16;
          a.tile(m, k).convert_storage(s);
          ref.tile(m, k).convert_storage(s);
        }
      }
    }
    a.spill_all();
    within_capacity("after spill_all", cycle);
    if (cycle == 4) {
      // discard_spilled frees a slot without decompressing; reset_storage
      // re-targets the degraded spilled tiles through the same path and
      // spills them again.
      a.discard_spilled(1, 0, Storage::FP64);
      ref.set_storage(1, 0, Storage::FP64);
      a.reset_storage(Storage::FP64);
      ref.reset_storage(Storage::FP64);
      within_capacity("after reset_storage", cycle);
    }
    a.restore_all();
    EXPECT_TRUE(factors_identical(ref, a)) << "cycle " << cycle;
  }
  EXPECT_EQ(a.spill_stats().spilled_bytes, 0u);
  std::remove(sopts.path.c_str());
}

/// Re-targeting a spilled matrix to FP64 only relabels its tiles: nothing is
/// written, no slot is freed, every tile stays spilled, and the next restore
/// widens each FP32 blob exactly — bit-equal to a resident twin that widens
/// in place.
TEST(SpillSlotTest, ResetStorageOfSpilledTilesWritesNothing) {
  const std::size_t n = 96, nb = 24;
  TileMatrix a = random_spd_problem(n, nb, 29);
  const std::size_t nt = a.num_tiles();
  for (std::size_t m = 1; m < nt; ++m) {
    for (std::size_t k = 0; k < m; ++k) {
      a.tile(m, k).convert_storage(Storage::FP32);
    }
  }
  const TileMatrix narrowed = a;
  TileMatrix ref = a;  // resident twin

  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();
  const SpillStats before = a.spill_stats();
  a.reset_storage(Storage::FP64);
  ref.reset_storage(Storage::FP64);

  const SpillStats after = a.spill_stats();
  EXPECT_EQ(after.spills, before.spills);
  EXPECT_EQ(after.restores, before.restores);
  EXPECT_EQ(after.spilled_bytes, before.spilled_bytes);
  EXPECT_EQ(after.file_bytes, before.file_bytes);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_EQ(a.tile(m, k).storage(), Storage::FP64)
          << "(" << m << "," << k << ")";
      EXPECT_TRUE(a.spilled(m, k)) << "(" << m << "," << k << ")";
    }
  }

  a.restore_all();
  EXPECT_TRUE(factors_identical(ref, a));
  // The restored values are the FP32 ones, widened — not zeros.
  for (std::size_t m = 1; m < nt; ++m) {
    for (std::size_t k = 0; k < m; ++k) {
      const AnyTile& t = a.tile(m, k);
      const AnyTile& f = narrowed.tile(m, k);
      for (std::size_t j = 0; j < t.cols(); ++j) {
        for (std::size_t i = 0; i < t.rows(); ++i) {
          ASSERT_EQ(t.at(i, j), f.at(i, j))
              << "(" << m << "," << k << ") at " << i << "," << j;
        }
      }
    }
  }
  EXPECT_NE(a.tile(1, 0).at(0, 0), 0.0);
}

/// Everything the likelihood and the map builders read comes straight out of
/// the spill file: on a spilled factor, logdet, forward solve (with and
/// without an operand cache), the precision map and the truncation map equal
/// the resident copy's bit for bit, no tile is restored or re-spilled, and
/// a shared pager whose budget is one tile sees at most one tile leased.
TEST(SpilledReadTest, LogdetSolveAndMapsReadTheFactorInPlace) {
  const std::size_t n = 160, nb = 32;
  TileMatrix a = random_spd_problem(n, nb, 23);
  MpCholeskyOptions opt;
  opt.u_req = 1e-4;
  opt.num_threads = 2;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  ASSERT_EQ(r.info, 0);
  const TileMatrix resident = a;

  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();
  const SpillStats before = a.spill_stats();
  std::size_t max_tile = 0;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      max_tile = std::max(max_tile, a.tile(m, k).bytes());
    }
  }
  SharedPagerOptions popts;
  popts.resident_byte_budget = max_tile;
  SharedOocPager pager(popts);

  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  const double logdet = logdet_tiled(resident);
  EXPECT_TRUE(same_bits(logdet_tiled(a), logdet));
  EXPECT_TRUE(same_bits(logdet_tiled(a, &pager), logdet));

  Rng rng(5);
  std::vector<double> z(n);
  for (double& v : z) v = rng.normal();
  std::vector<double> y_ref = z;
  forward_solve_tiled(resident, y_ref);
  std::vector<double> y = z;
  forward_solve_tiled(a, y, nullptr, &pager);
  EXPECT_EQ(std::memcmp(y.data(), y_ref.data(), n * sizeof(double)), 0);
  // Decoded tiles bypass the cache: scratch addresses are no tile identity.
  OperandCache cache;
  std::vector<double> y_cached = z;
  forward_solve_tiled(a, y_cached, &cache, &pager);
  EXPECT_EQ(std::memcmp(y_cached.data(), y_ref.data(), n * sizeof(double)),
            0);
  EXPECT_EQ(cache.stats().misses, 0u);

  const PrecisionMap pmap =
      build_precision_map(a, opt.u_req, default_precision_ladder());
  const PrecisionMap pmap_ref =
      build_precision_map(resident, opt.u_req, default_precision_ladder());
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_EQ(pmap.kernel(m, k), pmap_ref.kernel(m, k));
    }
  }
  EXPECT_EQ(build_truncation_map(a.norms(), r.pmap, opt.u_req),
            build_truncation_map(resident.norms(), r.pmap, opt.u_req));
  EXPECT_TRUE(same_bits(a.frobenius_norm(), resident.frobenius_norm()));

  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_TRUE(a.spilled(m, k)) << "(" << m << "," << k << ")";
    }
  }
  const SpillStats after = a.spill_stats();
  EXPECT_EQ(after.spills, before.spills);
  EXPECT_EQ(after.restores, before.restores);
  EXPECT_EQ(after.spilled_bytes, before.spilled_bytes);
  EXPECT_EQ(after.file_bytes, before.file_bytes);

  const SharedPagerStats leased = pager.stats();
  EXPECT_EQ(leased.resident_bytes, 0u);
  EXPECT_GT(leased.peak_resident_bytes, 0u);
  EXPECT_LE(leased.peak_resident_bytes, max_tile);
}

/// Escalation + out-of-core: a mid-run breakdown aborts the attempt with
/// tiles spilled; the snapshot restore path (copy-from-spilled assignment)
/// must bring back pristine values and the retry must match the resident
/// escalated run bit for bit.
TEST(OutOfCoreCholeskyTest, EscalationSnapshotRecoversThroughSpilledState) {
  // Matérn covariance that provably breaks down at u_req = 0.5 on the
  // default ladder (the test_escalation problem).
  Rng rng(21);
  const LocationSet locs = generate_locations(192, 2, rng);
  const Covariance cov(CovKind::Matern);
  const std::vector<double> theta{1.0, 1.0, 2.5};
  const TileMatrix pristine = build_tiled_covariance(cov, locs, theta, 24,
                                                     1e-8);
  MpCholeskyOptions base;
  base.u_req = 0.5;
  base.num_threads = 4;
  base.escalation.max_attempts = 8;
  base.escalation.promote_ladder = true;

  TileMatrix ref = pristine;
  const MpCholeskyResult r0 = mp_cholesky(ref, base);
  ASSERT_EQ(r0.info, 0);
  ASSERT_GT(r0.breakdowns, 0);  // the problem genuinely breaks down

  TileMatrix a = pristine;
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();
  MpCholeskyOptions opt = base;
  opt.ooc.enabled = true;
  opt.ooc.resident_byte_budget = pristine.bytes() / 3;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  ASSERT_EQ(r.info, 0);
  EXPECT_EQ(r.breakdowns, r0.breakdowns);
  EXPECT_EQ(r.escalations, r0.escalations);
  a.restore_all();
  EXPECT_TRUE(factors_identical(ref, a));
}

/// TSan stress: repeat tight-budget runs so demand faults, cold evictions
/// and the retire hook's dead spills genuinely interleave across workers.
TEST(OutOfCoreCholeskyTest, ConcurrentPagingStress) {
  const std::size_t n = 128, nb = 32;
  const TileMatrix pristine = random_spd_problem(n, nb, 29);
  TileMatrix ref = pristine;
  MpCholeskyOptions base;
  base.u_req = 1e-4;
  base.num_threads = 4;
  ASSERT_EQ(mp_cholesky(ref, base).info, 0);
  for (int rep = 0; rep < 4; ++rep) {
    TileMatrix a = pristine;
    SpillOptions sopts;
    sopts.enabled = true;
    a.enable_spill(sopts);
    a.spill_all();
    MpCholeskyOptions opt = base;
    opt.ooc.enabled = true;
    opt.ooc.resident_byte_budget = pristine.bytes() / 4;
    const MpCholeskyResult r = mp_cholesky(a, opt);
    ASSERT_EQ(r.info, 0) << "rep=" << rep;
    a.restore_all();
    EXPECT_TRUE(factors_identical(ref, a)) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace mpgeo
