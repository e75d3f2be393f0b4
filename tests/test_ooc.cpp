// Out-of-core factorization tests (core/ooc_pager.hpp, DESIGN.md 5i):
// live-range analysis, bit-identity of the paged factorization against the
// fully-resident run at every budget x pool size, pager stats sanity (the
// budget holds to budget + one tile unless a fault takes the overshoot
// escape), rank-sharded paging (eviction racing the late SEND-side read),
// spill-log compaction accounting, and escalation recovery through the
// copy-from-spilled snapshot path. Labelled tsan: the workers' restores,
// cold evictions and dead spills race on the pager mutex for real here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mp_cholesky.hpp"
#include "core/ooc_pager.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_covariance.hpp"
#include "linalg/matrix.hpp"
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
      // Same precision map (streamed norms == resident norms) and, after
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

TEST(SpillCompactionTest, CompactionReclaimsGarbageAndStaysBitExact) {
  TileMatrix a = random_spd_problem(96, 24, 19);
  std::vector<std::vector<std::byte>> before;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const auto raw = a.tile(m, k).raw_bytes();
      before.emplace_back(raw.begin(), raw.end());
    }
  }

  MetricsRegistry reg;
  SpillOptions sopts;
  sopts.enabled = true;
  sopts.metrics = &reg;
  a.enable_spill(sopts);

  // Repeated spill/restore cycles: the append-only log grows, the live set
  // does not.
  std::size_t live = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    live = a.spill_all();
    if (cycle < 3) a.restore_all();
  }
  const SpillStats grown = a.spill_stats();
  EXPECT_EQ(grown.spilled_bytes, live);
  EXPECT_GT(grown.log_bytes, 3 * live);  // 4 generations of blobs on disk
  EXPECT_EQ(grown.garbage_bytes(), grown.log_bytes - live);
  EXPECT_EQ(reg.counter_value("tile.log_garbage_bytes"),
            grown.garbage_bytes());

  // Explicit compaction reclaims exactly the garbage; restores afterwards
  // read the fresh log bit-exactly.
  const std::size_t reclaimed = a.compact();
  EXPECT_EQ(reclaimed, grown.garbage_bytes());
  const SpillStats compacted = a.spill_stats();
  EXPECT_EQ(compacted.log_bytes, live);
  EXPECT_EQ(compacted.garbage_bytes(), 0u);
  EXPECT_EQ(compacted.compactions, 1u);
  EXPECT_EQ(reg.counter_value("tile.compactions"), 1u);
  EXPECT_EQ(reg.counter_value("tile.compacted_bytes"), reclaimed);
  a.restore_all();
  std::size_t idx = 0;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k, ++idx) {
      const auto raw = a.tile(m, k).raw_bytes();
      ASSERT_EQ(raw.size(), before[idx].size());
      EXPECT_EQ(std::memcmp(raw.data(), before[idx].data(), raw.size()), 0)
          << "tile " << idx;
    }
  }
  // The restore_all stranded the compacted blobs; one more spill/compact
  // cycle reclaims exactly those, after which the log is garbage-free and
  // compact() is a no-op.
  a.spill_all();
  EXPECT_EQ(a.compact(), live);
  EXPECT_EQ(a.compact(), 0u);
}

TEST(SpillCompactionTest, AutoCompactionBoundsTheLog) {
  TileMatrix a = random_spd_problem(96, 24, 23);
  SpillOptions sopts;
  sopts.enabled = true;
  sopts.compact_garbage_ratio = 0.5;
  sopts.compact_min_bytes = 1;  // no grace size in the test
  a.enable_spill(sopts);

  std::size_t live = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    live = a.spill_all();
    const SpillStats s = a.spill_stats();
    // The policy holds the invariant garbage <= ratio * log at every step.
    EXPECT_LE(double(s.garbage_bytes()), 0.5 * double(s.log_bytes) + 1.0);
    if (cycle < 7) a.restore_all();
  }
  const SpillStats s = a.spill_stats();
  EXPECT_GT(s.compactions, 0u);
  EXPECT_LE(s.log_bytes, 3 * live);  // bounded, not 8 generations
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
    sopts.compact_garbage_ratio = 0.6;
    sopts.compact_min_bytes = 1;
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
