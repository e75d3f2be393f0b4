// Shared multi-tenant pager tests (core/shared_pager.hpp, DESIGN.md 5j):
// the global-budget contract under concurrency. Property tests drive the
// arbiter directly with randomized multi-tenant schedules and the built-in
// invariant validator (ledger, budget + one tile, the waiting shield);
// deterministic tests pin down the victim ladder (BestEffort before Batch
// before Interactive, coldest tile first) and the floor/overshoot escape; a
// FitServer stress run proves eight tenants under a global budget below 30%
// of the co-resident working set stay bitwise identical to the serial
// resident baseline; and an MLE regression splits per-run from lifetime
// OocStats on a pooled workspace. Labelled tsan + mpgeo-ooc: tenant threads
// run their own codec jobs and race on the single pager mutex for real.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/mle.hpp"
#include "core/shared_pager.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_covariance.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "runtime/task_graph.hpp"
#include "serve/fit_server.hpp"
#include "stats/covariance.hpp"
#include "stats/field.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

constexpr std::size_t kNb = 16;
constexpr std::size_t kTileBytes = kNb * kNb * sizeof(double);

/// Uniform-tile SPD-ish matrix (values are irrelevant to the ledger tests;
/// n = k * kNb keeps every packed tile exactly kTileBytes).
TileMatrix make_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TileMatrix a(n, kNb);
  std::vector<double> buf;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      AnyTile& t = a.tile(m, k);
      buf.resize(t.size());
      for (double& v : buf) v = rng.uniform(-1.0, 1.0);
      t.from_double(buf);
    }
  }
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();
  return a;
}

std::size_t packed_tiles(std::size_t n) {
  const std::size_t nt = (n + kNb - 1) / kNb;
  return nt * (nt + 1) / 2;
}

/// One directly-driven tenant: matrix + graph + identity datum->tile map.
/// The graph must be fully built before attach() (live ranges are computed
/// there), so tests stage tasks first and call attach_to last.
struct Driven {
  TileMatrix a;
  TaskGraph g;
  std::vector<DataId> d;
  std::unique_ptr<SharedOocPager::Tenant> tenant;

  explicit Driven(std::size_t n, std::uint64_t seed) : a(make_matrix(n, seed)) {
    for (std::size_t i = 0; i < packed_tiles(n); ++i) {
      d.push_back(g.add_data({"t" + std::to_string(i), kTileBytes}));
    }
  }
  void attach_to(SharedOocPager& pager, SharedOocPager::TenantOptions topts) {
    std::vector<std::size_t> tile_of_datum(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) tile_of_datum[i] = i;
    tenant = pager.attach(a, g, std::move(tile_of_datum), topts);
  }
  void run_task(TaskId id) {
    tenant->before_task(g.task(id));
    tenant->after_task(g.task(id));
  }
  void run_all() {
    for (TaskId id = 0; id < g.num_tasks(); ++id) run_task(id);
    tenant->finish();
  }
};

/// Randomized schedule: single reads, pair reads, read-writes, and pure
/// writes (the elision path), so victim selection sees every tile state.
void add_random_tasks(Driven& dt, std::size_t tasks, Rng& rng) {
  const std::size_t nt = dt.d.size();
  for (std::size_t t = 0; t < tasks; ++t) {
    const DataId a = dt.d[rng.uniform_index(nt)];
    const double roll = rng.uniform();
    if (roll < 0.2) {
      dt.g.add_task({}, {{a, AccessMode::Write}});
    } else if (roll < 0.5) {
      const DataId b = dt.d[rng.uniform_index(nt)];
      dt.g.add_task({}, {{a, AccessMode::Read}, {b, AccessMode::Read}});
    } else if (roll < 0.7) {
      dt.g.add_task({}, {{a, AccessMode::ReadWrite}});
    } else {
      dt.g.add_task({}, {{a, AccessMode::Read}});
    }
  }
}

/// The tentpole property: across randomized concurrent schedules the
/// validator sees no contract violation — accounted residency stays within
/// budget + one tile (absent the stuck-regime escape), no waiting/pinned
/// tile is ever evicted — and every tenant honors the demand_faults <= uses
/// starvation bound.
TEST(SharedPagerPropertyTest, RandomizedSchedulesHoldInvariants) {
  for (const std::uint64_t seed : {7u, 21u, 33u}) {
    SharedPagerOptions po;
    po.resident_byte_budget = 6 * kTileBytes;
    po.check_invariants = true;
    SharedOocPager pager(po);

    Rng root(seed);
    std::vector<std::unique_ptr<Driven>> tenants;
    for (std::size_t i = 0; i < 3; ++i) {
      Rng rng = root.spawn(i);
      auto dt = std::make_unique<Driven>(/*n=*/48, seed * 100 + i);
      add_random_tasks(*dt, 40, rng);
      SharedOocPager::TenantOptions topts;
      topts.priority = static_cast<PagerPriority>(i % kNumPagerPriorities);
      topts.floor_bytes = i == 0 ? kTileBytes : 0;
      topts.name = "prop" + std::to_string(i);
      dt->attach_to(pager, topts);
      tenants.push_back(std::move(dt));
    }

    std::vector<std::thread> threads;
    for (auto& dt : tenants) {
      threads.emplace_back([&dt] { dt->run_all(); });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(pager.first_invariant_violation(), "") << "seed=" << seed;
    const SharedPagerStats s = pager.stats();
    EXPECT_EQ(s.tenants_attached, 3u);
    EXPECT_GT(s.demand_faults + s.write_installs, 0u);
    if (s.overshoot_admits == 0) {
      EXPECT_LE(s.peak_resident_bytes,
                po.resident_byte_budget + s.max_tile_bytes)
          << "seed=" << seed;
    }
    for (const auto& dt : tenants) {
      const OocStats ts = dt->tenant->stats();
      EXPECT_LE(ts.demand_faults, ts.uses) << "seed=" << seed;
    }
    EXPECT_EQ(pager.stats().resident_bytes, 0u);  // all detached + spilled
  }
}

/// Deterministic victim ladder: with a BestEffort and an
/// Interactive tenant both holding cold tiles, a faulting Batch tenant must
/// evict from the BestEffort tenant — and from its COLDEST tile (the one
/// whose next use sits furthest past the retirement frontier).
TEST(SharedPagerVictimTest, LowestPriorityColdestTileEvictsFirst) {
  SharedPagerOptions po;
  po.resident_byte_budget = 3 * kTileBytes;
  po.check_invariants = true;
  SharedOocPager pager(po);

  // low and high: t0 reads d0, t1 reads d1, then re-reads keep both tiles
  // live (remaining > 0) so they stay eligible victims after t0/t1 retire.
  const auto two_hot_tiles = [](Driven& dt) {
    dt.g.add_task({}, {{dt.d[0], AccessMode::Read}});
    dt.g.add_task({}, {{dt.d[1], AccessMode::Read}});
    dt.g.add_task({}, {{dt.d[0], AccessMode::Read}});
    dt.g.add_task({}, {{dt.d[1], AccessMode::Read}});
  };
  Driven low(/*n=*/32, 1);
  two_hot_tiles(low);
  Driven high(/*n=*/32, 2);
  two_hot_tiles(high);
  Driven mid(/*n=*/32, 3);
  mid.g.add_task({}, {{mid.d[0], AccessMode::Read}});

  SharedOocPager::TenantOptions topts;
  topts.priority = PagerPriority::BestEffort;
  topts.name = "low";
  low.attach_to(pager, topts);
  topts.priority = PagerPriority::Interactive;
  topts.name = "high";
  high.attach_to(pager, topts);
  topts.priority = PagerPriority::Batch;
  topts.name = "mid";
  mid.attach_to(pager, topts);

  low.run_task(0);
  low.run_task(1);   // low: d0, d1 resident (2 tiles)
  high.run_task(0);  // 3 tiles = budget
  high.run_task(1);  // admit at == budget, +1 tile: 4 resident (the slack)
  EXPECT_EQ(pager.stats().cold_evictions, 0u);

  mid.run_task(0);  // over budget: must evict exactly one BestEffort tile

  EXPECT_EQ(low.tenant->stats().cold_evictions, 1u);
  EXPECT_EQ(high.tenant->stats().cold_evictions, 0u);
  EXPECT_EQ(mid.tenant->stats().cold_evictions, 0u);
  // The coldest of low's tiles is d1 = tile (1, 0): frontier is 2, d0's next
  // use is task 2 (slack 0), d1's is task 3 (slack 1).
  EXPECT_TRUE(low.a.spilled(1, 0));
  EXPECT_FALSE(low.a.spilled(0, 0));
  EXPECT_FALSE(high.a.spilled(0, 0));
  EXPECT_FALSE(high.a.spilled(1, 0));
  EXPECT_EQ(pager.first_invariant_violation(), "");

  low.tenant->finish();
  high.tenant->finish();
  mid.tenant->finish();
}

/// Floors: a tenant whose floor covers its whole working set is untouchable
/// by cross-tenant eviction — even by a HIGHER-priority tenant, which must
/// take the stuck-regime overshoot escape instead of breaking the guarantee.
TEST(SharedPagerVictimTest, FloorsBlockCrossTenantEvictionEvenForHigherTiers) {
  SharedPagerOptions po;
  po.resident_byte_budget = 4 * kTileBytes;
  po.check_invariants = true;
  SharedOocPager pager(po);

  Driven guarded(/*n=*/32, 4);  // 3 tiles, floor = all of them
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 0; i < 3; ++i) {
      guarded.g.add_task({}, {{guarded.d[i], AccessMode::Read}});
    }
  }
  Driven greedy(/*n=*/32, 5);  // one task pinning all 3 of its tiles at once
  greedy.g.add_task({}, {{greedy.d[0], AccessMode::Read},
                         {greedy.d[1], AccessMode::Read},
                         {greedy.d[2], AccessMode::Read}});

  SharedOocPager::TenantOptions topts;
  topts.priority = PagerPriority::Batch;
  topts.floor_bytes = 3 * kTileBytes;
  topts.name = "guarded";
  guarded.attach_to(pager, topts);
  topts.priority = PagerPriority::Interactive;
  topts.floor_bytes = 0;
  topts.name = "greedy";
  greedy.attach_to(pager, topts);

  for (std::size_t i = 0; i < 3; ++i) guarded.run_task(TaskId(i));
  ASSERT_EQ(pager.stats().resident_bytes, 3 * kTileBytes);

  // greedy pins its 3 tiles: the third admission finds every guarded tile
  // floor-protected and its own tiles pinned — no victim, no pending I/O.
  greedy.run_task(0);

  const SharedPagerStats s = pager.stats();
  EXPECT_GE(s.overshoot_admits, 1u);
  EXPECT_EQ(guarded.tenant->stats().cold_evictions, 0u);
  EXPECT_FALSE(guarded.a.spilled(0, 0));
  EXPECT_FALSE(guarded.a.spilled(1, 0));
  EXPECT_FALSE(guarded.a.spilled(1, 1));
  EXPECT_EQ(pager.first_invariant_violation(), "");

  guarded.tenant->finish();
  greedy.tenant->finish();
}

/// Byte leases share the same ledger and the same stuck-regime escape as
/// tile admissions.
TEST(SharedPagerLeaseTest, LeasesCountAgainstTheBudgetAndRelease) {
  SharedPagerOptions po;
  po.resident_byte_budget = 2 * kTileBytes;
  po.check_invariants = true;
  SharedOocPager pager(po);
  {
    SharedOocPager::Lease l = pager.lease_bytes(kTileBytes);
    EXPECT_TRUE(bool(l));
    EXPECT_EQ(pager.stats().resident_bytes, kTileBytes);
    // Nothing to evict and nothing in flight: an oversized lease takes the
    // overshoot escape rather than deadlocking.
    SharedOocPager::Lease big = pager.lease_bytes(4 * kTileBytes);
    EXPECT_EQ(pager.stats().resident_bytes, 5 * kTileBytes);
    EXPECT_GE(pager.stats().overshoot_admits, 1u);
  }
  EXPECT_EQ(pager.stats().resident_bytes, 0u);
  EXPECT_EQ(pager.first_invariant_violation(), "");
}

/// The stress/soak gate: eight tenants' fits multiplexed through the
/// FitServer under ONE global budget below 30% of the worst-case co-resident
/// working set. Every fit must stay bitwise identical to the serial resident
/// baseline, the accounted peak must respect budget + one tile, and every
/// fit must honor the starvation bound.
TEST(SharedPagerStressTest, EightTenantsUnderTightGlobalBudgetBitIdentical) {
  constexpr std::size_t kSizes[] = {40, 48, 56, 64};
  constexpr std::size_t kFits = 16;
  struct Case {
    CovKind kind;
    std::shared_ptr<const LocationSet> locations;
    std::vector<double> observations;
  };
  std::vector<std::shared_ptr<const LocationSet>> pool;
  for (std::size_t j = 0; j < std::size(kSizes); ++j) {
    Rng rng(5000 + j);
    pool.push_back(std::make_shared<const LocationSet>(
        generate_locations(kSizes[j], 2, rng)));
  }
  MleOptions opts;
  opts.u_req = 1e-4;
  opts.tile = kNb;
  opts.num_threads = 4;
  opts.optim.max_evaluations = 8;
  opts.optim.tolerance = 1e-3;

  Rng root(0xFEEDu);
  std::vector<Case> cases;
  for (std::size_t i = 0; i < kFits; ++i) {
    Case c;
    c.kind = i % 4 == 3 ? CovKind::PowExp : CovKind::SqExp;
    c.locations = pool[i % pool.size()];
    const std::vector<double> theta =
        c.kind == CovKind::SqExp ? std::vector<double>{1.0, 0.1}
                                 : std::vector<double>{1.0, 0.1, 1.0};
    Rng rng = root.spawn(i);
    c.observations =
        sample_field(Covariance(c.kind), *c.locations, theta, rng);
    cases.push_back(std::move(c));
  }

  // Serial resident baseline.
  std::vector<MleResult> serial;
  for (const Case& c : cases) {
    serial.push_back(
        fit_mle(Covariance(c.kind), *c.locations, c.observations, opts));
  }

  // Budget < 30% of slots x the largest Sigma footprint (n=64 at nb=16 is
  // 10 packed tiles).
  const std::size_t slots = 8;
  const std::size_t max_sigma = packed_tiles(64) * kTileBytes;
  const std::size_t budget = slots * max_sigma / 4;
  ASSERT_LT(budget, slots * max_sigma * 3 / 10);

  FitServerOptions sopts;
  sopts.num_threads = 4;
  sopts.fit_slots = slots;
  sopts.queue_capacity = kFits;
  sopts.global_resident_budget = budget;
  sopts.resident_floor_bytes = {kTileBytes, kTileBytes, kTileBytes};
  sopts.check_global_invariants = true;
  FitServer server(sopts);
  ASSERT_NE(server.shared_pager(), nullptr);

  std::vector<std::future<FitResponse>> futures;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    FitRequest req;
    req.kind = cases[i].kind;
    req.locations = cases[i].locations;
    req.observations = cases[i].observations;
    req.options = opts;
    req.priority = static_cast<FitPriority>(i % kNumFitPriorities);
    req.tenant = "tenant" + std::to_string(i % 8);
    futures.push_back(server.submit(std::move(req)));
  }
  std::vector<FitResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FitResponse& r = responses[i];
    ASSERT_EQ(r.outcome, FitOutcome::Ok) << "fit " << i << ": " << r.error;
    ASSERT_EQ(r.result.theta.size(), serial[i].theta.size()) << "fit " << i;
    EXPECT_EQ(std::memcmp(r.result.theta.data(), serial[i].theta.data(),
                          serial[i].theta.size() * sizeof(double)),
              0)
        << "fit " << i;
    std::uint64_t sll, rll;
    std::memcpy(&sll, &serial[i].loglik, sizeof sll);
    std::memcpy(&rll, &r.result.loglik, sizeof rll);
    EXPECT_EQ(sll, rll) << "fit " << i;
    // Starvation bound, per fit.
    EXPECT_LE(r.result.ooc.demand_faults, r.result.ooc.uses) << "fit " << i;
    EXPECT_GT(r.result.ooc.uses, 0u) << "fit " << i;
  }

  const SharedPagerStats s = server.shared_pager()->stats();
  EXPECT_EQ(server.shared_pager()->first_invariant_violation(), "");
  EXPECT_GT(s.tenants_attached, 0u);
  if (s.overshoot_admits == 0) {
    EXPECT_LE(s.peak_resident_bytes, budget + s.max_tile_bytes);
  }
  // The fits genuinely paged under contention.
  EXPECT_GT(s.demand_faults + s.write_installs, 0u);
}

/// A fill with parallel = false is still a GENERATE graph, so out of core it
/// attaches to the shared pager like every other tenant: each tile is
/// write-installed through the pager's ledger, and the matrix ends fully
/// spilled and bit-equal to a resident fill.
TEST(SharedPagerFillTest, SerialOutOfCoreFillPagesThroughThePager) {
  Rng rng(91);
  const LocationSet locs = generate_locations(80, 2, rng);
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> theta{1.0, 0.1};
  const TileMatrix resident = build_tiled_covariance(cov, locs, theta, kNb);

  TileMatrix a(locs.size(), kNb);
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();

  SharedPagerOptions popts;
  popts.resident_byte_budget = 2 * kTileBytes;
  popts.check_invariants = true;
  SharedOocPager pager(popts);
  CovGenOptions gen;
  gen.parallel = false;
  gen.ooc.enabled = true;
  gen.ooc.shared = &pager;
  fill_tiled_covariance(a, cov, locs, theta, 1e-8, gen);

  const SharedPagerStats s = pager.stats();
  EXPECT_EQ(s.tenants_attached, 1u);
  EXPECT_EQ(s.write_installs, packed_tiles(locs.size()));
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(pager.first_invariant_violation(), "");
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_TRUE(a.spilled(m, k)) << "(" << m << "," << k << ")";
    }
  }
  a.restore_all();
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const auto x = a.tile(m, k).raw_bytes();
      const auto y = resident.tile(m, k).raw_bytes();
      ASSERT_EQ(x.size(), y.size());
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0)
          << "(" << m << "," << k << ")";
    }
  }
}

/// Regression for the OocStats aggregation split: on a pooled workspace the
/// MleResult reports THIS run's paging counters while the workspace keeps
/// the lifetime view — the old single-counter scheme made the second fit's
/// result look like it paged twice as much. Both views count the fill's
/// pager tenant as well as the factorization's.
TEST(OocStatsSplitTest, PerRunCountersResetWhileLifetimeAccumulates) {
  Rng rng(77);
  const LocationSet locs = generate_locations(64, 2, rng);
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> theta{1.0, 0.1};
  Rng obs_rng(78);
  const std::vector<double> z = sample_field(cov, locs, theta, obs_rng);

  MleOptions opts;
  opts.u_req = 1e-4;
  opts.tile = kNb;
  opts.num_threads = 2;
  opts.optim.max_evaluations = 6;
  opts.ooc.enabled = true;
  opts.ooc.resident_byte_budget = 3 * kTileBytes;

  MleWorkspace workspace;
  const MleResult r1 = fit_mle(cov, locs, z, opts, workspace);
  EXPECT_GT(r1.ooc.uses, 0u);
  EXPECT_EQ(workspace.ooc.uses, r1.ooc.uses);
  // Each evaluation pages through two tenants, the covariance fill and the
  // factorization, and the result counts both: the fill writes every tile
  // fresh, so it write-installs all 10 packed tiles per evaluation.
  EXPECT_GE(r1.ooc.write_installs,
            std::uint64_t(r1.evaluations) * packed_tiles(locs.size()));
  EXPECT_LE(r1.ooc.demand_faults, r1.ooc.uses);
  const std::size_t file_after_r1 = workspace.sigma->spill_stats().file_bytes;

  const MleResult r2 = fit_mle(cov, locs, z, opts, workspace);
  EXPECT_GT(r2.ooc.uses, 0u);
  // Each tile re-spills into its own fixed slot: the second fit leaves the
  // workspace's spill file exactly as large as the first did, within one
  // FP64 slot per packed tile.
  const std::size_t file_after_r2 = workspace.sigma->spill_stats().file_bytes;
  EXPECT_EQ(file_after_r2, file_after_r1);
  EXPECT_LE(file_after_r2, packed_tiles(locs.size()) * kTileBytes);
  // The result is per-run, not the lifetime accumulation (the regression).
  EXPECT_EQ(workspace.ooc.uses, r1.ooc.uses + r2.ooc.uses);
  EXPECT_LT(r2.ooc.uses, workspace.ooc.uses);
  EXPECT_EQ(workspace.ooc.demand_faults,
            r1.ooc.demand_faults + r2.ooc.demand_faults);
  EXPECT_EQ(workspace.ooc.prefetches, r1.ooc.prefetches + r2.ooc.prefetches);
  EXPECT_EQ(workspace.ooc.peak_resident_bytes,
            std::max(r1.ooc.peak_resident_bytes, r2.ooc.peak_resident_bytes));
  // The workspace's per-run snapshot matches the last result.
  EXPECT_EQ(workspace.ooc_run.uses, r2.ooc.uses);
  EXPECT_EQ(workspace.ooc_run.demand_faults, r2.ooc.demand_faults);
  // Identical fits on the same workspace page identically.
  EXPECT_EQ(r1.ooc.uses, r2.ooc.uses);
}

}  // namespace
}  // namespace mpgeo
