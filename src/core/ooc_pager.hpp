// Out-of-core pager: keeps a spilled TileMatrix's resident set exactly as
// large as the executor needs it, instead of restoring the whole matrix up
// front (the PR-8 shape this replaces).
//
// The pager sits between the task graph and the spill tier through the
// executor's start/retire hooks:
//
//   * before_task (start hook) pins every tile the task accesses and faults
//     in any that are not resident. A demand fault always proceeds — even
//     over budget — so a running task can never deadlock on residency.
//   * after_task (retire hook) unpins, and spills tiles whose last declared
//     consumer has now retired (live ranges from runtime/live_ranges.hpp:
//     the spill preserves the tile's final value, so the finished factor
//     lives in the log, not in memory).
//   * a background I/O thread (async mode) restores tiles *ahead* of the
//     scheduler's frontier, smallest next-unretired-use first, keeping
//     decompression off the critical path. Under `resident_byte_budget` it
//     additionally evicts the coldest live tiles (furthest next use) to make
//     room. async=false is the A/B baseline: no lookahead, every miss is a
//     synchronous fault on the accessing worker.
//
// Thread-safety: one mutex guards the pager state and every TileMatrix
// spill-tier call; codec work (compress/decompress) runs outside the lock
// via the read_spilled / install / spill_with split. Residency transitions
// are published under the same mutex, so a worker that observed `Resident`
// also observes the installed payload. Numerics are untouched — spill and
// restore are bit-exact, so a factorization pages identically to the
// fully-resident run at every budget and pool size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tile_matrix.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

class MetricsRegistry;
class SharedOocPager;
struct Task;

/// Tenant precedence for the shared pager's cross-tenant victim selection
/// (core/shared_pager.hpp). Lower value = higher precedence; mirrors the
/// serving layer's FitPriority tiers one-to-one so the FitServer can map
/// admission priority straight onto paging priority.
enum class PagerPriority : std::uint8_t {
  Interactive = 0,
  Batch = 1,
  BestEffort = 2,
};

inline constexpr std::size_t kNumPagerPriorities = 3;

struct OutOfCoreOptions {
  /// Run the factorization against the spill tier instead of restoring the
  /// whole matrix first. Requires TileMatrix::enable_spill on the input;
  /// false keeps the fully-resident PR-8 path (the A/B flag).
  bool enabled = false;
  /// Soft cap on resident payload bytes. Prefetch and eviction keep the
  /// resident set at or under it; demand faults may overshoot transiently
  /// (forward progress beats the cap). 0 = uncapped: tiles still spill when
  /// their last consumer retires, but nothing is evicted early.
  std::size_t resident_byte_budget = 0;
  /// Max prefetched-but-not-yet-consumed tiles outstanding (the lookahead
  /// window). Also bounds how far past the budget the prefetcher can see.
  std::size_t prefetch_depth = 8;
  /// Background I/O thread restoring ahead of the frontier. false = the
  /// synchronous fault-on-access baseline bench_out_of_core A/Bs against.
  bool async = true;
  /// Record (seconds, resident_bytes) samples on every residency change,
  /// exported as a Perfetto counter track (obs/trace.hpp extra_counters).
  bool capture_residency = false;
  /// Register with this process-wide arbiter instead of running a private
  /// engine (core/shared_pager.hpp). The pager then ignores
  /// resident_byte_budget / async / capture_residency — the shared pager's
  /// own options govern those — while prefetch_depth, floor_bytes, priority
  /// and tenant become the tenant's registration. The arbiter must outlive
  /// the pager.
  SharedOocPager* shared = nullptr;
  /// Guaranteed resident floor (bytes) when `shared` is set: other tenants'
  /// victim selection never takes this tenant below it. 0 = no guarantee.
  std::size_t floor_bytes = 0;
  /// Victim-selection precedence when `shared` is set: lower-precedence
  /// tenants' cold tiles are evicted first.
  PagerPriority priority = PagerPriority::Batch;
  /// Diagnostic label for the shared pager's traces and logs.
  std::string tenant;
  /// The escalation retry's regenerate callback copes with spilled tiles
  /// itself (e.g. fill_tiled_covariance's write elision), so
  /// cholesky_with_escalation skips the restore_all that generic
  /// write-payloads-directly callbacks need. Set by the MLE driver.
  bool regenerate_handles_spill = false;
};

struct OocStats {
  std::uint64_t prefetches = 0;     ///< restores issued ahead of demand
  std::uint64_t demand_faults = 0;  ///< task had to restore a tile itself
  std::uint64_t prefetch_waits = 0; ///< task arrived while its restore flew
  std::uint64_t evictions = 0;      ///< dead-tile spills (last consumer done)
  std::uint64_t cold_evictions = 0; ///< live tiles spilled for budget room
  /// Pure-Write faults satisfied by a fresh zeroed allocation instead of a
  /// decompress (write elision — the task overwrites every value anyway).
  std::uint64_t write_installs = 0;
  /// Shared-pager admissions past the global budget taken because no victim
  /// existed and no I/O was in flight (forward progress beats the cap).
  std::uint64_t overshoot_admits = 0;
  /// Managed (task, tile) access pairs of the construction graph. Each pair
  /// demand-faults at most once, so demand_faults <= uses is the pager's
  /// per-run starvation bound (bench_serving --global-budget gates on it).
  std::uint64_t uses = 0;
  std::size_t peak_resident_bytes = 0;  ///< payload bytes, pager's view

  /// Fold another run's stats into this one (counters add, peak maxes) —
  /// how MleWorkspace keeps per-run and lifetime views separate.
  void accumulate(const OocStats& o);
};

class OocPager {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// `tile_of_datum` maps each DataId of `graph` to the packed lower-triangle
  /// tile index it aliases in `a` (m*(m+1)/2+k), or npos for data that are
  /// not spill-managed tiles (wire payloads, RECV replicas). The graph must
  /// outlive the pager; `a` must have its spill tier enabled. When the
  /// resident set starts over budget, the coldest tiles are queued for
  /// eviction immediately. With options.shared set the pager is a facade: it
  /// registers `a` + the graph as one tenant of the shared arbiter and
  /// delegates every call, so callers (mp_cholesky, covgen) wire hooks
  /// identically in both modes.
  OocPager(TileMatrix& a, const TaskGraph& graph,
           std::vector<std::size_t> tile_of_datum,
           const OutOfCoreOptions& options, MetricsRegistry* metrics = nullptr);
  ~OocPager();
  OocPager(const OocPager&) = delete;
  OocPager& operator=(const OocPager&) = delete;

  /// Wire these into ExecutorOptions::start_hook / retire_hook. `t` must be
  /// a task of the construction graph. If a task body throws, its pins leak
  /// for the rest of this pager's life (the retire hook is skipped on
  /// failure) — callers tear the pager down with the aborted attempt.
  void before_task(const Task& t);
  void after_task(const Task& t);

  /// Stop the I/O thread after draining queued evictions (pending prefetches
  /// are dropped). Idempotent; the destructor calls it. Counters are
  /// reported into the registry here (ooc.prefetches, ooc.demand_faults,
  /// ooc.prefetch_waits, ooc.evictions, ooc.cold_evictions).
  void finish();

  OocStats stats() const;
  /// (seconds since construction, resident payload bytes) transitions when
  /// options.capture_residency is set. Empty in shared mode — the global
  /// track lives on SharedOocPager::residency_samples().
  std::vector<std::pair<double, double>> residency_samples() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpgeo
