// Out-of-core options and paging stats shared by every caller of the pager
// (core/shared_pager.hpp, DESIGN.md 5i/5j).
//
// With OutOfCoreOptions::enabled and a spill-enabled matrix, mp_cholesky and
// fill_tiled_covariance run their task graph against the spill tier: the
// graph attaches as a tenant of `shared`, or, when that is null, of a pager
// built for the call from `resident_byte_budget`. Either way the same engine
// pins each task's tiles in the executor's start hook, decodes a spilled
// tile on the worker that faults it, encodes cold victims on the worker
// whose admission needs the room, and encodes a tile whose last consumer
// retired on the retiring worker. There is no I/O thread and no prefetch.
//
// Numerics are untouched — spill and restore are bit-exact, so a
// factorization pages identically to the fully-resident run at every budget
// and pool size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpgeo {

class SharedOocPager;

/// Tenant precedence for the pager's cross-tenant victim selection
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
  /// false keeps the fully-resident path.
  bool enabled = false;
  /// Cap on accounted payload bytes (resident + in flight) of the pager
  /// built for the call when `shared` is null. Accounted residency stays
  /// within budget + one tile unless a fault finds no victim and nothing in
  /// flight (OocStats::overshoot_admits counts those). 0 = uncapped: tiles
  /// still spill when their last consumer retires, but nothing is evicted
  /// early. Ignored when `shared` is set — its own budget governs.
  std::size_t resident_byte_budget = 0;
  /// Register with this process-wide pager instead of building one for the
  /// call; floor_bytes, priority and tenant become the tenant's
  /// registration. The pager must outlive the call.
  SharedOocPager* shared = nullptr;
  /// Guaranteed resident floor (bytes) when `shared` is set: other tenants'
  /// victim selection never takes this tenant below it. 0 = no guarantee.
  std::size_t floor_bytes = 0;
  /// Victim-selection precedence when `shared` is set: lower-precedence
  /// tenants' cold tiles are evicted first.
  PagerPriority priority = PagerPriority::Batch;
  /// Diagnostic label for the shared pager's traces and logs.
  std::string tenant;
};

struct OocStats {
  /// Restores issued ahead of demand. Always 0: there is no prefetcher; the
  /// field stays so existing readers of the ahead/fault split keep working.
  std::uint64_t prefetches = 0;
  std::uint64_t demand_faults = 0;  ///< task had to restore a tile itself
  /// Task arrived while another worker's restore of its tile was in flight.
  std::uint64_t prefetch_waits = 0;
  std::uint64_t evictions = 0;      ///< dead-tile spills (last consumer done)
  std::uint64_t cold_evictions = 0; ///< live tiles spilled for budget room
  /// Pure-Write faults satisfied by a fresh zeroed allocation instead of a
  /// decompress (write elision — the task overwrites every value anyway).
  std::uint64_t write_installs = 0;
  /// Admissions past the budget taken because no victim existed and no
  /// codec job was in flight (forward progress beats the cap).
  std::uint64_t overshoot_admits = 0;
  /// Managed (task, tile) access pairs of the construction graph. Each pair
  /// demand-faults at most once, so demand_faults <= uses is the pager's
  /// per-run starvation bound (bench_serving --global-budget gates on it).
  std::uint64_t uses = 0;
  /// Accounted payload bytes (resident + in flight), pager's view.
  std::size_t peak_resident_bytes = 0;

  /// Fold another run's stats into this one (counters add, peak maxes) —
  /// how MleWorkspace keeps per-run and lifetime views separate.
  void accumulate(const OocStats& o);
};

}  // namespace mpgeo
