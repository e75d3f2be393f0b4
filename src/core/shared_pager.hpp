// The out-of-core pager: ONE residency arbiter for every out-of-core
// factorization or generation graph that registers with it (DESIGN.md 5i,
// 5j).
//
// Tenants (one per in-flight factorization or generation graph) register
// their TileMatrix + task graph with `attach`; one engine — one mutex, one
// ledger — enforces one budget across all of them. A caller without a
// process-wide pager (OutOfCoreOptions::shared null) builds one for the call
// and attaches as its only tenant, so every caller gets the same contract.
//
// There is no I/O thread. Every restore and spill runs on the worker that
// needs it, with the codec off-lock (the paper's STC/TTC shape: conversion
// happens inside the task that needs the tile):
//
//   * before_task (the executor's start hook) pins every tile the task
//     accesses. A spilled tile is admitted and then decoded on the faulting
//     worker; a pure-Write access installs a fresh zeroed payload instead
//     (write elision).
//   * after_task (the retire hook) unpins, and the retiring worker encodes
//     every tile whose last declared consumer just retired (live ranges from
//     runtime/live_ranges.hpp; the spill preserves the final value, so the
//     finished factor lives in the spill file, not in memory).
//   * Admission: a demand fault (or write install, or byte lease) waits until
//     accounted bytes (resident + in flight + leased) fit the budget. The
//     admitting worker encodes cold victims itself; while another worker's
//     codec job is in flight it waits on the condition variable instead of
//     spinning on the mutex that job needs to land. The check passes at
//     measure <= budget and the tile is accounted under the same lock hold,
//     so accounted residency never exceeds budget + one tile — unless NO
//     victim exists and NOTHING is in flight, where the fault proceeds
//     anyway (counted in overshoot_admits: forward progress beats the cap).
//   * Victim selection: scan priority tiers lowest-precedence first
//     (BestEffort -> Batch -> Interactive), evict the coldest eligible tile
//     (largest next-use slack) of the lowest tier that has one. Cross-tenant
//     eviction never takes a tenant below its `floor_bytes`; a tenant's own
//     admissions may dig below its own floor (the floor guards against
//     *others*). Pinned, `waiting`, and dead tiles are never victims (the
//     livelock shield: a worker blocked on a tile must find it still
//     resident when it wakes).
//   * Starvation bound: each worker serves its own fault, and the waiting
//     shield holds the tile from landing to pinning, so each (task, tile)
//     pair faults at most once and per-tenant demand_faults <= uses.
//
// Numerics are untouched: spill/restore are bit-exact and admission only
// moves *when* bytes are resident, so every tenant factors bit-identically
// to its fully-resident run at every budget and pool size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ooc_pager.hpp"

namespace mpgeo {

class MetricsRegistry;
class TaskGraph;
class TileMatrix;
struct Task;

struct SharedPagerOptions {
  /// The single cap on accounted payload bytes (resident + in-flight
  /// restores + leases) across every tenant. 0 = uncapped (tiles still spill
  /// when dead, nothing is evicted early).
  std::size_t resident_byte_budget = 0;
  /// Record (seconds, accounted bytes) samples on every ledger change — the
  /// quantity peak_resident_bytes maxes over — for the Perfetto counter
  /// track.
  bool capture_residency = false;
  /// Validate the ledger and the eviction contract (budget + one tile, no
  /// pinned or waiting victim) on every transition; the first violation is
  /// recorded for first_invariant_violation(). Test-only (O(tiles) per
  /// event).
  bool check_invariants = false;
  /// ooc.shared.* counters and gauges, and each tenant's ooc.* counters at
  /// finish (null = off).
  MetricsRegistry* metrics = nullptr;
};

/// Global-ledger snapshot. Counters are lifetime (across detached tenants);
/// byte fields are current / high-water views of the shared ledger.
struct SharedPagerStats {
  std::size_t resident_bytes = 0;       ///< resident + leased, now
  std::size_t peak_resident_bytes = 0;  ///< max accounted (incl. in-flight)
  std::size_t max_tile_bytes = 0;   ///< largest managed tile ever attached
  std::uint64_t tenants_attached = 0;
  std::uint64_t demand_faults = 0;
  std::uint64_t write_installs = 0;
  std::uint64_t cold_evictions = 0;
  std::uint64_t overshoot_admits = 0;   ///< stuck-regime budget overshoots
};

class SharedOocPager {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  explicit SharedOocPager(const SharedPagerOptions& options = {});
  /// Every tenant must be detached (finished) first.
  ~SharedOocPager();
  SharedOocPager(const SharedOocPager&) = delete;
  SharedOocPager& operator=(const SharedOocPager&) = delete;

  struct TenantOptions {
    std::size_t floor_bytes = 0;
    PagerPriority priority = PagerPriority::Batch;
    std::string name;  ///< diagnostics (traces, invariant violations)
  };

  /// One registered client, scoped to one TileMatrix + graph: before_task
  /// pins + faults, after_task unpins + dead-spills, finish detaches.
  class Tenant {
   public:
    ~Tenant();  ///< implies finish()
    Tenant(const Tenant&) = delete;
    Tenant& operator=(const Tenant&) = delete;

    /// Wire these into ExecutorOptions::start_hook / retire_hook. `t` must
    /// be a task of the attached graph. If a task body throws, its pins leak
    /// for the rest of this tenant's life (the retire hook is skipped on
    /// failure) — callers tear the tenant down with the aborted attempt.
    void before_task(const Task& t);
    void after_task(const Task& t);
    /// Detach: spill every unpinned resident tile on the calling thread,
    /// wait out other workers' codec jobs on this tenant's tiles (the
    /// finished factor lives in the spill file and the ledger stays truthful),
    /// release the ledger, and report the ooc.* counters. Pins leaked by a
    /// failed attempt stay resident but are un-accounted — callers
    /// restore/regenerate before reuse. Idempotent.
    void finish();
    /// Per-run stats of this tenant (demand_faults <= uses is the
    /// starvation bound the stress suite and bench gate on).
    OocStats stats() const;
    std::uint64_t id() const { return id_; }

   private:
    friend class SharedOocPager;
    Tenant(SharedOocPager* pager, std::size_t slot, std::uint64_t id)
        : pager_(pager), slot_(slot), id_(id) {}
    SharedOocPager* pager_;
    std::size_t slot_;
    std::uint64_t id_;
    OocStats final_;  ///< snapshot taken at finish (the slot is recycled)
  };

  /// Register one matrix + graph under the budget. `tile_of_datum` maps each
  /// DataId of `graph` to the packed lower-triangle tile index it aliases in
  /// `a` (m*(m+1)/2+k), or npos for data that are not spill-managed tiles
  /// (wire payloads, RECV replicas). `a` must have its spill tier enabled,
  /// and graph/matrix must outlive the tenant. A start position over the
  /// budget is evicted, coldest first, on the attaching thread.
  std::unique_ptr<Tenant> attach(TileMatrix& a, const TaskGraph& graph,
                                 std::vector<std::size_t> tile_of_datum,
                                 const TenantOptions& topts);

  /// RAII byte reservation against the same budget, for residency the pager
  /// cannot see through a graph — e.g. logdet_tiled / forward_solve_tiled
  /// decoding a spilled factor one tile at a time into scratch.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : pager_(o.pager_), bytes_(o.bytes_) {
      o.pager_ = nullptr;
      o.bytes_ = 0;
    }
    Lease& operator=(Lease&& o) noexcept;
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    explicit operator bool() const { return pager_ != nullptr; }

   private:
    friend class SharedOocPager;
    SharedOocPager* pager_ = nullptr;
    std::size_t bytes_ = 0;
  };

  /// Block until `bytes` fit under the budget (tile admission semantics,
  /// including the stuck-regime overshoot escape), then reserve them until
  /// the lease dies.
  Lease lease_bytes(std::size_t bytes);

  SharedPagerStats stats() const;
  /// (seconds since construction, accounted bytes) transitions when
  /// options.capture_residency is set — the Perfetto counter track. Its
  /// maximum is stats().peak_resident_bytes.
  std::vector<std::pair<double, double>> residency_samples() const;
  /// First recorded contract violation ("" = none). Only populated with
  /// options.check_invariants; the property suite asserts it stays empty.
  std::string first_invariant_violation() const;

 private:
  friend class Tenant;
  struct Impl;

  void release_lease(std::size_t bytes);

  std::unique_ptr<Impl> impl_;
};

/// The tenant an out-of-core call runs its graph as: attached to
/// `ooc.shared`, or, when that is null, to a pager built for the call into
/// `own` (budget ooc.resident_byte_budget, counters into `metrics`,
/// residency samples when `capture_residency`). `own` must outlive the
/// returned tenant; arguments after it are attach()'s.
std::unique_ptr<SharedOocPager::Tenant> attach_for_call(
    const OutOfCoreOptions& ooc, MetricsRegistry* metrics,
    bool capture_residency, std::unique_ptr<SharedOocPager>& own,
    TileMatrix& a, const TaskGraph& graph,
    std::vector<std::size_t> tile_of_datum);

}  // namespace mpgeo
