#include "core/shared_pager.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/tile_matrix.hpp"
#include "linalg/tile_codec.hpp"
#include "obs/metrics.hpp"
#include "runtime/live_ranges.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

void OocStats::accumulate(const OocStats& o) {
  prefetches += o.prefetches;
  demand_faults += o.demand_faults;
  prefetch_waits += o.prefetch_waits;
  evictions += o.evictions;
  cold_evictions += o.cold_evictions;
  write_installs += o.write_installs;
  overshoot_admits += o.overshoot_admits;
  uses += o.uses;
  if (peak_resident_bytes < o.peak_resident_bytes) {
    peak_resident_bytes = o.peak_resident_bytes;
  }
}

namespace {

/// Residency state machine of one managed tile. Loading/Evicting mark a
/// codec job running off-lock on some worker; other accessors wait on the
/// condition variable until the transition lands.
enum class Res : std::uint8_t { Resident, Spilled, Loading, Evicting };

struct TileSt {
  std::size_t m = 0, k = 0;
  std::size_t bytes = 0;        ///< payload footprint when resident
  std::vector<TaskId> users;    ///< accessing tasks, ascending id
  std::uint32_t next = 0;       ///< lazy cursor: users[next..] may be live
  std::uint32_t remaining = 0;  ///< unretired users
  std::uint32_t pinned = 0;     ///< users currently running
  std::uint32_t waiting = 0;    ///< workers in before_task on this tile
  Res res = Res::Resident;
};

struct TenantSt {
  TileMatrix* a = nullptr;
  const TaskGraph* graph = nullptr;
  std::vector<std::size_t> tile_of_datum;
  std::vector<TileSt> tiles;
  std::vector<std::uint8_t> retired;
  std::uint32_t retired_count = 0;
  std::size_t floor_bytes = 0;
  PagerPriority priority = PagerPriority::Batch;
  std::string name;
  std::size_t resident = 0;  ///< bytes of Resident/Evicting tiles
  std::size_t inflight = 0;  ///< bytes of Loading tiles
  std::size_t evicting = 0;  ///< subset of resident on its way out
  OocStats st;
  std::uint64_t id = 0;
  bool live = false;
};

/// Packed indices of the managed tiles `t` accesses, each once (a task may
/// declare Read + Write on the same datum).
template <typename F>
void for_each_tile(const TenantSt& tn, const Task& t, F&& f) {
  for_each_distinct_datum(t, [&](DataId d) {
    const std::size_t idx = tn.tile_of_datum[d];
    if (idx != SharedOocPager::npos) f(idx, d);
  });
}

}  // namespace

struct SharedOocPager::Impl {
  SharedPagerOptions options;

  mutable std::mutex mu;
  std::condition_variable cv;  // residency transitions + admission room
  // deque: attach() grows it while other workers hold references across
  // their off-lock codec windows — deque growth never invalidates them.
  std::deque<TenantSt> tenants;
  std::vector<std::size_t> free_slots;

  std::size_t g_resident = 0;  ///< Resident/Evicting bytes, all tenants
  std::size_t g_inflight = 0;  ///< Loading bytes
  std::size_t g_evicting = 0;  ///< subset of g_resident
  std::size_t g_leased = 0;    ///< Lease reservations
  std::uint64_t next_tenant_id = 1;

  SharedPagerStats st;
  Stopwatch watch;
  std::vector<std::pair<double, double>> samples;
  std::string violation;

  MetricsRegistry::Gauge resident_gauge, peak_gauge;

  /// Bytes the budget check charges: everything allocated or reserved.
  std::size_t admit_measure() const {
    return g_resident + g_inflight + g_leased;
  }
  /// What admit_measure becomes once in-flight evictions land — what victim
  /// selection targets, so a tile already leaving is not evicted twice over.
  std::size_t plan_measure() const { return admit_measure() - g_evicting; }

  TaskId next_use(TenantSt& tn, TileSt& ts) const {
    while (ts.next < ts.users.size() && tn.retired[ts.users[ts.next]]) {
      ++ts.next;
    }
    return ts.next < ts.users.size() ? ts.users[ts.next] : kNoTask;
  }

  void record_violation_locked(const std::string& what) {
    if (violation.empty()) violation = what;
  }

  /// O(total tiles) ledger + contract audit; wired to every transition when
  /// options.check_invariants (the property suite runs with it on).
  void validate_locked(const char* where) {
    if (!options.check_invariants) return;
    std::size_t res = 0, inf = 0, evi = 0;
    for (const TenantSt& tn : tenants) {
      if (!tn.live) continue;
      std::size_t tres = 0, tinf = 0, tevi = 0;
      for (const TileSt& ts : tn.tiles) {
        if (ts.res == Res::Resident || ts.res == Res::Evicting) {
          tres += ts.bytes;
        }
        if (ts.res == Res::Loading) tinf += ts.bytes;
        if (ts.res == Res::Evicting) {
          tevi += ts.bytes;
          // waiting may legitimately be non-zero here: a worker can arrive
          // and raise the shield AFTER the tile was chosen as a victim (it
          // just faults the tile back once the spill lands). The shield's
          // real contract — never SELECT a waiting tile — is checked in
          // spill_locked.
          if (ts.pinned != 0) {
            record_violation_locked(std::string(where) +
                                    ": pinned tile is being evicted (" +
                                    tn.name + ")");
          }
        }
      }
      if (tres != tn.resident || tinf != tn.inflight || tevi != tn.evicting) {
        record_violation_locked(std::string(where) +
                                ": per-tenant ledger drift (" + tn.name + ")");
      }
      res += tres;
      inf += tinf;
      evi += tevi;
    }
    if (res != g_resident || inf != g_inflight || evi != g_evicting) {
      record_violation_locked(std::string(where) + ": global ledger drift");
    }
    if (options.resident_byte_budget != 0 && st.overshoot_admits == 0 &&
        admit_measure() > options.resident_byte_budget + st.max_tile_bytes) {
      record_violation_locked(std::string(where) +
                              ": residency exceeds budget + one tile");
    }
  }

  /// Called after every ledger change: the peak and the residency samples
  /// track the same quantity, so the samples' maximum is the peak.
  void sample_locked() {
    const std::size_t now = admit_measure();
    if (st.peak_resident_bytes < now) st.peak_resident_bytes = now;
    if (options.capture_residency) {
      samples.emplace_back(watch.seconds(), double(now));
    }
    resident_gauge.set(double(g_resident + g_leased));
    peak_gauge.set_max(double(st.peak_resident_bytes));
  }

  void tenant_sample_locked(TenantSt& tn) {
    const std::size_t now = tn.resident + tn.inflight;
    if (tn.st.peak_resident_bytes < now) tn.st.peak_resident_bytes = now;
  }

  /// Spill one unpinned resident tile on the calling thread: the bytes stay
  /// accounted (Evicting) while the tile is encoded off-lock, and leave the
  /// ledger once the blob is in the spill file.
  void spill_locked(std::unique_lock<std::mutex>& lk, std::size_t slot,
                    std::size_t tile) {
    TenantSt& tn = tenants[slot];
    TileSt& ts = tn.tiles[tile];
    MPGEO_ASSERT(ts.res == Res::Resident && ts.pinned == 0);
    if (options.check_invariants && ts.waiting != 0) {
      record_violation_locked("spill: waiting tile selected for eviction (" +
                              tn.name + ")");
    }
    ts.res = Res::Evicting;
    tn.evicting += ts.bytes;
    g_evicting += ts.bytes;
    const AnyTile* t = &tn.a->tile(ts.m, ts.k);
    lk.unlock();
    CompressedBlob blob = compress_tile(*t);
    lk.lock();
    tn.a->spill_with(ts.m, ts.k, std::move(blob));
    ts.res = Res::Spilled;
    tn.resident -= ts.bytes;
    g_resident -= ts.bytes;
    tn.evicting -= ts.bytes;
    g_evicting -= ts.bytes;
    tenant_sample_locked(tn);
    sample_locked();
    validate_locked("spill");
    cv.notify_all();
  }

  /// Demand fault on the calling thread (admission already passed): the
  /// bytes are accounted in flight under the same lock hold as the check,
  /// the blob is decoded off-lock, and the payload installed under it.
  void restore_locked(std::unique_lock<std::mutex>& lk, std::size_t slot,
                      std::size_t tile) {
    TenantSt& tn = tenants[slot];
    TileSt& ts = tn.tiles[tile];
    MPGEO_ASSERT(ts.res == Res::Spilled);
    ts.res = Res::Loading;
    tn.inflight += ts.bytes;
    g_inflight += ts.bytes;
    tenant_sample_locked(tn);
    sample_locked();
    const CompressedBlob blob = tn.a->read_spilled(ts.m, ts.k);
    const AnyTile& t = tn.a->tile(ts.m, ts.k);
    AnyTile fresh(t.rows(), t.cols(), t.storage());
    lk.unlock();
    decompress_into(blob, fresh);
    lk.lock();
    tn.a->install(ts.m, ts.k, std::move(fresh));
    ts.res = Res::Resident;
    tn.inflight -= ts.bytes;
    g_inflight -= ts.bytes;
    tn.resident += ts.bytes;
    g_resident += ts.bytes;
    tenant_sample_locked(tn);
    sample_locked();
    validate_locked("restore");
    cv.notify_all();
  }

  /// Evict the coldest eligible tile on the calling thread: scan tiers
  /// lowest-precedence first and take the tile whose next use sits furthest
  /// past its tenant's retirement frontier, in the lowest tier that has one.
  /// Cross-tenant victims respect the victim's floor (the requester's own
  /// floor guards against others, not itself; req_slot == npos is a lease).
  /// Returns false when no tile is eligible.
  bool evict_coldest_locked(std::unique_lock<std::mutex>& lk,
                            std::size_t req_slot) {
    std::size_t vslot = npos, vtile = npos;
    double vslack = 0.0;
    for (int tier = int(kNumPagerPriorities) - 1; tier >= 0 && vslot == npos;
         --tier) {
      for (std::size_t s = 0; s < tenants.size(); ++s) {
        TenantSt& tn = tenants[s];
        if (!tn.live || int(tn.priority) != tier) continue;
        for (std::size_t j = 0; j < tn.tiles.size(); ++j) {
          TileSt& ts = tn.tiles[j];
          if (ts.res != Res::Resident || ts.pinned != 0 || ts.waiting != 0 ||
              ts.remaining == 0) {
            continue;
          }
          if (s != req_slot &&
              tn.resident - tn.evicting < tn.floor_bytes + ts.bytes) {
            continue;
          }
          // Coldness compares across tenants by how far past each tenant's
          // own retirement frontier the next use sits.
          const double slack =
              double(next_use(tn, ts)) - double(tn.retired_count);
          if (vslot == npos || slack > vslack) {
            vslot = s;
            vtile = j;
            vslack = slack;
          }
        }
      }
    }
    if (vslot == npos) return false;
    TenantSt& victim = tenants[vslot];
    victim.st.cold_evictions += 1;
    st.cold_evictions += 1;
    spill_locked(lk, vslot, vtile);
    return true;
  }

  /// Admission: wait until accounted bytes fit the budget. The admitting
  /// worker evicts cold victims itself; when the evictions already in flight
  /// on other workers would make room, or there is no victim but some codec
  /// job is in flight, it waits on the condition variable for that job to
  /// land (spinning would hold the mutex the job needs). With no victim and
  /// nothing in flight it proceeds over budget: a worker already pinning
  /// tiles of a multi-access task must not deadlock.
  ///
  /// Tile admissions (and leases up to one tile) pass need == 0: the check
  /// is "current measure fits", and the allocation the caller accounts
  /// right after it, under the same lock hold, bounds the overshoot at one
  /// tile. Oversized leases pass their full size (an arbitrary reservation
  /// has no one-tile bound to lean on), so a granted oversized lease never
  /// overshoots at all.
  void admit_locked(std::unique_lock<std::mutex>& lk, std::size_t req_slot,
                    std::size_t need = 0) {
    const std::size_t budget = options.resident_byte_budget;
    if (budget == 0) return;
    const std::size_t target = need < budget ? budget - need : 0;
    for (;;) {
      if (admit_measure() + need <= budget) return;
      if (plan_measure() > target && evict_coldest_locked(lk, req_slot)) {
        continue;
      }
      if (g_evicting == 0 && g_inflight == 0) {
        st.overshoot_admits += 1;
        if (req_slot != npos) tenants[req_slot].st.overshoot_admits += 1;
        return;
      }
      cv.wait(lk);
    }
  }
};

SharedOocPager::SharedOocPager(const SharedPagerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  if (options.metrics) {
    impl_->resident_gauge = options.metrics->gauge("ooc.shared.resident_bytes");
    impl_->peak_gauge =
        options.metrics->gauge("ooc.shared.peak_resident_bytes");
  }
}

SharedOocPager::~SharedOocPager() {
  std::lock_guard lk(impl_->mu);
  for (const TenantSt& tn : impl_->tenants) {
    MPGEO_ASSERT(!tn.live);  // tenants must be finished before teardown
  }
  if (impl_->options.metrics) {
    MetricsRegistry& reg = *impl_->options.metrics;
    const SharedPagerStats& s = impl_->st;
    reg.counter("ooc.shared.tenants_attached").add(s.tenants_attached);
    reg.counter("ooc.shared.demand_faults").add(s.demand_faults);
    reg.counter("ooc.shared.write_installs").add(s.write_installs);
    reg.counter("ooc.shared.cold_evictions").add(s.cold_evictions);
    reg.counter("ooc.shared.overshoot_admits").add(s.overshoot_admits);
  }
}

std::unique_ptr<SharedOocPager::Tenant> SharedOocPager::attach(
    TileMatrix& a, const TaskGraph& graph,
    std::vector<std::size_t> tile_of_datum, const TenantOptions& topts) {
  MPGEO_REQUIRE(a.spill_enabled(),
                "SharedOocPager: the matrix has no spill tier enabled");
  MPGEO_REQUIRE(tile_of_datum.size() >= graph.num_data(),
                "SharedOocPager: tile_of_datum does not cover the graph");
  Impl& im = *impl_;
  std::unique_lock lk(im.mu);
  std::size_t slot;
  if (!im.free_slots.empty()) {
    slot = im.free_slots.back();
    im.free_slots.pop_back();
    im.tenants[slot] = TenantSt{};
  } else {
    slot = im.tenants.size();
    im.tenants.emplace_back();
  }
  TenantSt& tn = im.tenants[slot];
  tn.a = &a;
  tn.graph = &graph;
  tn.tile_of_datum = std::move(tile_of_datum);
  tn.floor_bytes = topts.floor_bytes;
  tn.priority = topts.priority;
  tn.name = topts.name.empty() ? "tenant-" + std::to_string(im.next_tenant_id)
                               : topts.name;
  tn.retired.assign(graph.num_tasks(), 0);
  tn.id = im.next_tenant_id++;
  tn.live = true;

  const std::size_t nt = a.num_tiles();
  tn.tiles.resize(nt * (nt + 1) / 2);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      TileSt& ts = tn.tiles[m * (m + 1) / 2 + k];
      ts.m = m;
      ts.k = k;
      ts.bytes = a.tile(m, k).bytes();
      ts.res = a.spilled(m, k) ? Res::Spilled : Res::Resident;
      if (ts.res == Res::Resident) {
        tn.resident += ts.bytes;
        im.g_resident += ts.bytes;
      }
      if (ts.bytes > im.st.max_tile_bytes) im.st.max_tile_bytes = ts.bytes;
    }
  }
  // Live ranges give each managed tile its consumer count (the dead spill
  // fires when it hits zero); the per-tile user lists refine first/last use
  // into the full next-use sequence cold-eviction ranks by. Ids ascend by
  // construction (insertion order is a topological order).
  const std::vector<DataLiveRange> ranges = compute_live_ranges(graph);
  for (DataId d = 0; d < graph.num_data(); ++d) {
    const std::size_t idx = tn.tile_of_datum[d];
    if (idx == npos) continue;
    tn.tiles[idx].remaining = ranges[d].uses;
  }
  for (TaskId id = 0; id < graph.num_tasks(); ++id) {
    for_each_tile(tn, graph.task(id), [&](std::size_t idx, DataId) {
      std::vector<TaskId>& users = tn.tiles[idx].users;
      if (users.empty() || users.back() != id) users.push_back(id);
    });
  }
  for (const TileSt& ts : tn.tiles) {
    MPGEO_ASSERT(ts.remaining == ts.users.size());
    tn.st.uses += ts.users.size();
  }

  im.st.tenants_attached += 1;
  im.tenant_sample_locked(tn);
  im.sample_locked();
  // A resident start position may blow the budget: evict the coldest tiles
  // (this tenant's own included) before any task runs.
  if (im.options.resident_byte_budget != 0) {
    while (im.plan_measure() > im.options.resident_byte_budget &&
           im.evict_coldest_locked(lk, slot)) {
    }
  }
  im.validate_locked("attach");
  return std::unique_ptr<Tenant>(new Tenant(this, slot, tn.id));
}

SharedOocPager::Tenant::~Tenant() { finish(); }

void SharedOocPager::Tenant::before_task(const Task& t) {
  Impl& im = *pager_->impl_;
  std::unique_lock lk(im.mu);
  TenantSt& tn = im.tenants[slot_];
  MPGEO_ASSERT(tn.live && tn.id == id_);
  for_each_tile(tn, t, [&](std::size_t idx, DataId data) {
    bool write_only = true;
    for (const Access& acc : t.accesses) {
      if (acc.data == data && acc.mode != AccessMode::Write) {
        write_only = false;
        break;
      }
    }
    TileSt& ts = tn.tiles[idx];
    bool counted_wait = false;
    ts.waiting += 1;  // shields the tile from eviction until it is pinned
    for (;;) {
      if (ts.res == Res::Resident) {
        ts.pinned += 1;
        ts.waiting -= 1;
        return;
      }
      if (ts.res == Res::Spilled) {
        im.admit_locked(lk, slot_);
        if (ts.res != Res::Spilled) continue;  // another worker restored it
        if (write_only) {
          // Write elision: the task overwrites every value — install a
          // fresh zeroed payload instead of decompressing the stale blob.
          tn.st.write_installs += 1;
          im.st.write_installs += 1;
          const AnyTile& cur = tn.a->tile(ts.m, ts.k);
          tn.a->discard_spilled(ts.m, ts.k, cur.storage());
          ts.res = Res::Resident;
          tn.resident += ts.bytes;
          im.g_resident += ts.bytes;
          im.tenant_sample_locked(tn);
          im.sample_locked();
          im.validate_locked("write_install");
          im.cv.notify_all();
          continue;
        }
        tn.st.demand_faults += 1;
        im.st.demand_faults += 1;
        im.restore_locked(lk, slot_, idx);
        continue;
      }
      if (ts.res == Res::Loading && !counted_wait) {
        tn.st.prefetch_waits += 1;  // another worker's restore is in flight
        counted_wait = true;
      }
      im.cv.wait(lk);
    }
  });
  im.validate_locked("before_task");
}

void SharedOocPager::Tenant::after_task(const Task& t) {
  Impl& im = *pager_->impl_;
  std::unique_lock lk(im.mu);
  TenantSt& tn = im.tenants[slot_];
  MPGEO_ASSERT(tn.live && tn.id == id_);
  const auto id = static_cast<std::size_t>(&t - &tn.graph->task(0));
  MPGEO_ASSERT(id < tn.graph->num_tasks());
  tn.retired[id] = 1;
  tn.retired_count += 1;
  // Unpin everything first, so other workers may evict this task's live
  // tiles while the dead ones are being encoded.
  std::vector<std::size_t> dead;
  for_each_tile(tn, t, [&](std::size_t idx, DataId) {
    TileSt& ts = tn.tiles[idx];
    MPGEO_ASSERT(ts.pinned > 0 && ts.remaining > 0);
    ts.pinned -= 1;
    ts.remaining -= 1;
    // Last consumer retired: remaining counts unretired users, so no user
    // can still hold a pin, and no victim scan picks a dead tile.
    if (ts.remaining == 0 && ts.res == Res::Resident) dead.push_back(idx);
  });
  for (const std::size_t idx : dead) {
    tn.st.evictions += 1;
    im.spill_locked(lk, slot_, idx);
  }
  im.validate_locked("after_task");
}

void SharedOocPager::Tenant::finish() {
  Impl& im = *pager_->impl_;
  std::unique_lock lk(im.mu);
  if (slot_ >= im.tenants.size()) return;
  TenantSt& tn = im.tenants[slot_];
  if (!tn.live || tn.id != id_) return;  // already finished
  // Spill every unpinned resident tile and wait out codec jobs other
  // workers run on this tenant's tiles: the ledger must not keep counting a
  // detached tenant, and what it stops counting must actually leave memory
  // (the finished factor lives in the spill file; logdet and solve decode
  // it tile by tile into scratch under a Lease). No task of this tenant
  // runs any more, so a spilled tile stays spilled.
  for (std::size_t j = 0; j < tn.tiles.size(); ++j) {
    if (tn.tiles[j].res == Res::Resident && tn.tiles[j].pinned == 0) {
      im.spill_locked(lk, slot_, j);
    }
  }
  while (tn.inflight > 0 || tn.evicting > 0) im.cv.wait(lk);
  // Pins leaked by a failed attempt stay resident but leave the ledger
  // (callers regenerate before reuse).
  im.g_resident -= tn.resident;
  tn.resident = 0;
  tn.live = false;
  final_ = tn.st;  // the slot is about to be recycled
  im.free_slots.push_back(slot_);
  if (im.options.metrics) {
    MetricsRegistry& reg = *im.options.metrics;
    reg.counter("ooc.demand_faults").add(tn.st.demand_faults);
    reg.counter("ooc.prefetch_waits").add(tn.st.prefetch_waits);
    reg.counter("ooc.evictions").add(tn.st.evictions);
    reg.counter("ooc.cold_evictions").add(tn.st.cold_evictions);
    reg.counter("ooc.write_installs").add(tn.st.write_installs);
  }
  im.sample_locked();
  im.validate_locked("finish");
  im.cv.notify_all();
}

OocStats SharedOocPager::Tenant::stats() const {
  Impl& im = *pager_->impl_;
  std::lock_guard lk(im.mu);
  const TenantSt& tn = im.tenants[slot_];
  if (tn.live && tn.id == id_) return tn.st;
  return final_;  // detached: the slot may already host another tenant
}

SharedOocPager::Lease& SharedOocPager::Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    if (pager_) pager_->release_lease(bytes_);
    pager_ = o.pager_;
    bytes_ = o.bytes_;
    o.pager_ = nullptr;
    o.bytes_ = 0;
  }
  return *this;
}

SharedOocPager::Lease::~Lease() {
  if (pager_) pager_->release_lease(bytes_);
}

SharedOocPager::Lease SharedOocPager::lease_bytes(std::size_t bytes) {
  Impl& im = *impl_;
  std::unique_lock lk(im.mu);
  // A tile-sized lease rides the same one-tile overshoot slack as a tile
  // admission (admit at measure <= budget, then add <= max_tile_bytes keeps
  // the budget + one tile bound) — making it stricter than tile faults
  // would just starve logdet and solve under contention. Only leases
  // larger than any managed tile must wait for their full size.
  const std::size_t need = bytes <= im.st.max_tile_bytes ? 0 : bytes;
  im.admit_locked(lk, npos, need);
  im.g_leased += bytes;
  im.sample_locked();
  im.validate_locked("lease");
  Lease l;
  l.pager_ = this;
  l.bytes_ = bytes;
  return l;
}

void SharedOocPager::release_lease(std::size_t bytes) {
  Impl& im = *impl_;
  std::lock_guard lk(im.mu);
  MPGEO_ASSERT(im.g_leased >= bytes);
  im.g_leased -= bytes;
  im.sample_locked();
  im.cv.notify_all();
}

SharedPagerStats SharedOocPager::stats() const {
  std::lock_guard lk(impl_->mu);
  SharedPagerStats out = impl_->st;
  out.resident_bytes = impl_->g_resident + impl_->g_leased;
  return out;
}

std::vector<std::pair<double, double>> SharedOocPager::residency_samples()
    const {
  std::lock_guard lk(impl_->mu);
  return impl_->samples;
}

std::string SharedOocPager::first_invariant_violation() const {
  std::lock_guard lk(impl_->mu);
  return impl_->violation;
}

std::unique_ptr<SharedOocPager::Tenant> attach_for_call(
    const OutOfCoreOptions& ooc, MetricsRegistry* metrics,
    bool capture_residency, std::unique_ptr<SharedOocPager>& own,
    TileMatrix& a, const TaskGraph& graph,
    std::vector<std::size_t> tile_of_datum) {
  SharedOocPager* pager = ooc.shared;
  if (!pager) {
    SharedPagerOptions po;
    po.resident_byte_budget = ooc.resident_byte_budget;
    po.capture_residency = capture_residency;
    po.metrics = metrics;
    own = std::make_unique<SharedOocPager>(po);
    pager = own.get();
  }
  return pager->attach(a, graph, std::move(tile_of_datum),
                       {ooc.floor_bytes, ooc.priority, ooc.tenant});
}

}  // namespace mpgeo
