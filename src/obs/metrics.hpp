// Metrics registry: the counter substrate of the observability layer.
//
// Every measuring subsystem — the real executor's scheduler, the operand
// cache, the discrete-event simulator — reports into one MetricsRegistry:
// named monotonic counters (bytes moved per link class, conversions
// performed, cache hits/misses/evictions, steals, tasks retired) and gauges
// (queue depths, resident cache bytes). This is the ground-truth measurement
// substrate behind the paper's evaluation quantities (Figs 8-10): one name
// space, one JSON dump, one reconciliation point against SimReport.
//
// Concurrency: counters are sharded across kShards cache-line-padded atomic
// slots; a writer touches exactly one slot (picked by a stable per-thread
// index, or pinned explicitly by workers that know their lane), so counting
// from a worker pool costs one uncontended relaxed fetch_add. Reads sum the
// shards. Gauges are single atomics with set / set-max semantics.
//
// Handles (Counter, Gauge) are resolved once by name and are cheap value
// types; a default-constructed handle is a no-op sink, so call sites need no
// "is metrics enabled?" branches. Handles point into the registry and must
// not outlive it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mpgeo {

class MetricsRegistry {
 public:
  static constexpr std::size_t kShards = 16;

  class Counter {
   public:
    Counter() = default;
    explicit operator bool() const { return slots_ != nullptr; }
    /// Add `delta` on the calling thread's shard. No-op on a null handle.
    void add(std::uint64_t delta = 1) const;
    /// Add on an explicit shard (workers pass their worker index; any value
    /// is reduced mod kShards). No-op on a null handle.
    void add_sharded(std::uint64_t delta, std::size_t shard) const;

   private:
    friend class MetricsRegistry;
    struct Slots;
    Slots* slots_ = nullptr;
  };

  class Gauge {
   public:
    Gauge() = default;
    explicit operator bool() const { return cell_ != nullptr; }
    void set(double v) const;
    /// Monotone high-water update (e.g. peak queue depth).
    void set_max(double v) const;

   private:
    friend class MetricsRegistry;
    std::atomic<double>* cell_ = nullptr;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create the counter / gauge of that name. Thread-safe; the same
  /// name always resolves to the same underlying metric.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);

  /// Current value (shard sum); 0 if the name was never registered.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  struct Snapshot {
    /// Name-sorted, so dumps are deterministic.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
  };
  Snapshot snapshot() const;

  /// Dump {"counters": {...}, "gauges": {...}} with name-sorted keys.
  void write_json(std::ostream& os) const;
  /// Convenience: write_json to a file path (throws mpgeo::Error on failure).
  void write_json_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  /// Deques give the handles stable addresses across registrations.
  std::deque<Counter::Slots> counter_slots_;
  std::deque<std::atomic<double>> gauge_cells_;
  std::unordered_map<std::string, std::size_t> counter_ids_;
  std::unordered_map<std::string, std::size_t> gauge_ids_;
};

struct alignas(64) MetricsCounterShard {
  std::atomic<std::uint64_t> v{0};
};

struct MetricsRegistry::Counter::Slots {
  MetricsCounterShard shard[MetricsRegistry::kShards];
  std::uint64_t sum() const {
    std::uint64_t acc = 0;
    for (const auto& s : shard) acc += s.v.load(std::memory_order_relaxed);
    return acc;
  }
};

}  // namespace mpgeo
