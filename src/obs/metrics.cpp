#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace mpgeo {
namespace {

/// Stable shard index for the calling thread: threads are lanes assigned
/// round-robin at first use, so a fixed pool maps 1:1 onto shards and a
/// counter add never bounces a cache line between workers.
std::size_t this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % MetricsRegistry::kShards;
  return mine;
}

}  // namespace

void MetricsRegistry::Counter::add(std::uint64_t delta) const {
  if (!slots_) return;
  slots_->shard[this_thread_shard()].v.fetch_add(delta,
                                                 std::memory_order_relaxed);
}

void MetricsRegistry::Counter::add_sharded(std::uint64_t delta,
                                           std::size_t shard) const {
  if (!slots_) return;
  slots_->shard[shard % kShards].v.fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Gauge::set(double v) const {
  if (!cell_) return;
  cell_->store(v, std::memory_order_relaxed);
}

void MetricsRegistry::Gauge::set_max(double v) const {
  if (!cell_) return;
  double cur = cell_->load(std::memory_order_relaxed);
  while (v > cur &&
         !cell_->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

MetricsRegistry::Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lk(mu_);
  auto [it, inserted] = counter_ids_.try_emplace(name, counter_slots_.size());
  if (inserted) counter_slots_.emplace_back();
  Counter c;
  c.slots_ = &counter_slots_[it->second];
  return c;
}

MetricsRegistry::Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lk(mu_);
  auto [it, inserted] = gauge_ids_.try_emplace(name, gauge_cells_.size());
  if (inserted) gauge_cells_.emplace_back(0.0);
  Gauge g;
  g.cell_ = &gauge_cells_[it->second];
  return g;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard lk(mu_);
  const auto it = counter_ids_.find(name);
  return it == counter_ids_.end() ? 0 : counter_slots_[it->second].sum();
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard lk(mu_);
  const auto it = gauge_ids_.find(name);
  return it == gauge_ids_.end()
             ? 0.0
             : gauge_cells_[it->second].load(std::memory_order_relaxed);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lk(mu_);
  Snapshot s;
  s.counters.reserve(counter_ids_.size());
  for (const auto& [name, id] : counter_ids_) {
    s.counters.emplace_back(name, counter_slots_[id].sum());
  }
  s.gauges.reserve(gauge_ids_.size());
  for (const auto& [name, id] : gauge_ids_) {
    s.gauges.emplace_back(name,
                          gauge_cells_[id].load(std::memory_order_relaxed));
  }
  std::sort(s.counters.begin(), s.counters.end());
  std::sort(s.gauges.begin(), s.gauges.end());
  return s;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const Snapshot s = snapshot();
  // Metric names are dotted ASCII identifiers by convention; escape them
  // anyway so arbitrary names cannot break the document.
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(s.counters[i].first)
       << "\": " << s.counters[i].second;
  }
  os << (s.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", s.gauges[i].second);
    os << (i ? ",\n    " : "\n    ") << '"' << json_escape(s.gauges[i].first)
       << "\": " << buf;
  }
  os << (s.gauges.empty() ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  MPGEO_REQUIRE(out.good(), "MetricsRegistry: cannot open " + path);
  write_json(out);
}

}  // namespace mpgeo
