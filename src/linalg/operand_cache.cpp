#include "linalg/operand_cache.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "precision/convert.hpp"

namespace mpgeo {

template <class T>
std::shared_ptr<const std::vector<T>> OperandCache::get_impl(
    const OperandKey& key, std::size_t count,
    const std::function<void(std::span<T>)>& fill,
    std::vector<T> Entry::* member) {
  if (budget_ == 0) {
    // Caching disabled: pack into a private buffer, retain nothing.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.bypasses;
    }
    auto buf = std::make_shared<std::vector<T>>(count, T(0));
    fill(std::span<T>(*buf));
    return buf;
  }

  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      entry = it->second;
      if (entry->resident) {
        // Refresh LRU position.
        lru_.erase(entry->lru_it);
        lru_.push_front(entry.get());
        entry->lru_it = lru_.begin();
      }
    } else {
      ++stats_.misses;
      entry = std::make_shared<Entry>();
      entry->key = key;
      map_.emplace(key, entry);
      by_datum_[key.datum].push_back(key);
    }
  }

  // Fill outside the cache lock: only getters of this same key wait here. A
  // cold entry restores from its compressed payload instead of re-packing —
  // decompress_bytes is the codec's exact inverse, so the restored pack is
  // bit-identical to the one that was demoted.
  std::call_once(entry->once, [&] {
    if (entry->has_cold) {
      MPGEO_REQUIRE(entry->cold.elem_size == sizeof(T) &&
                        entry->cold.raw_bytes == count * sizeof(T),
                    "OperandCache: cold entry fetched with mismatched "
                    "element type or size");
      (entry.get()->*member).resize(count);
      decompress_bytes(entry->cold,
                       std::as_writable_bytes(
                           std::span<T>(entry.get()->*member)));
    } else {
      (entry.get()->*member).assign(count, T(0));
      fill(std::span<T>(entry.get()->*member));
    }
    account_fill(entry);
  });
  // Also trips if one key was fetched with both element types.
  MPGEO_REQUIRE((entry.get()->*member).size() == count,
                "OperandCache::get: size mismatch with cached entry");

  return std::shared_ptr<const std::vector<T>>(entry,
                                               &(entry.get()->*member));
}

OperandCache::Buffer OperandCache::get(const OperandKey& key,
                                       std::size_t count, const Fill& fill) {
  return get_impl<double>(key, count, fill, &Entry::data);
}

OperandCache::BufferF32 OperandCache::get_f32(const OperandKey& key,
                                              std::size_t count,
                                              const FillF32& fill) {
  return get_impl<float>(key, count, fill, &Entry::f32);
}

void OperandCache::account_fill(const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // The entry may have been invalidated while filling; it then no longer sits
  // in the map and must not enter the LRU list (its buffer lives on through
  // the getters' shared_ptr and dies with them).
  auto it = map_.find(entry->key);
  if (it == map_.end() || it->second != entry) return;

  // A restored cold entry sheds its compressed payload now that the hot pack
  // is accounted; its cold bytes leave the budget.
  if (entry->has_cold) {
    cold_lru_.erase(entry->cold_lru_it);
    stats_.bytes -= entry->cold.size_bytes();
    stats_.compressed_bytes -= entry->cold.size_bytes();
    entry->cold = CompressedBuffer{};
    entry->has_cold = false;
    ++stats_.restores;
  }

  stats_.bytes += entry->bytes();
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
  lru_.push_front(entry.get());
  entry->lru_it = lru_.begin();
  entry->resident = true;

  // Evict least-recently-used residents until under budget (never the entry
  // just added — a cache that can't hold one operand would thrash forever).
  // With the cold tier on, a hot victim is demoted (compressed in place of
  // dropped); its compressed bytes re-enter the budget, so the loop below
  // then evicts cold entries for real if the tier itself overflows.
  while (stats_.bytes > budget_ && lru_.size() > 1) {
    const Entry* victim = lru_.back();
    lru_.pop_back();
    stats_.bytes -= victim->bytes();
    ++stats_.evictions;
    if (cold_tier_) {
      demote_locked(victim);  // replaces the map slot with a cold twin
    } else {
      erase_locked(victim->key);  // destroys victim unless a reader holds it
    }
  }
  while (stats_.bytes > budget_ && !cold_lru_.empty()) {
    const Entry* victim = cold_lru_.back();
    cold_lru_.pop_back();
    stats_.bytes -= victim->cold.size_bytes();
    stats_.compressed_bytes -= victim->cold.size_bytes();
    ++stats_.cold_evictions;
    erase_locked(victim->key);
  }
}

/// Compress `victim`'s payload and swap a cold twin into its map slot.
/// Requires mu_ held; `victim` has just left the hot LRU and its bytes are
/// already subtracted. The twin is a fresh Entry, so readers still holding
/// the hot buffer are untouched and the twin's once flag arms the restore.
void OperandCache::demote_locked(const Entry* victim) {
  auto cold = std::make_shared<Entry>();
  cold->key = victim->key;
  if (!victim->data.empty()) {
    cold->cold = compress_bytes(
        std::as_bytes(std::span<const double>(victim->data)), sizeof(double));
  } else {
    cold->cold = compress_bytes(
        std::as_bytes(std::span<const float>(victim->f32)), sizeof(float));
  }
  cold->has_cold = true;
  cold_lru_.push_front(cold.get());
  cold->cold_lru_it = cold_lru_.begin();
  stats_.bytes += cold->cold.size_bytes();
  stats_.compressed_bytes += cold->cold.size_bytes();
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
  ++stats_.demotions;
  const OperandKey key = cold->key;
  map_[key] = std::move(cold);  // by_datum_ already indexes the key
}

/// Remove `key` from the map and the per-datum index (not the LRU list —
/// callers handle residency themselves). Requires mu_ held. Takes the key by
/// value: callers pass `entry->key` and map_.erase may destroy that entry.
void OperandCache::erase_locked(const OperandKey key) {
  map_.erase(key);
  auto dit = by_datum_.find(key.datum);
  if (dit == by_datum_.end()) return;
  std::vector<OperandKey>& keys = dit->second;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) {
      keys[i] = keys.back();
      keys.pop_back();
      break;
    }
  }
  if (keys.empty()) by_datum_.erase(dit);
}

void OperandCache::invalidate(const void* datum) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto dit = by_datum_.find(datum);
  if (dit == by_datum_.end()) return;
  // erase_locked edits the index vector; work from a moved-out copy.
  const std::vector<OperandKey> keys = std::move(dit->second);
  by_datum_.erase(dit);
  for (const OperandKey& key : keys) {
    const auto it = map_.find(key);
    if (it == map_.end()) continue;
    const std::shared_ptr<Entry>& entry = it->second;
    if (entry->resident) {
      lru_.erase(entry->lru_it);
      stats_.bytes -= entry->bytes();
    } else if (entry->has_cold) {
      cold_lru_.erase(entry->cold_lru_it);
      stats_.bytes -= entry->cold.size_bytes();
      stats_.compressed_bytes -= entry->cold.size_bytes();
    }
    ++stats_.invalidations;
    map_.erase(it);
  }
}

void OperandCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  by_datum_.clear();
  lru_.clear();
  cold_lru_.clear();
  stats_.bytes = 0;
  stats_.compressed_bytes = 0;
}

OperandCache::Stats OperandCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void OperandCache::publish(MetricsRegistry& reg) const {
  const Stats s = stats();
  reg.counter("operand_cache.hits").add(s.hits);
  reg.counter("operand_cache.misses").add(s.misses);
  reg.counter("operand_cache.evictions").add(s.evictions);
  reg.counter("operand_cache.invalidations").add(s.invalidations);
  reg.counter("operand_cache.demotions").add(s.demotions);
  reg.counter("operand_cache.restores").add(s.restores);
  reg.counter("operand_cache.cold_evictions").add(s.cold_evictions);
  reg.counter("operand_cache.bypasses").add(s.bypasses);
  reg.gauge("operand_cache.bytes").set(double(s.bytes));
  reg.gauge("operand_cache.peak_bytes").set_max(double(s.peak_bytes));
  reg.gauge("operand_cache.compressed_bytes").set(double(s.compressed_bytes));
}

void pack_operand(const AnyTile& t, Precision prec, std::span<double> dst) {
  MPGEO_REQUIRE(dst.size() == t.size(), "pack_operand: size mismatch");
  t.to_double(dst);
  round_inputs(dst, prec);
  count_operand_conversion();
}

void pack_operand_f32(const AnyTile& t, Precision prec,
                      std::span<float> dst) {
  MPGEO_REQUIRE(dst.size() == t.size(), "pack_operand_f32: size mismatch");
  MPGEO_REQUIRE(prec != Precision::FP64,
                "pack_operand_f32: FP64 operands need double packs");
  t.to_float(dst);
  round_inputs(dst, prec);
  count_operand_conversion();
}

OperandCache::Buffer cached_operand(OperandCache* cache, const AnyTile& t,
                                    std::uint64_t version, Precision prec) {
  const auto fill = [&](std::span<double> dst) {
    pack_operand(t, prec, dst);
  };
  if (cache == nullptr) {
    auto buf = std::make_shared<std::vector<double>>(t.size());
    fill(std::span<double>(*buf));
    return buf;
  }
  return cache->get(OperandKey{&t, version, prec}, t.size(), fill);
}

OperandCache::BufferF32 cached_operand_f32(OperandCache* cache,
                                           const AnyTile& t,
                                           std::uint64_t version,
                                           Precision prec) {
  const auto fill = [&](std::span<float> dst) {
    pack_operand_f32(t, prec, dst);
  };
  if (cache == nullptr) {
    auto buf = std::make_shared<std::vector<float>>(t.size());
    fill(std::span<float>(*buf));
    return buf;
  }
  return cache->get_f32(OperandKey{&t, version, prec}, t.size(), fill);
}

}  // namespace mpgeo
