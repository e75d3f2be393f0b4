#include "linalg/operand_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "precision/convert.hpp"

namespace mpgeo {

template <class T>
std::shared_ptr<const std::vector<T>> OperandCache::get_impl(
    const OperandKey& key, std::size_t count,
    const std::function<void(std::span<T>)>& fill,
    std::vector<T> Entry::* member) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Slot>& slots = by_datum_[key.datum];
    const auto it = std::find_if(slots.begin(), slots.end(),
                                 [&](const Slot& s) { return s.key == key; });
    if (it != slots.end()) {
      ++stats_.hits;
      entry = it->entry;
    } else {
      ++stats_.misses;
      entry = std::make_shared<Entry>();
      slots.push_back(Slot{key, entry});
    }
  }

  // Fill outside the cache lock: only getters of this same key wait here.
  std::call_once(entry->once, [&] {
    (entry.get()->*member).assign(count, T(0));
    fill(std::span<T>(entry.get()->*member));
    account_fill(key.datum, entry);
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

void OperandCache::account_fill(const void* datum,
                                const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // The datum may have been invalidated while filling; the entry then must
  // not count (its buffer lives on through the getters' shared_ptr and dies
  // with them).
  const auto it = by_datum_.find(datum);
  if (it == by_datum_.end() ||
      std::none_of(it->second.begin(), it->second.end(),
                   [&](const Slot& s) { return s.entry == entry; })) {
    return;
  }
  entry->accounted = true;
  stats_.bytes += entry->bytes();
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
}

void OperandCache::invalidate(const void* datum) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_datum_.find(datum);
  if (it == by_datum_.end()) return;
  for (const Slot& s : it->second) {
    if (s.entry->accounted) stats_.bytes -= s.entry->bytes();
    ++stats_.invalidations;
  }
  by_datum_.erase(it);
}

OperandCache::Stats OperandCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void OperandCache::publish(MetricsRegistry& reg) const {
  const Stats s = stats();
  reg.counter("operand_cache.hits").add(s.hits);
  reg.counter("operand_cache.misses").add(s.misses);
  reg.counter("operand_cache.invalidations").add(s.invalidations);
  reg.gauge("operand_cache.bytes").set(double(s.bytes));
  reg.gauge("operand_cache.peak_bytes").set_max(double(s.peak_bytes));
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
