// Versioned operand cache: the shared-memory analogue of the paper's
// sender-side conversion (STC, Algorithm 2).
//
// In the distributed setting STC converts a panel once at the producer and
// every consumer receives it ready to use; in our shared-memory runtime the
// equivalent waste is operand *preparation*: each GEMM/SYRK widens,
// transposes and input-rounds its panel tiles privately, so a panel tile with
// ~NT-k consumers is converted ~NT-k times — O(NT^3) conversion passes for
// O(NT^2) tiles. This cache memoizes, per logical datum, the input-rounded
// working-precision operand a kernel actually consumes, keyed by (datum
// identity, data version, compute precision). Every pack is the tile widened
// column-major — the layout GEMM, TRSM and SYRK all read — so one entry of a
// panel tile serves its SYRK and both GEMM operand roles. The first consumer
// fills the entry; later consumers reuse it read-only.
//
// Bit-identity contract: a cached pack holds exactly the bytes
// `pack_gemm_operand` would produce from the tile's current payload —
// widening any storage format to double is exact and `round_inputs` is
// deterministic, so consuming a cached pack is bit-identical to re-preparing
// the operand. Tests pin this.
//
// Versioning: the data version comes from the task graph's sequential
// dependence analysis (the version counter of the last writer). A write to a
// datum publishes a new version; consumers launched after it carry the new
// version in their key and never see a stale pack. Retired writes also call
// `invalidate` so dead entries free their bytes early.
//
// Eviction: entries are LRU-ordered and evicted when total bytes exceed the
// budget. Entries are handed out as shared_ptr, so eviction (or
// invalidation) while a consumer is still reading is safe — the buffer dies
// with its last reader.
//
// Cold tier: with the cold tier on (the default), an entry evicted from the
// hot LRU is *demoted* instead of dropped — its payload is compressed with
// the tile codec (linalg/tile_codec.hpp) and parked in a cold list whose
// compressed bytes count against the same byte budget. A later get of the
// key decompresses it back ("restore") instead of re-packing from the tile;
// the round trip is bit-exact, so the bit-identity contract above is
// untouched. Cold entries overflowing the budget are evicted for real,
// oldest first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "linalg/anytile.hpp"
#include "linalg/tile_codec.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

class MetricsRegistry;

struct OperandKey {
  const void* datum = nullptr;  ///< stable identity of the logical tile
  std::uint64_t version = 0;    ///< data version at the consumer's launch
  Precision prec = Precision::FP64;  ///< input-rounding format of the pack

  bool operator==(const OperandKey&) const = default;
};

struct OperandKeyHash {
  std::size_t operator()(const OperandKey& k) const {
    // FNV-1a over the key fields.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(reinterpret_cast<std::uintptr_t>(k.datum));
    mix(k.version);
    mix(static_cast<std::uint64_t>(k.prec));
    return static_cast<std::size_t>(h);
  }
};

class OperandCache {
 public:
  using Buffer = std::shared_ptr<const std::vector<double>>;
  using Fill = std::function<void(std::span<double>)>;
  /// Float-element packs: sub-FP64 input-rounded operands are exactly
  /// float-representable, so storing them in float halves resident bytes and
  /// kernel read traffic with bit-identical widened values.
  using BufferF32 = std::shared_ptr<const std::vector<float>>;
  using FillF32 = std::function<void(std::span<float>)>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< entry creations == cache fills
    std::uint64_t evictions = 0;  ///< hot-LRU removals (demoted or dropped)
    std::uint64_t invalidations = 0;
    std::uint64_t demotions = 0;  ///< hot entries compressed into the cold tier
    std::uint64_t restores = 0;   ///< cold entries decompressed back to hot
    std::uint64_t cold_evictions = 0;  ///< cold entries dropped for real
    std::uint64_t bypasses = 0;  ///< gets served without caching (budget 0)
    std::size_t bytes = 0;       ///< resident payload bytes (hot + compressed)
    std::size_t peak_bytes = 0;  ///< high-water mark of `bytes`
    std::size_t compressed_bytes = 0;  ///< cold-tier subset of `bytes`
  };

  static constexpr std::size_t kDefaultByteBudget = 256ull << 20;  // 256 MiB

  /// A zero `byte_budget` disables caching outright: every get packs into a
  /// private buffer (counted in Stats::bypasses) and nothing is retained.
  /// Callers that want "0 means default" must map it themselves (as
  /// MpCholeskyOptions::operand_cache_bytes does).
  explicit OperandCache(std::size_t byte_budget = kDefaultByteBudget,
                        bool cold_tier = true)
      : budget_(byte_budget), cold_tier_(cold_tier) {}

  OperandCache(const OperandCache&) = delete;
  OperandCache& operator=(const OperandCache&) = delete;

  /// Return the operand for `key`, filling it once via `fill` (called with a
  /// zeroed buffer of `count` doubles) on first use. Concurrent getters of
  /// the same key block until that one fill completes; getters of other keys
  /// proceed independently. The returned buffer stays valid for the life of
  /// the shared_ptr even if the entry is evicted or invalidated meanwhile.
  Buffer get(const OperandKey& key, std::size_t count, const Fill& fill);

  /// Float-element variant of `get`. A key must be consistently fetched with
  /// one element type (our keys are: prec FP64 => double, else float).
  BufferF32 get_f32(const OperandKey& key, std::size_t count,
                    const FillF32& fill);

  /// Drop every entry of `datum`, any version/precision. Called when a
  /// write to the datum retires; consumers of the new version use a new key
  /// anyway, so this only releases memory early (and is what keeps a *reused*
  /// datum pointer from resurrecting a dead pack after its allocator recycles
  /// the address).
  void invalidate(const void* datum);

  void clear();

  Stats stats() const;

  /// Report the current Stats into `reg`: counters operand_cache.hits /
  /// .misses / .evictions / .invalidations and gauges operand_cache.bytes /
  /// .peak_bytes. Counters are cumulative adds — publish once per cache
  /// lifetime (e.g. after a factorization), not periodically.
  void publish(MetricsRegistry& reg) const;

  std::size_t byte_budget() const { return budget_; }
  /// False iff constructed with byte_budget == 0 (every get bypasses).
  bool enabled() const { return budget_ > 0; }

 private:
  struct Entry {
    std::once_flag once;
    std::vector<double> data;  ///< payload when fetched via get()
    std::vector<float> f32;    ///< payload when fetched via get_f32()
    OperandKey key;
    bool resident = false;  ///< filled, accounted, and in the LRU list
    std::list<const Entry*>::iterator lru_it{};
    /// Demoted payload (cold tier). A cold entry is a *fresh* Entry replacing
    /// the hot one in the map — its once flag is unconsumed, so the next get
    /// runs the restore under the same fill-once machinery.
    CompressedBuffer cold;
    bool has_cold = false;
    std::list<const Entry*>::iterator cold_lru_it{};

    std::size_t bytes() const {
      return data.size() * sizeof(double) + f32.size() * sizeof(float);
    }
  };

  /// Shared hit/miss/fill machinery of get/get_f32; `member` selects the
  /// payload vector matching the caller's element type.
  template <class T>
  std::shared_ptr<const std::vector<T>> get_impl(
      const OperandKey& key, std::size_t count,
      const std::function<void(std::span<T>)>& fill,
      std::vector<T> Entry::* member);

  void account_fill(const std::shared_ptr<Entry>& entry);
  void erase_locked(OperandKey key);
  void demote_locked(const Entry* victim);

  const std::size_t budget_;
  const bool cold_tier_;
  mutable std::mutex mu_;
  std::unordered_map<OperandKey, std::shared_ptr<Entry>, OperandKeyHash> map_;
  /// datum -> live keys for that datum (a handful: one per precision).
  /// Keeps `invalidate` O(keys-of-datum); the retire hook calls it once per
  /// written datum of every task, so a map scan there would cost
  /// O(tasks x entries) under the lock.
  std::unordered_map<const void*, std::vector<OperandKey>> by_datum_;
  std::list<const Entry*> lru_;       // front = most recently used
  std::list<const Entry*> cold_lru_;  // front = most recently demoted
  Stats stats_;
};

/// Fill `dst` with tile `t` widened column-major, input-rounded to `prec`
/// (pass Precision::FP64 for a plain widen). Bit-identical to the un-cached
/// preparation path; counts one operand-conversion pass.
void pack_operand(const AnyTile& t, Precision prec, std::span<double> dst);

/// Float-stored pack for sub-FP64 `prec`: each element widens to exactly the
/// value the double pack would hold (see AnyTile::to_float). Requires
/// prec != FP64; counts one operand-conversion pass.
void pack_operand_f32(const AnyTile& t, Precision prec, std::span<float> dst);

/// Fetch tile `t`'s operand from `cache` (filling on first use via
/// `pack_operand`), or pack into a fresh buffer when `cache` is null.
OperandCache::Buffer cached_operand(OperandCache* cache, const AnyTile& t,
                                    std::uint64_t version, Precision prec);

/// Float-pack variant of `cached_operand` (sub-FP64 `prec` only).
OperandCache::BufferF32 cached_operand_f32(OperandCache* cache,
                                           const AnyTile& t,
                                           std::uint64_t version,
                                           Precision prec);

}  // namespace mpgeo
