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
// version in their key and never see a stale pack.
//
// Lifetime: a pack lives until `invalidate` drops its datum. mp_cholesky
// counts each datum's declared accesses (runtime/live_ranges.hpp) and calls
// `invalidate` from the retire hook of the datum's last access, so every
// pack is filled once, read by every later consumer and freed by the last
// one; nothing bounds the cache by size. A caller that never invalidates
// (the prediction path's solve caches over a fixed factor) keeps its packs
// until the cache dies. Entries are handed out as shared_ptr, so
// invalidation while a consumer still reads is safe — the buffer dies with
// its last reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "linalg/anytile.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

class MetricsRegistry;

struct OperandKey {
  const void* datum = nullptr;  ///< stable identity of the logical tile
  std::uint64_t version = 0;    ///< data version at the consumer's launch
  Precision prec = Precision::FP64;  ///< input-rounding format of the pack

  bool operator==(const OperandKey&) const = default;
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
    std::uint64_t invalidations = 0;
    std::size_t bytes = 0;       ///< resident payload bytes
    std::size_t peak_bytes = 0;  ///< high-water mark of `bytes`
  };

  OperandCache() = default;
  OperandCache(const OperandCache&) = delete;
  OperandCache& operator=(const OperandCache&) = delete;

  /// Return the operand for `key`, filling it once via `fill` (called with a
  /// zeroed buffer of `count` doubles) on first use. Concurrent getters of
  /// the same key block until that one fill completes; getters of other keys
  /// proceed independently. The returned buffer stays valid for the life of
  /// the shared_ptr even if the entry is invalidated meanwhile.
  Buffer get(const OperandKey& key, std::size_t count, const Fill& fill);

  /// Float-element variant of `get`. A key must be consistently fetched with
  /// one element type (our keys are: prec FP64 => double, else float).
  BufferF32 get_f32(const OperandKey& key, std::size_t count,
                    const FillF32& fill);

  /// Drop every entry of `datum`, any version/precision, and release its
  /// bytes. Called once no task will read the datum again; also keeps a
  /// *reused* datum pointer from resurrecting a dead pack after its
  /// allocator recycles the address.
  void invalidate(const void* datum);

  Stats stats() const;

  /// Report the current Stats into `reg`: counters operand_cache.hits /
  /// .misses / .invalidations and gauges operand_cache.bytes / .peak_bytes.
  /// Counters are cumulative adds — publish once per cache lifetime (e.g.
  /// after a factorization), not periodically.
  void publish(MetricsRegistry& reg) const;

 private:
  struct Entry {
    std::once_flag once;
    std::vector<double> data;  ///< payload when fetched via get()
    std::vector<float> f32;    ///< payload when fetched via get_f32()
    bool accounted = false;    ///< filled and counted in Stats::bytes

    std::size_t bytes() const {
      return data.size() * sizeof(double) + f32.size() * sizeof(float);
    }
  };
  struct Slot {
    OperandKey key;
    std::shared_ptr<Entry> entry;
  };

  /// Shared hit/miss/fill machinery of get/get_f32; `member` selects the
  /// payload vector matching the caller's element type.
  template <class T>
  std::shared_ptr<const std::vector<T>> get_impl(
      const OperandKey& key, std::size_t count,
      const std::function<void(std::span<T>)>& fill,
      std::vector<T> Entry::* member);

  void account_fill(const void* datum, const std::shared_ptr<Entry>& entry);

  mutable std::mutex mu_;
  /// datum -> its packs (a handful: one per live version and precision), so
  /// a lookup scans only its own datum's keys and `invalidate` drops a datum
  /// without touching the others.
  std::unordered_map<const void*, std::vector<Slot>> by_datum_;
  Stats stats_;
};

/// Fill `dst` with tile `t` widened column-major, input-rounded to `prec`
/// (pass Precision::FP64 for a plain widen). Bit-identical to
/// `pack_gemm_operand`; counts one operand-conversion pass.
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
