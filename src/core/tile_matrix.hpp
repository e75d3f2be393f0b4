// Symmetric positive definite matrix stored as a lower-triangular grid of
// precision-erased tiles — the data structure the mixed-precision Cholesky
// factors in place. Tile (m, k) with m >= k holds rows [m*nb, ...) x cols
// [k*nb, ...); by symmetry the upper triangle is never materialized.
//
// Spill tier (out-of-core): with `enable_spill`, individual tiles can be
// written to a backing file as tile-codec compressed blobs and their payload
// buffers released; `restore` decompresses them back bit-exactly. The file
// is an append-only log — re-spilling a tile appends a fresh blob and the
// old one becomes garbage — with `compact()` (or the automatic
// `compact_garbage_ratio` policy) rewriting live blobs into a fresh log to
// bound on-disk size under repeated re-spills. Accessing a spilled tile's
// elements without restoring first is a caller bug; the out-of-core pager
// (core/shared_pager.hpp) keeps tiles resident exactly while the executor
// needs them, and `mp_cholesky` without OutOfCoreOptions restores everything
// up front. Spill/restore/compact are not thread-safe against each other or
// against tile access — callers (the pager) sequence them under a lock. The
// read_spilled / install / spill_with split exists so that callers can keep
// codec work (compress/decompress) outside that lock: only the file and
// directory operations need sequencing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/anytile.hpp"
#include "linalg/matrix.hpp"
#include "linalg/tile_codec.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

class MetricsRegistry;

struct SpillOptions {
  bool enabled = false;
  /// Backing file path; empty = an anonymous temp file (std::tmpfile),
  /// deleted automatically when the matrix (or its spill state) dies.
  std::string path;
  /// Automatically compact when garbage exceeds this fraction of the log
  /// (checked after each spill once the log passes compact_min_bytes).
  /// 0 disables the policy; compact() stays available either way.
  double compact_garbage_ratio = 0.0;
  /// Minimum log size before automatic compaction kicks in, so tiny logs
  /// are not churned for a handful of reclaimable bytes.
  std::size_t compact_min_bytes = 1u << 20;
  /// Count tile.spills / tile.restores / tile.log_garbage_bytes /
  /// tile.compactions and set the tile.resident_bytes /
  /// tile.peak_resident_bytes gauges in this registry (null = off).
  MetricsRegistry* metrics = nullptr;
};

struct SpillStats {
  std::uint64_t spills = 0;
  std::uint64_t restores = 0;
  std::uint64_t compactions = 0;
  /// Compressed bytes of currently-spilled tiles (drops on restore).
  std::size_t spilled_bytes = 0;
  /// Total bytes ever written to backing files (never drops; includes the
  /// live blobs compaction copies into each fresh log).
  std::size_t file_bytes = 0;
  /// Current physical size of the backing log (drops on compaction).
  std::size_t log_bytes = 0;
  /// Payload bytes of resident tiles since the tier was (re)enabled, and
  /// the high-water mark — the out-of-core bench's budget gate reads these.
  std::size_t resident_bytes = 0;
  std::size_t peak_resident_bytes = 0;
  /// Dead blob bytes the next compaction would reclaim.
  std::size_t garbage_bytes() const { return log_bytes - spilled_bytes; }
};

class TileMatrix {
 public:
  /// An n x n symmetric matrix cut into ceil(n/nb)^2 tiles. Storage formats
  /// are assigned per tile via `storage_of(m, k)` before filling.
  TileMatrix(std::size_t n, std::size_t nb);

  /// Copies duplicate the tile values but not the spill tier: spilled source
  /// tiles are materialized into the copy through the codec (read_spilled +
  /// decompress) without touching the source's residency set, and the copy
  /// starts fully resident with spilling disabled. Copying while another
  /// thread spills/restores the source is a caller bug (no internal lock).
  /// Moves carry the spill state along.
  TileMatrix(const TileMatrix& other);
  /// Assignment follows the copy semantics; when the destination had spilled
  /// tiles their live blobs are stranded as log garbage (reclaimed by the
  /// next compaction) and the destination becomes fully resident. A
  /// geometry-matched destination keeps its tier, otherwise the tier drops.
  TileMatrix& operator=(const TileMatrix& other);
  TileMatrix(TileMatrix&&) noexcept;             // defined out of line:
  TileMatrix& operator=(TileMatrix&&) noexcept;  // SpillState is incomplete
  ~TileMatrix();                                 // here


  std::size_t n() const { return n_; }
  std::size_t nb() const { return nb_; }
  std::size_t num_tiles() const { return nt_; }  ///< tiles per dimension

  /// Rows in tile row m (the last tile row may be ragged).
  std::size_t tile_rows(std::size_t m) const;

  AnyTile& tile(std::size_t m, std::size_t k);
  const AnyTile& tile(std::size_t m, std::size_t k) const;

  /// Re-allocate tile (m, k) with the given storage (contents reset to 0).
  /// The tile must be resident when the spill tier is enabled.
  void set_storage(std::size_t m, std::size_t k, Storage s);

  /// Re-allocate every tile whose storage differs from `s` (contents of the
  /// reset tiles are zeroed — callers refill before use). Used to repair a
  /// matrix left in mixed-precision storage by an aborted factorization.
  void reset_storage(Storage s);

  /// Total bytes at rest across all stored tiles (the paper's storage-cost
  /// reduction claim is measured here). Includes released payloads — this is
  /// the at-rest footprint, not the resident set (see spill_stats()).
  std::size_t bytes() const;

  /// Frobenius norm of the full symmetric matrix (off-diagonal tiles counted
  /// twice), used by the Higham–Mary precision rule.
  double frobenius_norm() const;

  /// Materialize the full symmetric matrix in FP64 (tests / small problems).
  Matrix<double> to_dense() const;

  /// Open the spill tier. Throws mpgeo::Error when the backing file cannot
  /// be opened or `options.enabled` is false. Calling again replaces the
  /// previous tier (which must have no spilled tiles left).
  void enable_spill(const SpillOptions& options);
  bool spill_enabled() const { return spill_ != nullptr; }

  /// Compress tile (m, k) to the log and release its payload; returns the
  /// compressed bytes appended (0 when the tile is already spilled). Throws
  /// when the tier is not enabled or the write fails.
  std::size_t spill(std::size_t m, std::size_t k);
  /// Append a blob the caller compressed from tile (m, k) — the off-lock
  /// half of spill(). The blob must be compress_tile(tile(m, k)) of the
  /// current payload; the payload is released here.
  std::size_t spill_with(std::size_t m, std::size_t k, CompressedBlob blob);
  /// Decompress tile (m, k) back into residency (no-op when resident).
  /// The restored payload is bit-identical to what was spilled.
  void restore(std::size_t m, std::size_t k);
  /// Read tile (m, k)'s live blob (header + payload bytes) from the log
  /// without changing its residency — the copy constructor and the pager's
  /// off-lock decompress read through this. Throws when not spilled.
  CompressedBlob read_spilled(std::size_t m, std::size_t k) const;
  /// Install a payload the caller decompressed from read_spilled(m, k) —
  /// the off-lock half of restore(). Marks the tile resident and strands
  /// the old blob as garbage, exactly like restore().
  void install(std::size_t m, std::size_t k, AnyTile&& restored);
  /// Replace spilled tile (m, k) with a fresh zeroed payload in storage `s`,
  /// stranding its blob as garbage without decompressing it — the pager's
  /// write elision (a pure-Write task overwrites every value anyway) and the
  /// covgen refill path that re-targets a degraded spilled tile to FP64.
  /// Not counted as a restore; requires the tier and the tile spilled.
  void discard_spilled(std::size_t m, std::size_t k, Storage s);
  bool spilled(std::size_t m, std::size_t k) const;

  /// Spill every resident tile; returns total compressed bytes appended.
  std::size_t spill_all();
  /// Restore every spilled tile.
  void restore_all();

  /// Rewrite the live blobs of all spilled tiles into a fresh backing log,
  /// dropping garbage; returns the bytes reclaimed (0 when the tier is
  /// disabled or the log has no garbage). Restores afterwards read the
  /// compacted log and stay bit-exact.
  std::size_t compact();

  SpillStats spill_stats() const;

  /// Recompute resident-byte accounting from the tiles. Callers that change
  /// payload footprints behind the matrix's back (AnyTile::convert_storage
  /// on a resident tile) call this afterwards so the resident_bytes gauge
  /// and stats stay truthful. No-op when the tier is disabled.
  void resync_resident_bytes();

 private:
  struct SpillState;

  std::size_t index(std::size_t m, std::size_t k) const;
  void drop_slot_garbage(std::size_t idx);
  void note_resident_delta(std::ptrdiff_t delta);
  void maybe_autocompact();

  std::size_t n_ = 0;
  std::size_t nb_ = 0;
  std::size_t nt_ = 0;
  std::vector<AnyTile> tiles_;  // packed lower triangle, row-major
  std::unique_ptr<SpillState> spill_;  // null = spill tier disabled
};

}  // namespace mpgeo
