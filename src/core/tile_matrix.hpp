// Symmetric positive definite matrix stored as a lower-triangular grid of
// precision-erased tiles — the data structure the mixed-precision Cholesky
// factors in place. Tile (m, k) with m >= k holds rows [m*nb, ...) x cols
// [k*nb, ...); by symmetry the upper triangle is never materialized.
//
// Spill tier (out-of-core): with `enable_spill`, individual tiles can be
// written to a backing file as tile-codec compressed blobs and their payload
// buffers released; `restore` decompresses them back bit-exactly. Every tile
// owns a fixed slot in the file at offset `packed index x nb^2 x 8`: a blob
// never exceeds its tile's raw payload (the codec's stored fallback) and no
// storage format is wider than FP64, so a re-spill overwrites its own slot
// and the file never exceeds `packed tiles x nb^2 x 8` bytes however often
// tiles are spilled and restored. Accessing a spilled tile's elements
// through `tile()` without restoring first is a caller bug; `read_tile`
// returns any tile's values without restoring it (decoding a spilled tile
// into caller scratch), which is how the norm pass, logdet and forward solve
// read an out-of-core factor. The out-of-core pager (core/shared_pager.hpp)
// keeps tiles resident exactly while the executor needs them, and
// `mp_cholesky` without OutOfCoreOptions restores everything up front.
// Spill/restore/read_tile are not thread-safe against each other or against
// tile access — callers (the pager) sequence them under a lock. The
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
  /// Count tile.spills / tile.restores / tile.discards in this registry
  /// (null = off).
  MetricsRegistry* metrics = nullptr;
};

/// Frobenius norms of every stored tile and of the whole matrix.
struct TileNorms {
  std::vector<double> tiles;  ///< packed lower triangle, m*(m+1)/2+k
  double global = 0.0;        ///< full symmetric matrix
};

struct SpillStats {
  std::uint64_t spills = 0;
  std::uint64_t restores = 0;
  /// Compressed bytes of currently-spilled tiles (drops on restore).
  std::size_t spilled_bytes = 0;
  /// Current size of the backing file: the end of the furthest blob ever
  /// written, at most packed tiles x nb^2 x 8.
  std::size_t file_bytes = 0;
};

class TileMatrix {
 public:
  /// An n x n symmetric matrix cut into ceil(n/nb)^2 tiles. Storage formats
  /// are assigned per tile via `storage_of(m, k)` before filling.
  TileMatrix(std::size_t n, std::size_t nb);

  /// Copies duplicate the tile values but not the spill tier: spilled source
  /// tiles are materialized into the copy through read_tile without
  /// touching the source's residency set, and the copy starts fully
  /// resident with spilling disabled. Copying while another thread
  /// spills/restores the source is a caller bug (no internal lock). Moves
  /// carry the spill state along.
  TileMatrix(const TileMatrix& other);
  /// Assignment follows the copy semantics: the destination's spilled
  /// tiles are forgotten (their slots are free for the next spill) and it
  /// becomes fully resident. A geometry-matched destination keeps its tier,
  /// otherwise the tier drops.
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

  /// The values of tile (m, k) whatever its residency: the resident tile
  /// itself, or a spilled tile's blob decoded into `scratch` (re-allocated
  /// unless it already has the tile's shape and storage). Bit-identical to
  /// restoring the tile, but never changes residency, the spill file or
  /// spill_stats().
  const AnyTile& read_tile(std::size_t m, std::size_t k,
                           AnyTile& scratch) const;

  /// Re-allocate tile (m, k) with the given storage (contents reset to 0).
  /// The tile must be resident when the spill tier is enabled.
  void set_storage(std::size_t m, std::size_t k, Storage s);

  /// Re-store every tile in `s` (values widened; callers refill before
  /// use). A resident tile converts in place (AnyTile::convert_storage). A
  /// spilled tile is only relabelled, so `s` must be at least as wide as
  /// its storage: its blob stays in its slot, nothing is read or written,
  /// and a later restore or read_tile widens it, so a spilled matrix and
  /// its resident twin still agree bit for bit.
  /// Residency and spill_stats() are unchanged. Used to repair a matrix
  /// left in mixed-precision storage by an aborted factorization, and by
  /// the out-of-core fill before it attaches to the pager.
  void reset_storage(Storage s);

  /// Total bytes at rest across all stored tiles (the paper's storage-cost
  /// reduction claim is measured here). Includes released payloads — this is
  /// the at-rest footprint, not the resident set (the pager accounts that).
  std::size_t bytes() const;

  /// One pass over the tiles in (m, k) order, spilled tiles read through
  /// read_tile: each tile's Frobenius norm, and the full symmetric matrix's
  /// (off-diagonal tiles counted twice) — the inputs of the Higham–Mary
  /// precision rule and the truncation rule.
  TileNorms norms() const;
  /// Frobenius norm of the full symmetric matrix, norms().global.
  double frobenius_norm() const;

  /// Materialize the full symmetric matrix in FP64 (tests / small problems).
  Matrix<double> to_dense() const;

  /// Open the spill tier. Throws mpgeo::Error when the backing file cannot
  /// be opened or `options.enabled` is false. Calling again replaces the
  /// previous tier (which must have no spilled tiles left).
  void enable_spill(const SpillOptions& options);
  bool spill_enabled() const { return spill_ != nullptr; }

  /// Compress tile (m, k) into its file slot and release its payload;
  /// returns the compressed bytes written (0 when the tile is already
  /// spilled). Throws when the tier is not enabled or the write fails.
  std::size_t spill(std::size_t m, std::size_t k);
  /// Write a blob the caller compressed from tile (m, k) — the off-lock
  /// half of spill(). The blob must be compress_tile(tile(m, k)) of the
  /// current payload; the payload is released here.
  std::size_t spill_with(std::size_t m, std::size_t k, CompressedBlob blob);
  /// Decompress tile (m, k) back into residency (no-op when resident).
  /// The restored payload is bit-identical to what was spilled.
  void restore(std::size_t m, std::size_t k);
  /// Read tile (m, k)'s blob (header + payload bytes) from its slot
  /// without changing its residency — read_tile and the pager's off-lock
  /// decompress read through this. Throws when not spilled.
  CompressedBlob read_spilled(std::size_t m, std::size_t k) const;
  /// Install a payload the caller decompressed from read_spilled(m, k) —
  /// the off-lock half of restore(). Marks the tile resident and frees its
  /// slot, exactly like restore().
  void install(std::size_t m, std::size_t k, AnyTile&& restored);
  /// Replace spilled tile (m, k) with a fresh zeroed payload in storage `s`,
  /// freeing its slot without decompressing the blob — the pager's write
  /// elision (a pure-Write task overwrites every value anyway) and the
  /// fill of a spill-enabled matrix without the pager.
  /// Not counted as a restore; requires the tier and the tile spilled.
  void discard_spilled(std::size_t m, std::size_t k, Storage s);
  bool spilled(std::size_t m, std::size_t k) const;

  /// Spill every resident tile; returns total compressed bytes written.
  std::size_t spill_all();
  /// Restore every spilled tile.
  void restore_all();

  SpillStats spill_stats() const;

 private:
  struct SpillState;

  std::size_t index(std::size_t m, std::size_t k) const;
  void free_slot(std::size_t idx);

  std::size_t n_ = 0;
  std::size_t nb_ = 0;
  std::size_t nt_ = 0;
  std::vector<AnyTile> tiles_;  // packed lower triangle, row-major
  std::unique_ptr<SpillState> spill_;  // null = spill tier disabled
};

}  // namespace mpgeo
