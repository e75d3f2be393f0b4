#include "core/tile_matrix.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "linalg/tile_codec.hpp"
#include "obs/metrics.hpp"

namespace mpgeo {

/// Out-of-core backing store: one append-only stdio file plus a per-tile
/// directory of (offset, header) for the live blob of each spilled tile.
struct TileMatrix::SpillState {
  SpillOptions options;
  std::FILE* file = nullptr;

  struct Slot {
    CompressedBlob header;  ///< blob metadata; header.buf.data stays empty
    long offset = -1;       ///< file offset of the blob's data bytes
    std::size_t data_bytes = 0;
    bool spilled = false;
  };
  std::vector<Slot> slots;
  SpillStats stats;

  ~SpillState() {
    if (file) std::fclose(file);
  }
};

namespace {

std::FILE* open_spill_file(const std::string& path) {
  std::FILE* f =
      path.empty() ? std::tmpfile() : std::fopen(path.c_str(), "w+b");
  MPGEO_REQUIRE(f != nullptr, "TileMatrix: cannot open spill backing file");
  return f;
}

}  // namespace

TileMatrix::TileMatrix(std::size_t n, std::size_t nb) : n_(n), nb_(nb) {
  MPGEO_REQUIRE(n >= 1, "TileMatrix: empty matrix");
  MPGEO_REQUIRE(nb >= 1, "TileMatrix: tile size must be positive");
  nt_ = (n + nb - 1) / nb;
  tiles_.reserve(nt_ * (nt_ + 1) / 2);
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      tiles_.emplace_back(tile_rows(m), tile_rows(k), Storage::FP64);
    }
  }
}

TileMatrix::TileMatrix(const TileMatrix& other)
    : n_(other.n_), nb_(other.nb_), nt_(other.nt_) {
  tiles_ = other.tiles_;  // released payloads copy as released
  if (!other.spill_) return;
  // Materialize the source's spilled tiles through the codec without
  // touching its residency: read the live blob, decompress into a fresh
  // payload. Restores are bit-exact, so the copy equals a resident copy.
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (!other.spilled(m, k)) continue;
      const std::size_t idx = index(m, k);
      AnyTile fresh(tiles_[idx].rows(), tiles_[idx].cols(),
                    tiles_[idx].storage());
      decompress_into(other.read_spilled(m, k), fresh);
      tiles_[idx] = std::move(fresh);
    }
  }
}

TileMatrix& TileMatrix::operator=(const TileMatrix& other) {
  if (this == &other) return *this;
  if (spill_) {
    // Overwriting spilled tiles strands their live blobs as log garbage
    // (the next compaction reclaims them). A geometry-matched destination
    // keeps its tier usable, otherwise the slot directory no longer fits
    // and the tier is dropped.
    for (std::size_t idx = 0; idx < spill_->slots.size(); ++idx) {
      if (spill_->slots[idx].spilled) drop_slot_garbage(idx);
    }
    if (n_ != other.n_ || nb_ != other.nb_) spill_.reset();
  }
  TileMatrix copy(other);  // materializes other's spilled tiles
  n_ = copy.n_;
  nb_ = copy.nb_;
  nt_ = copy.nt_;
  tiles_ = std::move(copy.tiles_);
  if (spill_) {
    spill_->stats.resident_bytes = bytes();
    note_resident_delta(0);  // refresh peak + gauges
  }
  return *this;
}

TileMatrix::TileMatrix(TileMatrix&&) noexcept = default;
TileMatrix& TileMatrix::operator=(TileMatrix&&) noexcept = default;
TileMatrix::~TileMatrix() = default;

std::size_t TileMatrix::tile_rows(std::size_t m) const {
  MPGEO_ASSERT(m < nt_);
  return (m + 1 == nt_) ? n_ - m * nb_ : nb_;
}

std::size_t TileMatrix::index(std::size_t m, std::size_t k) const {
  MPGEO_REQUIRE(m < nt_ && k <= m,
                "TileMatrix: tile index outside lower triangle");
  return m * (m + 1) / 2 + k;
}

AnyTile& TileMatrix::tile(std::size_t m, std::size_t k) {
  return tiles_[index(m, k)];
}

const AnyTile& TileMatrix::tile(std::size_t m, std::size_t k) const {
  return tiles_[index(m, k)];
}

void TileMatrix::set_storage(std::size_t m, std::size_t k, Storage s) {
  const std::size_t idx = index(m, k);
  MPGEO_REQUIRE(!spilled(m, k),
                "TileMatrix::set_storage: tile is spilled (restore first)");
  const std::ptrdiff_t before = std::ptrdiff_t(tiles_[idx].bytes());
  tiles_[idx] = AnyTile(tile_rows(m), tile_rows(k), s);
  note_resident_delta(std::ptrdiff_t(tiles_[idx].bytes()) - before);
}

void TileMatrix::reset_storage(Storage s) {
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (tile(m, k).storage() != s) set_storage(m, k, s);
    }
  }
}

std::size_t TileMatrix::bytes() const {
  std::size_t total = 0;
  for (const AnyTile& t : tiles_) total += t.bytes();
  return total;
}

double TileMatrix::frobenius_norm() const {
  double acc = 0.0;
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const double f = tile(m, k).frobenius_norm();
      acc += (m == k ? 1.0 : 2.0) * f * f;  // off-diagonal mirrored
    }
  }
  return std::sqrt(acc);
}

void TileMatrix::enable_spill(const SpillOptions& options) {
  MPGEO_REQUIRE(options.enabled, "TileMatrix::enable_spill: options.enabled "
                                 "is false");
  if (spill_) {
    MPGEO_REQUIRE(spill_->stats.spilled_bytes == 0,
                  "TileMatrix::enable_spill: previous tier still holds "
                  "spilled tiles");
  }
  auto state = std::make_unique<SpillState>();
  state->options = options;
  state->file = open_spill_file(options.path);
  state->slots.resize(tiles_.size());
  state->stats.resident_bytes = bytes();  // tier starts fully resident
  state->stats.peak_resident_bytes = state->stats.resident_bytes;
  spill_ = std::move(state);
  note_resident_delta(0);  // publish the initial gauges
}

std::size_t TileMatrix::spill(std::size_t m, std::size_t k) {
  MPGEO_REQUIRE(spill_ != nullptr, "TileMatrix::spill: tier not enabled");
  if (spilled(m, k)) return 0;
  return spill_with(m, k, compress_tile(tiles_[index(m, k)]));
}

std::size_t TileMatrix::spill_with(std::size_t m, std::size_t k,
                                   CompressedBlob blob) {
  MPGEO_REQUIRE(spill_ != nullptr, "TileMatrix::spill_with: tier not enabled");
  const std::size_t idx = index(m, k);
  SpillState::Slot& slot = spill_->slots[idx];
  MPGEO_REQUIRE(!slot.spilled, "TileMatrix::spill_with: tile already spilled");
  AnyTile& t = tiles_[idx];
  MPGEO_REQUIRE(t.resident(), "TileMatrix::spill_with: tile payload missing");
  MPGEO_REQUIRE(blob.rows == t.rows() && blob.cols == t.cols(),
                "TileMatrix::spill_with: blob does not match the tile");

  const bool seek_ok = std::fseek(spill_->file, 0, SEEK_END) == 0;
  slot.offset = seek_ok ? std::ftell(spill_->file) : -1;
  const bool write_ok =
      slot.offset >= 0 &&
      std::fwrite(blob.buf.data.data(), 1, blob.buf.data.size(),
                  spill_->file) == blob.buf.data.size();
  MPGEO_REQUIRE(write_ok, "TileMatrix::spill: write to backing file failed");
  slot.data_bytes = blob.buf.data.size();
  blob.buf.data = std::vector<std::byte>();  // header only; frees the bytes
  slot.header = std::move(blob);
  slot.spilled = true;
  const std::size_t released = t.bytes();
  t.release();

  spill_->stats.spills += 1;
  spill_->stats.spilled_bytes += slot.data_bytes;
  spill_->stats.file_bytes += slot.data_bytes;
  spill_->stats.log_bytes += slot.data_bytes;
  note_resident_delta(-std::ptrdiff_t(released));
  if (spill_->options.metrics) {
    spill_->options.metrics->counter("tile.spills").add(1);
  }
  const std::size_t appended = slot.data_bytes;
  maybe_autocompact();
  return appended;
}

void TileMatrix::restore(std::size_t m, std::size_t k) {
  MPGEO_REQUIRE(spill_ != nullptr, "TileMatrix::restore: tier not enabled");
  if (!spilled(m, k)) return;
  const AnyTile& t = tiles_[index(m, k)];
  AnyTile fresh(t.rows(), t.cols(), t.storage());
  decompress_into(read_spilled(m, k), fresh);
  install(m, k, std::move(fresh));
}

CompressedBlob TileMatrix::read_spilled(std::size_t m, std::size_t k) const {
  MPGEO_REQUIRE(spill_ != nullptr,
                "TileMatrix::read_spilled: tier not enabled");
  const SpillState::Slot& slot = spill_->slots[index(m, k)];
  MPGEO_REQUIRE(slot.spilled, "TileMatrix::read_spilled: tile not spilled");
  CompressedBlob blob = slot.header;
  blob.buf.data.resize(slot.data_bytes);
  const bool read_ok =
      std::fseek(spill_->file, slot.offset, SEEK_SET) == 0 &&
      std::fread(blob.buf.data.data(), 1, slot.data_bytes, spill_->file) ==
          slot.data_bytes;
  MPGEO_REQUIRE(read_ok, "TileMatrix::restore: read from backing file failed");
  return blob;
}

void TileMatrix::install(std::size_t m, std::size_t k, AnyTile&& restored) {
  MPGEO_REQUIRE(spill_ != nullptr, "TileMatrix::install: tier not enabled");
  const std::size_t idx = index(m, k);
  MPGEO_REQUIRE(spill_->slots[idx].spilled,
                "TileMatrix::install: tile not spilled");
  AnyTile& t = tiles_[idx];
  MPGEO_REQUIRE(restored.resident() && restored.rows() == t.rows() &&
                    restored.cols() == t.cols() &&
                    restored.storage() == t.storage(),
                "TileMatrix::install: payload does not match the tile");
  t = std::move(restored);

  drop_slot_garbage(idx);  // the appended blob becomes log garbage
  spill_->stats.restores += 1;
  note_resident_delta(std::ptrdiff_t(t.bytes()));
  if (spill_->options.metrics) {
    spill_->options.metrics->counter("tile.restores").add(1);
  }
}

void TileMatrix::discard_spilled(std::size_t m, std::size_t k, Storage s) {
  MPGEO_REQUIRE(spill_ != nullptr,
                "TileMatrix::discard_spilled: tier not enabled");
  const std::size_t idx = index(m, k);
  MPGEO_REQUIRE(spill_->slots[idx].spilled,
                "TileMatrix::discard_spilled: tile not spilled");
  AnyTile& t = tiles_[idx];
  t = AnyTile(t.rows(), t.cols(), s);
  drop_slot_garbage(idx);  // stale blob becomes log garbage, undecompressed
  note_resident_delta(std::ptrdiff_t(t.bytes()));
  if (spill_->options.metrics) {
    spill_->options.metrics->counter("tile.discards").add(1);
  }
}

bool TileMatrix::spilled(std::size_t m, std::size_t k) const {
  if (!spill_) return false;
  return spill_->slots[index(m, k)].spilled;
}

std::size_t TileMatrix::spill_all() {
  std::size_t total = 0;
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) total += spill(m, k);
  }
  return total;
}

void TileMatrix::restore_all() {
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) restore(m, k);
  }
}

std::size_t TileMatrix::compact() {
  if (!spill_) return 0;
  SpillStats& st = spill_->stats;
  const std::size_t garbage = st.garbage_bytes();
  if (garbage == 0) return 0;

  // Rewrite live blobs into a fresh log. For a named path the copy goes to
  // `path + ".compact"` and is renamed over the old log; the open handle
  // survives the rename (same inode), so no reopen is needed.
  const std::string& path = spill_->options.path;
  const std::string tmp_path = path.empty() ? path : path + ".compact";
  std::FILE* fresh = open_spill_file(tmp_path);
  std::vector<unsigned char> buf;
  for (SpillState::Slot& slot : spill_->slots) {
    if (!slot.spilled) continue;
    buf.resize(slot.data_bytes);
    const bool read_ok =
        std::fseek(spill_->file, slot.offset, SEEK_SET) == 0 &&
        std::fread(buf.data(), 1, slot.data_bytes, spill_->file) ==
            slot.data_bytes;
    MPGEO_REQUIRE(read_ok, "TileMatrix::compact: read from old log failed");
    const long offset = std::ftell(fresh);
    const bool write_ok =
        offset >= 0 &&
        std::fwrite(buf.data(), 1, slot.data_bytes, fresh) == slot.data_bytes;
    MPGEO_REQUIRE(write_ok, "TileMatrix::compact: write to fresh log failed");
    slot.offset = offset;
  }
  std::fclose(spill_->file);
  if (!path.empty()) {
    MPGEO_REQUIRE(std::rename(tmp_path.c_str(), path.c_str()) == 0,
                  "TileMatrix::compact: cannot rename fresh log into place");
  }
  spill_->file = fresh;

  st.compactions += 1;
  st.file_bytes += st.spilled_bytes;  // live bytes copied into the fresh log
  st.log_bytes = st.spilled_bytes;
  if (spill_->options.metrics) {
    spill_->options.metrics->counter("tile.compactions").add(1);
    spill_->options.metrics->counter("tile.compacted_bytes").add(garbage);
  }
  return garbage;
}

SpillStats TileMatrix::spill_stats() const {
  return spill_ ? spill_->stats : SpillStats{};
}

void TileMatrix::resync_resident_bytes() {
  if (!spill_) return;
  std::size_t resident = 0;
  for (const AnyTile& t : tiles_) {
    if (t.resident()) resident += t.bytes();
  }
  spill_->stats.resident_bytes = resident;
  note_resident_delta(0);  // refresh peak + gauges
}

void TileMatrix::drop_slot_garbage(std::size_t idx) {
  SpillState::Slot& slot = spill_->slots[idx];
  MPGEO_ASSERT(slot.spilled);
  spill_->stats.spilled_bytes -= slot.data_bytes;
  // log_bytes is unchanged — the blob still occupies the file until the
  // next compaction — so garbage_bytes() grows by exactly this much.
  if (spill_->options.metrics) {
    spill_->options.metrics->counter("tile.log_garbage_bytes")
        .add(slot.data_bytes);
  }
  slot = SpillState::Slot{};
}

void TileMatrix::note_resident_delta(std::ptrdiff_t delta) {
  if (!spill_) return;
  SpillStats& st = spill_->stats;
  st.resident_bytes = std::size_t(std::ptrdiff_t(st.resident_bytes) + delta);
  if (st.resident_bytes > st.peak_resident_bytes) {
    st.peak_resident_bytes = st.resident_bytes;
  }
  if (spill_->options.metrics) {
    spill_->options.metrics->gauge("tile.resident_bytes")
        .set(double(st.resident_bytes));
    spill_->options.metrics->gauge("tile.peak_resident_bytes")
        .set_max(double(st.peak_resident_bytes));
  }
}

void TileMatrix::maybe_autocompact() {
  const SpillOptions& opt = spill_->options;
  if (opt.compact_garbage_ratio <= 0.0) return;
  const SpillStats& st = spill_->stats;
  if (st.log_bytes < opt.compact_min_bytes) return;
  if (double(st.garbage_bytes()) >
      opt.compact_garbage_ratio * double(st.log_bytes)) {
    compact();
  }
}

Matrix<double> TileMatrix::to_dense() const {
  Matrix<double> out(n_, n_);
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const AnyTile& t = tile(m, k);
      for (std::size_t j = 0; j < t.cols(); ++j) {
        for (std::size_t i = 0; i < t.rows(); ++i) {
          // Diagonal tiles: the strictly-upper part is not stored content
          // (a factored tile keeps zeros there); mirror only from below.
          if (m == k && i < j) continue;
          const double v = t.at(i, j);
          const std::size_t gi = m * nb_ + i;
          const std::size_t gj = k * nb_ + j;
          out(gi, gj) = v;
          out(gj, gi) = v;
        }
      }
    }
  }
  return out;
}

}  // namespace mpgeo
