#include "core/tile_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "linalg/tile_codec.hpp"
#include "obs/metrics.hpp"

namespace mpgeo {

/// Out-of-core backing store: one stdio file with a fixed slot of
/// `slot_bytes` per tile at `packed index x slot_bytes`, plus a per-tile
/// directory of the header and size of the blob in each spilled tile's slot.
struct TileMatrix::SpillState {
  SpillOptions options;
  std::FILE* file = nullptr;
  std::size_t slot_bytes = 0;  ///< nb^2 x 8: the widest raw tile payload

  struct Slot {
    CompressedBlob header;  ///< blob metadata; header.buf.data stays empty
    std::size_t data_bytes = 0;
    bool spilled = false;
  };
  std::vector<Slot> slots;
  SpillStats stats;

  long offset(std::size_t idx) const { return long(idx * slot_bytes); }

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
  // Decode the source's spilled tiles straight into the copy's released
  // payloads, leaving the source's residency alone.
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (other.spilled(m, k)) other.read_tile(m, k, tiles_[index(m, k)]);
    }
  }
}

TileMatrix& TileMatrix::operator=(const TileMatrix& other) {
  if (this == &other) return *this;
  if (spill_) {
    // The destination comes back fully resident, so every slot is free. A
    // geometry-matched destination keeps its tier usable, otherwise the
    // slot directory no longer fits and the tier is dropped.
    if (n_ != other.n_ || nb_ != other.nb_) {
      spill_.reset();
    } else {
      spill_->slots.assign(spill_->slots.size(), SpillState::Slot{});
      spill_->stats.spilled_bytes = 0;
    }
  }
  TileMatrix copy(other);  // materializes other's spilled tiles
  n_ = copy.n_;
  nb_ = copy.nb_;
  nt_ = copy.nt_;
  tiles_ = std::move(copy.tiles_);
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

const AnyTile& TileMatrix::read_tile(std::size_t m, std::size_t k,
                                     AnyTile& scratch) const {
  const AnyTile& t = tile(m, k);
  if (!spilled(m, k)) return t;
  if (!scratch.resident() || scratch.rows() != t.rows() ||
      scratch.cols() != t.cols() || scratch.storage() != t.storage()) {
    scratch = AnyTile(t.rows(), t.cols(), t.storage());
  }
  decompress_into(read_spilled(m, k), scratch);
  return scratch;
}

void TileMatrix::set_storage(std::size_t m, std::size_t k, Storage s) {
  const std::size_t idx = index(m, k);
  MPGEO_REQUIRE(!spilled(m, k),
                "TileMatrix::set_storage: tile is spilled (restore first)");
  tiles_[idx] = AnyTile(tile_rows(m), tile_rows(k), s);
}

void TileMatrix::reset_storage(Storage s) {
  // A spilled tile is released, so convert_storage only relabels it: its
  // blob stays in its slot and whatever decodes it next widens it.
  for (AnyTile& t : tiles_) t.convert_storage(s);
}

std::size_t TileMatrix::bytes() const {
  std::size_t total = 0;
  for (const AnyTile& t : tiles_) total += t.bytes();
  return total;
}

TileNorms TileMatrix::norms() const {
  TileNorms out;
  out.tiles.reserve(tiles_.size());
  AnyTile scratch;
  double acc = 0.0;
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const double f = read_tile(m, k, scratch).frobenius_norm();
      out.tiles.push_back(f);
      acc += (m == k ? 1.0 : 2.0) * f * f;  // off-diagonal mirrored
    }
  }
  out.global = std::sqrt(acc);
  return out;
}

double TileMatrix::frobenius_norm() const { return norms().global; }

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
  state->slot_bytes = nb_ * nb_ * sizeof(double);
  state->slots.resize(tiles_.size());
  spill_ = std::move(state);
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

  // The codec never outputs more than the raw payload, so the blob fits the
  // slot and a re-spill overwrites only its own tile's bytes.
  const std::size_t data_bytes = blob.buf.data.size();
  MPGEO_REQUIRE(data_bytes <= spill_->slot_bytes,
                "TileMatrix::spill_with: blob larger than its slot");
  const long offset = spill_->offset(idx);
  const bool write_ok =
      std::fseek(spill_->file, offset, SEEK_SET) == 0 &&
      std::fwrite(blob.buf.data.data(), 1, data_bytes, spill_->file) ==
          data_bytes;
  MPGEO_REQUIRE(write_ok, "TileMatrix::spill: write to backing file failed");
  slot.data_bytes = data_bytes;
  blob.buf.data = std::vector<std::byte>();  // header only; frees the bytes
  slot.header = std::move(blob);
  slot.spilled = true;
  t.release();

  SpillStats& st = spill_->stats;
  st.spills += 1;
  st.spilled_bytes += data_bytes;
  st.file_bytes = std::max(st.file_bytes, std::size_t(offset) + data_bytes);
  if (spill_->options.metrics) {
    spill_->options.metrics->counter("tile.spills").add(1);
  }
  return data_bytes;
}

void TileMatrix::restore(std::size_t m, std::size_t k) {
  MPGEO_REQUIRE(spill_ != nullptr, "TileMatrix::restore: tier not enabled");
  if (!spilled(m, k)) return;
  AnyTile fresh;
  read_tile(m, k, fresh);
  install(m, k, std::move(fresh));
}

CompressedBlob TileMatrix::read_spilled(std::size_t m, std::size_t k) const {
  MPGEO_REQUIRE(spill_ != nullptr,
                "TileMatrix::read_spilled: tier not enabled");
  const std::size_t idx = index(m, k);
  const SpillState::Slot& slot = spill_->slots[idx];
  MPGEO_REQUIRE(slot.spilled, "TileMatrix::read_spilled: tile not spilled");
  CompressedBlob blob = slot.header;
  blob.buf.data.resize(slot.data_bytes);
  const bool read_ok =
      std::fseek(spill_->file, spill_->offset(idx), SEEK_SET) == 0 &&
      std::fread(blob.buf.data.data(), 1, slot.data_bytes, spill_->file) ==
          slot.data_bytes;
  MPGEO_REQUIRE(read_ok,
                "TileMatrix::read_spilled: read from backing file failed");
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
  free_slot(idx);
  spill_->stats.restores += 1;
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
  free_slot(idx);  // the stale blob is never decompressed
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

SpillStats TileMatrix::spill_stats() const {
  return spill_ ? spill_->stats : SpillStats{};
}

void TileMatrix::free_slot(std::size_t idx) {
  SpillState::Slot& slot = spill_->slots[idx];
  MPGEO_ASSERT(slot.spilled);
  spill_->stats.spilled_bytes -= slot.data_bytes;
  slot = SpillState::Slot{};
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
