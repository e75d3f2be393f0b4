// Precision-erased tile: the unit of storage, communication and computation
// in the mixed-precision tile Cholesky.
//
// A tile owns a column-major buffer in one of the three Storage formats
// (Fig 2b of the paper). Kernels materialize tiles to double (exact for every
// format), run the emulated-precision arithmetic, and write back through the
// tile's storage rounding — exactly what happens on a GPU where a tile held
// in FP32 is consumed by a tensor-core FP16_32 GEMM.
#pragma once

#include <cstddef>
#include <span>
#include <variant>
#include <vector>

#include "precision/float16.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

class AnyTile {
 public:
  AnyTile() = default;
  AnyTile(std::size_t rows, std::size_t cols, Storage storage);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  Storage storage() const { return storage_; }

  /// Bytes this tile occupies at rest (and on the wire when sent as-is).
  std::size_t bytes() const;

  /// Copy out, widening exactly to double.
  void to_double(std::span<double> out) const;
  std::vector<double> to_double() const;

  /// Copy out in float: out[i + j*rows] = float((*this)(i, j)). Exact for
  /// FP32/FP16 storage; for FP64 storage the cast rounds to nearest float —
  /// which is precisely the first rounding step of every sub-FP64
  /// `round_inputs` chain, so a float pack rounded in float domain is
  /// bit-identical (after widening) to the double pack for those formats.
  void to_float(std::span<float> out) const;

  /// Copy in, rounding through the tile's storage format.
  void from_double(std::span<const double> in);

  /// Round the payload through wire storage format `w` in place, in the
  /// tile's own format — no double round trip. No-op when `w` is not
  /// narrower than the stored format. Bit-identical to
  /// to_double + round_through(buf, w) + from_double for FP64/FP32 storage.
  void round_through_wire(Storage w);

  /// Re-store the tile's payload in a different format (values round through
  /// the new format; widening does not recover lost bits). A released tile
  /// has no payload to convert, so it is only relabelled, and only to a
  /// format at least as wide: the payload that is later decoded into it
  /// (TileMatrix's spill tier) is then widened exactly.
  void convert_storage(Storage new_storage);

  /// Frobenius norm of the stored values.
  double frobenius_norm() const;

  /// Element access (widened); row-major callers beware: (i, j) column major.
  double at(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double v);

  /// Raw storage bytes of the payload (column-major, in the tile's own
  /// format). Used by the wire codec for verbatim serialize/deserialize;
  /// also the basis of bitwise tile comparison in tests.
  std::span<const std::byte> raw_bytes() const;
  std::span<std::byte> raw_bytes();

  /// Free the payload buffer, keeping dims and storage format. Used by the
  /// TileMatrix spill tier after the payload has been written out; reading a
  /// released tile's elements is a caller bug. `bytes()` still reports the
  /// at-rest footprint the payload would occupy.
  void release();
  /// True when the payload buffer is allocated (i.e. not released).
  bool resident() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Storage storage_ = Storage::FP64;
  std::variant<std::vector<double>, std::vector<float>, std::vector<float16>>
      buf_;
};

}  // namespace mpgeo
