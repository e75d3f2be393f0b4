// Compressed tile storage and wire format — one level *below* the precision
// ladder.
//
// The ladder (FP64/FP32/FP16) shrinks tiles in whole-IEEE-type jumps. The
// Higham–Mary rule usually leaves slack between the precision a tile *needs*
// and the rung it landed on; GDAL RFC 99 (SNIPPETS.md) shows how to harvest
// that slack without changing type: zero the least-significant mantissa bits
// down to the declared precision, then let a lossless entropy stage compress
// the (now highly repetitive) low bytes away. Truncation happens in place on
// the stored values (truncate_mantissa, before anything is compressed or
// shipped); the codec itself is
//
//   byte-shuffle  ->  LZ
//
// and every stage is exactly invertible over what the previous stage emitted,
// so decompress(compress(x)) is bit-identical to x — to trunc_k(x) when the
// caller truncated first.
//
// The LZ stage is a small self-contained LZ77 byte codec (hash matching,
// 16-bit offsets, LZ4-block-style token stream). It searches only where a
// search can pay: the input is cut into fixed 1 KiB blocks and a block whose
// byte histogram is near uniform (the noise planes of a shuffled tile) is
// emitted as literals without hashing. Searched blocks hash 6-byte seeds,
// compare at most 4 earlier positions with the same hash (stopping at an
// 8-byte match), extend matches 8 bytes at a time, and lengthen the step
// after consecutive misses (LZ4's acceleration). Every decision depends only on the input bytes, so the
// codec is fully deterministic — same input, same bytes out — which the
// wire-byte reconciliation (measured == logged == replayed) depends on. When
// a buffer is incompressible the codec falls back to storing it verbatim, so
// compressed size never exceeds raw size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/wire_codec.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

class AnyTile;

/// Explicit mantissa bits a storage format carries: 52 / 23 / 10.
int mantissa_bits(Storage s);

/// Smallest keep-bits k such that the truncation bound 2^-k <= u_allowed,
/// clamped to [1, mantissa_bits(s)]. This converts a Higham–Mary-allowed
/// unit roundoff directly into a truncation depth finer than the ladder.
int keep_bits_for_roundoff(double u_allowed, Storage s);

/// Zero all mantissa bits below bit (mantissa_bits - keep_bits) of the IEEE
/// representation — truncation toward zero in magnitude. Idempotent, and for
/// normal x error-bounded by |x - trunc_k(x)| <= 2^-k * |x|. keep_bits >=
/// mantissa_bits (or < 0) is a no-op; sign and exponent are never touched.
double truncate_mantissa(double x, int keep_bits);
float truncate_mantissa(float x, int keep_bits);

/// In-place truncation of a raw element payload (column-major bytes of
/// `fmt`, as stored by AnyTile / shipped by WirePayload).
void truncate_mantissa(std::span<std::byte> payload, Storage fmt,
                       int keep_bits);

/// Byte-plane transpose: out[b * n + i] = in[i * elem_size + b] for n
/// elements of elem_size bytes. Groups sign/exponent bytes (near-constant on
/// a covariance tile) and truncated-zero bytes into long runs the LZ stage
/// can eat. in.size() must be a multiple of elem_size; out.size() == in.size().
/// Element sizes 2, 4 and 8 transpose 8 elements at a time in registers;
/// other sizes take the plain loop.
void byte_shuffle(std::span<const std::byte> in, std::span<std::byte> out,
                  std::size_t elem_size);
void byte_unshuffle(std::span<const std::byte> in, std::span<std::byte> out,
                    std::size_t elem_size);

/// Deterministic LZ77 compression of an arbitrary byte string (the codec's
/// entropy stage; exposed for tests). Worst case output is slightly larger
/// than the input — compress_bytes handles the stored fallback.
std::vector<std::byte> lz_compress(std::span<const std::byte> in);

/// Inverse of lz_compress into an exactly-sized output span. Returns false
/// on a malformed or truncated stream (never reads or writes out of bounds).
bool lz_decompress(std::span<const std::byte> in, std::span<std::byte> out);

/// A compressed byte buffer plus the flags needed to invert it. With `lz`
/// set, `data` is the LZ stream of the byte-shuffled input (elem_size > 1)
/// or of the input itself (elem_size == 1); otherwise `data` holds the input
/// verbatim (the incompressible fallback). size_bytes() <= raw_bytes always.
struct CompressedBuffer {
  std::uint32_t elem_size = 1;
  bool lz = false;
  std::uint64_t raw_bytes = 0;
  std::vector<std::byte> data;

  std::size_t size_bytes() const { return data.size(); }
};

/// Compress `in` (n elements of `elem_size` bytes). Format-agnostic and
/// lossless.
CompressedBuffer compress_bytes(std::span<const std::byte> in,
                                std::size_t elem_size);

/// Exact inverse; `out` must be exactly raw_bytes long. Throws mpgeo::Error
/// on size mismatch or a corrupt stream.
void decompress_bytes(const CompressedBuffer& c, std::span<std::byte> out);

/// A compressed tile: the WirePayload header plus the compressed payload.
struct CompressedBlob {
  Storage format = Storage::FP64;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  CompressedBuffer buf;

  std::size_t size_bytes() const { return buf.size_bytes(); }
  std::size_t raw_bytes() const { return std::size_t(buf.raw_bytes); }
};

/// Compress a serialized payload (the STC wire path: the sender has already
/// converted to wire format; compression rides on top). The round trip
/// reproduces `p.bytes` bit-exactly.
CompressedBlob compress_payload(const WirePayload& p);

/// Compress a tile at its own storage format (the at-rest path: TileMatrix
/// spill), shuffling straight from the tile's payload.
CompressedBlob compress_tile(const AnyTile& t);

/// Exact inverses. decompress_into requires dst pre-sized rows x cols with
/// storage >= the blob format (same contract as deserialize_into); when the
/// formats match it decodes straight into dst's payload.
WirePayload decompress_payload(const CompressedBlob& c);
void decompress_into(const CompressedBlob& c, AnyTile& dst);

}  // namespace mpgeo
