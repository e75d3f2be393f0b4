#include "linalg/tile_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "linalg/anytile.hpp"
#include "precision/float16.hpp"

namespace mpgeo {
namespace {

// ---------------------------------------------------------------------------
// Mantissa truncation
// ---------------------------------------------------------------------------

template <class Bits>
Bits truncation_mask(int mant_bits, int keep_bits) {
  // Zero the low (mant_bits - keep_bits) bits; sign/exponent unaffected.
  const int drop = mant_bits - keep_bits;
  return ~((Bits(1) << drop) - Bits(1));
}

template <class Bits>
void truncate_payload(std::span<std::byte> payload, int mant_bits,
                      int keep_bits) {
  if (keep_bits < 0 || keep_bits >= mant_bits) return;
  const Bits mask =
      truncation_mask<Bits>(mant_bits, keep_bits < 1 ? 1 : keep_bits);
  const std::size_t n = payload.size() / sizeof(Bits);
  for (std::size_t i = 0; i < n; ++i) {
    Bits b;
    std::memcpy(&b, payload.data() + i * sizeof(Bits), sizeof(Bits));
    b &= mask;
    std::memcpy(payload.data() + i * sizeof(Bits), &b, sizeof(Bits));
  }
}

// ---------------------------------------------------------------------------
// LZ token stream (LZ4-block-style)
//
//   op := token(1B)  [L-extension 255-chain]  literals[L]
//         [offset(2B LE, >= 1)  [M-extension 255-chain]]
//
// token = (min(L,15) << 4) | min(M,15), match length = M + kMinMatch. The
// offset/match half is absent when the op's literals exhaust the output —
// the decoder's loop condition, not a sentinel, terminates the stream.
// ---------------------------------------------------------------------------

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 15;
/// Positions the hash chain remembers: one per offset the format can encode.
constexpr std::size_t kWindow = kMaxOffset + 1;
/// The search gate's block: big enough that a noise block's byte counts stay
/// well below the non-uniformity threshold (Poisson(4) per value).
constexpr std::size_t kGateBlock = 1024;
/// Bytes a candidate must share with the current position to be taken (the
/// format allows 4). Hashing 6 bytes keeps short coincidental repeats of a
/// low-entropy plane from costing an op each; the seed comes from one 8-byte
/// load, so the search stops 8 bytes before the end.
constexpr std::size_t kSeed = 6;
constexpr std::size_t kSeedLoad = 8;
/// Candidates compared per searched position, and the match length that
/// ends the walk early: a longer match saves at most a token, while every
/// further candidate costs a compare that seldom predicts.
constexpr int kMaxChain = 4;
constexpr std::size_t kGoodMatch = 8;

/// Worst-case stream size for n input bytes (all literals).
constexpr std::size_t lz_bound(std::size_t n) { return n + n / 255 + 16; }
/// Copies of at most this many bytes move this many at once, so a buffer
/// written that way keeps this much slack past its data.
constexpr std::size_t kShortCopy = 16;

/// Per-thread encoder and decoder state; the hash tables are allocated by
/// a thread's first encode. Hash entries are stored as `base + position`,
/// and `base` advances past every earlier call's window, so an entry an
/// earlier call left behind always lies farther back than kMaxOffset and is
/// never followed: the output depends only on the input.
struct CodecScratch {
  std::vector<std::uint32_t> head;   // 1 << kHashBits newest positions
  std::vector<std::uint32_t> chain;  // kWindow ring: previous same-hash one
  std::uint32_t base = kWindow;
  std::vector<std::byte> out;    // encoder output, lz_bound + kShortCopy
  std::vector<std::byte> plane;  // shuffled input / decoded planes

  /// First `n` bytes of `v`, growing it (and zero-filling) only past its
  /// largest size so far.
  static std::span<std::byte> sized(std::vector<std::byte>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return {v.data(), n};
  }
};

CodecScratch& scratch() {
  thread_local CodecScratch s;
  return s;
}

/// The `bytes` bytes at p as a native-endian word, zero-extended.
std::uint64_t load_word(const std::byte* p, std::size_t bytes = 8) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, bytes);
  return v;
}

/// The low-addressed `bytes` bytes of v's native representation to p.
void store_word(std::byte* p, std::uint64_t v, std::size_t bytes) {
  std::memcpy(p, &v, bytes);
}

/// Hash of the kSeed bytes at p.
std::uint32_t hash_seed(const std::byte* p) {
  constexpr int kDrop = 8 * int(kSeedLoad - kSeed);
  const std::uint64_t v = load_word(p);
  const std::uint64_t seed =
      std::endian::native == std::endian::little ? v << kDrop : v >> kDrop;
  return std::uint32_t((seed * 0x9E3779B97F4A7C15ull) >> (64 - kHashBits));
}

/// Number of equal leading bytes of a and b, comparing while b < end
/// (a < b, so a stays in bounds too), 8 bytes at a time.
std::size_t match_length(const std::byte* a, const std::byte* b,
                         const std::byte* end) {
  const std::byte* const start = b;
  while (end - b >= 8) {
    const std::uint64_t x = load_word(a) ^ load_word(b);
    if (x != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(x)
                           : std::countl_zero(x);
      return std::size_t(b - start) + std::size_t(bits / 8);
    }
    a += 8;
    b += 8;
  }
  while (b < end && *a == *b) {
    ++a;
    ++b;
  }
  return std::size_t(b - start);
}

/// True when no byte value occurs more than 4x its uniform share of the
/// block: LZ cannot shrink such a block, so it is not searched.
bool near_uniform(const std::byte* p, std::size_t len) {
  const std::size_t limit = len / 64;  // 4 * len / 256
  std::uint16_t count[256] = {};
  for (std::size_t i = 0; i < len; ++i) {
    if (++count[std::size_t(p[i])] > limit) return false;
  }
  return true;
}

std::byte* put_extension(std::byte* op, std::size_t v) {
  // 255-chain: emit 255 while the remainder needs it, then the final byte
  // (which may be 0 and is always present so the chain self-terminates).
  for (; v >= 255; v -= 255) *op++ = std::byte{255};
  *op++ = std::byte(v);
  return op;
}

/// Append one op: literals [lit, lit + lit_len), then a match of match_len
/// bytes at `offset` (match_len 0: literals-only final op). `lit_end` bounds
/// what may be read past the literals.
std::byte* emit_op(std::byte* op, const std::byte* lit, std::size_t lit_len,
                   const std::byte* lit_end, std::size_t match_len,
                   std::size_t offset) {
  const std::size_t m = match_len ? match_len - kMinMatch : 0;
  const unsigned ln = lit_len < 15 ? unsigned(lit_len) : 15u;
  const unsigned mn = m < 15 ? unsigned(m) : 15u;
  *op++ = std::byte((ln << 4) | mn);
  if (ln == 15) op = put_extension(op, lit_len - 15);
  if (lit_len <= kShortCopy && std::size_t(lit_end - lit) >= kShortCopy) {
    std::memcpy(op, lit, kShortCopy);
  } else {
    std::memcpy(op, lit, lit_len);
  }
  op += lit_len;
  if (match_len) {
    *op++ = std::byte(offset & 0xFF);
    *op++ = std::byte((offset >> 8) & 0xFF);
    if (mn == 15) op = put_extension(op, m - 15);
  }
  return op;
}

/// Encode `in` into s.out; returns the stream length.
std::size_t lz_encode(std::span<const std::byte> in, CodecScratch& s) {
  const std::size_t n = in.size();
  MPGEO_REQUIRE(n <= std::size_t(std::numeric_limits<std::int32_t>::max()),
                "lz_compress: input too large");
  std::byte* const dst =
      CodecScratch::sized(s.out, lz_bound(n) + kShortCopy).data();
  if (s.head.empty() || std::uint64_t(s.base) + n + 2 * kWindow >
                            std::numeric_limits<std::uint32_t>::max()) {
    s.head.assign(std::size_t(1) << kHashBits, 0u);
    s.chain.resize(kWindow);
    s.base = kWindow;
  }
  const std::uint32_t base = s.base;
  s.base += std::uint32_t(n + kWindow);

  const std::byte* const src = in.data();
  std::byte* op = dst;
  std::size_t anchor = 0;  // first input byte not yet emitted
  std::size_t pos = 0;
  std::size_t misses = 0;
  std::size_t gate_end = 0;  // end of the block the gate last passed
  while (pos + kSeedLoad <= n) {
    if (pos >= gate_end) {
      const std::size_t b0 = pos - pos % kGateBlock;
      gate_end = std::min(n, b0 + kGateBlock);
      misses = 0;  // a block the gate passes starts at step 1
      if (near_uniform(src + b0, gate_end - b0)) {
        pos = gate_end;
        continue;
      }
    }
    // Insert pos, then walk at most kMaxChain earlier positions with the
    // same hash inside the window, keeping the longest match; a candidate
    // that does not share the seed (a hash collision) or a match of
    // kGoodMatch bytes ends the walk. A short chain still matters on
    // low-entropy alphabets (exponent planes, and truncated planes of mostly
    // {0x00, 0x80}): the nearest repeat often diverges at once, while one a
    // step further runs on.
    const std::uint32_t cur = base + std::uint32_t(pos);
    std::uint32_t* const slot = &s.head[hash_seed(src + pos)];
    std::uint32_t cand = *slot;
    *slot = cur;
    s.chain[cur & (kWindow - 1)] = cand;
    std::size_t best_len = 0, best_off = 0;
    for (int step = 0; step < kMaxChain && cur - cand <= kMaxOffset;
         ++step, cand = s.chain[cand & (kWindow - 1)]) {
      const std::byte* c = src + (cand - base);
      if (best_len > 0 && c[best_len] != src[pos + best_len]) continue;
      const std::size_t len = match_length(c, src + pos, src + n);
      if (len < kSeed) break;
      if (len > best_len) {
        best_len = len;
        best_off = cur - cand;
        if (len >= kGoodMatch || pos + len == n) break;
      }
    }
    if (best_len < kSeed) {
      // LZ4-style acceleration, steeper: the step grows by one with each
      // consecutive miss. Shuffled planes alternate structure and noise at
      // short range (a factor's diagonal tile: each column is a zero run,
      // then noise), and backward extension recovers what a step skipped.
      pos += ++misses;
      continue;
    }
    // Extend backwards over bytes a skipping step passed.
    while (pos > anchor && pos > best_off &&
           src[pos - 1] == src[pos - 1 - best_off]) {
      --pos;
      ++best_len;
    }
    op = emit_op(op, src + anchor, pos - anchor, src + n, best_len, best_off);
    pos += best_len;
    anchor = pos;
    misses = 0;
    // Seed the chain near the match end so adjacent repeats find it.
    if (pos + kSeedLoad <= n && pos >= 2) {
      const std::size_t p = pos - 2;
      const std::uint32_t v = base + std::uint32_t(p);
      std::uint32_t* const h = &s.head[hash_seed(src + p)];
      s.chain[v & (kWindow - 1)] = *h;
      *h = v;
    }
  }
  if (anchor < n) op = emit_op(op, src + anchor, n - anchor, src + n, 0, 0);
  return std::size_t(op - dst);
}

// ---------------------------------------------------------------------------
// Byte shuffle, 8 elements at a time: their bytes form a small byte matrix
// held in 64-bit little-endian words (one element, or a pair of elements,
// per word), transposed in registers by exchanging bit groups between words.
// A transpose is its own inverse; the 2-byte network is not a plain
// transpose, so unshuffling runs its stages in reverse order.
// ---------------------------------------------------------------------------

/// Exchange the bits of `a` under (m << sh) with the bits of `b` under m.
void swap_bits(std::uint64_t& a, std::uint64_t& b, int sh, std::uint64_t m) {
  const std::uint64_t t = ((a >> sh) ^ b) & m;
  b ^= t;
  a ^= t << sh;
}

constexpr std::uint64_t kBytes = 0x00FF00FF00FF00FFull;
constexpr std::uint64_t kPairs = 0x0000FFFF0000FFFFull;
constexpr std::uint64_t kQuads = 0x00000000FFFFFFFFull;

/// 8x8 byte-matrix transpose of the words at src + k * src_stride into the
/// words at dst + k * dst_stride (k = 0..7): dst word b byte e = src word e
/// byte b.
void transpose8(const std::byte* src, std::size_t src_stride, std::byte* dst,
                std::size_t dst_stride) {
  std::uint64_t r0 = load_word(src, 8), r1 = load_word(src + src_stride, 8),
                r2 = load_word(src + 2 * src_stride, 8),
                r3 = load_word(src + 3 * src_stride, 8),
                r4 = load_word(src + 4 * src_stride, 8),
                r5 = load_word(src + 5 * src_stride, 8),
                r6 = load_word(src + 6 * src_stride, 8),
                r7 = load_word(src + 7 * src_stride, 8);
  swap_bits(r0, r1, 8, kBytes);
  swap_bits(r2, r3, 8, kBytes);
  swap_bits(r4, r5, 8, kBytes);
  swap_bits(r6, r7, 8, kBytes);
  swap_bits(r0, r2, 16, kPairs);
  swap_bits(r1, r3, 16, kPairs);
  swap_bits(r4, r6, 16, kPairs);
  swap_bits(r5, r7, 16, kPairs);
  swap_bits(r0, r4, 32, kQuads);
  swap_bits(r1, r5, 32, kQuads);
  swap_bits(r2, r6, 32, kQuads);
  swap_bits(r3, r7, 32, kQuads);
  store_word(dst, r0, 8);
  store_word(dst + dst_stride, r1, 8);
  store_word(dst + 2 * dst_stride, r2, 8);
  store_word(dst + 3 * dst_stride, r3, 8);
  store_word(dst + 4 * dst_stride, r4, 8);
  store_word(dst + 5 * dst_stride, r5, 8);
  store_word(dst + 6 * dst_stride, r6, 8);
  store_word(dst + 7 * dst_stride, r7, 8);
}

/// Shuffle elements [i, i + 8) of an n-element payload.
void shuffle8(const std::byte* in, std::byte* out, std::size_t n,
              std::size_t i) {
  transpose8(in + i * 8, 8, out + i, n);
}

void unshuffle8(const std::byte* in, std::byte* out, std::size_t n,
                std::size_t i) {
  transpose8(in + i, n, out + i * 8, 8);
}

// Word e holds elements e and e + 4: two 4x4 transposes, one per half.
void shuffle4(const std::byte* in, std::byte* out, std::size_t n,
              std::size_t i) {
  const std::byte* p = in + i * 4;
  std::uint64_t r0 = load_word(p, 4) | load_word(p + 16, 4) << 32;
  std::uint64_t r1 = load_word(p + 4, 4) | load_word(p + 20, 4) << 32;
  std::uint64_t r2 = load_word(p + 8, 4) | load_word(p + 24, 4) << 32;
  std::uint64_t r3 = load_word(p + 12, 4) | load_word(p + 28, 4) << 32;
  swap_bits(r0, r1, 8, kBytes);
  swap_bits(r2, r3, 8, kBytes);
  swap_bits(r0, r2, 16, kPairs);
  swap_bits(r1, r3, 16, kPairs);
  store_word(out + i, r0, 8);
  store_word(out + n + i, r1, 8);
  store_word(out + 2 * n + i, r2, 8);
  store_word(out + 3 * n + i, r3, 8);
}

void unshuffle4(const std::byte* in, std::byte* out, std::size_t n,
                std::size_t i) {
  std::uint64_t r0 = load_word(in + i, 8), r1 = load_word(in + n + i, 8),
                r2 = load_word(in + 2 * n + i, 8),
                r3 = load_word(in + 3 * n + i, 8);
  swap_bits(r0, r1, 8, kBytes);
  swap_bits(r2, r3, 8, kBytes);
  swap_bits(r0, r2, 16, kPairs);
  swap_bits(r1, r3, 16, kPairs);
  std::byte* p = out + i * 4;
  store_word(p, r0, 4);
  store_word(p + 4, r1, 4);
  store_word(p + 8, r2, 4);
  store_word(p + 12, r3, 4);
  store_word(p + 16, r0 >> 32, 4);
  store_word(p + 20, r1 >> 32, 4);
  store_word(p + 24, r2 >> 32, 4);
  store_word(p + 28, r3 >> 32, 4);
}

// Words hold elements 0-3 and 4-7; three exchanges gather the even and the
// odd elements, then their low and high bytes.
void shuffle2(const std::byte* in, std::byte* out, std::size_t n,
              std::size_t i) {
  std::uint64_t a = load_word(in + i * 2, 8), b = load_word(in + i * 2 + 8, 8);
  swap_bits(a, b, 32, kQuads);
  swap_bits(a, b, 16, kPairs);
  swap_bits(a, b, 8, kBytes);
  store_word(out + i, a, 8);
  store_word(out + n + i, b, 8);
}

void unshuffle2(const std::byte* in, std::byte* out, std::size_t n,
                std::size_t i) {
  std::uint64_t a = load_word(in + i, 8), b = load_word(in + n + i, 8);
  swap_bits(a, b, 8, kBytes);
  swap_bits(a, b, 16, kPairs);
  swap_bits(a, b, 32, kQuads);
  store_word(out + i * 2, a, 8);
  store_word(out + i * 2 + 8, b, 8);
}

/// Run `Kernel` over every whole group of 8 elements; returns how many
/// elements it covered.
template <void (*Kernel)(const std::byte*, std::byte*, std::size_t,
                         std::size_t)>
std::size_t blocks(const std::byte* in, std::byte* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) Kernel(in, out, n, i);
  return i;
}

/// Elements [0, returned) transposed by the 8-element kernels; the plain
/// loop does the rest (all of it for other sizes, and on big-endian
/// targets, where the words would load the other way round).
std::size_t transpose_blocks(const std::byte* in, std::byte* out,
                             std::size_t n, std::size_t elem_size,
                             bool unshuffle) {
  if constexpr (std::endian::native != std::endian::little) return 0;
  switch (elem_size) {
    case 8:
      return unshuffle ? blocks<unshuffle8>(in, out, n)
                       : blocks<shuffle8>(in, out, n);
    case 4:
      return unshuffle ? blocks<unshuffle4>(in, out, n)
                       : blocks<shuffle4>(in, out, n);
    case 2:
      return unshuffle ? blocks<unshuffle2>(in, out, n)
                       : blocks<shuffle2>(in, out, n);
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------

std::size_t elem_size_of(Storage s) { return bytes_per_element(s); }

}  // namespace

int mantissa_bits(Storage s) {
  switch (s) {
    case Storage::FP64: return 52;
    case Storage::FP32: return 23;
    case Storage::FP16: return 10;
  }
  return 52;
}

int keep_bits_for_roundoff(double u_allowed, Storage s) {
  const int full = mantissa_bits(s);
  if (!(u_allowed > 0)) return full;
  // Smallest k with 2^-k <= u: walk down from full precision rather than
  // taking log2 (exact for the power-of-two unit roundoffs the ladder uses).
  int k = full;
  while (k > 1 && std::ldexp(1.0, -(k - 1)) <= u_allowed) --k;
  return k;
}

double truncate_mantissa(double x, int keep_bits) {
  if (keep_bits < 0 || keep_bits >= 52) return x;
  std::uint64_t b;
  std::memcpy(&b, &x, 8);
  b &= truncation_mask<std::uint64_t>(52, keep_bits < 1 ? 1 : keep_bits);
  std::memcpy(&x, &b, 8);
  return x;
}

float truncate_mantissa(float x, int keep_bits) {
  if (keep_bits < 0 || keep_bits >= 23) return x;
  std::uint32_t b;
  std::memcpy(&b, &x, 4);
  b &= truncation_mask<std::uint32_t>(23, keep_bits < 1 ? 1 : keep_bits);
  std::memcpy(&x, &b, 4);
  return x;
}

void truncate_mantissa(std::span<std::byte> payload, Storage fmt,
                       int keep_bits) {
  MPGEO_REQUIRE(payload.size() % elem_size_of(fmt) == 0,
                "truncate_mantissa: payload not a whole number of elements");
  switch (fmt) {
    case Storage::FP64:
      truncate_payload<std::uint64_t>(payload, 52, keep_bits);
      break;
    case Storage::FP32:
      truncate_payload<std::uint32_t>(payload, 23, keep_bits);
      break;
    case Storage::FP16:
      truncate_payload<std::uint16_t>(payload, 10, keep_bits);
      break;
  }
}

void byte_shuffle(std::span<const std::byte> in, std::span<std::byte> out,
                  std::size_t elem_size) {
  MPGEO_REQUIRE(elem_size > 0 && in.size() % elem_size == 0 &&
                    out.size() == in.size(),
                "byte_shuffle: size not a multiple of element size");
  const std::size_t n = in.size() / elem_size;
  const std::size_t i0 =
      transpose_blocks(in.data(), out.data(), n, elem_size, false);
  for (std::size_t b = 0; b < elem_size; ++b) {
    std::byte* plane = out.data() + b * n;
    for (std::size_t i = i0; i < n; ++i) plane[i] = in[i * elem_size + b];
  }
}

void byte_unshuffle(std::span<const std::byte> in, std::span<std::byte> out,
                    std::size_t elem_size) {
  MPGEO_REQUIRE(elem_size > 0 && in.size() % elem_size == 0 &&
                    out.size() == in.size(),
                "byte_unshuffle: size not a multiple of element size");
  const std::size_t n = in.size() / elem_size;
  const std::size_t i0 =
      transpose_blocks(in.data(), out.data(), n, elem_size, true);
  for (std::size_t b = 0; b < elem_size; ++b) {
    const std::byte* plane = in.data() + b * n;
    for (std::size_t i = i0; i < n; ++i) out[i * elem_size + b] = plane[i];
  }
}

std::vector<std::byte> lz_compress(std::span<const std::byte> in) {
  CodecScratch& s = scratch();
  const std::size_t len = lz_encode(in, s);
  return std::vector<std::byte>(s.out.begin(),
                                s.out.begin() + std::ptrdiff_t(len));
}

bool lz_decompress(std::span<const std::byte> in, std::span<std::byte> out) {
  std::size_t ip = 0, op = 0;
  const std::size_t in_size = in.size(), out_size = out.size();
  auto read_extension = [&](std::size_t base, std::size_t& v) -> bool {
    v = base;
    while (true) {
      if (ip >= in_size) return false;
      const std::size_t b = std::size_t(in[ip++]);
      v += b;
      if (b != 255) return true;
    }
  };
  while (op < out_size) {
    if (ip >= in_size) return false;
    const unsigned token = unsigned(in[ip++]);
    std::size_t lit = token >> 4;
    if (lit == 15 && !read_extension(15, lit)) return false;
    if (lit > in_size - ip || lit > out_size - op) return false;
    // A short copy may write past the literals: the next ops overwrite
    // those bytes before anything reads them.
    if (lit <= kShortCopy && in_size - ip >= kShortCopy &&
        out_size - op >= kShortCopy) {
      std::memcpy(out.data() + op, in.data() + ip, kShortCopy);
    } else {
      std::memcpy(out.data() + op, in.data() + ip, lit);
    }
    ip += lit;
    op += lit;
    if (op == out_size) break;  // final literals-only op
    if (in_size - ip < 2) return false;
    const std::size_t offset =
        std::size_t(in[ip]) | (std::size_t(in[ip + 1]) << 8);
    ip += 2;
    if (offset == 0 || offset > op) return false;
    std::size_t m = token & 0xF;
    if (m == 15 && !read_extension(15, m)) return false;
    const std::size_t match_len = m + kMinMatch;
    if (match_len > out_size - op) return false;
    std::byte* const d = out.data() + op;
    if (match_len <= kShortCopy && out_size - op >= kShortCopy) {
      if (offset >= 8) {
        // Two 8-byte steps, 16 bytes written; the second step may read what
        // the first wrote, which is the period an offset below 16 repeats.
        std::memcpy(d, d - offset, 8);
        std::memcpy(d + 8, d + 8 - offset, 8);
      } else {
        for (std::size_t i = 0; i < match_len; ++i) d[i] = d[i - offset];
      }
    } else if (offset >= match_len) {
      std::memcpy(d, d - offset, match_len);
    } else if (offset == 1) {
      std::memset(d, int(d[-1]), match_len);
    } else {
      // Overlapping match (offset < length): the output repeats with period
      // `offset`, exactly as the compressor's forward extension produced it.
      // Copy whole periods from the period before d, doubling the span as
      // the repeated prefix grows; no copy overlaps its source.
      for (std::size_t done = 0; done < match_len;) {
        const std::size_t span = std::min(done + offset, match_len - done);
        std::memcpy(d + done, d - offset, span);
        done += span;
      }
    }
    op += match_len;
  }
  return ip == in_size && op == out_size;
}

CompressedBuffer compress_bytes(std::span<const std::byte> in,
                                std::size_t elem_size) {
  MPGEO_REQUIRE(elem_size > 0 && in.size() % elem_size == 0,
                "compress_bytes: size not a multiple of element size");
  CompressedBuffer c;
  c.elem_size = std::uint32_t(elem_size);
  c.raw_bytes = in.size();
  CodecScratch& s = scratch();
  std::span<const std::byte> staged = in;
  if (elem_size > 1) {
    const std::span<std::byte> planes = CodecScratch::sized(s.plane, in.size());
    byte_shuffle(in, planes, elem_size);
    staged = planes;
  }
  const std::size_t len = lz_encode(staged, s);
  if (len < in.size()) {
    c.lz = true;
    c.data.assign(s.out.begin(), s.out.begin() + std::ptrdiff_t(len));
  } else {
    // Stored fallback: keep raw, unshuffled bytes so the decoder's stored
    // path is a plain memcpy.
    c.data.assign(in.begin(), in.end());
  }
  return c;
}

void decompress_bytes(const CompressedBuffer& c, std::span<std::byte> out) {
  MPGEO_REQUIRE(out.size() == c.raw_bytes,
                "decompress_bytes: output size does not match raw_bytes");
  if (!c.lz) {
    MPGEO_REQUIRE(c.data.size() == c.raw_bytes,
                  "decompress_bytes: malformed stored buffer");
    std::memcpy(out.data(), c.data.data(), c.data.size());
    return;
  }
  if (c.elem_size == 1) {
    MPGEO_REQUIRE(lz_decompress(c.data, out),
                  "decompress_bytes: corrupt LZ stream");
    return;
  }
  // Decode the planes into per-thread scratch, then unshuffle into `out`.
  const std::span<std::byte> planes =
      CodecScratch::sized(scratch().plane, out.size());
  MPGEO_REQUIRE(lz_decompress(c.data, planes),
                "decompress_bytes: corrupt LZ stream");
  byte_unshuffle(planes, out, c.elem_size);
}

namespace {

CompressedBlob compress_raw(Storage fmt, std::size_t rows, std::size_t cols,
                            std::span<const std::byte> bytes) {
  CompressedBlob c;
  c.format = fmt;
  c.rows = std::uint32_t(rows);
  c.cols = std::uint32_t(cols);
  c.buf = compress_bytes(bytes, elem_size_of(fmt));
  return c;
}

}  // namespace

CompressedBlob compress_payload(const WirePayload& p) {
  return compress_raw(p.format, p.rows, p.cols, p.bytes);
}

CompressedBlob compress_tile(const AnyTile& t) {
  return compress_raw(t.storage(), t.rows(), t.cols(), t.raw_bytes());
}

WirePayload decompress_payload(const CompressedBlob& c) {
  WirePayload p;
  p.format = c.format;
  p.rows = c.rows;
  p.cols = c.cols;
  const std::size_t expect =
      std::size_t(c.rows) * c.cols * elem_size_of(c.format);
  MPGEO_REQUIRE(c.buf.raw_bytes == expect,
                "decompress_payload: header/raw size mismatch");
  p.bytes.resize(expect);
  decompress_bytes(c.buf, p.bytes);
  return p;
}

void decompress_into(const CompressedBlob& c, AnyTile& dst) {
  if (dst.storage() != c.format) {
    deserialize_into(decompress_payload(c), dst);  // widening at the receiver
    return;
  }
  MPGEO_REQUIRE(dst.rows() == c.rows && dst.cols() == c.cols,
                "decompress_into: dimension mismatch");
  MPGEO_REQUIRE(c.buf.raw_bytes == dst.bytes(),
                "decompress_into: header/raw size mismatch");
  decompress_bytes(c.buf, dst.raw_bytes());
}

}  // namespace mpgeo
