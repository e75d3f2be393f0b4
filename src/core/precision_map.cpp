#include "core/precision_map.hpp"

#include "common/error.hpp"
#include "linalg/tile_codec.hpp"

namespace mpgeo {
namespace {

/// Mantissa bits the truncation rule keeps beyond what the Higham–Mary
/// slack requires.
constexpr int kTruncationGuardBits = 2;

}  // namespace

std::vector<Precision> default_precision_ladder() {
  return {Precision::FP64, Precision::FP32, Precision::FP16_32,
          Precision::FP16};
}

PrecisionMap::PrecisionMap(std::size_t nt, Precision fill)
    : nt_(nt), kernel_(nt * (nt + 1) / 2, fill) {}

std::size_t PrecisionMap::idx(std::size_t m, std::size_t k) const {
  MPGEO_REQUIRE(m < nt_ && k <= m,
                "PrecisionMap: tile index outside lower triangle");
  return m * (m + 1) / 2 + k;
}

Precision PrecisionMap::kernel(std::size_t m, std::size_t k) const {
  return kernel_[idx(m, k)];
}

void PrecisionMap::set_kernel(std::size_t m, std::size_t k, Precision p) {
  kernel_[idx(m, k)] = p;
}

Storage PrecisionMap::storage(std::size_t m, std::size_t k) const {
  return storage_for(kernel(m, k));
}

Precision PrecisionMap::trsm_precision(std::size_t m, std::size_t k) const {
  return kernel(m, k) == Precision::FP64 ? Precision::FP64 : Precision::FP32;
}

std::map<Precision, double> PrecisionMap::tile_fractions() const {
  std::map<Precision, double> out;
  for (Precision p : kernel_) out[p] += 1.0;
  for (auto& [p, v] : out) v /= double(kernel_.size());
  return out;
}

PrecisionMap build_precision_map_from_norms(std::size_t nt,
                                            std::span<const double> tile_norms,
                                            double global_norm, double u_req,
                                            std::span<const Precision> ladder,
                                            double fp16_32_eps) {
  MPGEO_REQUIRE(fp16_32_eps >= 0.0, "precision map: negative FP16_32 epsilon");
  const auto u_low = [&](Precision p) {
    if (fp16_32_eps > 0.0 &&
        (p == Precision::FP16_32 || p == Precision::BF16_32)) {
      return fp16_32_eps;
    }
    return unit_roundoff(p);
  };
  MPGEO_REQUIRE(tile_norms.size() == nt * (nt + 1) / 2,
                "precision map: tile norm count mismatch");
  MPGEO_REQUIRE(global_norm > 0.0, "precision map: zero matrix norm");
  MPGEO_REQUIRE(u_req > 0.0 && u_req < 1.0,
                "precision map: u_req must be in (0, 1)");
  MPGEO_REQUIRE(!ladder.empty() && ladder.front() == Precision::FP64,
                "precision map: ladder must start with FP64");

  PrecisionMap map(nt, Precision::FP64);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (m == k) continue;  // diagonal pinned to FP64
      const double ratio =
          tile_norms[m * (m + 1) / 2 + k] * double(nt) / global_norm;
      // Coarser formats have larger u_low, hence a *smaller* admissible
      // threshold u_req/u_low. Walk the ladder from coarsest to finest and
      // take the first format that admits this tile's relative mass —
      // the most aggressive precision the rule allows.
      Precision chosen = Precision::FP64;
      for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
        if (ratio <= u_req / u_low(*it)) {
          chosen = *it;
          break;
        }
      }
      map.set_kernel(m, k, chosen);
    }
  }
  return map;
}

Precision promote_one(Precision p, std::span<const Precision> ladder) {
  MPGEO_REQUIRE(!ladder.empty(), "promote_one: empty precision ladder");
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] == p) return i == 0 ? p : ladder[i - 1];
  }
  return ladder.front();
}

bool escalate_tile(PrecisionMap& map, std::size_t m, std::size_t k,
                   std::span<const Precision> ladder) {
  const Precision cur = map.kernel(m, k);
  const Precision next = promote_one(cur, ladder);
  if (next == cur) return false;
  map.set_kernel(m, k, next);
  return true;
}

std::size_t escalate_band(PrecisionMap& map, std::size_t k,
                          std::span<const Precision> ladder) {
  MPGEO_REQUIRE(k < map.nt(), "escalate_band: tile index out of range");
  std::size_t changed = 0;
  for (std::size_t j = 0; j <= k; ++j) {
    changed += escalate_tile(map, k, j, ladder) ? 1 : 0;
  }
  for (std::size_t i = k + 1; i < map.nt(); ++i) {
    changed += escalate_tile(map, i, k, ladder) ? 1 : 0;
  }
  return changed;
}

std::size_t escalate_all(PrecisionMap& map, std::span<const Precision> ladder) {
  std::size_t changed = 0;
  for (std::size_t m = 0; m < map.nt(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      changed += escalate_tile(map, m, k, ladder) ? 1 : 0;
    }
  }
  return changed;
}

bool precision_at_least(const PrecisionMap& a, const PrecisionMap& b) {
  if (a.nt() != b.nt()) return false;
  for (std::size_t m = 0; m < a.nt(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (unit_roundoff(a.kernel(m, k)) > unit_roundoff(b.kernel(m, k))) {
        return false;
      }
    }
  }
  return true;
}

PrecisionMap build_precision_map(const TileMatrix& a, double u_req,
                                 std::span<const Precision> ladder,
                                 double fp16_32_eps) {
  const TileNorms norms = a.norms();
  return build_precision_map_from_norms(a.num_tiles(), norms.tiles,
                                        norms.global, u_req, ladder,
                                        fp16_32_eps);
}

std::vector<int> build_truncation_map(const TileNorms& norms,
                                      const PrecisionMap& pmap, double u_req) {
  const std::size_t nt = pmap.nt();
  MPGEO_REQUIRE(norms.tiles.size() == nt * (nt + 1) / 2,
                "build_truncation_map: tile norm count mismatch");
  std::vector<int> keep(nt * (nt + 1) / 2);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const Storage s = pmap.storage(m, k);
      const int full = mantissa_bits(s);
      const double norm = norms.tiles[m * (m + 1) / 2 + k];
      int bits = full;
      if (norm > 0 && norms.global > 0 && u_req > 0) {
        const double u_allowed = u_req * norms.global / (double(nt) * norm);
        bits = keep_bits_for_roundoff(u_allowed, s) + kTruncationGuardBits;
        if (bits > full) bits = full;
      }
      keep[m * (m + 1) / 2 + k] = bits;
    }
  }
  return keep;
}

}  // namespace mpgeo
