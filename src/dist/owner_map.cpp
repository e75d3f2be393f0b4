#include "dist/owner_map.hpp"

#include <tuple>

#include "common/error.hpp"

namespace mpgeo {

std::pair<std::size_t, std::size_t> process_grid(std::size_t ranks) {
  MPGEO_REQUIRE(ranks >= 1, "process_grid: ranks must be >= 1");
  std::size_t p = 1;
  for (std::size_t d = 1; d * d <= ranks; ++d) {
    if (ranks % d == 0) p = d;
  }
  return {p, ranks / p};
}

OwnerMap::OwnerMap(std::size_t nt, std::size_t ranks, std::size_t p,
                   std::size_t q)
    : nt_(nt), ranks_(ranks) {
  MPGEO_REQUIRE(nt >= 1, "OwnerMap: empty tile grid");
  MPGEO_REQUIRE(ranks >= 1, "OwnerMap: ranks must be >= 1");
  if (p == 0 && q == 0) {
    std::tie(p_, q_) = process_grid(ranks);
  } else {
    MPGEO_REQUIRE(p >= 1 && q >= 1 && p * q == ranks,
                  "OwnerMap: grid_p * grid_q must equal ranks");
    p_ = p;
    q_ = q;
  }
}

std::vector<std::pair<std::size_t, std::size_t>> OwnerMap::tiles_of(
    int rank) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (owner(m, k) == rank) out.emplace_back(m, k);
    }
  }
  return out;
}

}  // namespace mpgeo
