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

OwnerMap::OwnerMap(std::size_t nt, std::size_t ranks)
    : nt_(nt), ranks_(ranks) {
  MPGEO_REQUIRE(nt >= 1, "OwnerMap: empty tile grid");
  MPGEO_REQUIRE(ranks >= 1, "OwnerMap: ranks must be >= 1");
  std::tie(p_, q_) = process_grid(ranks);
}

}  // namespace mpgeo
