#include "core/cholesky_tasks.hpp"

#include <algorithm>

#include "dist/owner_map.hpp"

namespace mpgeo {

std::string CholeskyTask::name() const {
  std::string s = to_string(kind) + "(" + std::to_string(out.m);
  if (kind == KernelKind::GEMM) s += "," + std::to_string(out.k);
  if (kind != KernelKind::POTRF) s += "," + std::to_string(k);
  return s + ")";
}

std::vector<int> cholesky_consumer_ranks(const OwnerMap& owners,
                                         std::size_t m, std::size_t k) {
  std::vector<int> ranks;
  for_each_reader(owners.nt(), m, k, [&](const CholeskyTask& t) {
    ranks.push_back(owners.owner(t.out.m, t.out.k));
  });
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  const int self = owners.owner(m, k);
  ranks.erase(std::remove(ranks.begin(), ranks.end(), self), ranks.end());
  return ranks;
}

}  // namespace mpgeo
