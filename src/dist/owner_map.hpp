// 2D block-cyclic tile ownership over the Cholesky tile grid (ScaLAPACK
// (p, q) convention) — the rank model of the distributed execution path.
//
// "Ranks" here are thread-pool shards of one process (see
// ExecutorOptions::rank_shards) exchanging serialized payloads through
// mailboxes; the ownership map, the SEND/RECV materialization and the wire
// accounting are exactly what a real multi-node run over MPI would use, so
// the sharded path measures the paper's STC/TTC wire behaviour on real
// bytes while staying deterministic and bit-identical to single-rank.
// Which ranks read a tile is Algorithm 1's business: cholesky_consumer_ranks
// in core/cholesky_tasks.hpp derives it from the task enumerator.
#pragma once

#include <cstddef>
#include <utility>

namespace mpgeo {

/// Distribution knob for mp_cholesky / fit_mle. ranks == 1 (the default) is
/// the current zero-copy shared-memory path, bit-identical by construction.
struct DistOptions {
  /// Number of ranks (thread-pool shards) on the process_grid(ranks) grid.
  /// 1 = off.
  std::size_t ranks = 1;

  bool enabled() const { return ranks > 1; }
};

/// Pick the default (p, q) process grid for `ranks` ranks: p the largest
/// divisor of ranks with p <= sqrt(ranks), q = ranks / p (so p <= q).
std::pair<std::size_t, std::size_t> process_grid(std::size_t ranks);

/// Block-cyclic owner map: tile (m, k) of an nt x nt grid belongs to rank
/// (m mod p) * q + (k mod q) on the p x q grid process_grid(ranks).
class OwnerMap {
 public:
  OwnerMap(std::size_t nt, std::size_t ranks);

  std::size_t nt() const { return nt_; }
  std::size_t ranks() const { return ranks_; }
  std::size_t grid_p() const { return p_; }
  std::size_t grid_q() const { return q_; }

  /// Owning rank of tile (m, k).
  int owner(std::size_t m, std::size_t k) const {
    return int((m % p_) * q_ + (k % q_));
  }

 private:
  std::size_t nt_;
  std::size_t ranks_;
  std::size_t p_, q_;
};

}  // namespace mpgeo
