// Builder of simulation-only Cholesky task graphs at cluster scale.
//
// Produces the DAG of Algorithm 1 (the enumerator in core/cholesky_tasks.hpp)
// annotated for the discrete-event backend: no numeric bodies, but per-task
// devices (2D block-cyclic tile-owner mapping, the paper's "process grid
// P x Q as square as possible"), flop counts and wire formats from the comm
// map. Conversions are folded into kernels, never separate tasks: where STC
// applies, the sender-side down-cast is charged to the producing POTRF or
// TRSM, which then broadcasts the narrower payload; receiver-side conversion
// traffic is charged to each consumer whose input arrives in another format.
// This is the graph behind Figs 8-12.
#pragma once

#include <cstddef>

#include "core/comm_map.hpp"
#include "core/precision_map.hpp"
#include "gpusim/cluster.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

struct SimGraphOptions {
  std::size_t tile = 2048;  ///< tile dimension (paper's tuned value)
  /// Generate covariance tiles on their owner devices (as the real framework
  /// does) instead of assuming a host-resident input matrix.
  bool device_side_generation = true;
};

/// The owner device of tile (m, k) under a P x Q block-cyclic grid covering
/// `devices` GPUs, P <= Q, as square as possible (paper Section VII-A;
/// process_grid in dist/owner_map.hpp). Devices are numbered m mod P +
/// (k mod Q) * P, which decides the node each one sits on.
int tile_owner(std::size_t m, std::size_t k, int devices);

/// Build the annotated Cholesky DAG for `nt` x `nt` tiles of dimension
/// options.tile, with kernel precisions from `pmap` and communication
/// formats from `cmap`, mapped onto `cluster`.
TaskGraph build_cholesky_sim_graph(const PrecisionMap& pmap, const CommMap& cmap,
                                   const ClusterConfig& cluster,
                                   const SimGraphOptions& options = {});

/// Tiles-in-flight flop count of a full tile Cholesky (n^3/3 total).
double cholesky_flops(std::size_t n);

}  // namespace mpgeo
