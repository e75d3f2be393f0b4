// Cross-module property tests: randomized invariants that tie the precision
// machinery, Algorithm 2, the simulator and the numerics together. These are
// the "does the whole contraption stay coherent on inputs nobody hand-
// picked" checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/comm_map.hpp"
#include "core/precision_map.hpp"
#include "core/sim_graph.hpp"
#include "gpusim/sim_executor.hpp"
#include "kernel_test_util.hpp"
#include "precision/convert.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {
namespace {

/// Random lower-triangle precision map with FP64 diagonal.
PrecisionMap random_map(std::size_t nt, Rng& rng) {
  static const Precision kChoices[] = {Precision::FP64, Precision::FP32,
                                       Precision::FP16_32, Precision::FP16};
  PrecisionMap map(nt, Precision::FP64);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k < m; ++k) {
      map.set_kernel(m, k, kChoices[rng.uniform_index(4)]);
    }
  }
  return map;
}

class RandomMapProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomMapProperty, CommMapInvariants) {
  Rng rng(100 + GetParam());
  const std::size_t nt = 4 + rng.uniform_index(8);
  const PrecisionMap pmap = random_map(nt, rng);
  const CommMap cmap = build_comm_map(pmap);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      // 1. Wire never wider than storage.
      EXPECT_LE(cmap.wire_bytes_per_element(m, k),
                bytes_per_element(pmap.storage(m, k)));
      // 2. STC iff strictly narrower.
      EXPECT_EQ(cmap.uses_stc(m, k, pmap),
                cmap.wire_bytes_per_element(m, k) <
                    bytes_per_element(pmap.storage(m, k)));
      if (m == k) continue;
      // 3. Panel wire covers every GEMM consumer's input format (capped by
      //    its own storage).
      const std::size_t wire = cmap.wire_bytes_per_element(m, k);
      const std::size_t cap = bytes_per_element(pmap.storage(m, k));
      for (std::size_t n = k + 1; n < m; ++n) {
        const std::size_t need =
            bytes_per_element(wire_storage(pmap.kernel(m, n)));
        EXPECT_GE(wire, std::min(need, cap)) << m << "," << k;
      }
      for (std::size_t n = m + 1; n < nt; ++n) {
        const std::size_t need =
            bytes_per_element(wire_storage(pmap.kernel(n, m)));
        EXPECT_GE(wire, std::min(need, cap)) << m << "," << k;
      }
      // 4. Never below the panel's own kernel class.
      EXPECT_GE(wire, std::min(cap, bytes_per_element(
                                        wire_storage(pmap.kernel(m, k)))));
    }
  }
}

TEST_P(RandomMapProperty, TtcAlwaysStorageWidth) {
  Rng rng(200 + GetParam());
  const std::size_t nt = 3 + rng.uniform_index(8);
  const PrecisionMap pmap = random_map(nt, rng);
  CommMapOptions opts;
  opts.strategy = ConversionStrategy::AllTTC;
  const CommMap cmap = build_comm_map(pmap, opts);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_EQ(cmap.wire_bytes_per_element(m, k),
                bytes_per_element(pmap.storage(m, k)));
    }
  }
}

TEST_P(RandomMapProperty, SimulatorConservationLaws) {
  Rng rng(300 + GetParam());
  const std::size_t nt = 4 + rng.uniform_index(6);
  const PrecisionMap pmap = random_map(nt, rng);
  const CommMap cmap = build_comm_map(pmap);
  const ClusterConfig cluster =
      (GetParam() % 2) ? summit_cluster(1) : single_gpu(GpuModel::A100);
  SimGraphOptions gopts;
  gopts.tile = 1024;
  const TaskGraph g = build_cholesky_sim_graph(pmap, cmap, cluster, gopts);
  SimOptions sopts;
  sopts.tile = 1024;
  const SimReport r = simulate(g, cluster, sopts);

  // Makespan positive; busy <= makespan per device; energy between idle
  // floor and TDP ceiling; flops equal the algorithmic count.
  EXPECT_GT(r.makespan_seconds, 0.0);
  const CostModel cm(cluster.gpu);
  double busy_total = 0;
  for (const auto& d : r.devices) {
    EXPECT_LE(d.busy_seconds, r.makespan_seconds * (1 + 1e-9));
    busy_total += d.busy_seconds;
  }
  EXPECT_GT(busy_total, 0.0);
  const double idle_floor =
      cm.idle_watts() * r.makespan_seconds * double(r.devices.size());
  const double tdp_ceiling =
      cluster.gpu.tdp_watts * r.makespan_seconds * double(r.devices.size());
  EXPECT_GE(r.energy_joules, idle_floor * 0.999);
  EXPECT_LE(r.energy_joules, tdp_ceiling * 1.001);
  EXPECT_NEAR(r.total_flops, cholesky_flops(nt * 1024),
              0.25 * cholesky_flops(nt * 1024));
}

TEST_P(RandomMapProperty, SimulatorDeterminism) {
  Rng rng(400 + GetParam());
  const std::size_t nt = 4 + rng.uniform_index(5);
  const PrecisionMap pmap = random_map(nt, rng);
  const CommMap cmap = build_comm_map(pmap);
  const ClusterConfig cluster = guyot_node(4);
  SimGraphOptions gopts;
  gopts.tile = 2048;
  const TaskGraph g = build_cholesky_sim_graph(pmap, cmap, cluster, gopts);
  SimOptions sopts;
  sopts.tile = 2048;
  const SimReport a = simulate(g, cluster, sopts);
  const SimReport b = simulate(g, cluster, sopts);
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.host_to_device_bytes, b.host_to_device_bytes);
  EXPECT_EQ(a.peer_bytes, b.peer_bytes);
}

TEST_P(RandomMapProperty, StcAutoNeverMovesMoreBytesThanTtc) {
  Rng rng(500 + GetParam());
  const std::size_t nt = 4 + rng.uniform_index(6);
  const PrecisionMap pmap = random_map(nt, rng);
  const ClusterConfig cluster = summit_cluster(1);
  auto bytes_for = [&](ConversionStrategy strat) {
    CommMapOptions copts;
    copts.strategy = strat;
    const CommMap cmap = build_comm_map(pmap, copts);
    SimGraphOptions gopts;
    gopts.tile = 1024;
    const TaskGraph g = build_cholesky_sim_graph(pmap, cmap, cluster, gopts);
    SimOptions sopts;
    sopts.tile = 1024;
    return simulate(g, cluster, sopts).total_transfer_bytes();
  };
  EXPECT_LE(bytes_for(ConversionStrategy::Auto),
            bytes_for(ConversionStrategy::AllTTC));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMapProperty, ::testing::Range(0, 8));

class RandomRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomRoundTripProperty, StorageRoundingIsIdempotent) {
  Rng rng(600 + GetParam());
  std::vector<double> buf(257);
  for (auto& x : buf) x = rng.uniform(-1e4, 1e4);
  for (const Storage s : {Storage::FP64, Storage::FP32, Storage::FP16}) {
    std::vector<double> once = buf;
    round_through(once, s);
    std::vector<double> twice = once;
    round_through(twice, s);
    EXPECT_EQ(once, twice) << to_string(s);
  }
}

TEST_P(RandomRoundTripProperty, MixedGemmMonotoneInPrecision) {
  // Error never *decreases* when the format coarsens from FP32 to FP16
  // (statistically; we use a fixed matrix per seed so this is deterministic).
  Rng rng(700 + GetParam());
  const std::size_t n = 48;
  std::vector<double> a(n * n), b(n * n), ref(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(0.0, 1.0);
  for (auto& x : b) x = rng.uniform(0.0, 1.0);
  packed_product(Precision::FP64, n, n, n, a.data(), b.data(), 0.0,
                 ref.data());
  auto err = [&](Precision p) {
    std::vector<double> c(n * n, 0.0);
    packed_product(p, n, n, n, a.data(), b.data(), 0.0, c.data());
    double acc = 0;
    for (std::size_t i = 0; i < n * n; ++i) {
      acc += (c[i] - ref[i]) * (c[i] - ref[i]);
    }
    return std::sqrt(acc);
  };
  EXPECT_LT(err(Precision::FP32), err(Precision::FP16_32));
  EXPECT_LT(err(Precision::FP16_32), err(Precision::FP16) * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundTripProperty, ::testing::Range(0, 6));

/// Random DAG through data-access collisions, for the failure-propagation
/// properties (same recipe as the fault-injection suite).
TaskGraph random_dag(std::size_t num_tasks, std::size_t num_data,
                     std::uint64_t seed) {
  Rng rng(seed);
  TaskGraph g;
  std::vector<DataId> data(num_data);
  for (std::size_t d = 0; d < num_data; ++d) {
    DataInfo info;
    info.name = "d" + std::to_string(d);
    info.bytes = 8;
    data[d] = g.add_data(info);
  }
  for (std::size_t t = 0; t < num_tasks; ++t) {
    std::vector<Access> accesses;
    std::set<DataId> used;
    const std::size_t touches = 1 + rng.uniform_index(3);
    for (std::size_t a = 0; a < touches; ++a) {
      const DataId d = data[rng.uniform_index(num_data)];
      if (!used.insert(d).second) continue;
      const AccessMode mode =
          rng.uniform() < 0.4 ? AccessMode::ReadWrite : AccessMode::Read;
      accesses.push_back({d, mode});
    }
    TaskInfo info;
    info.name = "t" + std::to_string(t);
    g.add_task(info, accesses, [] {});
  }
  return g;
}

std::set<TaskId> successor_closure(const TaskGraph& g, TaskId root) {
  std::set<TaskId> out;
  std::vector<TaskId> stack{root};
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    for (TaskId succ : g.task(t).successors) {
      if (out.insert(succ).second) stack.push_back(succ);
    }
  }
  return out;
}

ExecutionReport run_injected(const TaskGraph& g, FaultInjector& inj,
                             std::size_t threads) {
  ExecutorOptions opts;
  opts.num_threads = threads;
  opts.rethrow_errors = false;
  opts.fault_injector = &inj;
  return execute(g, opts);
}

class RandomDagFailureProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagFailureProperty, CancellationIsExactTransitiveClosure) {
  Rng rng(800 + GetParam());
  const std::size_t num_tasks = 40 + rng.uniform_index(80);
  const std::size_t num_data = 6 + rng.uniform_index(16);
  const TaskGraph g = random_dag(num_tasks, num_data, 810 + GetParam());
  // Kill a handful of random victims; each must cancel exactly its
  // transitive successor closure while every independent task still runs.
  for (int trial = 0; trial < 4; ++trial) {
    const TaskId victim = TaskId(rng.uniform_index(g.num_tasks()));
    const std::set<TaskId> closure = successor_closure(g, victim);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      FaultInjectionOptions o;
      o.kind = FaultKind::TaskException;
      o.target_task = victim;
      FaultInjector inj(o);
      const ExecutionReport rep = run_injected(g, inj, threads);
      ASSERT_EQ(rep.report.failed.size(), 1u) << "victim=" << victim;
      EXPECT_EQ(rep.report.failed[0], victim);
      const std::set<TaskId> cancelled(rep.report.cancelled.begin(),
                                       rep.report.cancelled.end());
      EXPECT_EQ(cancelled, closure)
          << "victim=" << victim << " threads=" << threads;
      EXPECT_EQ(rep.tasks_run, g.num_tasks() - 1 - closure.size());
    }
  }
}

TEST_P(RandomDagFailureProperty, RunReportsIdenticalAcrossSchedulers) {
  Rng rng(900 + GetParam());
  const std::size_t num_tasks = 60 + rng.uniform_index(120);
  const std::size_t num_data = 8 + rng.uniform_index(12);
  const TaskGraph g = random_dag(num_tasks, num_data, 910 + GetParam());
  FaultInjectionOptions o;
  o.kind = FaultKind::TaskException;
  o.probability = 0.1;
  o.seed = 920 + std::uint64_t(GetParam());

  std::vector<TaskId> ref_failed;
  std::vector<TaskId> ref_cancelled;
  bool first = true;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    FaultInjector inj(o);
    const ExecutionReport rep = run_injected(g, inj, threads);
    // The three outcome sets always partition the graph.
    EXPECT_EQ(rep.tasks_run + rep.report.failed.size() +
                  rep.report.cancelled.size(),
              g.num_tasks());
    // Failure/cancellation sets are a pure function of (graph, injector):
    // identical across pool sizes.
    if (first) {
      ref_failed = rep.report.failed;
      ref_cancelled = rep.report.cancelled;
      first = false;
    }
    EXPECT_EQ(rep.report.failed, ref_failed) << "threads=" << threads;
    EXPECT_EQ(rep.report.cancelled, ref_cancelled) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagFailureProperty,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace mpgeo
