// Tests for the Algorithm-1 task enumerator (core/cholesky_tasks.hpp): the
// numeric graph mp_cholesky runs and the simulator's graph, both built from
// it, agree task for task and edge for edge; and for_each_reader lists
// exactly the reads of the enumeration, in insertion order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/cholesky_tasks.hpp"
#include "core/mp_cholesky.hpp"
#include "core/sim_graph.hpp"
#include "core/tiled_covariance.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

using TaskKey = std::tuple<KernelKind, Precision, int, int, int>;
using EdgeKey = std::tuple<TaskId, TaskId, DataId>;

std::vector<TaskKey> task_keys(const TaskGraph& g) {
  std::vector<TaskKey> keys;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const TaskInfo& i = g.task(t).info;
    keys.emplace_back(i.kind, i.prec, i.tm, i.tn, i.tk);
  }
  return keys;
}

std::vector<EdgeKey> edge_keys(const TaskGraph& g) {
  std::vector<EdgeKey> keys;
  for (const Edge& e : g.edges()) keys.emplace_back(e.from, e.to, e.data);
  return keys;
}

TEST(CholeskyTasks, NumericAndSimGraphsAgree) {
  const std::size_t nb = 24;
  // u_req 1e-4 demotes every panel (FP32, FP16_32 and FP16 GEMMs); 1e-8
  // keeps FP64 panels near the diagonal, so FP64 and FP32 TRSMs both occur.
  std::set<std::pair<KernelKind, Precision>> seen;
  for (const double u_req : {1e-4, 1e-8}) {
    for (const std::size_t nt : {1u, 2u, 6u}) {
      Rng rng(11);
      const LocationSet locs = generate_locations(nt * nb, 2, rng);
      const std::vector<double> theta = {1.0, 0.1};
      TileMatrix a = build_tiled_covariance(Covariance(CovKind::SqExp), locs,
                                            theta, nb, 1e-3);
      MpCholeskyOptions opts;
      opts.u_req = u_req;
      opts.num_threads = 2;
      opts.capture_trace = true;
      const MpCholeskyResult r = mp_cholesky(a, opts);
      ASSERT_EQ(r.info, 0) << "nt=" << nt << " u_req=" << u_req;
      ASSERT_TRUE(r.graph);
      for (TaskId t = 0; t < r.graph->num_tasks(); ++t) {
        seen.emplace(r.graph->task(t).info.kind, r.graph->task(t).info.prec);
      }

      SimGraphOptions sopts;
      sopts.tile = nb;
      sopts.device_side_generation = false;
      const TaskGraph sim = build_cholesky_sim_graph(
          r.pmap, r.cmap, single_gpu(GpuModel::V100), sopts);
      EXPECT_EQ(task_keys(*r.graph), task_keys(sim))
          << "nt=" << nt << " u_req=" << u_req;
      EXPECT_EQ(edge_keys(*r.graph), edge_keys(sim))
          << "nt=" << nt << " u_req=" << u_req;
    }
  }
  for (const auto& [kind, prec] :
       {std::pair{KernelKind::TRSM, Precision::FP64},
        std::pair{KernelKind::TRSM, Precision::FP32},
        std::pair{KernelKind::GEMM, Precision::FP64},
        std::pair{KernelKind::GEMM, Precision::FP32},
        std::pair{KernelKind::GEMM, Precision::FP16_32},
        std::pair{KernelKind::GEMM, Precision::FP16}}) {
    EXPECT_TRUE(seen.count({kind, prec}))
        << to_string(kind) << " " << to_string(prec) << " never ran";
  }
}

TEST(CholeskyTasks, ReadersInvertTheEnumeration) {
  // A task is identified by kind, output tile and step.
  using Id = std::tuple<KernelKind, std::size_t, std::size_t, std::size_t>;
  const auto id = [](const CholeskyTask& t) {
    return Id{t.kind, t.out.m, t.out.k, t.k};
  };
  for (std::size_t nt = 1; nt <= 7; ++nt) {
    std::map<Id, std::size_t> order;
    std::vector<std::tuple<Id, std::size_t, std::size_t>> reads;
    for_each_cholesky_task(nt, [&](const CholeskyTask& t) {
      order.emplace(id(t), order.size());
      for (int i = 0; i < t.num_inputs; ++i) {
        reads.emplace_back(id(t), t.in[i].m, t.in[i].k);
      }
    });
    ASSERT_EQ(order.size(), nt * (nt + 1) * (nt + 2) / 6);  // all distinct

    std::vector<std::tuple<Id, std::size_t, std::size_t>> readers;
    for (std::size_t m = 0; m < nt; ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        std::size_t last = 0;
        bool first = true;
        for_each_reader(nt, m, k, [&](const CholeskyTask& t) {
          readers.emplace_back(id(t), m, k);
          // Readers come in insertion order.
          const std::size_t at = order.at(id(t));
          EXPECT_TRUE(first || at > last) << "tile (" << m << "," << k << ")";
          last = at;
          first = false;
        });
      }
    }
    std::sort(reads.begin(), reads.end());
    std::sort(readers.begin(), readers.end());
    EXPECT_EQ(reads, readers) << "nt=" << nt;
  }
}

}  // namespace
}  // namespace mpgeo
