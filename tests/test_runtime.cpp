// Tests for src/runtime: dataflow dependence analysis, DAG invariants,
// asynchronous execution correctness (ordering, determinism, exceptions).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tile_matrix.hpp"
#include "linalg/matrix.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "runtime/executor_session.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {
namespace {

DataInfo datum(const std::string& name, std::size_t bytes = 64) {
  DataInfo d;
  d.name = name;
  d.bytes = bytes;
  return d;
}

TaskInfo named(const std::string& name) {
  TaskInfo t;
  t.name = name;
  return t;
}

ExecutorOptions threads_opts(std::size_t n) {
  ExecutorOptions o;
  o.num_threads = n;
  return o;
}

TEST(TaskGraph, ReadAfterWriteCreatesEdge) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  const TaskId w = g.add_task(named("w"), {{x, AccessMode::Write}});
  const TaskId r = g.add_task(named("r"), {{x, AccessMode::Read}});
  ASSERT_EQ(g.task(w).successors.size(), 1u);
  EXPECT_EQ(g.task(w).successors[0], r);
  EXPECT_EQ(g.task(r).num_predecessors, 1u);
  g.validate();
}

TEST(TaskGraph, IndependentReadsDoNotDependOnEachOther) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  g.add_task(named("w"), {{x, AccessMode::Write}});
  const TaskId r1 = g.add_task(named("r1"), {{x, AccessMode::Read}});
  const TaskId r2 = g.add_task(named("r2"), {{x, AccessMode::Read}});
  EXPECT_EQ(g.task(r1).num_predecessors, 1u);
  EXPECT_EQ(g.task(r2).num_predecessors, 1u);
  EXPECT_TRUE(g.task(r1).successors.empty());
  g.validate();
}

TEST(TaskGraph, WriteAfterReadWaitsForAllReaders) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  g.add_task(named("w0"), {{x, AccessMode::Write}});
  g.add_task(named("r1"), {{x, AccessMode::Read}});
  g.add_task(named("r2"), {{x, AccessMode::Read}});
  const TaskId w1 = g.add_task(named("w1"), {{x, AccessMode::Write}});
  // w1 depends on w0 (last writer) + r1 + r2 (readers since).
  EXPECT_EQ(g.task(w1).num_predecessors, 3u);
  g.validate();
}

TEST(TaskGraph, ReadWriteChainsSerialize) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  TaskId prev = g.add_task(named("t0"), {{x, AccessMode::ReadWrite}});
  for (int i = 1; i < 5; ++i) {
    const TaskId t =
        g.add_task(named("t" + std::to_string(i)), {{x, AccessMode::ReadWrite}});
    EXPECT_EQ(g.task(t).num_predecessors, 1u);
    EXPECT_EQ(g.task(prev).successors[0], t);
    prev = t;
  }
  g.validate();
}

TEST(TaskGraph, MultipleAccessesToSamePredecessorDedupe) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  const DataId y = g.add_data(datum("y"));
  const TaskId w = g.add_task(
      named("w"), {{x, AccessMode::Write}, {y, AccessMode::Write}});
  const TaskId r = g.add_task(
      named("r"), {{x, AccessMode::Read}, {y, AccessMode::Read}});
  EXPECT_EQ(g.task(w).successors.size(), 1u);  // deduped
  EXPECT_EQ(g.task(r).num_predecessors, 1u);   // consistent with dedup
  g.validate();
}

TEST(TaskGraph, RootsAreTasksWithoutPredecessors) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  const DataId y = g.add_data(datum("y"));
  const TaskId a = g.add_task(named("a"), {{x, AccessMode::Write}});
  const TaskId b = g.add_task(named("b"), {{y, AccessMode::Write}});
  g.add_task(named("c"), {{x, AccessMode::Read}, {y, AccessMode::Read}});
  const auto roots = g.roots();
  EXPECT_EQ(roots, (std::vector<TaskId>{a, b}));
}

TEST(TaskGraph, UnknownDataIdRejected) {
  TaskGraph g;
  EXPECT_THROW(g.add_task(named("bad"), {{42, AccessMode::Read}}), Error);
}

TEST(Executor, RunsEveryBodyExactlyOnce) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    g.add_task(named("t"), {{x, AccessMode::ReadWrite}},
               [&count] { count.fetch_add(1); });
  }
  const ExecutionReport rep = execute(g, threads_opts(4));
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(rep.tasks_run, 64u);
}

TEST(Executor, RespectsDependencyOrder) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    g.add_task(named("t"), {{x, AccessMode::ReadWrite}}, [&, i] {
      std::lock_guard lk(mu);
      order.push_back(i);
    });
  }
  execute(g, threads_opts(8));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, ParallelTasksOverlap) {
  // A diamond: source -> {a, b, c, d} -> sink. The middle tasks are
  // independent and must all run; we verify via a concurrent counter that
  // at least the bodies all executed (true overlap is scheduling-dependent).
  TaskGraph g;
  std::vector<DataId> mids;
  const DataId src = g.add_data(datum("src"));
  g.add_task(named("source"), {{src, AccessMode::Write}});
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    const DataId m = g.add_data(datum("m" + std::to_string(i)));
    mids.push_back(m);
    g.add_task(named("mid"), {{src, AccessMode::Read}, {m, AccessMode::Write}},
               [&ran] { ran.fetch_add(1); });
  }
  std::vector<Access> sink_accesses;
  for (DataId m : mids) sink_accesses.push_back({m, AccessMode::Read});
  bool sink_ran = false;
  g.add_task(named("sink"), sink_accesses, [&] {
    EXPECT_EQ(ran.load(), 4);  // all mids retired before the sink
    sink_ran = true;
  });
  execute(g, threads_opts(4));
  EXPECT_TRUE(sink_ran);
}

TEST(Executor, PropagatesFirstException) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  g.add_task(named("ok"), {{x, AccessMode::ReadWrite}}, [] {});
  g.add_task(named("boom"), {{x, AccessMode::ReadWrite}},
             [] { throw Error("boom"); });
  g.add_task(named("after"), {{x, AccessMode::ReadWrite}}, [] {});
  EXPECT_THROW(execute(g, threads_opts(2)), Error);
}

TEST(Executor, NullBodiesRetireAndGateSuccessors) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  g.add_task(named("ghost"), {{x, AccessMode::Write}});  // no body
  bool ran = false;
  g.add_task(named("real"), {{x, AccessMode::Read}}, [&] { ran = true; });
  execute(g, threads_opts(2));
  EXPECT_TRUE(ran);
}

TEST(Executor, EmptyGraphIsFine) {
  TaskGraph g;
  const ExecutionReport rep = execute(g);
  EXPECT_EQ(rep.tasks_run, 0u);
}

TEST(Executor, TraceCapturesEveryTaskWithSaneTimes) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  for (int i = 0; i < 10; ++i) {
    g.add_task(named("t"), {{x, AccessMode::ReadWrite}}, [] {});
  }
  ExecutorOptions opts;
  opts.num_threads = 2;
  opts.capture_trace = true;
  const ExecutionReport rep = execute(g, opts);
  ASSERT_EQ(rep.trace.size(), 10u);
  std::set<TaskId> seen;
  for (const auto& e : rep.trace) {
    EXPECT_LE(e.start_seconds, e.end_seconds);
    EXPECT_LE(e.end_seconds, rep.wall_seconds + 1e-3);
    seen.insert(e.task);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Executor, PrioritiesPickPanelTasksFirst) {
  // With one worker and a pre-filled ready set, the panel task must run
  // before the queued trailing updates despite being inserted last.
  TaskGraph g;
  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const std::string& name) {
    std::lock_guard lk(mu);
    order.push_back(name);
  };
  for (int i = 0; i < 3; ++i) {
    const DataId d = g.add_data(datum("g" + std::to_string(i)));
    TaskInfo info = named("gemm" + std::to_string(i));
    info.kind = KernelKind::GEMM;
    g.add_task(info, {{d, AccessMode::Write}},
               [&record, i] { record("gemm" + std::to_string(i)); });
  }
  const DataId p = g.add_data(datum("p"));
  TaskInfo panel = named("potrf");
  panel.kind = KernelKind::POTRF;
  g.add_task(panel, {{p, AccessMode::Write}}, [&record] { record("potrf"); });
  ExecutorOptions opts;
  opts.num_threads = 1;
  execute(g, opts);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "potrf");
}

TEST(Trace, ChromeTraceContainsEveryTask) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  for (int i = 0; i < 5; ++i) {
    TaskInfo info = named("task_" + std::to_string(i));
    info.kind = KernelKind::GEMM;
    g.add_task(info, {{x, AccessMode::ReadWrite}}, [] {});
  }
  ExecutorOptions opts;
  opts.capture_trace = true;
  const ExecutionReport rep = execute(g, opts);
  std::ostringstream os;
  write_chrome_trace(rep, g, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(json.find("task_" + std::to_string(i)), std::string::npos);
  }
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"GEMM\""), std::string::npos);
}

TEST(Trace, RequiresCapturedTrace) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  g.add_task(named("t"), {{x, AccessMode::Write}}, [] {});
  const ExecutionReport rep = execute(g, {});  // no trace captured
  std::ostringstream os;
  EXPECT_THROW(write_chrome_trace(rep, g, os), Error);
}

TEST(Trace, EscapesSpecialCharacters) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  g.add_task(named("weird\"name\\here"), {{x, AccessMode::Write}}, [] {});
  ExecutorOptions opts;
  opts.capture_trace = true;
  const ExecutionReport rep = execute(g, opts);
  std::ostringstream os;
  write_chrome_trace(rep, g, os);
  EXPECT_NE(os.str().find("weird\\\"name\\\\here"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scheduler stress suite: randomized DAG shapes run at several pool sizes.
// Each task body checks that all its predecessors retired before it
// started — the core scheduling invariant — and a counter checks every body
// ran exactly once.
// ---------------------------------------------------------------------------

constexpr std::size_t kPoolSizes[] = {1, 2, 8};

/// Run `graph` and verify exactly-once execution; `runs` must be the vector
/// the task bodies were wired to.
void check_execution(const TaskGraph& graph,
                     std::vector<std::atomic<int>>& runs, std::size_t threads) {
  for (auto& r : runs) r.store(0);
  const ExecutionReport rep = execute(graph, threads_opts(threads));
  EXPECT_EQ(rep.tasks_run, graph.num_tasks()) << "threads " << threads;
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    EXPECT_EQ(runs[std::size_t(t)].load(), 1) << "task " << t;
  }
}

/// Wire bodies that record completion and assert every predecessor finished.
/// preds is filled from the graph's edges after construction (bodies capture
/// it by reference, so it must outlive execution).
void wire_invariant_bodies(TaskGraph& graph,
                           std::vector<std::vector<TaskId>>& preds,
                           std::vector<std::atomic<int>>& runs) {
  const std::size_t n = graph.num_tasks();
  preds.assign(n, {});
  for (const Edge& e : graph.edges()) preds[e.to].push_back(e.from);
  for (TaskId t = 0; t < n; ++t) {
    graph.task(t).body = [t, &preds, &runs] {
      for (TaskId p : preds[t]) {
        ASSERT_EQ(runs[p].load(std::memory_order_acquire), 1)
            << "task " << t << " started before predecessor " << p;
      }
      runs[t].fetch_add(1, std::memory_order_acq_rel);
    };
  }
}

KernelKind random_kind(Rng& rng) {
  constexpr KernelKind kinds[] = {KernelKind::POTRF, KernelKind::TRSM,
                                  KernelKind::SYRK, KernelKind::GEMM,
                                  KernelKind::CONVERT, KernelKind::CUSTOM};
  return kinds[std::size_t(rng.uniform(0.0, 6.0)) % 6];
}

TEST(ExecutorStress, RandomizedDagsAllConfigs) {
  // Random DAGs: each task touches 1-3 random data with random access modes,
  // so the dependence analyzer produces irregular fan-in/fan-out.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    TaskGraph g;
    std::vector<DataId> data;
    for (int d = 0; d < 12; ++d) data.push_back(g.add_data(datum("d")));
    const std::size_t num_tasks = 150;
    for (std::size_t t = 0; t < num_tasks; ++t) {
      TaskInfo info = named("t" + std::to_string(t));
      info.kind = random_kind(rng);
      info.tk = int(t % 17);
      const int width = 1 + int(rng.uniform(0.0, 3.0));
      std::vector<Access> acc;
      std::set<DataId> used;
      for (int a = 0; a < width; ++a) {
        const DataId d = data[std::size_t(rng.uniform(0.0, 12.0)) % 12];
        if (!used.insert(d).second) continue;
        const double mode = rng.uniform(0.0, 3.0);
        acc.push_back({d, mode < 1.0 ? AccessMode::Read
                                     : (mode < 2.0 ? AccessMode::Write
                                                   : AccessMode::ReadWrite)});
      }
      g.add_task(info, acc);
    }
    g.validate();
    std::vector<std::vector<TaskId>> preds;
    std::vector<std::atomic<int>> runs(num_tasks);
    wire_invariant_bodies(g, preds, runs);
    for (std::size_t threads : kPoolSizes) check_execution(g, runs, threads);
  }
}

TEST(ExecutorStress, WideDeepAndDiamondShapes) {
  auto wide = [] {
    TaskGraph g;
    for (int c = 0; c < 200; ++c) {
      const DataId d = g.add_data(datum("w"));
      g.add_task(named("t"), {{d, AccessMode::Write}});
    }
    return g;
  };
  auto deep = [] {
    TaskGraph g;
    const DataId d = g.add_data(datum("chain"));
    for (int i = 0; i < 200; ++i) {
      g.add_task(named("t"), {{d, AccessMode::ReadWrite}});
    }
    return g;
  };
  auto diamond = [] {
    TaskGraph g;
    const DataId hub = g.add_data(datum("hub"));
    std::vector<DataId> mids;
    for (int c = 0; c < 16; ++c) mids.push_back(g.add_data(datum("m")));
    for (int l = 0; l < 8; ++l) {
      g.add_task(named("src"), {{hub, AccessMode::Write}});
      std::vector<Access> sink{{hub, AccessMode::ReadWrite}};
      for (DataId m : mids) {
        g.add_task(named("mid"),
                   {{hub, AccessMode::Read}, {m, AccessMode::Write}});
        sink.push_back({m, AccessMode::Read});
      }
      g.add_task(named("sink"), sink);
    }
    return g;
  };
  for (auto maker : {+wide, +deep, +diamond}) {
    TaskGraph g = maker();
    std::vector<std::vector<TaskId>> preds;
    std::vector<std::atomic<int>> runs(g.num_tasks());
    wire_invariant_bodies(g, preds, runs);
    for (std::size_t threads : {1u, 4u, 16u}) check_execution(g, runs, threads);
  }
}

TEST(ExecutorStress, MoreThreadsThanTasks) {
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  std::atomic<int> count{0};
  for (int i = 0; i < 3; ++i) {
    g.add_task(named("t"), {{x, AccessMode::ReadWrite}},
               [&count] { count.fetch_add(1); });
  }
  // Far more than the 3 tasks: the dedicated pool is capped at the graph.
  const ExecutionReport rep = execute(g, threads_opts(32));
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(rep.tasks_run, 3u);
}

TEST(ExecutorStress, ExceptionMidGraphWithStealing) {
  // A fan-out where one mid-level task throws while its siblings are being
  // stolen: the first exception must propagate, every pool size must still
  // quiesce, and no body may run after its predecessors were skipped out of
  // order (bodies of unaffected tasks may or may not run — the executor
  // only guarantees the error surfaces and the pool drains).
  for (std::size_t threads : kPoolSizes) {
    TaskGraph g;
    const DataId hub = g.add_data(datum("hub"));
    g.add_task(named("src"), {{hub, AccessMode::Write}});
    for (int c = 0; c < 32; ++c) {
      const DataId d = g.add_data(datum("m"));
      if (c == 13) {
        g.add_task(named("boom"),
                   {{hub, AccessMode::Read}, {d, AccessMode::Write}},
                   [] { throw Error("boom"); });
      } else {
        g.add_task(named("mid"),
                   {{hub, AccessMode::Read}, {d, AccessMode::Write}}, [] {});
      }
    }
    EXPECT_THROW(execute(g, threads_opts(threads)), Error)
        << "threads=" << threads;
  }
}

TEST(ExecutorStress, TraceMergeCoversEveryTaskUnderStealing) {
  TaskGraph g;
  const DataId hub = g.add_data(datum("hub"));
  g.add_task(named("src"), {{hub, AccessMode::Write}});
  for (int c = 0; c < 64; ++c) {
    const DataId d = g.add_data(datum("m"));
    g.add_task(named("mid"), {{hub, AccessMode::Read}, {d, AccessMode::Write}},
               [] {});
  }
  ExecutorOptions opts;
  opts.num_threads = 8;
  opts.capture_trace = true;
  const ExecutionReport rep = execute(g, opts);
  ASSERT_EQ(rep.trace.size(), 65u);
  std::set<TaskId> seen;
  for (const auto& e : rep.trace) {
    EXPECT_LE(e.start_seconds, e.end_seconds);
    seen.insert(e.task);
  }
  EXPECT_EQ(seen.size(), 65u);  // one per-run buffer: no loss, no dupes
}

TEST(ExecutorStress, FactorizationBitIdenticalAcrossSchedulers) {
  // The determinism contract: the schedule must not change numerics,
  // because every conflicting tile access is ordered by a dataflow edge.
  // Factor the same SPD tile matrix at every pool size and demand
  // bit-identical factors.
  auto factor = [](std::size_t threads) {
    Rng rng(99);
    const std::size_t n = 48, nb = 16;
    Matrix<double> b(n, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1.0, 1.0);
    Matrix<double> spd(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double acc = (i == j) ? double(n) : 0.0;
        for (std::size_t q = 0; q < n; ++q) acc += b(i, q) * b(j, q);
        spd(i, j) = acc;
        spd(j, i) = acc;
      }
    }
    TileMatrix tiles(n, nb);
    std::vector<double> buf;
    for (std::size_t m = 0; m < tiles.num_tiles(); ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        AnyTile& t = tiles.tile(m, k);
        buf.resize(t.size());
        for (std::size_t j = 0; j < t.cols(); ++j)
          for (std::size_t i = 0; i < t.rows(); ++i)
            buf[i + j * t.rows()] = spd(m * nb + i, k * nb + j);
        t.from_double(buf);
      }
    }
    MpCholeskyOptions opts;
    opts.ladder = {Precision::FP64};
    opts.num_threads = threads;
    const MpCholeskyResult r = mp_cholesky(tiles, opts);
    EXPECT_EQ(r.info, 0);
    const Matrix<double> dense = tiles.to_dense();
    return std::vector<double>(dense.data(), dense.data() + n * n);
  };
  const std::vector<double> reference = factor(kPoolSizes[0]);
  for (std::size_t threads : kPoolSizes) {
    const std::vector<double> other = factor(threads);
    ASSERT_EQ(reference.size(), other.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], other[i])
          << "threads " << threads << " element " << i;
    }
  }
}

TEST(Executor, SingleThreadMatchesMultiThreadResult) {
  // Same reduction through a dependency chain must give identical results
  // regardless of worker count (dataflow edges order all conflicts).
  auto run = [](std::size_t threads) {
    TaskGraph g;
    const DataId x = g.add_data(datum("x"));
    auto value = std::make_shared<double>(1.0);
    for (int i = 1; i <= 12; ++i) {
      g.add_task(named("t"), {{x, AccessMode::ReadWrite}},
                 [value, i] { *value = *value * 1.5 + i; });
    }
    execute(g, threads_opts(threads));
    return *value;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ExecutorSession, CrossShardChainWithSingleWorkerShards) {
  // Two shards of one worker each and a chain whose tasks alternate rank 0
  // and rank 1: every edge crosses shards, so every retire pushes to the
  // other shard's only worker — parked, parking or about to park — and
  // must wake it. A lost cross-shard wakeup hangs a run.
  ExecutorSessionOptions sopts;
  sopts.num_threads = 2;
  sopts.rank_shards = 2;
  ExecutorSession session(sopts);
  TaskGraph g;
  const DataId x = g.add_data(datum("x"));
  for (int i = 0; i < 64; ++i) {
    TaskInfo info = named("t" + std::to_string(i));
    info.rank = i % 2;
    g.add_task(info, {{x, AccessMode::ReadWrite}});
  }
  ExecutorOptions opts;
  opts.capture_trace = true;
  for (int rep = 0; rep < 200; ++rep) {
    const ExecutionReport r = session.run(g, opts);
    ASSERT_EQ(r.tasks_run, 64u) << "rep " << rep;
    ASSERT_EQ(r.trace.size(), 64u) << "rep " << rep;
    for (const TaskTraceEntry& e : r.trace) {
      ASSERT_EQ(e.worker % 2, std::size_t(g.task(e.task).info.rank))
          << "rep " << rep << " task " << e.task;
    }
  }
}

}  // namespace
}  // namespace mpgeo
