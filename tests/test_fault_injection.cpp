// Fault-injection harness tests (DESIGN.md 5e): deterministic replay of
// injected failures, exact transitive-closure cancellation at every DAG
// depth, the legacy rethrow contract, trace/metrics markers, and a stress
// run on an oversubscribed pool (tsan label).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cholesky_tasks.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {
namespace {

/// The dependency skeleton of a right-looking tile Cholesky: Algorithm 1's
/// tasks from the enumerator mp_cholesky builds from, bodies replaced by a
/// thread-safe counter — a real multi-depth DAG whose ids match the numeric
/// factorization's.
TaskGraph make_cholesky_shape_graph(std::size_t nt,
                                    std::atomic<int>* bodies_run = nullptr) {
  TaskGraph g;
  std::vector<DataId> data(nt * (nt + 1) / 2);
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      DataInfo info;
      info.name = "C(" + std::to_string(m) + "," + std::to_string(k) + ")";
      info.bytes = 64;
      data[TileIndex{m, k}.packed()] = g.add_data(info);
    }
  }
  const auto body = [bodies_run] {
    if (bodies_run) bodies_run->fetch_add(1, std::memory_order_relaxed);
  };
  const auto datum = [&](TileIndex x) { return data[x.packed()]; };
  for_each_cholesky_task(nt, [&](const CholeskyTask& t) {
    g.add_task(t.info(), cholesky_accesses(t, datum), body);
  });
  return g;
}

/// Random DAG through data-access collisions (the property-test recipe).
TaskGraph make_random_graph(std::size_t num_tasks, std::size_t num_data,
                            std::uint64_t seed,
                            std::atomic<int>* bodies_run = nullptr) {
  Rng rng(seed);
  TaskGraph g;
  std::vector<DataId> data(num_data);
  for (std::size_t d = 0; d < num_data; ++d) {
    DataInfo info;
    info.name = "d" + std::to_string(d);
    info.bytes = 8;
    data[d] = g.add_data(info);
  }
  const auto body = [bodies_run] {
    if (bodies_run) bodies_run->fetch_add(1, std::memory_order_relaxed);
  };
  for (std::size_t t = 0; t < num_tasks; ++t) {
    std::vector<Access> accesses;
    std::set<DataId> used;
    const std::size_t touches = 1 + rng.uniform_index(3);
    for (std::size_t a = 0; a < touches; ++a) {
      const DataId d = data[rng.uniform_index(num_data)];
      if (!used.insert(d).second) continue;
      const AccessMode mode = rng.uniform() < 0.4 ? AccessMode::ReadWrite
                                                  : AccessMode::Read;
      accesses.push_back({d, mode});
    }
    TaskInfo info;
    info.name = "t" + std::to_string(t);
    g.add_task(info, accesses, body);
  }
  return g;
}

/// Transitive successor closure of `root` (excluding `root` itself).
std::set<TaskId> transitive_closure(const TaskGraph& g, TaskId root) {
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

ExecutionReport run_with_injector(const TaskGraph& g, FaultInjector& inj,
                                  std::size_t threads,
                                  MetricsRegistry* metrics = nullptr,
                                  bool capture_trace = false) {
  ExecutorOptions opts;
  opts.num_threads = threads;
  opts.rethrow_errors = false;
  opts.fault_injector = &inj;
  opts.metrics = metrics;
  opts.capture_trace = capture_trace;
  return execute(g, opts);
}

TEST(FaultInjection, ArmingIsPureSeededAndFiltered) {
  FaultInjectionOptions o;
  o.kind = FaultKind::TaskException;
  o.probability = 0.3;
  o.seed = 42;
  FaultInjector inj(o);
  std::set<TaskId> armed;
  for (TaskId t = 0; t < 200; ++t) {
    if (inj.armed(t, KernelKind::GEMM)) armed.insert(t);
    // Pure: asking twice gives the same answer, consumes nothing.
    EXPECT_EQ(inj.armed(t, KernelKind::GEMM), armed.count(t) == 1);
  }
  EXPECT_GT(armed.size(), 20u);
  EXPECT_LT(armed.size(), 120u);
  EXPECT_EQ(inj.injections(), 0u);

  FaultInjectionOptions o2 = o;
  o2.seed = 43;
  FaultInjector inj2(o2);
  std::set<TaskId> armed2;
  for (TaskId t = 0; t < 200; ++t) {
    if (inj2.armed(t, KernelKind::GEMM)) armed2.insert(t);
  }
  EXPECT_NE(armed, armed2);  // seed matters

  // Kind filter restricts arming; targeted mode overrides probability.
  FaultInjectionOptions of = o;
  of.kind_filter = KernelKind::TRSM;
  FaultInjector injf(of);
  for (TaskId t = 0; t < 200; ++t) {
    EXPECT_FALSE(injf.armed(t, KernelKind::GEMM));
  }
  FaultInjectionOptions ot;
  ot.kind = FaultKind::TaskException;
  ot.target_task = 17;
  FaultInjector injt(ot);
  EXPECT_TRUE(injt.armed(17, KernelKind::CUSTOM));
  EXPECT_FALSE(injt.armed(16, KernelKind::CUSTOM));
}

TEST(FaultInjection, ParseSpecRoundTrips) {
  const FaultInjectionOptions a = parse_fault_spec("exception:0.25:42");
  EXPECT_EQ(a.kind, FaultKind::TaskException);
  EXPECT_DOUBLE_EQ(a.probability, 0.25);
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(parse_fault_spec("nan:1:7").kind, FaultKind::ConvertNaN);
  EXPECT_EQ(parse_fault_spec("overflow:0:0").kind, FaultKind::ConvertOverflow);
  EXPECT_THROW(parse_fault_spec("exception:0.5"), Error);
  EXPECT_THROW(parse_fault_spec("segfault:0.5:1"), Error);
  EXPECT_THROW(parse_fault_spec("nan:2.0:1"), Error);
  EXPECT_THROW(parse_fault_spec("nan:x:1"), Error);
}

TEST(FaultInjection, BudgetMakesFaultsOneShot) {
  FaultInjectionOptions o;
  o.kind = FaultKind::ConvertNaN;
  o.target_task = 5;
  o.max_injections = 1;
  FaultInjector inj(o);
  const auto first = inj.corruption(5, KernelKind::TRSM);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(std::isnan(*first));
  EXPECT_FALSE(inj.corruption(5, KernelKind::TRSM).has_value());
  EXPECT_EQ(inj.injections(), 1u);
  inj.reset();
  EXPECT_TRUE(inj.corruption(5, KernelKind::TRSM).has_value());

  FaultInjectionOptions ov = o;
  ov.kind = FaultKind::ConvertOverflow;
  ov.max_injections = 0;
  FaultInjector injv(ov);
  const auto big = injv.corruption(5, KernelKind::TRSM);
  ASSERT_TRUE(big.has_value());
  EXPECT_GT(*big, 65504.0);  // overflows FP16
  // TaskException injectors never report corruption and vice versa.
  FaultInjectionOptions oe = o;
  oe.kind = FaultKind::TaskException;
  FaultInjector inje(oe);
  EXPECT_FALSE(inje.corruption(5, KernelKind::TRSM).has_value());
}

TEST(FaultInjection, DeterministicReplayAcrossRunsAndSchedulers) {
  const TaskGraph g = make_cholesky_shape_graph(5);
  FaultInjectionOptions o;
  o.kind = FaultKind::TaskException;
  o.probability = 0.15;
  o.seed = 7;

  std::vector<TaskId> ref_failed;
  std::vector<TaskId> ref_cancelled;
  bool first = true;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (int rep = 0; rep < 3; ++rep) {
      FaultInjector inj(o);
      const ExecutionReport rep_out = run_with_injector(g, inj, threads);
      ASSERT_FALSE(rep_out.report.ok());
      if (first) {
        ref_failed = rep_out.report.failed;
        ref_cancelled = rep_out.report.cancelled;
        first = false;
      }
      EXPECT_EQ(rep_out.report.failed, ref_failed) << "threads=" << threads;
      EXPECT_EQ(rep_out.report.cancelled, ref_cancelled)
          << "threads=" << threads;
      EXPECT_EQ(rep_out.tasks_run + rep_out.report.failed.size() +
                    rep_out.report.cancelled.size(),
                g.num_tasks());
      // Every failed task is one the injector armed.
      for (TaskId t : rep_out.report.failed) {
        EXPECT_TRUE(inj.armed(t, g.task(t).info.kind));
      }
    }
  }
  // The injected set is non-trivial for this (seed, graph).
  EXPECT_FALSE(ref_failed.empty());
  EXPECT_FALSE(ref_cancelled.empty());
}

TEST(FaultInjection, TargetedKillAtEveryDepthCancelsExactClosure) {
  // nt = 4: 20 tasks spanning every depth of the factorization DAG. Killing
  // each one must cancel exactly its transitive dependents, run everything
  // independent, and agree across pool sizes.
  std::atomic<int> bodies_run{0};
  const TaskGraph g = make_cholesky_shape_graph(4, &bodies_run);
  for (TaskId victim = 0; victim < g.num_tasks(); ++victim) {
    const std::set<TaskId> closure = transitive_closure(g, victim);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      FaultInjectionOptions o;
      o.kind = FaultKind::TaskException;
      o.target_task = victim;
      FaultInjector inj(o);
      bodies_run.store(0);
      const ExecutionReport rep = run_with_injector(g, inj, threads);
      ASSERT_EQ(rep.report.failed.size(), 1u) << "victim=" << victim;
      EXPECT_EQ(rep.report.failed[0], victim);
      const std::set<TaskId> cancelled(rep.report.cancelled.begin(),
                                       rep.report.cancelled.end());
      EXPECT_EQ(cancelled, closure)
          << "victim=" << victim << " threads=" << threads;
      // Independent subgraphs drained: every non-poisoned body ran.
      const std::size_t expect_run = g.num_tasks() - 1 - closure.size();
      EXPECT_EQ(rep.tasks_run, expect_run);
      EXPECT_EQ(bodies_run.load(), int(expect_run));
      ASSERT_TRUE(rep.report.first_error);
      EXPECT_THROW(std::rethrow_exception(rep.report.first_error),
                   InjectedFault);
    }
  }
}

TEST(FaultInjection, LegacyRethrowContractStillHolds) {
  const TaskGraph g = make_cholesky_shape_graph(3);
  FaultInjectionOptions o;
  o.kind = FaultKind::TaskException;
  o.target_task = 0;
  FaultInjector inj(o);
  ExecutorOptions opts;  // rethrow_errors defaults to true
  opts.fault_injector = &inj;
  EXPECT_THROW(execute(g, opts), InjectedFault);
}

TEST(FaultInjection, TraceMarksStatusAndMetricsCountOutcomes) {
  const TaskGraph g = make_cholesky_shape_graph(4);
  const TaskId victim = 0;  // POTRF(0): everything depends on it
  const std::set<TaskId> closure = transitive_closure(g, victim);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    FaultInjectionOptions o;
    o.kind = FaultKind::TaskException;
    o.target_task = victim;
    FaultInjector inj(o);
    MetricsRegistry metrics;
    const ExecutionReport rep = run_with_injector(g, inj, threads, &metrics,
                                                  /*capture_trace=*/true);
    ASSERT_EQ(rep.trace.size(), g.num_tasks());
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    for (const TaskTraceEntry& e : rep.trace) {
      if (e.status == TaskStatus::Failed) {
        ++failed;
        EXPECT_EQ(e.task, victim);
      }
      if (e.status == TaskStatus::Cancelled) {
        ++cancelled;
        EXPECT_TRUE(closure.count(e.task)) << e.task;
      }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(cancelled, closure.size());
    const auto snap = metrics.snapshot();
    const auto counter = [&](const std::string& name) -> std::uint64_t {
      for (const auto& [n, v] : snap.counters) {
        if (n == name) return v;
      }
      return 0;
    };
    EXPECT_EQ(counter("executor.tasks_failed"), 1u);
    EXPECT_EQ(counter("executor.tasks_cancelled"), closure.size());
    EXPECT_EQ(counter("executor.tasks_retired"), g.num_tasks());
  }
}

TEST(FaultInjection, DisabledInjectorIsInert) {
  std::atomic<int> bodies_run{0};
  const TaskGraph g = make_cholesky_shape_graph(4, &bodies_run);
  FaultInjectionOptions o;  // kind = None
  o.probability = 1.0;
  FaultInjector inj(o);
  const ExecutionReport rep = run_with_injector(g, inj, 4);
  EXPECT_TRUE(rep.report.ok());
  EXPECT_EQ(rep.tasks_run, g.num_tasks());
  EXPECT_EQ(bodies_run.load(), int(g.num_tasks()));
  EXPECT_EQ(inj.injections(), 0u);
}

// TSan-labelled stress: inject probabilistic failures on an oversubscribed
// pool, many rounds; every round must quiesce with no lost wakeups,
// no leaked or double-run tasks (status counts partition the graph, bodies
// ran exactly once each), and a failure set identical across rounds.
TEST(FaultInjection, StressInjectionUnderWorkStealing) {
  std::atomic<int> bodies_run{0};
  const TaskGraph g = make_random_graph(300, 40, 99, &bodies_run);
  FaultInjectionOptions o;
  o.kind = FaultKind::TaskException;
  o.probability = 0.08;
  o.seed = 1234;

  std::vector<TaskId> ref_failed;
  std::vector<TaskId> ref_cancelled;
  for (int round = 0; round < 10; ++round) {
    FaultInjector inj(o);
    bodies_run.store(0);
    const ExecutionReport rep = run_with_injector(g, inj, 8);
    EXPECT_EQ(rep.tasks_run + rep.report.failed.size() +
                  rep.report.cancelled.size(),
              g.num_tasks());
    EXPECT_EQ(bodies_run.load(), int(rep.tasks_run));
    if (round == 0) {
      ref_failed = rep.report.failed;
      ref_cancelled = rep.report.cancelled;
      ASSERT_FALSE(ref_failed.empty());
    } else {
      EXPECT_EQ(rep.report.failed, ref_failed) << "round " << round;
      EXPECT_EQ(rep.report.cancelled, ref_cancelled) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace mpgeo
