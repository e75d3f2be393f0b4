// Serving-layer tests (DESIGN.md 5f): the persistent ExecutorSession, the
// cross-tenant GeometryRegistry, and the FitServer's admission control,
// priority ordering, shedding, and — the load-bearing property — bitwise
// identity of every tenant's fit against a serial fit_mle loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mle.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor_session.hpp"
#include "runtime/task_graph.hpp"
#include "serve/arrival_trace.hpp"
#include "serve/fit_server.hpp"
#include "serve/geometry_registry.hpp"
#include "stats/covariance.hpp"
#include "stats/field.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

// ---------------------------------------------------------------- helpers

/// A chain of `length` tasks on one datum (strict dataflow order), each
/// incrementing `counter`.
TaskGraph make_chain(std::size_t length, std::atomic<int>* counter) {
  TaskGraph g;
  const DataId d = g.add_data({"d", 64, -1});
  for (std::size_t i = 0; i < length; ++i) {
    TaskInfo ti;
    ti.kind = KernelKind::GEMM;
    ti.tk = int(i);
    g.add_task(ti, {{d, AccessMode::ReadWrite}},
               [counter] { counter->fetch_add(1); });
  }
  return g;
}

struct Scenario {
  std::shared_ptr<const LocationSet> locs;
  std::vector<double> z;
};

Scenario make_scenario(const Covariance& cov, const std::vector<double>& truth,
                       std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto locs = std::make_shared<const LocationSet>(generate_locations(n, 2, rng));
  Rng field_rng = rng.spawn(12345);
  return {locs, sample_field(cov, *locs, truth, field_rng)};
}

/// Serving-tier options: small tiles, loose accuracy, bounded optimizer.
MleOptions serving_options() {
  MleOptions opts;
  opts.u_req = 1e-4;
  opts.tile = 16;
  opts.num_threads = 2;
  opts.optim.max_evaluations = 30;
  opts.optim.tolerance = 1e-3;
  return opts;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

// ------------------------------------------------------- ExecutorSession

TEST(ExecutorSession, RunsAGraphToCompletion) {
  ExecutorSession session(ExecutorSessionOptions{.num_threads = 2});
  std::atomic<int> counter{0};
  TaskGraph g = make_chain(10, &counter);
  const ExecutionReport rep = session.run(g, ExecutorOptions{});
  EXPECT_EQ(rep.tasks_run, 10u);
  EXPECT_TRUE(rep.report.ok());
  EXPECT_EQ(counter.load(), 10);
}

TEST(ExecutorSession, ManyProducersShareOnePool) {
  ExecutorSession session(ExecutorSessionOptions{.num_threads = 2});
  constexpr int kProducers = 4;
  constexpr int kGraphsEach = 8;
  constexpr int kChain = 6;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kGraphsEach; ++i) {
        std::atomic<int> local{0};
        TaskGraph g = make_chain(kChain, &local);
        const ExecutionReport rep = session.run(g, ExecutorOptions{});
        EXPECT_EQ(rep.tasks_run, std::size_t(kChain));
        counter.fetch_add(local.load());
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(counter.load(), kProducers * kGraphsEach * kChain);
}

TEST(ExecutorSession, BodyFailureSurfacesInReportAndPoisonsDependents) {
  ExecutorSession session(ExecutorSessionOptions{.num_threads = 2});
  TaskGraph g;
  const DataId d = g.add_data({"d", 64, -1});
  std::atomic<int> ran{0};
  TaskInfo ti;
  ti.kind = KernelKind::GEMM;
  const TaskId ok = g.add_task(ti, {{d, AccessMode::ReadWrite}},
                               [&] { ran.fetch_add(1); });
  const TaskId bad = g.add_task(ti, {{d, AccessMode::ReadWrite}},
                                [] { throw std::runtime_error("boom"); });
  const TaskId poisoned = g.add_task(ti, {{d, AccessMode::ReadWrite}},
                                     [&] { ran.fetch_add(1); });
  // Without rethrow_errors, failures come back structured.
  ExecutorOptions structured;
  structured.rethrow_errors = false;
  const ExecutionReport rep = session.run(g, structured);
  EXPECT_EQ(rep.tasks_run, 1u);
  EXPECT_EQ(ran.load(), 1);
  ASSERT_EQ(rep.report.failed, std::vector<TaskId>{bad});
  EXPECT_EQ(rep.report.cancelled, std::vector<TaskId>{poisoned});
  EXPECT_TRUE(rep.report.first_error != nullptr);
  (void)ok;
  // With rethrow_errors (the default) run() rethrows the first failure.
  ExecutorOptions opts;
  opts.rethrow_errors = true;
  EXPECT_THROW(session.run(g, opts), std::runtime_error);
}

// The TSan-relevant end-to-end property: many threads fitting concurrently
// on ONE shared session produce bit-identical results to serial fits.
TEST(ExecutorSession, ConcurrentFitsBitIdenticalToSerial) {
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> truth = {1.0, 0.1};
  constexpr std::size_t kFits = 4;
  std::vector<Scenario> scenarios;
  for (std::size_t i = 0; i < kFits; ++i) {
    scenarios.push_back(make_scenario(cov, truth, 32 + 8 * i, 100 + i));
  }
  const MleOptions base = serving_options();

  std::vector<MleResult> serial(kFits);
  for (std::size_t i = 0; i < kFits; ++i) {
    serial[i] = fit_mle(cov, *scenarios[i].locs, scenarios[i].z, base);
  }

  ExecutorSession session(ExecutorSessionOptions{.num_threads = 2});
  std::vector<MleResult> shared(kFits);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kFits; ++i) {
    threads.emplace_back([&, i] {
      MleOptions opts = base;
      opts.session = &session;
      shared[i] = fit_mle(cov, *scenarios[i].locs, scenarios[i].z, opts);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kFits; ++i) {
    EXPECT_TRUE(bits_equal(serial[i].theta, shared[i].theta)) << "fit " << i;
    EXPECT_TRUE(bits_equal(serial[i].loglik, shared[i].loglik)) << "fit " << i;
  }
}

// ------------------------------------------------------ GeometryRegistry

TEST(GeometryRegistry, SharesOneGeometryPerFingerprintAndTile) {
  MetricsRegistry metrics;
  GeometryRegistry registry(&metrics);
  Rng rng(7);
  const LocationSet locs = generate_locations(48, 2, rng);
  const LocationSet copy = locs;  // distinct object, same fingerprint

  const auto a = registry.acquire(locs, 16);
  const auto b = registry.acquire(copy, 16);
  EXPECT_EQ(a.get(), b.get()) << "identical location sets must share";
  const auto c = registry.acquire(locs, 8);
  EXPECT_NE(a.get(), c.get()) << "tile size is part of the key";

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.bytes(), a->bytes() + c->bytes());
  EXPECT_EQ(metrics.counter_value("serve.geometry_builds"), 2u);
  EXPECT_EQ(metrics.counter_value("serve.geometry_hits"), 1u);
}

// ------------------------------------------------------------- FitServer

TEST(FitServer, ResultsBitIdenticalToSerialLoop) {
  // Mixed kernels — including Matérn, which the bench's default mix omits
  // for throughput reasons; correctness is pinned here instead. Tenants 0
  // and 2 share a location set to exercise cross-tenant geometry sharing.
  struct Case {
    CovKind kind;
    std::vector<double> truth;
  };
  const std::vector<Case> cases = {
      {CovKind::SqExp, {1.0, 0.1}},
      {CovKind::PowExp, {1.0, 0.1, 1.0}},
      {CovKind::SqExp, {1.0, 0.1}},
      {CovKind::Matern, {1.0, 0.1, 0.5}},
  };
  std::vector<Scenario> scenarios;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Scenario s = make_scenario(Covariance(cases[i].kind), cases[i].truth, 32,
                               200 + (i == 2 ? 0 : i));
    if (i == 2) s.locs = scenarios[0].locs;  // alias tenant 0's network
    scenarios.push_back(std::move(s));
  }
  const MleOptions base = serving_options();

  std::vector<MleResult> serial(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    serial[i] = fit_mle(Covariance(cases[i].kind), *scenarios[i].locs,
                        scenarios[i].z, base);
  }

  MetricsRegistry metrics;
  FitServerOptions sopts;
  sopts.num_threads = 2;
  sopts.fit_slots = 3;
  sopts.metrics = &metrics;
  FitServer server(sopts);
  std::vector<std::future<FitResponse>> futures;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    FitRequest req;
    req.kind = cases[i].kind;
    req.locations = scenarios[i].locs;
    req.observations = scenarios[i].z;
    req.options = base;
    req.tenant = "tenant" + std::to_string(i);
    futures.push_back(server.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FitResponse r = futures[i].get();
    ASSERT_EQ(r.outcome, FitOutcome::Ok) << r.error;
    EXPECT_TRUE(bits_equal(serial[i].theta, r.result.theta)) << "fit " << i;
    EXPECT_TRUE(bits_equal(serial[i].loglik, r.result.loglik)) << "fit " << i;
    EXPECT_GE(r.total_seconds, r.run_seconds);
  }
  // Tenants 0 and 2 share one network: 4 acquires, at most 3 builds.
  EXPECT_GE(metrics.counter_value("serve.geometry_hits"), 1u);
  EXPECT_EQ(metrics.counter_value("serve.fits_completed"), cases.size());
  EXPECT_EQ(metrics.counter_value("serve.fits_failed"), 0u);
}

TEST(FitServer, PriorityTiersDrainHighestFirstFifoWithinTier) {
  const Covariance cov(CovKind::SqExp);
  const Scenario s = make_scenario(cov, {1.0, 0.1}, 24, 33);

  FitServerOptions sopts;
  sopts.num_threads = 1;
  sopts.fit_slots = 1;     // one driver: completion order == pop order
  sopts.autostart = false; // enqueue the whole backlog first — no races
  FitServer server(sopts);

  const std::vector<FitPriority> submit_order = {
      FitPriority::BestEffort, FitPriority::Batch,  FitPriority::Interactive,
      FitPriority::BestEffort, FitPriority::Interactive, FitPriority::Batch,
  };
  std::vector<std::future<FitResponse>> futures;
  for (std::size_t i = 0; i < submit_order.size(); ++i) {
    FitRequest req;
    req.locations = s.locs;
    req.observations = s.z;
    req.options = serving_options();
    req.priority = submit_order[i];
    req.tenant = to_string(submit_order[i]) + std::to_string(i);
    futures.push_back(server.submit(std::move(req)));
  }
  EXPECT_EQ(server.queue_depth(), submit_order.size());
  server.start();

  std::vector<FitResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());
  for (const FitResponse& r : responses) {
    ASSERT_EQ(r.outcome, FitOutcome::Ok) << r.error;
  }
  // Submit indices by tier: Interactive {2,4} then Batch {1,5} then
  // BestEffort {0,3}, FIFO inside each tier.
  const std::vector<std::size_t> expected = {2, 4, 1, 5, 0, 3};
  for (std::size_t rank = 0; rank < expected.size(); ++rank) {
    EXPECT_EQ(responses[expected[rank]].completion_index, rank + 1)
        << "submit index " << expected[rank];
  }
}

TEST(FitServer, ShedsBeyondQueueCapacityWithStructuredOutcome) {
  const Covariance cov(CovKind::SqExp);
  const Scenario s = make_scenario(cov, {1.0, 0.1}, 24, 35);

  MetricsRegistry metrics;
  FitServerOptions sopts;
  sopts.num_threads = 1;
  sopts.fit_slots = 1;
  sopts.queue_capacity = 2;
  sopts.autostart = false;  // nothing drains: saturation is deterministic
  sopts.metrics = &metrics;
  FitServer server(sopts);

  std::vector<std::future<FitResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    FitRequest req;
    req.locations = s.locs;
    req.observations = s.z;
    req.options = serving_options();
    futures.push_back(server.submit(std::move(req)));
  }
  // Beyond-capacity submissions resolve immediately, without a driver.
  for (int i = 2; i < 5; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const FitResponse r = futures[i].get();
    EXPECT_EQ(r.outcome, FitOutcome::Shed);
    EXPECT_EQ(r.completion_index, 0u);
    EXPECT_NE(r.error.find("saturated"), std::string::npos) << r.error;
  }
  EXPECT_EQ(metrics.counter_value("serve.fits_shed"), 3u);

  server.start();
  for (int i = 0; i < 2; ++i) {
    const FitResponse r = futures[i].get();
    EXPECT_EQ(r.outcome, FitOutcome::Ok) << r.error;
  }
  EXPECT_EQ(metrics.counter_value("serve.fits_completed"), 2u);
}

TEST(FitServer, ShutdownBeforeStartShedsBacklog) {
  const Covariance cov(CovKind::SqExp);
  const Scenario s = make_scenario(cov, {1.0, 0.1}, 24, 37);
  FitServerOptions sopts;
  sopts.autostart = false;
  FitServer server(sopts);
  FitRequest req;
  req.locations = s.locs;
  req.observations = s.z;
  req.options = serving_options();
  auto fut = server.submit(std::move(req));
  server.shutdown();
  const FitResponse r = fut.get();
  EXPECT_EQ(r.outcome, FitOutcome::Shed);
  EXPECT_NE(r.error.find("shut down"), std::string::npos) << r.error;
  // Post-shutdown submissions shed immediately too.
  FitRequest late;
  late.locations = s.locs;
  late.observations = s.z;
  const FitResponse lr = server.submit(std::move(late)).get();
  EXPECT_EQ(lr.outcome, FitOutcome::Shed);
  EXPECT_NE(lr.error.find("shutting down"), std::string::npos) << lr.error;
}

TEST(FitServer, InvalidRequestsFailStructuredAndServerKeepsServing) {
  const Covariance cov(CovKind::SqExp);
  const Scenario s = make_scenario(cov, {1.0, 0.1}, 24, 39);
  FitServerOptions sopts;
  sopts.num_threads = 1;
  sopts.fit_slots = 1;
  FitServer server(sopts);

  FitRequest null_locs;
  null_locs.observations = s.z;
  const FitResponse r1 = server.submit(std::move(null_locs)).get();
  EXPECT_EQ(r1.outcome, FitOutcome::Error);
  EXPECT_NE(r1.error.find("locations"), std::string::npos) << r1.error;

  FitRequest bad_size;
  bad_size.locations = s.locs;
  bad_size.observations = std::vector<double>(s.z.size() + 1, 0.0);
  const FitResponse r2 = server.submit(std::move(bad_size)).get();
  EXPECT_EQ(r2.outcome, FitOutcome::Error);
  EXPECT_NE(r2.error.find("size mismatch"), std::string::npos) << r2.error;

  FitRequest good;
  good.locations = s.locs;
  good.observations = s.z;
  good.options = serving_options();
  const FitResponse r3 = server.submit(std::move(good)).get();
  EXPECT_EQ(r3.outcome, FitOutcome::Ok) << r3.error;
  EXPECT_TRUE(bits_equal(r3.result.theta,
                         fit_mle(cov, *s.locs, s.z, serving_options()).theta));
}

TEST(FitServer, CapturedSpansExportPerfettoJson) {
  const Covariance cov(CovKind::SqExp);
  const Scenario s = make_scenario(cov, {1.0, 0.1}, 24, 41);
  FitServerOptions sopts;
  sopts.num_threads = 1;
  sopts.fit_slots = 1;
  sopts.queue_capacity = 1;
  sopts.autostart = false;
  sopts.capture_fit_spans = true;
  FitServer server(sopts);

  FitRequest req;
  req.locations = s.locs;
  req.observations = s.z;
  req.options = serving_options();
  req.tenant = "span-tenant";
  auto ok_fut = server.submit(std::move(req));
  FitRequest over;
  over.locations = s.locs;
  over.observations = s.z;
  over.tenant = "shed-tenant";
  auto shed_fut = server.submit(std::move(over));  // capacity 1: shed
  server.start();
  ASSERT_EQ(ok_fut.get().outcome, FitOutcome::Ok);
  ASSERT_EQ(shed_fut.get().outcome, FitOutcome::Shed);
  server.shutdown();

  const std::vector<FitSpan> spans = server.fit_spans();
  ASSERT_EQ(spans.size(), 2u);
  std::size_t ok_spans = 0, shed_spans = 0;
  for (const FitSpan& span : spans) {
    if (span.outcome == FitOutcome::Ok) {
      ++ok_spans;
      EXPECT_LE(span.submit_seconds, span.start_seconds);
      EXPECT_LE(span.start_seconds, span.end_seconds);
    }
    if (span.outcome == FitOutcome::Shed) ++shed_spans;
  }
  EXPECT_EQ(ok_spans, 1u);
  EXPECT_EQ(shed_spans, 1u);

  std::ostringstream os;
  write_fit_spans_chrome_trace(spans, os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("fit-server"), std::string::npos);
  EXPECT_NE(json.find("\"SHED\""), std::string::npos);
  EXPECT_NE(json.find("\"FIT\""), std::string::npos);
  EXPECT_NE(json.find("span-tenant"), std::string::npos);
  EXPECT_NE(json.find("serve.queue_depth"), std::string::npos);
}

// ----------------------------------------------------------- ArrivalTrace

TEST(ArrivalTrace, DeterministicForAFixedSeed) {
  const auto a = poisson_arrival_trace(128, 50.0, 8, 42);
  const auto b = poisson_arrival_trace(128, 50.0, 8, 42);
  ASSERT_EQ(a.size(), 128u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bits_equal(a[i].arrival_seconds, b[i].arrival_seconds));
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].priority, b[i].priority);
  }
  const auto c = poisson_arrival_trace(128, 50.0, 8, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].arrival_seconds != c[i].arrival_seconds ||
              a[i].tenant != c[i].tenant;
  }
  EXPECT_TRUE(differs) << "different seeds must generate different traces";
}

TEST(ArrivalTrace, ShapeMatchesTheProcess) {
  const auto trace = poisson_arrival_trace(256, 100.0, 4, 7);
  double prev = 0.0;
  std::size_t tiers[kNumFitPriorities] = {0, 0, 0};
  for (const ArrivalEvent& e : trace) {
    EXPECT_GE(e.arrival_seconds, prev) << "arrivals must be non-decreasing";
    prev = e.arrival_seconds;
    EXPECT_LT(e.tenant, 4u);
    ++tiers[std::size_t(e.priority)];
  }
  // 10/70/20 split: every tier must be represented in 256 draws.
  EXPECT_GT(tiers[0], 0u);
  EXPECT_GT(tiers[1], tiers[0]);
  EXPECT_GT(tiers[2], 0u);
  // rate <= 0: a closed burst, all arrivals at t = 0.
  for (const ArrivalEvent& e : poisson_arrival_trace(16, 0.0, 4, 7)) {
    EXPECT_EQ(e.arrival_seconds, 0.0);
  }
}

}  // namespace
}  // namespace mpgeo
