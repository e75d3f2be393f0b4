#include "serve/fit_server.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/shared_pager.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor_session.hpp"

namespace mpgeo {
namespace {

// Prometheus-style cumulative latency buckets (total seconds per fit,
// admission -> completion), reported as serve.fit_latency_ms.le_* counters:
// every bucket whose bound is >= the observed latency is incremented, plus
// .count and .sum_us, so p-quantiles can be read off any scrape.
constexpr double kLatencyBucketsMs[] = {1, 3, 10, 30, 100, 300, 1000, 3000};

}  // namespace

std::string to_string(FitPriority p) {
  switch (p) {
    case FitPriority::Interactive:
      return "interactive";
    case FitPriority::Batch:
      return "batch";
    case FitPriority::BestEffort:
      return "best_effort";
  }
  return "unknown";
}

struct FitServer::Job {
  std::uint64_t fit_id = 0;
  FitRequest request;
  std::promise<FitResponse> promise;
  double submit_seconds = 0.0;
};

struct FitServer::Impl {
  explicit Impl(const FitServerOptions& options)
      : session(ExecutorSessionOptions{.num_threads = options.num_threads,
                                       .metrics = options.metrics}) {
    if (options.metrics) {
      MetricsRegistry& reg = *options.metrics;
      fits_started = reg.counter("serve.fits_started");
      fits_completed = reg.counter("serve.fits_completed");
      fits_failed = reg.counter("serve.fits_failed");
      fits_shed = reg.counter("serve.fits_shed");
      workspace_reuses = reg.counter("serve.workspace_reuses");
      latency_count = reg.counter("serve.fit_latency_ms.count");
      latency_sum_us = reg.counter("serve.fit_latency_ms.sum_us");
      for (std::size_t i = 0; i < std::size(kLatencyBucketsMs); ++i) {
        latency_buckets[i] = reg.counter(
            "serve.fit_latency_ms.le_" +
            std::to_string(std::uint64_t(kLatencyBucketsMs[i])));
      }
      latency_inf = reg.counter("serve.fit_latency_ms.le_inf");
      queue_depth_gauge = reg.gauge("serve.queue_depth");
      queue_depth_peak = reg.gauge("serve.queue_depth_peak");
    }
    if (options.global_resident_budget != 0) {
      SharedPagerOptions po;
      po.resident_byte_budget = options.global_resident_budget;
      po.capture_residency = options.capture_global_residency;
      po.metrics = options.metrics;
      po.check_invariants = options.check_global_invariants;
      shared_pager = std::make_unique<SharedOocPager>(po);
    }
  }

  void observe_latency(double seconds) {
    const double ms = seconds * 1e3;
    latency_count.add();
    latency_sum_us.add(std::uint64_t(seconds * 1e6));
    for (std::size_t i = 0; i < std::size(kLatencyBucketsMs); ++i) {
      if (ms <= kLatencyBucketsMs[i]) latency_buckets[i].add();
    }
    latency_inf.add();
  }

  ExecutorSession session;
  /// Global residency arbiter (FitServerOptions::global_resident_budget).
  /// Declared after the session and destroyed before it; every tenant is
  /// detached by the time drivers join in shutdown().
  std::unique_ptr<SharedOocPager> shared_pager;
  Stopwatch clock;  ///< server epoch; all span timestamps are on this clock

  mutable std::mutex mu;
  std::condition_variable cv;
  std::array<std::deque<Job>, kNumFitPriorities> queues;
  std::size_t queued = 0;
  bool started = false;
  bool stopping = false;
  std::vector<std::thread> drivers;

  std::atomic<std::uint64_t> next_fit_id{1};
  std::atomic<std::uint64_t> completion_counter{0};

  std::mutex ws_mu;
  std::vector<std::unique_ptr<MleWorkspace>> workspaces;

  mutable std::mutex span_mu;
  std::vector<FitSpan> spans;

  MetricsRegistry::Counter fits_started, fits_completed, fits_failed,
      fits_shed, workspace_reuses, latency_count, latency_sum_us, latency_inf;
  std::array<MetricsRegistry::Counter, std::size(kLatencyBucketsMs)>
      latency_buckets;
  MetricsRegistry::Gauge queue_depth_gauge, queue_depth_peak;
};

FitServer::FitServer(const FitServerOptions& options)
    : options_(options), geometries_(options.metrics) {
  MPGEO_REQUIRE(options_.fit_slots > 0, "FitServer: fit_slots must be >= 1");
  impl_ = std::make_unique<Impl>(options_);
  if (options_.autostart) start();
}

FitServer::~FitServer() { shutdown(); }

void FitServer::start() {
  std::lock_guard lk(impl_->mu);
  if (impl_->started || impl_->stopping) return;
  impl_->started = true;
  impl_->drivers.reserve(options_.fit_slots);
  for (std::size_t s = 0; s < options_.fit_slots; ++s) {
    impl_->drivers.emplace_back([this, s] { driver_loop(s); });
  }
}

std::future<FitResponse> FitServer::submit(FitRequest request) {
  std::promise<FitResponse> promise;
  std::future<FitResponse> fut = promise.get_future();
  const std::uint64_t id =
      impl_->next_fit_id.fetch_add(1, std::memory_order_relaxed);
  const double now = impl_->clock.seconds();

  bool shutting_down = false;
  {
    std::lock_guard lk(impl_->mu);
    shutting_down = impl_->stopping;
    if (!shutting_down && impl_->queued < options_.queue_capacity) {
      Job job;
      job.fit_id = id;
      job.request = std::move(request);
      job.promise = std::move(promise);
      job.submit_seconds = now;
      const auto tier = std::size_t(job.request.priority);
      impl_->queues[tier % kNumFitPriorities].push_back(std::move(job));
      ++impl_->queued;
      impl_->queue_depth_gauge.set(double(impl_->queued));
      impl_->queue_depth_peak.set_max(double(impl_->queued));
      impl_->cv.notify_one();
      return fut;
    }
  }

  // Shed: the caller gets a structured outcome immediately instead of
  // queueing without bound (or racing a shutdown).
  FitResponse resp;
  resp.outcome = FitOutcome::Shed;
  resp.fit_id = id;
  resp.error = shutting_down
                   ? "fit server is shutting down"
                   : "admission queue saturated (capacity " +
                         std::to_string(options_.queue_capacity) + ")";
  impl_->fits_shed.add();
  if (options_.capture_fit_spans) {
    FitSpan span;
    span.fit_id = id;
    span.tenant = request.tenant;
    span.priority = request.priority;
    span.outcome = FitOutcome::Shed;
    span.submit_seconds = span.start_seconds = span.end_seconds = now;
    std::lock_guard lk(impl_->span_mu);
    impl_->spans.push_back(std::move(span));
  }
  promise.set_value(std::move(resp));
  return fut;
}

void FitServer::driver_loop(std::size_t slot) {
  for (;;) {
    Job job;
    {
      std::unique_lock lk(impl_->mu);
      impl_->cv.wait(lk,
                     [&] { return impl_->stopping || impl_->queued > 0; });
      if (impl_->queued == 0) return;  // stopping and fully drained
      for (auto& q : impl_->queues) {  // highest tier first
        if (!q.empty()) {
          job = std::move(q.front());
          q.pop_front();
          break;
        }
      }
      --impl_->queued;
      impl_->queue_depth_gauge.set(double(impl_->queued));
    }
    run_fit(slot, std::move(job));
  }
}

void FitServer::run_fit(std::size_t slot, Job job) {
  const double start = impl_->clock.seconds();
  impl_->fits_started.add();

  // Lease a workspace from the pool and rebind it: resetting the fingerprint
  // is the sanctioned rebind (core/mle.hpp), and the geometry below is
  // re-acquired per fit from the fingerprint-keyed registry, so a pooled
  // workspace can never pair stale distances with a new tenant's locations.
  std::unique_ptr<MleWorkspace> ws;
  {
    std::lock_guard lk(impl_->ws_mu);
    if (!impl_->workspaces.empty()) {
      ws = std::move(impl_->workspaces.back());
      impl_->workspaces.pop_back();
    }
  }
  if (ws) {
    impl_->workspace_reuses.add();
  } else {
    ws = std::make_unique<MleWorkspace>();
  }
  ws->locs_fingerprint = 0;

  FitResponse resp;
  resp.fit_id = job.fit_id;
  try {
    MPGEO_REQUIRE(job.request.locations != nullptr,
                  "FitRequest: locations must be non-null");
    const LocationSet& locs = *job.request.locations;
    MPGEO_REQUIRE(job.request.observations.size() == locs.size(),
                  "FitRequest: observations/locations size mismatch");

    MleOptions eff = job.request.options;
    eff.session = &impl_->session;  // the whole point: one shared pool
    if (!eff.metrics) eff.metrics = options_.metrics;
    if (impl_->shared_pager) {
      // Memory oversubscription mirrors the core oversubscription: the fit
      // runs out-of-core as one tenant of the server-wide arbiter, at a
      // paging precedence equal to its admission tier (the enums share the
      // numbering by design). Knobs move residency, never values — results
      // stay bit-identical to the per-call-pager (and resident) fit.
      eff.ooc.enabled = true;
      eff.ooc.shared = impl_->shared_pager.get();
      const auto tier = std::size_t(job.request.priority) % kNumFitPriorities;
      eff.ooc.floor_bytes = options_.resident_floor_bytes[tier];
      eff.ooc.priority = static_cast<PagerPriority>(tier);
      eff.ooc.tenant = job.request.tenant.empty()
                           ? "fit-" + std::to_string(job.fit_id)
                           : job.request.tenant;
    }
    // Cross-tenant sharing: identical location sets (by fingerprint)
    // resolve to one immutable TileGeometry for every tenant.
    ws->geometry = geometries_.acquire(locs, eff.tile);

    const Covariance cov(job.request.kind);
    resp.result = fit_mle(cov, locs, job.request.observations, eff, *ws);
    resp.outcome = FitOutcome::Ok;
  } catch (const std::exception& e) {
    resp.outcome = FitOutcome::Error;
    resp.error = e.what();
  }

  {
    std::lock_guard lk(impl_->ws_mu);
    impl_->workspaces.push_back(std::move(ws));
  }

  const double end = impl_->clock.seconds();
  resp.completion_index =
      impl_->completion_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  resp.queue_seconds = start - job.submit_seconds;
  resp.run_seconds = end - start;
  resp.total_seconds = end - job.submit_seconds;

  if (resp.outcome == FitOutcome::Ok) {
    impl_->fits_completed.add();
  } else {
    impl_->fits_failed.add();
  }
  if (options_.metrics) impl_->observe_latency(resp.total_seconds);

  if (options_.capture_fit_spans) {
    FitSpan span;
    span.fit_id = job.fit_id;
    span.tenant = job.request.tenant;
    span.slot = slot;
    span.priority = job.request.priority;
    span.outcome = resp.outcome;
    span.submit_seconds = job.submit_seconds;
    span.start_seconds = start;
    span.end_seconds = end;
    std::lock_guard lk(impl_->span_mu);
    impl_->spans.push_back(std::move(span));
  }

  job.promise.set_value(std::move(resp));
}

void FitServer::shutdown() {
  std::vector<std::thread> drivers;
  std::vector<Job> orphans;
  {
    std::lock_guard lk(impl_->mu);
    impl_->stopping = true;
    drivers.swap(impl_->drivers);
    if (!impl_->started) {
      // Never started: there are no drivers to drain the backlog, so shed
      // it here rather than leaving the futures unresolved forever.
      for (auto& q : impl_->queues) {
        for (auto& job : q) orphans.push_back(std::move(job));
        q.clear();
      }
      impl_->queued = 0;
      impl_->queue_depth_gauge.set(0.0);
    }
  }
  impl_->cv.notify_all();
  for (auto& t : drivers) t.join();
  for (auto& job : orphans) {
    FitResponse resp;
    resp.outcome = FitOutcome::Shed;
    resp.fit_id = job.fit_id;
    resp.error = "fit server shut down before start()";
    impl_->fits_shed.add();
    job.promise.set_value(std::move(resp));
  }
}

std::size_t FitServer::queue_depth() const {
  std::lock_guard lk(impl_->mu);
  return impl_->queued;
}

std::size_t FitServer::num_threads() const {
  return impl_->session.num_threads();
}

std::vector<FitSpan> FitServer::fit_spans() const {
  std::lock_guard lk(impl_->span_mu);
  return impl_->spans;
}

SharedOocPager* FitServer::shared_pager() {
  return impl_->shared_pager.get();
}

}  // namespace mpgeo
