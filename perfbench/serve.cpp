// serve: a closed loop of fits through the FitServer.
//
// 4 clients each submit their next fit as soon as the previous one returns
// (no sleeping, no polling: each blocks on its future). The server runs 4
// workers and 4 slots. Fits follow bench_serving's tenant mix: 8 SqExp /
// PowExp tenants, n = 40..64 on 4 shared station sets, tile 16, u_req 1e-4,
// a 30-evaluation budget.
//
// Why: each evaluation is ~30 tiny tasks, escalation retries add a large
// share of extra factorizations and some evaluations return the sentinel,
// so session hand-off, graph building and escalation dominate while kernel
// time is negligible.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/mle.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "serve/fit_server.hpp"
#include "stats/covariance.hpp"
#include "stats/field.hpp"
#include "stats/locations.hpp"

namespace perfbench {
namespace {

using namespace mpgeo;

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSlots = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kTenants = 8;
/// A fit that has not returned after this long counts as hung (a lost
/// wakeup in the session shows up as a failed run, not a stalled one).
constexpr double kFitTimeoutS = 30.0;
/// Window length of the windowed throughput and latency medians.
constexpr double kWindowS = 2.0;
/// Requests whose served results are checked against a serial fit_mle
/// (three per tenant).
constexpr std::size_t kSample = 3 * kTenants;

struct Tenant {
  CovKind kind;
  std::shared_ptr<const LocationSet> locations;
  std::string name;
};

/// The request stream: tenants i and i + 4 share a station set; request r
/// belongs to tenant r % 8 and carries its own field realization. The
/// stream is a fixed pool that the closed loop cycles through.
struct Stream {
  std::vector<Tenant> tenants;
  std::vector<std::vector<double>> observations;
  MleOptions options;
};

Stream make_stream(const Args& args) {
  static constexpr std::size_t kSizes[] = {40, 48, 56, 64};
  Stream st;
  std::vector<std::shared_ptr<const LocationSet>> pool;
  for (std::size_t j = 0; j < std::size(kSizes); ++j) {
    Rng rng(args.seed * 1000003ull + j);
    pool.push_back(std::make_shared<const LocationSet>(
        generate_locations(kSizes[j], 2, rng)));
  }
  for (std::size_t i = 0; i < kTenants; ++i) {
    Tenant t;
    t.kind = i % 4 == 3 ? CovKind::PowExp : CovKind::SqExp;
    t.locations = pool[i % pool.size()];
    t.name = "tenant" + std::to_string(i);
    st.tenants.push_back(std::move(t));
  }
  const std::size_t pool_size = args.smoke ? 64 : 512;
  Rng root(args.seed ^ 0xA5A5A5A5ull);
  for (std::size_t r = 0; r < pool_size; ++r) {
    const Tenant& t = st.tenants[r % kTenants];
    const std::vector<double> theta =
        t.kind == CovKind::SqExp ? std::vector<double>{1.0, 0.1}
                                 : std::vector<double>{1.0, 0.1, 1.0};
    Rng rng = root.spawn(r);
    st.observations.push_back(
        sample_field(Covariance(t.kind), *t.locations, theta, rng));
  }
  st.options.u_req = 1e-4;
  st.options.tile = 16;
  st.options.num_threads = kWorkers;
  st.options.optim.max_evaluations = args.smoke ? 8 : 30;
  st.options.optim.tolerance = 1e-3;
  return st;
}

FitRequest request(const Stream& st, std::size_t r) {
  const std::size_t obs = r % st.observations.size();
  const Tenant& t = st.tenants[obs % kTenants];
  FitRequest req;
  req.kind = t.kind;
  req.locations = t.locations;
  req.observations = st.observations[obs];
  req.options = st.options;
  req.tenant = t.name;
  return req;
}

struct Completed {
  std::size_t index = 0;
  double end_s = 0.0;  ///< completion time on now_s()
  double latency_s = 0.0;
  FitResponse response;
};

/// Run the closed loop for `seconds`; every response is kept. Clients stop
/// submitting once the time is up and finish the fit they have in flight.
std::vector<Completed> closed_loop(FitServer& server, const Stream& st,
                                   double seconds, double& start_s,
                                   double& wall_s, bool& hung) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<Completed> done;
  std::atomic<bool> timed_out{false};
  const double t0 = now_s();
  const double t_end = t0 + seconds;
  start_s = t0;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<Completed> mine;
      while (now_s() < t_end && !timed_out) {
        const std::size_t r = next.fetch_add(1);
        const double s0 = now_s();
        std::future<FitResponse> f = server.submit(request(st, r));
        if (f.wait_for(std::chrono::duration<double>(kFitTimeoutS)) !=
            std::future_status::ready) {
          timed_out = true;
          break;
        }
        Completed c;
        c.response = f.get();
        c.end_s = now_s();
        c.latency_s = c.end_s - s0;
        c.index = r;
        mine.push_back(std::move(c));
      }
      std::lock_guard lk(mu);
      for (Completed& c : mine) done.push_back(std::move(c));
    });
  }
  for (std::thread& t : clients) t.join();
  wall_s = now_s() - t0;
  hung = timed_out;
  return done;
}

/// Throughput and median latency per window of `window_s` seconds (fits
/// fall in the window they completed in), then the median over windows, so
/// a burst of interference from outside the process moves a few windows,
/// not the figure.
struct Windowed {
  double fits_per_s = 0.0;
  double p50_ms = 0.0;
  std::size_t windows = 0;
};

Windowed windowed(const std::vector<Completed>& done, double start_s,
                  double seconds, double window_s) {
  const std::size_t n =
      std::max<std::size_t>(1, std::size_t(seconds / window_s));
  const double w = seconds / double(n);
  std::vector<std::vector<double>> lat(n);
  for (const Completed& c : done) {
    const double at = (c.end_s - start_s) / w;
    if (at >= 0 && at < double(n)) lat[std::size_t(at)].push_back(c.latency_s);
  }
  std::vector<double> rate, p50;
  for (const auto& l : lat) {
    if (l.empty()) continue;
    rate.push_back(double(l.size()) / w);
    p50.push_back(1e3 * median(l));
  }
  Windowed out;
  out.windows = rate.size();
  if (!rate.empty()) {
    out.fits_per_s = median(rate);
    out.p50_ms = median(p50);
  }
  return out;
}

FitServerOptions server_options(MetricsRegistry* reg, bool spans) {
  FitServerOptions o;
  o.num_threads = kWorkers;
  o.fit_slots = kSlots;
  o.queue_capacity = 4 * kClients;
  o.metrics = reg;
  o.capture_fit_spans = spans;
  return o;
}

bool same_fit(const MleResult& a, const MleResult& b) {
  return a.theta.size() == b.theta.size() &&
         std::memcmp(a.theta.data(), b.theta.data(),
                     a.theta.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.loglik, &b.loglik, sizeof a.loglik) == 0 &&
         a.evaluations == b.evaluations;
}

/// The serial references of the bitwise check: kClients threads fit the
/// first `sample` requests of the stream with fit_mle on a single thread
/// each (the baseline without a server).
struct SerialBatch {
  std::vector<double> wall_s;
  std::vector<MleResult> sample;
};

SerialBatch serial_batch(const Stream& st, std::size_t sample) {
  SerialBatch out;
  out.sample.resize(sample);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      for (std::size_t r = next++; r < sample; r = next++) {
        FitRequest req = request(st, r);
        req.options.num_threads = 1;
        const double t0 = now_s();
        MleResult res = fit_mle(Covariance(req.kind), *req.locations,
                                req.observations, req.options);
        const double wall = now_s() - t0;
        std::lock_guard lk(mu);
        out.wall_s.push_back(wall);
        out.sample[r] = std::move(res);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// Every response must be Ok, and served fits of the first requests of the
/// stream (three per tenant) must equal the serial fit_mle of the same
/// request bit for bit. Each fit is one operation.
void check_responses(const Args& args, const std::vector<MleResult>& serial,
                     std::vector<Completed>& done, Result& out) {
  if (args.corrupt == "outcome" && !done.empty()) {
    done.back().response.outcome = FitOutcome::Error;
  }
  for (Completed& c : done) {
    if (args.corrupt == "theta" && c.index == 0) {
      double& t = c.response.result.theta[0];
      t = std::nextafter(t, 3.0);
    }
    const FitResponse& r = c.response;
    bool ok = out.check(r.outcome == FitOutcome::Ok,
                        "fit " + std::to_string(c.index) +
                            " outcome not Ok: " + r.error);
    if (ok && c.index < serial.size()) {
      ok = out.check(same_fit(serial[c.index], r.result),
                     "served fit " + std::to_string(c.index) +
                         " differs from a serial fit_mle of the request");
    }
    out.op(ok);
  }
}

}  // namespace

void run_serve(const Args& args, Result& out) {
  Stream st;
  std::unique_ptr<FitServer> server;
  MetricsRegistry reg;
  // Set-up: the seeded stream, the server, and a warm-up round of one fit
  // per tenant (geometries registered, workspaces pooled).
  const double setup_s = median_setup_seconds(5, [&] {
    server.reset();
    st = make_stream(args);
    server = std::make_unique<FitServer>(
        server_options(args.trace ? &reg : nullptr, args.trace));
    std::vector<std::future<FitResponse>> warm;
    for (std::size_t t = 0; t < kTenants; ++t) {
      warm.push_back(server->submit(request(st, t)));
    }
    for (auto& f : warm) f.get();
  });

  if (!args.trace) {
    double start = 0.0, wall = 0.0;
    bool hung = false;
    std::vector<Completed> done =
        closed_loop(*server, st, args.seconds, start, wall, hung);
    if (!out.check(!hung, "a fit did not return within the timeout")) {
      out.op(false);
      server.release();  // its drivers may be stuck: never join them
      return;
    }
    server->shutdown();
    out.set("peak_rss_mb", peak_rss_mb());
    const SerialBatch serial = serial_batch(st, kSample);
    std::vector<double> lat_ms, serial_ms;
    for (const Completed& c : done) lat_ms.push_back(1e3 * c.latency_s);
    for (double w : serial.wall_s) serial_ms.push_back(1e3 * w);
    check_responses(args, serial.sample, done, out);
    const Tail tail = tail_with_ten_beyond(lat_ms);
    const Windowed win = windowed(done, start, args.seconds, kWindowS);
    out.set("setup_s", setup_s);
    out.set("op_ms", win.p50_ms);
    out.set("ops_per_s", win.fits_per_s);
    out.info("windows", double(win.windows), "count", "-");
    out.info("fits_per_s", double(done.size()) / wall, "1/s", "higher");
    out.info("fit_p50_ms", median(lat_ms), "ms", "lower");
    out.info("fit_p95_ms", percentile(lat_ms, 95), "ms", "lower");
    out.info("fit_tail_pct", tail.pct, "%", "-");
    out.info("fit_tail_ms", tail.value, "ms", "lower");
    out.info("fits", double(done.size()), "count", "-");
    out.info("serial_fit_ms", median(serial_ms), "ms", "lower");
    return;
  }

  // Traced pass: a server without registry or spans runs the loop for half
  // the time (the untraced throughput), then the set-up's server, which
  // records both, runs it for the other half.
  const double half = std::max(1.0, 0.5 * args.seconds);
  double start = 0.0, plain_wall = 0.0, wall = 0.0;
  bool hung = false;
  Windowed plain_win;
  {
    auto plain = std::make_unique<FitServer>(server_options(nullptr, false));
    const auto plain_done =
        closed_loop(*plain, st, half, start, plain_wall, hung);
    plain_win = windowed(plain_done, start, half, kWindowS);
    if (hung) plain.release();  // its drivers may be stuck: never join them
  }
  // The registry also counted the set-up's warm-up fits; count from here.
  const MetricsRegistry::Snapshot before = reg.snapshot();
  const auto counter = [&](const std::string& name) {
    std::uint64_t base = 0;
    for (const auto& [n, v] : before.counters) {
      if (n == name) base = v;
    }
    return double(reg.counter_value(name) - base);
  };
  std::vector<Completed> done;
  if (!hung) done = closed_loop(*server, st, half, start, wall, hung);
  if (!out.check(!hung, "a fit did not return within the timeout")) {
    out.op(false);
    server.release();
    return;
  }
  server->shutdown();
  check_responses(args, serial_batch(st, kSample).sample, done, out);

  std::vector<double> queue_ms, run_ms, lat_ms;
  double evals = 0.0, queue_s = 0.0, total_s = 0.0, run_s = 0.0;
  for (const Completed& c : done) {
    queue_ms.push_back(1e3 * c.response.queue_seconds);
    run_ms.push_back(1e3 * c.response.run_seconds);
    lat_ms.push_back(1e3 * c.latency_s);
    evals += c.response.result.evaluations;
    queue_s += c.response.queue_seconds;
    run_s += c.response.run_seconds;
    total_s += c.response.total_seconds;
  }
  const double fits = double(done.size());
  const double breakdowns = counter("cholesky.breakdowns");
  const double escalations = counter("cholesky.escalations");
  const double covgen_s = 1e-9 * counter("covgen.nanos");
  const double tasks = counter("executor.tasks_retired");
  const double geo_hits = counter("serve.geometry_hits");
  const double geo_builds = counter("serve.geometry_builds");
  const double started = counter("serve.fits_started");
  const double fills = evals + escalations;

  out.set("covgen.fill_ms", 1e3 * covgen_s / fills);
  out.set("covgen.share", covgen_s / run_s);
  out.set("covgen.mvalues_per_s",
          1e-6 * counter("covgen.values") / covgen_s);
  out.set("chol.breakdowns_per_eval", breakdowns / evals);
  out.set("chol.retry_frac", escalations / evals);
  out.set("sched.tasks_per_eval", tasks / evals);
  out.set("sched.parks_per_ktask",
          1e3 * counter("executor.parks") / tasks);
  out.set("sched.steals_per_ktask", 1e3 * counter("executor.steals") / tasks);
  out.set("mle.sentinel_frac", (breakdowns - escalations) / evals);
  out.set("optim.evals", evals / fits);
  out.set("serve.queue_ms_p50", median(queue_ms));
  out.set("serve.run_ms_p50", median(run_ms));
  out.set("serve.fit_p95_ms", percentile(lat_ms, 95));
  out.set("serve.geometry_hit_frac", geo_hits / (geo_hits + geo_builds));
  out.set("serve.workspace_reuse_frac",
          counter("serve.workspace_reuses") / started);
  out.set("serve.evals_per_fit", evals / fits);
  // Ledger over fit time (submit -> response): the queue and covariance
  // generation are measured; the rest of each fit's run is not taken apart
  // from outside the server.
  out.set("ledger.unattributed_frac", 1.0 - (queue_s + covgen_s) / total_s);
  out.set("trace.overhead_frac",
          plain_win.fits_per_s /
                  windowed(done, start, half, kWindowS).fits_per_s -
              1.0);
  out.info("serve.fits_traced", fits, "count", "-");

  // Spans: one root per fit (submit -> end on the server clock) with its
  // queue and run children; all spans of a fit share its id.
  Ledger led;
  for (const FitSpan& f : server->fit_spans()) {
    const int root = led.add({"fit " + f.tenant, "", f.submit_seconds,
                              f.end_seconds, -1, f.fit_id, 0});
    led.add({"queue", "serve.queue", f.submit_seconds, f.start_seconds, root,
             f.fit_id, 0});
    led.add({"run", "serve.run", f.start_seconds, f.end_seconds, root,
             f.fit_id, 1 + int(f.slot)});
  }
  led.write_chrome(args.workdir + "/serve.trace.json");
}

}  // namespace perfbench
