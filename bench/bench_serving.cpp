// Multi-tenant serving throughput bench (DESIGN.md 5f): replay a seeded
// Poisson arrival trace of mixed-kernel, mixed-size MLE fits through the
// FitServer and compare against the serial fit_mle loop a batch pipeline
// would run today.
//
//   serial   — fits run one at a time, each on its own per-call executor
//              pool of --threads workers (the pre-server baseline);
//   server   — the same fits multiplexed onto ONE persistent --threads-wide
//              ExecutorSession across --slots concurrent drivers, with
//              cross-tenant TileGeometry sharing.
//
// The bench is also the end-to-end correctness gate: per-fit theta-hat and
// log-likelihood must be BITWISE identical between the two modes (the server
// moves wall time, never values) — any mismatch exits nonzero.
//
// Flags: --fits N --threads T --slots S --tenants K --rate HZ (0 = closed
// burst) --evals E --seed S --json PATH --trace PATH (per-fit Perfetto
// spans) --metrics-json PATH.
//
// --global-budget switches to the oversubscribed-memory gate (DESIGN.md 5j):
// the same trace replays through (A) a server whose fits each run a PRIVATE
// out-of-core pager with the full budget — machine residency is slots x
// budget exactly when traffic peaks — and (B) a server with ONE
// SharedOocPager enforcing that budget globally. Exits nonzero unless:
// every fit in both runs is bitwise identical to the resident serial
// baseline; run B's peak accounted residency is <= budget + one tile; and
// no fit's demand faults exceed its starvation bound (uses). --budget-frac
// sizes the budget as a fraction of the worst-case co-resident working set.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "core/mle.hpp"
#include "core/shared_pager.hpp"
#include "serve/arrival_trace.hpp"
#include "serve/fit_server.hpp"
#include "stats/field.hpp"

namespace {

using namespace mpgeo;

struct Tenant {
  std::string name;
  CovKind kind = CovKind::SqExp;
  std::shared_ptr<const LocationSet> locations;
  std::vector<double> theta_true;
};

/// Tenants cycle through mixed kernels over a pool of four station networks
/// (n = 40..64, the "thousands of small fits" serving regime); tenants i and
/// i+4 share a network, so the run exercises cross-tenant geometry sharing
/// by construction.
///
/// The kernel mix is SqExp-heavy with a PowExp share. Matérn with free nu is
/// deliberately absent from the default mix: its per-entry Bessel evaluation
/// makes small fits compute-bound, so a Matérn-heavy trace measures kernel
/// throughput (identical in both modes) rather than serving efficiency — the
/// thing this bench isolates. Matérn serving correctness is covered by the
/// test suite.
std::vector<Tenant> make_tenants(std::size_t count, std::uint64_t seed) {
  constexpr std::size_t kSizes[] = {40, 48, 56, 64};
  std::vector<std::shared_ptr<const LocationSet>> pool;
  for (std::size_t j = 0; j < std::size(kSizes); ++j) {
    Rng rng(seed + 1000 + j);
    pool.push_back(std::make_shared<const LocationSet>(
        generate_locations(kSizes[j], 2, rng)));
  }
  std::vector<Tenant> tenants;
  for (std::size_t i = 0; i < count; ++i) {
    Tenant t;
    t.kind = i % 4 == 3 ? CovKind::PowExp : CovKind::SqExp;
    t.locations = pool[i % pool.size()];
    t.theta_true = t.kind == CovKind::SqExp
                       ? std::vector<double>{1.0, 0.1}
                       : std::vector<double>{1.0, 0.1, 1.0};
    t.name = "tenant" + std::to_string(i) + "-" + to_string(t.kind) + "-n" +
             std::to_string(t.locations->size());
    tenants.push_back(std::move(t));
  }
  return tenants;
}

MleOptions fit_options(std::size_t threads, std::int64_t evals) {
  MleOptions opts;
  opts.u_req = 1e-4;  // serving-tier accuracy: small fits, loose target
  opts.tile = 16;     // small tiles: per-eval graphs of 10-40 tiny tasks
  opts.num_threads = threads;
  // Bounded optimizer budget: the bench measures serving throughput, not
  // convergence depth; both modes use the same budget, so the bitwise gate
  // still covers every evaluation either mode performs.
  opts.optim.max_evaluations = int(evals);
  opts.optim.tolerance = 1e-3;
  return opts;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// FP64 lower-triangle footprint of one tenant's Sigma at tile size nb.
std::size_t sigma_bytes(std::size_t n, std::size_t nb) {
  const std::size_t nt = (n + nb - 1) / nb;
  const auto rows = [&](std::size_t m) { return std::min(nb, n - m * nb); };
  std::size_t bytes = 0;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      bytes += rows(m) * rows(k) * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t fits = std::size_t(cli.get_int("fits", 200));
  const std::size_t threads = std::size_t(cli.get_int("threads", 0));
  const std::size_t slots = std::size_t(cli.get_int("slots", 8));
  const std::size_t num_tenants = std::size_t(cli.get_int("tenants", 8));
  const double rate_hz = cli.get_double("rate", 0.0);
  const std::int64_t evals = cli.get_int("evals", 30);
  const std::uint64_t seed = std::uint64_t(cli.get_int("seed", 42));
  const std::string json_path = cli.get_string("json", "");
  const std::string trace_path = cli.get_string("trace", "");
  const std::string metrics_path = cli.get_string("metrics-json", "");
  const bool global_budget = cli.get_bool("global-budget", false);
  const double budget_frac = cli.get_double("budget-frac", 0.3);
  cli.check_unused();

  const std::vector<Tenant> tenants = make_tenants(num_tenants, seed);
  const std::vector<ArrivalEvent> trace =
      poisson_arrival_trace(fits, rate_hz, tenants.size(), seed);

  // Per-event observations: each arrival is a fresh realization of its
  // tenant's field, seeded by event index, so the workload is deterministic
  // end to end and both modes fit exactly the same data.
  std::vector<std::vector<double>> observations(trace.size());
  {
    Rng root(seed ^ 0xA5A5A5A5ULL);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Tenant& t = tenants[trace[i].tenant];
      Rng rng = root.spawn(i);
      observations[i] =
          sample_field(Covariance(t.kind), *t.locations, t.theta_true, rng);
    }
  }
  const MleOptions base_opts = fit_options(threads, evals);

  std::printf("serving bench: %zu fits, %zu tenants, rate %s, threads %zu, "
              "slots %zu, %lld evals/fit\n",
              fits, tenants.size(),
              rate_hz > 0 ? (std::to_string(rate_hz) + " Hz").c_str()
                          : "closed burst",
              threads, slots, (long long)evals);

  // --- Serial baseline: one fit at a time, per-call pools. --------------
  std::vector<MleResult> serial(trace.size());
  Stopwatch serial_sw;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Tenant& t = tenants[trace[i].tenant];
    serial[i] =
        fit_mle(Covariance(t.kind), *t.locations, observations[i], base_opts);
  }
  const double serial_wall = serial_sw.seconds();
  const double serial_fps = double(trace.size()) / serial_wall;

  // --- Oversubscribed-memory gate (--global-budget). --------------------
  if (global_budget) {
    std::size_t max_sigma = 0;
    for (const Tenant& t : tenants) {
      max_sigma = std::max(max_sigma,
                           sigma_bytes(t.locations->size(), base_opts.tile));
    }
    const std::size_t working_set = slots * max_sigma;
    const std::size_t budget = std::max<std::size_t>(
        1, std::size_t(budget_frac * double(working_set)));
    const std::size_t tile_bytes =
        base_opts.tile * base_opts.tile * sizeof(double);
    std::printf("\nglobal budget: %zu bytes (%.0f%% of worst-case "
                "co-resident working set %zu = %zu slots x %zu bytes)\n",
                budget, budget_frac * 100.0, working_set, slots, max_sigma);

    struct ServerRun {
      std::vector<FitResponse> responses;
      double wall = 0.0;
      double fps = 0.0;
      SharedPagerStats shared;
      std::vector<std::pair<double, double>> residency;
      std::vector<FitSpan> spans;
    };
    const auto replay = [&](const MleOptions& ropts, FitServerOptions so) {
      ServerRun out;
      so.num_threads = threads;
      so.fit_slots = slots;
      so.queue_capacity = trace.size();
      FitServer srv(so);
      std::vector<std::future<FitResponse>> fut;
      fut.reserve(trace.size());
      Stopwatch sw;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (rate_hz > 0) {
          const double now = sw.seconds();
          if (trace[i].arrival_seconds > now) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                trace[i].arrival_seconds - now));
          }
        }
        const Tenant& t = tenants[trace[i].tenant];
        FitRequest req;
        req.kind = t.kind;
        req.locations = t.locations;
        req.observations = observations[i];
        req.options = ropts;
        req.priority = trace[i].priority;
        req.tenant = t.name;
        fut.push_back(srv.submit(std::move(req)));
      }
      out.responses.reserve(trace.size());
      for (auto& f : fut) out.responses.push_back(f.get());
      out.wall = sw.seconds();
      out.fps = double(trace.size()) / out.wall;
      if (SharedOocPager* sp = srv.shared_pager()) {
        out.shared = sp->stats();
        out.residency = sp->residency_samples();
      }
      if (so.capture_fit_spans) out.spans = srv.fit_spans();
      return out;
    };

    // Run A: every fit pages through a pager of its own with the full
    // budget — each fit individually stays under it, but nothing stops all
    // --slots concurrent fits from holding budget bytes at once. This is
    // the best a per-fit pager can do, and the baseline the shared arbiter
    // must match bit-for-bit while actually bounding machine residency.
    MleOptions priv_opts = base_opts;
    priv_opts.ooc.enabled = true;
    priv_opts.ooc.resident_byte_budget = budget;
    MetricsRegistry reg_a;
    FitServerOptions a_opts;
    a_opts.metrics = &reg_a;
    const ServerRun run_a = replay(priv_opts, a_opts);

    // Run B: one SharedOocPager owns the budget; fits bring no pager of
    // their own and are enrolled as tenants at their admission tier. Small
    // per-tier floors exercise the floor guarantee whenever they are
    // trivially feasible (every slot could hold its floor concurrently).
    MetricsRegistry reg_b;
    FitServerOptions b_opts;
    b_opts.metrics = &reg_b;
    b_opts.global_resident_budget = budget;
    b_opts.capture_fit_spans = !trace_path.empty();
    b_opts.capture_global_residency = !trace_path.empty();
    if (slots * tile_bytes * 2 <= budget) {
      b_opts.resident_floor_bytes = {tile_bytes, tile_bytes, tile_bytes};
    }
    const ServerRun run_b = replay(base_opts, b_opts);

    // Gate 1: both paged runs bitwise identical to the resident serial
    // baseline — paging (private or shared) moves bytes, never values.
    std::size_t gb_mismatches = 0;
    const auto check_run = [&](const ServerRun& run, const char* label) {
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const FitResponse& r = run.responses[i];
        if (r.outcome != FitOutcome::Ok) {
          std::fprintf(stderr, "[%s] fit %zu: outcome not Ok: %s\n", label, i,
                       r.error.c_str());
          ++gb_mismatches;
          continue;
        }
        std::uint64_t sll, rll;
        std::memcpy(&sll, &serial[i].loglik, sizeof sll);
        std::memcpy(&rll, &r.result.loglik, sizeof rll);
        if (!bitwise_equal(serial[i].theta, r.result.theta) || sll != rll) {
          std::fprintf(stderr,
                       "[%s] fit %zu (%s): differs from serial baseline "
                       "(theta or loglik bit mismatch)\n",
                       label, i, tenants[trace[i].tenant].name.c_str());
          ++gb_mismatches;
        }
      }
    };
    check_run(run_a, "private");
    check_run(run_b, "shared");

    // Gate 2: the shared ledger never exceeded budget + one tile of slack
    // (the admission overshoot bound, DESIGN.md 5j).
    const bool peak_ok = run_b.shared.peak_resident_bytes <=
                         budget + run_b.shared.max_tile_bytes;

    // Gate 3: starvation bound — no fit faulted more often than it used
    // tiles, i.e. every worker's own fault service kept its tenant
    // progressing.
    std::size_t starved = 0;
    for (const FitResponse& r : run_b.responses) {
      if (r.outcome == FitOutcome::Ok &&
          r.result.ooc.demand_faults > r.result.ooc.uses) {
        ++starved;
      }
    }

    std::uint64_t max_private_peak = 0;
    for (const FitResponse& r : run_a.responses) {
      if (r.outcome == FitOutcome::Ok) {
        max_private_peak =
            std::max(max_private_peak, r.result.ooc.peak_resident_bytes);
      }
    }
    const std::uint64_t private_worst = max_private_peak * slots;

    std::printf("\n%-14s %12s %12s %18s\n", "mode", "wall (s)", "fits/sec",
                "peak resident (B)");
    std::printf("%-14s %12.3f %12.2f %18s\n", "serial", serial_wall,
                serial_fps, "unbounded");
    std::printf("%-14s %12.3f %12.2f %18llu\n", "private-pager", run_a.wall,
                run_a.fps, (unsigned long long)private_worst);
    std::printf("%-14s %12.3f %12.2f %18llu\n", "shared-pager", run_b.wall,
                run_b.fps,
                (unsigned long long)run_b.shared.peak_resident_bytes);
    std::printf("(private-pager peak is worst-case co-resident: %zu slots x "
                "%llu max per-fit peak)\n",
                slots, (unsigned long long)max_private_peak);
    std::printf("shared pager: %llu tenants, %llu demand faults, %llu "
                "write installs, %llu cold evictions, %llu overshoot "
                "admits\n",
                (unsigned long long)run_b.shared.tenants_attached,
                (unsigned long long)run_b.shared.demand_faults,
                (unsigned long long)run_b.shared.write_installs,
                (unsigned long long)run_b.shared.cold_evictions,
                (unsigned long long)run_b.shared.overshoot_admits);
    std::printf("peak residency <= budget + one tile (%llu <= %zu + %llu): "
                "%s\n",
                (unsigned long long)run_b.shared.peak_resident_bytes, budget,
                (unsigned long long)run_b.shared.max_tile_bytes,
                peak_ok ? "PASS" : "FAIL");
    std::printf("bitwise identity (serial vs private vs shared): %s\n",
                gb_mismatches == 0 ? "PASS" : "FAIL");
    std::printf("starvation bound (demand faults <= uses per fit): %s\n",
                starved == 0 ? "PASS" : "FAIL");

    if (!trace_path.empty()) {
      FitTraceCounters counters;
      if (!run_b.residency.empty()) {
        counters.emplace_back("ooc.shared.resident_bytes", run_b.residency);
      }
      write_fit_spans_chrome_trace_file(run_b.spans, trace_path, counters);
      std::fprintf(stderr, "[obs] fit-span trace written to %s\n",
                   trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      reg_b.write_json_file(metrics_path);
      std::fprintf(stderr, "[obs] metrics written to %s\n",
                   metrics_path.c_str());
    }
    if (!json_path.empty()) {
      bench::JsonWriter writer;
      auto& rec = writer.add("serving_global_budget", "ms");
      rec.metrics.emplace_back("fits", double(trace.size()));
      rec.metrics.emplace_back("budget_bytes", double(budget));
      rec.metrics.emplace_back("serial_fits_per_sec", serial_fps);
      rec.metrics.emplace_back("private_fits_per_sec", run_a.fps);
      rec.metrics.emplace_back("shared_fits_per_sec", run_b.fps);
      rec.metrics.emplace_back("peak_global_resident_bytes",
                               double(run_b.shared.peak_resident_bytes));
      rec.metrics.emplace_back("private_worst_case_bytes",
                               double(private_worst));
      rec.metrics.emplace_back("shared_demand_faults",
                               double(run_b.shared.demand_faults));
      rec.metrics.emplace_back("bitwise_identical",
                               gb_mismatches == 0 ? 1.0 : 0.0);
      if (!writer.write_file(json_path)) return 1;
    }

    return (gb_mismatches == 0 && peak_ok && starved == 0) ? 0 : 1;
  }

  // --- Server run: same fits, one shared pool. --------------------------
  MetricsRegistry registry;
  FitServerOptions sopts;
  sopts.num_threads = threads;
  sopts.fit_slots = slots;
  sopts.queue_capacity = trace.size();  // admit everything: identity gate
  sopts.capture_fit_spans = !trace_path.empty();
  sopts.metrics = &registry;
  FitServer server(sopts);

  std::vector<std::future<FitResponse>> futures;
  futures.reserve(trace.size());
  Stopwatch server_sw;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (rate_hz > 0) {
      // Open-loop replay: honor the trace's arrival times.
      const double now = server_sw.seconds();
      if (trace[i].arrival_seconds > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            trace[i].arrival_seconds - now));
      }
    }
    const Tenant& t = tenants[trace[i].tenant];
    FitRequest req;
    req.kind = t.kind;
    req.locations = t.locations;
    req.observations = observations[i];
    req.options = base_opts;
    req.priority = trace[i].priority;
    req.tenant = t.name;
    futures.push_back(server.submit(std::move(req)));
  }
  std::vector<FitResponse> responses;
  responses.reserve(trace.size());
  for (auto& f : futures) responses.push_back(f.get());
  const double server_wall = server_sw.seconds();
  const double server_fps = double(trace.size()) / server_wall;

  // --- Bitwise identity gate. -------------------------------------------
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const FitResponse& r = responses[i];
    if (r.outcome != FitOutcome::Ok) {
      std::fprintf(stderr, "fit %zu: outcome not Ok: %s\n", i,
                   r.error.c_str());
      ++mismatches;
      continue;
    }
    std::uint64_t sll, rll;
    std::memcpy(&sll, &serial[i].loglik, sizeof sll);
    std::memcpy(&rll, &r.result.loglik, sizeof rll);
    if (!bitwise_equal(serial[i].theta, r.result.theta) || sll != rll) {
      std::fprintf(stderr,
                   "fit %zu (%s): server result differs from serial "
                   "baseline (theta or loglik bit mismatch)\n",
                   i, tenants[trace[i].tenant].name.c_str());
      ++mismatches;
    }
  }

  std::vector<double> total_ms, queue_ms;
  total_ms.reserve(responses.size());
  for (const FitResponse& r : responses) {
    total_ms.push_back(r.total_seconds * 1e3);
    queue_ms.push_back(r.queue_seconds * 1e3);
  }
  const bench::LatencySummary lat = bench::summarize_latencies(total_ms);
  const bench::LatencySummary ql = bench::summarize_latencies(queue_ms);

  std::printf("\n%-10s %12s %12s\n", "mode", "wall (s)", "fits/sec");
  std::printf("%-10s %12.3f %12.2f\n", "serial", serial_wall, serial_fps);
  std::printf("%-10s %12.3f %12.2f\n", "server", server_wall, server_fps);
  std::printf("speedup: %.2fx\n", server_fps / serial_fps);
  std::printf("\nserver fit latency (ms): p50 %.2f, p95 %.2f, p99 %.2f, max "
              "%.2f (queue p99 %.2f)\n",
              lat.p50, lat.p95, lat.p99, lat.max, ql.p99);
  std::printf("geometry registry: %zu entries, %zu geometry builds for %llu "
              "acquires (%llu cross-tenant hits)\n",
              server.geometries().size(),
              std::size_t(registry.counter_value("serve.geometry_builds")),
              (unsigned long long)(
                  registry.counter_value("serve.geometry_builds") +
                  registry.counter_value("serve.geometry_hits")),
              (unsigned long long)registry.counter_value(
                  "serve.geometry_hits"));
  std::printf("bitwise identity vs serial baseline: %s\n",
              mismatches == 0 ? "PASS" : "FAIL");

  if (!trace_path.empty()) {
    write_fit_spans_chrome_trace_file(server.fit_spans(), trace_path);
    std::fprintf(stderr, "[obs] fit-span trace written to %s\n",
                 trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    registry.write_json_file(metrics_path);
    std::fprintf(stderr, "[obs] metrics written to %s\n",
                 metrics_path.c_str());
  }
  if (!json_path.empty()) {
    bench::JsonWriter writer;
    auto& rec = writer.add("serving", "ms");
    rec.metrics.emplace_back("fits", double(trace.size()));
    rec.metrics.emplace_back("serial_fits_per_sec", serial_fps);
    rec.metrics.emplace_back("server_fits_per_sec", server_fps);
    rec.metrics.emplace_back("speedup", server_fps / serial_fps);
    rec.metrics.emplace_back("latency_p50_ms", lat.p50);
    rec.metrics.emplace_back("latency_p95_ms", lat.p95);
    rec.metrics.emplace_back("latency_p99_ms", lat.p99);
    rec.metrics.emplace_back("queue_p99_ms", ql.p99);
    rec.metrics.emplace_back("bitwise_identical", mismatches == 0 ? 1.0 : 0.0);
    if (!writer.write_file(json_path)) return 1;
  }

  return mismatches == 0 ? 0 : 1;
}
