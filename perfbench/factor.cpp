// factor-sqexp and factor-ooc: the 2D-sqexp Sigma (theta = {1, 0.1},
// u_req 1e-4, FP16_32 epsilon 1.22e-4, nugget 0.02) factored by mp_cholesky.
//
// factor-sqexp: n = 4096, nb = 256, 4 workers, Sigma filled during set-up.
// Most tiles are demoted and task execution is nearly all of the wall
// time, so GEMM/TRSM in each precision, storage conversion and the operand
// cache do the work; covgen and scheduler overhead are bypassed. The FP64
// baseline (fp64_cholesky) factors a fresh copy of the same matrix.
//
// factor-ooc: n = 3072, generated straight into a spilled matrix under a
// resident budget of ~45% of the stored bytes, then factored out of core
// (3 workers plus the pager's I/O thread). Both the fill and the
// factorization page through one SharedOocPager that owns the budget (the
// engine that bounds its peak to the budget plus one tile; the private
// engine's demand faults may overshoot further). The same factorization as
// factor-sqexp, but the pager spills and restores through the tile codec;
// it is the only workload that touches ooc_pager, shared_pager and
// tile_codec. No resident copy of Sigma exists before the peak RSS is read.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/comm_map.hpp"
#include "core/mp_cholesky.hpp"
#include "core/precision_map.hpp"
#include "core/shared_pager.hpp"
#include "core/tile_geometry.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_covariance.hpp"
#include "ledger.hpp"
#include "linalg/tile_codec.hpp"
#include "obs/metrics.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace perfbench {
namespace {

using namespace mpgeo;

const std::vector<double> kTheta = {1.0, 0.1};
constexpr double kUreq = 1e-4;
constexpr double kEps = 1.22e-4;
constexpr double kNugget = 0.02;

struct Shape {
  std::size_t n, nb;
};

MpCholeskyOptions chol_options(std::size_t threads) {
  MpCholeskyOptions o;
  o.u_req = kUreq;
  o.fp16_32_rule_eps = kEps;
  o.num_threads = threads;
  return o;
}

LocationSet make_locations(const Args& args, std::size_t n) {
  Rng rng(args.seed);
  return generate_locations(n, 2, rng);
}

/// Order-sensitive hash of every stored byte of the lower-triangle tiles,
/// restoring spilled tiles one at a time through the codec.
std::uint64_t factor_digest(const TileMatrix& a) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::span<const std::byte> bytes) {
    for (std::byte b : bytes) {
      h ^= std::uint64_t(b);
      h *= 1099511628211ull;
    }
  };
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (a.spill_enabled() && a.spilled(m, k)) {
        const AnyTile& shape = a.tile(m, k);
        AnyTile t(shape.rows(), shape.cols(), shape.storage());
        decompress_into(a.read_spilled(m, k), t);
        mix(t.raw_bytes());
      } else {
        mix(a.tile(m, k).raw_bytes());
      }
    }
  }
  return h;
}

/// Double element (0, 0) of tile (m, k) in place: the corrupted factor the
/// self-test feeds to the factor checks. The tile must be resident.
void corrupt_tile(TileMatrix& a, std::size_t m, std::size_t k) {
  AnyTile& t = a.tile(m, k);
  t.set(0, 0, t.at(0, 0) * 2.0);
}

double lower_values(const TileMatrix& a) {
  double v = 0.0;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      v += double(a.tile_rows(m) * a.tile_rows(k));
    }
  }
  return v;
}

}  // namespace

void run_factor_sqexp(const Args& args, Result& out) {
  const Shape s = args.smoke ? Shape{512, 64} : Shape{4096, 256};
  constexpr std::size_t kWorkers = 4;
  const Covariance cov(CovKind::SqExp);

  LocationSet locs;
  std::unique_ptr<TileMatrix> pristine;
  std::vector<double> fill_s;
  const double setup_s = median_setup_seconds(5, [&] {
    pristine.reset();
    locs = make_locations(args, s.n);
    const TileGeometry geometry(locs, s.nb);
    pristine = std::make_unique<TileMatrix>(s.n, s.nb);
    CovGenOptions gen;
    gen.parallel = true;
    gen.num_threads = kWorkers;
    gen.geometry = &geometry;
    const double t0 = now_s();
    fill_tiled_covariance(*pristine, cov, locs, kTheta, kNugget, gen);
    fill_s.push_back(now_s() - t0);
  });

  // One mp and one fp64 factorization of fresh copies of Sigma; returns
  // their wall times. The mp factorization passes when info == 0 and its
  // logdet is within u_req (relative) of the FP64 logdet.
  const auto pair = [&](double& mp_s, double& fp64_s) {
    double logdet_mp = 0.0, logdet_64 = 0.0;
    bool mp_ok = false, fp64_ok = false;
    {
      TileMatrix a = *pristine;
      const double t0 = now_s();
      MpCholeskyResult r = mp_cholesky(a, chol_options(kWorkers));
      mp_s = now_s() - t0;
      if (args.corrupt == "info") r.info = 1;
      mp_ok = out.check(r.info == 0,
                        "mp_cholesky reported info " + std::to_string(r.info));
      if (args.corrupt == "logdet") corrupt_tile(a, 0, 0);
      if (mp_ok) logdet_mp = logdet_tiled(a);
    }
    {
      TileMatrix b = *pristine;
      const double t0 = now_s();
      const MpCholeskyResult r = fp64_cholesky(b, chol_options(kWorkers));
      fp64_s = now_s() - t0;
      fp64_ok = out.check(r.info == 0, "fp64_cholesky reported info " +
                                           std::to_string(r.info));
      if (fp64_ok) logdet_64 = logdet_tiled(b);
    }
    const double gap = std::abs(logdet_mp - logdet_64) / std::abs(logdet_64);
    const bool gap_ok =
        !(mp_ok && fp64_ok) ||
        out.check(gap <= kUreq, "relative logdet gap mp vs fp64 " +
                                    std::to_string(gap) + " exceeds u_req");
    out.op(mp_ok && gap_ok);
    out.op(fp64_ok);
    return gap;
  };

  if (!args.trace) {
    std::vector<double> mp_s, fp64_s, gaps;
    double total = 0.0;
    const double t_end = now_s() + args.seconds;
    do {
      double a = 0.0, b = 0.0;
      gaps.push_back(pair(a, b));
      mp_s.push_back(a);
      fp64_s.push_back(b);
      total += a + b;
    } while (now_s() < t_end);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("op_ms", 1e3 * median(mp_s));
    out.set("ops_per_s", double(mp_s.size() + fp64_s.size()) / total);
    out.info("mp_chol_s", median(mp_s), "s", "lower");
    out.info("mp_chol_s.min", *std::min_element(mp_s.begin(), mp_s.end()), "s",
             "-");
    out.info("mp_chol_s.max", *std::max_element(mp_s.begin(), mp_s.end()), "s",
             "-");
    out.info("fp64_chol_s", median(fp64_s), "s", "lower");
    out.info("logdet_rel_gap", median(gaps), "ratio", "lower");
    out.info("factorizations", double(mp_s.size()), "count", "-");
    return;
  }

  // Traced pass: one untraced factorization for the overhead figure, then
  // two with the executor's task trace and the registry.
  double untraced = 0.0, fp64_s = 0.0;
  pair(untraced, fp64_s);
  MetricsRegistry reg;
  MpCholeskyOptions traced = chol_options(kWorkers);
  traced.capture_trace = true;
  traced.metrics = &reg;
  Ledger led;
  ExecTotals ex;
  std::vector<double> traced_s;
  constexpr int kTraced = 2;
  for (int i = 0; i < kTraced; ++i) {
    TileMatrix a = *pristine;
    const int root = led.begin("mp_cholesky", "", std::uint64_t(i + 1));
    const double t0 = now_s();
    const MpCholeskyResult r = mp_cholesky(a, traced);
    const double t1 = now_s();
    led.end(root);
    traced_s.push_back(t1 - t0);
    out.op(out.check(r.info == 0, "traced mp_cholesky reported info " +
                                      std::to_string(r.info)));
    led.add_factorization(r, a, kWorkers, t0, t1, root, std::uint64_t(i + 1),
                          ex);
  }
  std::vector<double> map_s;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    const PrecisionMap pm = build_precision_map(
        *pristine, kUreq, default_precision_ladder(), kEps);
    const CommMap cm = build_comm_map(pm);
    map_s.push_back(now_s() - t0);
  }
  double one_s = 0.0;
  {
    TileMatrix a = *pristine;
    const double t0 = now_s();
    const MpCholeskyResult r = mp_cholesky(a, chol_options(1));
    one_s = now_s() - t0;
    out.op(r.info == 0);
  }

  out.set("covgen.fill_ms", 1e3 * median(fill_s));
  out.set("covgen.mvalues_per_s",
          1e-6 * lower_values(*pristine) / median(fill_s));
  out.set("maps.build_ms", 1e3 * median(map_s));
  set_exec_layers(out, ex, kTraced, reg, kTraced);
  out.set("sched.speedup_vs_1t", one_s / untraced);
  set_ledger(out, led, kWorkers, kTraced);
  out.set("trace.overhead_frac", median(traced_s) / untraced - 1.0);
  led.write_chrome(args.workdir + "/factor-sqexp.trace.json");
}

namespace {

/// Resident byte budget: ~45% of the bytes the matrix takes once stored per
/// the precision map, which follows from the tile norms alone. The norms
/// come from generating one tile at a time, so no resident Sigma exists.
struct OocPlan {
  std::size_t budget = 0;
  std::size_t stored = 0;
  double maps_s = 0.0;
};

OocPlan plan_budget(const Covariance& cov, const LocationSet& locs,
                    const Shape& s) {
  const std::size_t nt = (s.n + s.nb - 1) / s.nb;
  const auto rows = [&](std::size_t m) {
    return std::min(s.nb, s.n - m * s.nb);
  };
  std::vector<double> norms;
  std::vector<double> buf(s.nb * s.nb);
  double global2 = 0.0;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      covariance_tile(cov, locs, kTheta, m * s.nb, k * s.nb, rows(m), rows(k),
                      buf.data(), rows(m), kNugget);
      double f2 = 0.0;
      for (std::size_t i = 0; i < rows(m) * rows(k); ++i) f2 += buf[i] * buf[i];
      norms.push_back(std::sqrt(f2));
      global2 += (m == k ? 1.0 : 2.0) * f2;
    }
  }
  OocPlan plan;
  const double t0 = now_s();
  const PrecisionMap pm = build_precision_map_from_norms(
      nt, norms, std::sqrt(global2), kUreq, default_precision_ladder(), kEps);
  const CommMap cm = build_comm_map(pm);
  plan.maps_s = now_s() - t0;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      plan.stored += rows(m) * rows(k) * bytes_per_element(pm.storage(m, k));
    }
  }
  plan.budget = plan.stored * 45 / 100;
  return plan;
}

/// One factor-ooc operation: a spilled matrix generated under the budget,
/// then factored out of core. The matrix (and its spill log) stays alive in
/// the returned object until the caller drops it.
struct OocRun {
  std::unique_ptr<SharedOocPager> pager;
  std::unique_ptr<TileMatrix> a;
  std::string path;
  MpCholeskyResult r;
  SharedPagerStats global;
  double fill_s = 0.0, chol_s = 0.0;

  OocRun() = default;
  OocRun(const OocRun&) = delete;
  OocRun& operator=(const OocRun&) = delete;
  ~OocRun() {
    a.reset();  // closes the spill log before it is removed
    if (!path.empty()) std::remove(path.c_str());
  }
};

std::unique_ptr<OocRun> ooc_op(const Args& args, const Covariance& cov,
                               const LocationSet& locs,
                               const TileGeometry& geometry, const Shape& s,
                               std::size_t budget, std::size_t workers,
                               MetricsRegistry* reg, bool capture, int serial) {
  auto run = std::make_unique<OocRun>();
  SharedPagerOptions po;
  po.resident_byte_budget = budget;
  po.metrics = reg;
  run->pager = std::make_unique<SharedOocPager>(po);
  run->path = args.workdir + "/spill-" + std::to_string(args.seed) + "-" +
              std::to_string(serial) + ".log";
  run->a = std::make_unique<TileMatrix>(s.n, s.nb);
  SpillOptions sp;
  sp.enabled = true;
  sp.path = run->path;
  sp.metrics = reg;
  run->a->enable_spill(sp);
  run->a->spill_all();  // zero tiles: nearly nothing is written

  OutOfCoreOptions ooc;
  ooc.enabled = true;
  ooc.shared = run->pager.get();
  CovGenOptions gen;
  gen.parallel = true;
  gen.num_threads = workers;
  gen.geometry = &geometry;
  gen.metrics = reg;
  gen.ooc = ooc;
  MpCholeskyOptions opt = chol_options(workers);
  opt.ooc = ooc;
  opt.metrics = reg;
  opt.capture_trace = capture;

  const double t0 = now_s();
  fill_tiled_covariance(*run->a, cov, locs, kTheta, kNugget, gen);
  const double t1 = now_s();
  run->r = mp_cholesky(*run->a, opt);
  run->chol_s = now_s() - t1;
  run->fill_s = t1 - t0;
  run->global = run->pager->stats();
  return run;
}

}  // namespace

void run_factor_ooc(const Args& args, Result& out) {
  const Shape s = args.smoke ? Shape{768, 64} : Shape{2048, 256};
  constexpr std::size_t kWorkers = 3;  // plus the pager's I/O thread
  const Covariance cov(CovKind::SqExp);

  LocationSet locs;
  std::unique_ptr<const TileGeometry> geometry;
  OocPlan plan;
  std::vector<double> maps_s;
  const double setup_s = median_setup_seconds(5, [&] {
    geometry.reset();
    locs = make_locations(args, s.n);
    geometry = std::make_unique<const TileGeometry>(locs, s.nb);
    plan = plan_budget(cov, locs, s);
    maps_s.push_back(plan.maps_s);
  });

  int serial = 0;
  // Checks of one operation: info == 0, and the pager's accounted peak
  // over the fill and the factorization stays within the budget plus one
  // tile.
  const auto check_op = [&](OocRun& run) {
    if (args.corrupt == "info") run.r.info = 1;
    const bool ok = run.r.info == 0;
    out.check(ok, "out-of-core mp_cholesky reported info " +
                      std::to_string(run.r.info));
    std::size_t peak = run.global.peak_resident_bytes;
    const std::size_t tile_bytes = run.global.max_tile_bytes;
    if (args.corrupt == "peak") peak = plan.budget + 2 * tile_bytes;
    const bool peak_ok = peak <= plan.budget + tile_bytes;
    out.check(peak_ok, "resident peak " + std::to_string(peak) +
                           " B exceeds the budget " +
                           std::to_string(plan.budget) + " B plus one tile");
    out.op(true);  // the fill
    out.op(ok && peak_ok);
  };

  if (!args.trace) {
    std::vector<double> op_s, fill_s, chol_s;
    std::unique_ptr<OocRun> last;
    double total = 0.0;
    const double t_end = now_s() + args.seconds;
    do {
      last.reset();
      last = ooc_op(args, cov, locs, *geometry, s, plan.budget, kWorkers,
                    nullptr, false, serial++);
      check_op(*last);
      op_s.push_back(last->fill_s + last->chol_s);
      fill_s.push_back(last->fill_s);
      chol_s.push_back(last->chol_s);
      total += last->fill_s + last->chol_s;
    } while (now_s() < t_end);
    out.set("peak_rss_mb", peak_rss_mb());
    geometry.reset();

    // Reference, after the peak RSS is read: the same matrix generated and
    // factored resident, once. Its factor must equal the out-of-core factor
    // bit for bit.
    double resident_s = 0.0;
    std::uint64_t ref_digest = 0;
    {
      const TileGeometry g(locs, s.nb);
      TileMatrix a(s.n, s.nb);
      CovGenOptions gen;
      gen.parallel = true;
      gen.num_threads = kWorkers;
      gen.geometry = &g;
      const double t0 = now_s();
      fill_tiled_covariance(a, cov, locs, kTheta, kNugget, gen);
      const MpCholeskyResult res = mp_cholesky(a, chol_options(kWorkers));
      resident_s = now_s() - t0;
      out.op(out.check(res.info == 0, "resident reference failed to factor"));
      ref_digest = factor_digest(a);
    }
    if (args.corrupt == "bitwise") {
      last->a->restore(0, 0);
      corrupt_tile(*last->a, 0, 0);
    }
    out.op(out.check(factor_digest(*last->a) == ref_digest,
                     "out-of-core factor differs from the resident factor"));

    out.set("setup_s", setup_s);
    out.set("op_ms", 1e3 * median(op_s));
    out.set("ops_per_s", 2.0 * double(op_s.size()) / total);
    out.info("ooc_fill_s", median(fill_s), "s", "lower");
    out.info("ooc_chol_s", median(chol_s), "s", "lower");
    out.info("ooc_chol_s.min", *std::min_element(chol_s.begin(), chol_s.end()),
             "s", "-");
    out.info("ooc_chol_s.max", *std::max_element(chol_s.begin(), chol_s.end()),
             "s", "-");
    out.info("resident_s", resident_s, "s", "lower");
    out.info("budget_mb", double(plan.budget) / 1e6, "MB", "-");
    out.info("stored_mb", double(plan.stored) / 1e6, "MB", "-");
    out.info("operations", double(op_s.size()), "count", "-");
    return;
  }

  // Traced pass.
  double untraced = 0.0;
  {
    auto run = ooc_op(args, cov, locs, *geometry, s, plan.budget, kWorkers,
                      nullptr, false, serial++);
    check_op(*run);
    untraced = run->fill_s + run->chol_s;
  }
  MetricsRegistry reg;
  Ledger led;
  ExecTotals ex;
  OocStats pager;
  SpillStats spill;
  std::vector<double> traced_s, fill_s;
  std::unique_ptr<OocRun> last;
  constexpr int kTraced = 2;
  for (int i = 0; i < kTraced; ++i) {
    last.reset();
    const int root = led.begin("ooc_op", "", std::uint64_t(i + 1));
    last = ooc_op(args, cov, locs, *geometry, s, plan.budget, kWorkers, &reg,
                  true, serial++);
    led.end(root);
    check_op(*last);
    const double t0 = led.spans()[std::size_t(root)].start;
    led.add({"fill_tiled_covariance", "covgen", t0, t0 + last->fill_s, root,
             std::uint64_t(i + 1), 0});
    led.add_factorization(last->r, *last->a, kWorkers, t0 + last->fill_s,
                          t0 + last->fill_s + last->chol_s, root,
                          std::uint64_t(i + 1), ex);
    traced_s.push_back(last->fill_s + last->chol_s);
    fill_s.push_back(last->fill_s);
    pager.accumulate(last->r.ooc);
    const SpillStats st = last->a->spill_stats();
    spill.spills += st.spills;
    spill.restores += st.restores;
  }

  // Codec throughput on the workload's own tiles (the last factor).
  double raw = 0.0, packed = 0.0, comp_s = 0.0, decomp_s = 0.0;
  for (std::size_t m = 0; m < last->a->num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      last->a->restore(m, k);
      const AnyTile& t = last->a->tile(m, k);
      double t0 = now_s();
      const CompressedBlob blob = compress_tile(t);
      comp_s += now_s() - t0;
      AnyTile back(t.rows(), t.cols(), t.storage());
      t0 = now_s();
      decompress_into(blob, back);
      decomp_s += now_s() - t0;
      raw += double(t.bytes());
      packed += double(blob.size_bytes());
      last->a->spill(m, k);
    }
  }
  double one_s = 0.0;
  {
    auto run = ooc_op(args, cov, locs, *geometry, s, plan.budget, 1, nullptr,
                      false, serial++);
    one_s = run->fill_s + run->chol_s;
    out.op(run->r.info == 0);
  }

  const double ops = kTraced;
  const double fill_med = median(fill_s);
  out.set("covgen.fill_ms", 1e3 * fill_med);
  out.set("covgen.share", fill_med / median(traced_s));
  out.set("covgen.mvalues_per_s",
          double(reg.counter_value("covgen.values")) /
              (1e-3 * double(reg.counter_value("covgen.nanos"))));
  out.set("maps.build_ms", 1e3 * median(maps_s));
  set_exec_layers(out, ex, ops, reg, ops);
  out.set("sched.speedup_vs_1t", one_s / untraced);
  const double uses = double(pager.uses);
  out.set("ooc.uses", uses / ops);
  out.set("ooc.fault_frac", double(pager.demand_faults) / uses);
  out.set("ooc.ahead_frac",
          double(pager.prefetches) /
              double(std::max<std::uint64_t>(
                  1, pager.prefetches + pager.demand_faults)));
  out.set("ooc.prefetch_waits", double(pager.prefetch_waits) / ops);
  out.set("ooc.cold_evictions", double(pager.cold_evictions) / ops);
  out.set("ooc.peak_resident_mb",
          double(last->global.peak_resident_bytes) / 1e6);
  out.set("codec.spills", double(spill.spills) / ops);
  out.set("codec.restores", double(spill.restores) / ops);
  out.set("codec.ratio", raw / packed);
  out.set("codec.compress_mb_s", 1e-6 * raw / comp_s);
  out.set("codec.decompress_mb_s", 1e-6 * raw / decomp_s);
  set_ledger(out, led, kWorkers, ops);
  out.set("trace.overhead_frac", median(traced_s) / untraced - 1.0);
  led.write_chrome(args.workdir + "/factor-ooc.trace.json");
}

}  // namespace perfbench
