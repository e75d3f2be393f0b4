// Out-of-core factorization for real (DESIGN.md 5i). Two sections, each
// an enforced gate (any violation exits nonzero):
//
//  1. Budgeted bit-identity: the mixed-precision Cholesky runs against the
//     spill tier under a resident-byte budget below half the stored matrix,
//     every restore and spill on the worker that needs it. It must produce
//     the factor the fully-resident run produces, bit for bit, while the
//     pager's accounted peak stays within the budget plus one tile (unless
//     a fault took the overshoot escape) and cold evictions prove the
//     budget actually bit. While the factor is still spilled, logdet and a
//     forward solve read it in place: both must equal the resident
//     reference's bit for bit, and no tile may be spilled again.
//
//  2. Spill-file bound: every tile owns a fixed slot of nb^2 x 8 bytes in
//     the backing file, so across repeated spill/restore cycles the file
//     never exceeds packed tiles x nb^2 x 8 bytes, and every restore is
//     bit-exact.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/mp_cholesky.hpp"
#include "core/precision_map.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_covariance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace mpgeo;
using namespace mpgeo::bench;

namespace {

std::string mib(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", double(bytes) / (1024.0 * 1024.0));
  return buf;
}

bool tiles_identical(const TileMatrix& a, const TileMatrix& b) {
  if (a.n() != b.n() || a.nb() != b.nb()) return false;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const auto x = a.tile(m, k).raw_bytes();
      const auto y = b.tile(m, k).raw_bytes();
      if (x.size() != y.size() ||
          std::memcmp(x.data(), y.data(), x.size()) != 0) {
        return false;
      }
    }
  }
  return true;
}

bool same_bits(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool pmaps_identical(const PrecisionMap& a, const PrecisionMap& b,
                     std::size_t nt) {
  for (std::size_t m = 0; m < nt; ++m)
    for (std::size_t k = 0; k <= m; ++k)
      if (a.kernel(m, k) != b.kernel(m, k) ||
          a.storage(m, k) != b.storage(m, k))
        return false;
  return true;
}

MpCholeskyOptions base_options(const AppConfig& app) {
  MpCholeskyOptions opt;
  opt.u_req = app.u_req;
  opt.fp16_32_rule_eps = app.fp16_32_eps;
  opt.escalation.max_attempts = 2;
  return opt;
}

/// Section 1: budget under half the matrix, bit-identical to the
/// fully-resident factor.
bool budget_section(const TileMatrix& pristine, const AppConfig& app,
                    const MpCholeskyResult& ref, const TileMatrix& ref_factor,
                    std::size_t budget, JsonWriter* json) {
  std::cout << "-- budgeted out-of-core factorization: budget "
            << mib(budget) << " MiB of " << mib(ref.stored_bytes)
            << " MiB stored (" << (100 * budget / ref.stored_bytes)
            << "%) --\n";
  Table t({"peak MiB", "faults", "cold", "overshoots", "identical",
           "spilled reads"});

  std::size_t max_tile = 0;
  for (std::size_t m = 0; m < pristine.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      max_tile = std::max(max_tile, pristine.tile(m, k).bytes());
    }
  }
  TileMatrix a = pristine;
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();

  MpCholeskyOptions opt = base_options(app);
  opt.ooc.enabled = true;
  opt.ooc.resident_byte_budget = budget;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  if (r.info != 0) {
    std::cerr << "out-of-core run failed to factor (info=" << r.info << ")\n";
    return false;
  }

  // Logdet and a forward solve on the factor as the run left it, spilled:
  // each tile decodes into scratch, so nothing is restored or re-spilled.
  std::vector<double> z(a.n());
  Rng rng(7);
  for (double& v : z) v = rng.normal();
  std::vector<double> y = z, y_ref = z;
  const std::uint64_t spills = a.spill_stats().spills;
  const double logdet = logdet_tiled(a);
  forward_solve_tiled(a, y);
  const double logdet_ref = logdet_tiled(ref_factor);
  forward_solve_tiled(ref_factor, y_ref);
  const bool reads_ok = same_bits({&logdet, 1}, {&logdet_ref, 1}) &&
                        same_bits(y, y_ref) &&
                        a.spill_stats().spills == spills;
  a.restore_all();

  // A fault that finds no victim and nothing in flight proceeds over
  // budget (overshoot_admits); otherwise accounted residency never exceeds
  // the budget plus one tile.
  const bool peak_ok = r.ooc.overshoot_admits != 0 ||
                       r.ooc.peak_resident_bytes <= budget + max_tile;
  const bool ok = pmaps_identical(r.pmap, ref.pmap, a.num_tiles()) &&
                  tiles_identical(a, ref_factor) &&
                  r.ooc.peak_resident_bytes > 0 && peak_ok &&
                  r.ooc.cold_evictions > 0 && r.ooc.evictions > 0 &&
                  r.ooc.demand_faults > 0 && reads_ok;

  t.add_row({mib(r.ooc.peak_resident_bytes),
             std::to_string(r.ooc.demand_faults),
             std::to_string(r.ooc.cold_evictions),
             std::to_string(r.ooc.overshoot_admits), ok ? "yes" : "NO",
             reads_ok ? "bit-exact" : "MISMATCH"});
  if (json) {
    JsonRecord& rec = json->add("ooc/budgeted", "bytes");
    rec.metrics.emplace_back("budget", double(budget));
    rec.metrics.emplace_back("stored", double(ref.stored_bytes));
    rec.metrics.emplace_back("max_tile", double(max_tile));
    rec.metrics.emplace_back("peak_resident",
                             double(r.ooc.peak_resident_bytes));
    rec.metrics.emplace_back("demand_faults", double(r.ooc.demand_faults));
    rec.metrics.emplace_back("cold_evictions", double(r.ooc.cold_evictions));
    rec.metrics.emplace_back("overshoot_admits",
                             double(r.ooc.overshoot_admits));
    rec.metrics.emplace_back("bit_identical", ok ? 1.0 : 0.0);
    rec.metrics.emplace_back("spilled_reads_identical", reads_ok ? 1.0 : 0.0);
  }
  t.print(std::cout);
  if (!ok) std::cerr << "budgeted out-of-core gate FAILED\n";
  std::cout << "(Paging is invisible to the numerics: spill/restore is\n"
               "bit-exact and the task graph is unchanged, so every budget\n"
               "produces the fully-resident factor. Each worker decodes the\n"
               "tiles it faults and encodes the victims and dead tiles it\n"
               "frees. Logdet and solve decode the spilled factor into\n"
               "scratch one tile at a time and write nothing back.)\n\n";
  return ok;
}

/// Section 2: the spill file stays within one FP64 slot per tile across
/// re-spill cycles, every restore bit-exact.
bool spill_file_section(const TileMatrix& pristine, int cycles,
                        JsonWriter* json) {
  std::cout << "-- spill file across " << cycles
            << " spill/restore cycles --\n";
  const std::size_t nt = pristine.num_tiles();
  const std::size_t capacity =
      nt * (nt + 1) / 2 * pristine.nb() * pristine.nb() * sizeof(double);
  TileMatrix a = pristine;
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);

  std::size_t live = 0, file = 0;  // file: largest size after any cycle
  bool exact = true;
  for (int c = 0; c < cycles; ++c) {
    live = a.spill_all();
    file = std::max(file, a.spill_stats().file_bytes);
    a.restore_all();
    exact = exact && tiles_identical(a, pristine);
  }
  const bool ok = file <= capacity && exact;

  Table t({"live MiB", "file MiB", "capacity MiB", "restored"});
  t.add_row({mib(live), mib(file), mib(capacity),
             exact ? "bit-exact" : "MISMATCH"});
  t.print(std::cout);
  if (json) {
    JsonRecord& rec = json->add("ooc/spill_file", "bytes");
    rec.metrics.emplace_back("live", double(live));
    rec.metrics.emplace_back("file", double(file));
    rec.metrics.emplace_back("capacity", double(capacity));
    rec.metrics.emplace_back("ok", ok ? 1.0 : 0.0);
  }
  if (!ok) std::cerr << "spill file bound gate FAILED\n";
  std::cout << "(Each tile owns a fixed slot of nb^2 x 8 bytes and a blob\n"
               "never exceeds its tile's raw payload, so a re-spill\n"
               "overwrites its own slot: the file never outgrows one FP64\n"
               "copy of the matrix at any cycle count.)\n\n";
  return ok;
}

/// `--trace`: one instrumented run exporting the residency timeline as a
/// ooc.resident_bytes counter track next to the task spans.
void traced_run(const TileMatrix& pristine, const AppConfig& app,
                std::size_t budget, const std::string& path) {
  TileMatrix a = pristine;
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();

  MetricsRegistry registry;
  MpCholeskyOptions opt = base_options(app);
  opt.ooc.enabled = true;
  opt.ooc.resident_byte_budget = budget;
  opt.capture_trace = true;
  opt.metrics = &registry;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  if (r.info != 0 || !r.graph) {
    std::cerr << "traced run failed (info=" << r.info << ")\n";
    return;
  }
  TraceExportOptions topts;
  topts.metrics = &registry;
  topts.extra_counters.emplace_back("ooc.resident_bytes", r.ooc_residency);
  write_chrome_trace_file(r.exec, *r.graph, path, topts);
  std::fprintf(stderr, "[obs] trace written to %s (%zu residency samples)\n",
               path.c_str(), r.ooc_residency.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::size_t n = std::size_t(cli.get_int("n", 512));
  const std::size_t nb = std::size_t(cli.get_int("nb", 64));
  const double nugget = cli.get_double("nugget", 0.02);
  const int budget_pct = cli.get_int("budget-pct", 45);
  const int cycles = cli.get_int("cycles", 6);
  const std::string json_path = cli.get_string("json", "");
  const std::string trace_path = cli.get_string("trace", "");
  cli.check_unused();
  JsonWriter json;
  JsonWriter* jw = json_path.empty() ? nullptr : &json;

  const AppConfig app = paper_applications()[0];  // 2D-sqexp, u_req 1e-4
  Rng rng(42);
  const LocationSet locs = generate_locations(n, app.dim, rng);
  const Covariance cov(app.kind);
  const TileMatrix pristine =
      build_tiled_covariance(cov, locs, app.theta, nb, nugget);

  std::cout << "== Out-of-core factorization (n=" << n << " nb=" << nb
            << ") ==\n\n";

  // Fully-resident reference: the factor every paged run must reproduce.
  TileMatrix ref_factor = pristine;
  const MpCholeskyResult ref = mp_cholesky(ref_factor, base_options(app));
  if (ref.info != 0) {
    std::cerr << "reference factorization failed (info=" << ref.info << ")\n";
    return 1;
  }
  const std::size_t budget =
      ref.stored_bytes * std::size_t(budget_pct) / 100;

  bool ok = budget_section(pristine, app, ref, ref_factor, budget, jw);
  ok = spill_file_section(pristine, cycles, jw) && ok;
  if (!trace_path.empty()) traced_run(pristine, app, budget, trace_path);

  if (jw) json.write_file(json_path);
  return ok ? 0 : 1;
}
