// The compressed tier end to end (DESIGN.md 5h). Three sections:
//
//  1. Codec microtable on the paper's three application maps (Fig 4): each
//     covariance is stored at its Higham–Mary precision map, then compressed
//     losslessly, then mantissa-truncated to the map's slack
//     (build_truncation_map) and compressed again. Reports at-rest bytes and
//     ratios per application; every blob is decompressed and checked
//     bit-exact against the (truncated) payload it came from.
//
//  2. Compressed vs uncompressed wire traffic on the *real* rank-sharded
//     factorization, per conversion strategy. Three independent byte
//     accountings of the same traffic must agree exactly —
//       measured   (WireStats folded over the shipped messages),
//       analytic   (expected_wire_bytes over the comm map; payload bytes),
//       simulated  (replaying the wire log through gpusim) —
//     compression must ship strictly fewer bytes than uncompressed on every
//     strategy, and the factors must be bit-identical on/off. Any
//     divergence exits nonzero.
//
//  3. Spill-tier demo: spill the whole covariance to the backing file,
//     report the out-of-core footprint, restore, verify bit-exactness, and
//     check the file stays within one FP64 slot per tile across re-spills.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/mp_cholesky.hpp"
#include "core/precision_map.hpp"
#include "core/tile_matrix.hpp"
#include "core/tiled_covariance.hpp"
#include "dist/owner_map.hpp"
#include "dist/wire.hpp"
#include "linalg/tile_codec.hpp"

using namespace mpgeo;
using namespace mpgeo::bench;

namespace {

std::string mib(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", double(bytes) / (1024.0 * 1024.0));
  return buf;
}

std::string ratio(std::size_t num, std::size_t den) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", den ? double(num) / double(den) : 0);
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

/// Compress every tile; returns total compressed bytes. When `verify` is
/// set, each blob is also decompressed and compared bit for bit.
std::size_t compress_all(const TileMatrix& a, bool* verify_ok) {
  std::size_t total = 0;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const AnyTile& t = a.tile(m, k);
      const CompressedBlob blob = compress_tile(t);
      total += blob.size_bytes();
      if (verify_ok) {
        AnyTile back(t.rows(), t.cols(), t.storage());
        decompress_into(blob, back);
        const auto x = t.raw_bytes();
        const auto y = back.raw_bytes();
        if (x.size() != y.size() ||
            std::memcmp(x.data(), y.data(), x.size()) != 0) {
          *verify_ok = false;
        }
      }
    }
  }
  return total;
}

/// Section 1: at-rest codec table over the paper's application maps.
bool codec_table(std::size_t n, std::size_t nb, double nugget,
                 JsonWriter* json) {
  std::cout << "-- tile codec at rest (Fig-4 application maps, n=" << n
            << " nb=" << nb << ") --\n";
  Table t({"application", "u_req", "stored MiB", "lossless MiB", "ratio",
           "truncated MiB", "ratio"});
  const auto ladder = default_precision_ladder();
  bool ok = true;
  for (const AppConfig& app : paper_applications()) {
    Rng rng(7);
    const LocationSet locs = generate_locations(n, app.dim, rng);
    const Covariance cov(app.kind);
    TileMatrix a = build_tiled_covariance(cov, locs, app.theta, nb, nugget);
    // One norm pass feeds both maps, as in mp_cholesky.
    const TileNorms norms = a.norms();
    const PrecisionMap pmap = build_precision_map_from_norms(
        a.num_tiles(), norms.tiles, norms.global, app.u_req, ladder,
        app.fp16_32_eps);
    for (std::size_t m = 0; m < a.num_tiles(); ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        AnyTile& tl = a.tile(m, k);
        if (tl.storage() != pmap.storage(m, k)) {
          tl.convert_storage(pmap.storage(m, k));
        }
      }
    }
    const std::size_t stored = a.bytes();
    const std::size_t lossless = compress_all(a, &ok);

    // Truncate to the Higham–Mary slack (what mp_cholesky does when
    // TruncationOptions::enabled), then compress the now-sparse mantissas.
    const std::vector<int> keep = build_truncation_map(norms, pmap, app.u_req);
    for (std::size_t m = 0; m < a.num_tiles(); ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        AnyTile& tl = a.tile(m, k);
        truncate_mantissa(tl.raw_bytes(), tl.storage(),
                          keep[m * (m + 1) / 2 + k]);
      }
    }
    const std::size_t truncated = compress_all(a, &ok);
    if (!(lossless <= stored && truncated <= lossless)) ok = false;

    char u_buf[16];
    std::snprintf(u_buf, sizeof u_buf, "%.0e", app.u_req);
    t.add_row({app.name, u_buf, mib(stored),
               mib(lossless), ratio(stored, lossless), mib(truncated),
               ratio(stored, truncated)});
    if (json) {
      JsonRecord& rec = json->add("codec/" + app.name, "bytes");
      rec.metrics.emplace_back("stored", double(stored));
      rec.metrics.emplace_back("lossless", double(lossless));
      rec.metrics.emplace_back("truncated", double(truncated));
    }
  }
  t.print(std::cout);
  if (!ok) {
    std::cerr << "codec regression: round trip not bit-exact or compressed "
                 "size not monotone\n";
  }
  std::cout << "(Lossless only eats the sign/exponent redundancy the byte\n"
               "shuffle exposes; truncation first zeroes the mantissa bits\n"
               "the Higham-Mary slack says carry no information, and the\n"
               "ratio opens up. Round trips are verified bit-exact.)\n\n";
  return ok;
}

/// Section 2: compressed vs uncompressed wire traffic, fully reconciled.
bool wire_section(std::size_t ranks, std::size_t n, std::size_t nb,
                  double nugget, JsonWriter* json) {
  const AppConfig app = paper_applications()[0];  // 2D-sqexp, u_req 1e-4
  Rng rng(42);
  const LocationSet locs = generate_locations(n, app.dim, rng);
  const Covariance cov(app.kind);
  const TileMatrix pristine =
      build_tiled_covariance(cov, locs, app.theta, nb, nugget);
  const OwnerMap owners(pristine.num_tiles(), ranks);

  std::cout << "-- compressed wire traffic (rank-sharded, real messages): n="
            << n << " nb=" << nb << " ranks=" << ranks << " --\n";
  Table t({"strategy", "wire", "msgs", "payload MiB", "shipped MiB",
           "analytic MiB", "replay MiB", "reconciled"});

  bool ok = true;
  for (const ConversionStrategy strat :
       {ConversionStrategy::AllTTC, ConversionStrategy::Auto,
        ConversionStrategy::AllSTC}) {
    std::size_t shipped_of[2] = {0, 0};
    TileMatrix factor_of[2] = {TileMatrix(1, 1), TileMatrix(1, 1)};
    for (const bool compress : {false, true}) {
      MpCholeskyOptions opt;
      opt.u_req = app.u_req;
      opt.fp16_32_rule_eps = app.fp16_32_eps;
      opt.comm.strategy = strat;
      opt.dist.ranks = ranks;
      opt.compress_wire = compress;
      opt.escalation.max_attempts = 2;
      TileMatrix a = pristine;
      const MpCholeskyResult r = mp_cholesky(a, opt);
      if (r.info != 0) {
        std::cerr << "sharded run failed to factor (info=" << r.info << ")\n";
        return false;
      }

      const std::size_t payload = r.wire.bytes;
      const std::size_t shipped = r.wire.wire_bytes;
      const std::size_t analytic =
          expected_wire_bytes(r.pmap, r.cmap, owners, n, nb);
      const SimReport sim = replay_wire_log(r.wire_log, ranks);
      bool row_ok = payload == analytic && sim.network_bytes == shipped &&
                    r.wire.messages == expected_wire_messages(owners) &&
                    r.wire.messages == r.wire_log.size();
      if (compress) {
        // Lossless over the wire-rounded payload: strictly smaller on these
        // maps, every message compressed, and the simulator's compressed
        // accounting agrees with what the senders measured.
        row_ok = row_ok && shipped < payload &&
                 r.wire.compressed_sends == r.wire.messages &&
                 sim.compressed_bytes == shipped;
      } else {
        row_ok = row_ok && shipped == payload &&
                 r.wire.compressed_sends == 0 && sim.compressed_bytes == 0;
      }
      shipped_of[compress] = shipped;
      factor_of[compress] = a;
      ok = ok && row_ok;

      t.add_row({to_string(strat), compress ? "codec" : "raw",
                 std::to_string(r.wire.messages), mib(payload), mib(shipped),
                 mib(analytic), mib(sim.network_bytes),
                 row_ok ? "yes" : "NO"});
      if (json) {
        JsonRecord& rec = json->add(
            "wire/" + to_string(strat) + (compress ? "/codec" : "/raw"),
            "bytes");
        rec.metrics.emplace_back("payload_bytes", double(payload));
        rec.metrics.emplace_back("shipped_bytes", double(shipped));
        rec.metrics.emplace_back("analytic_bytes", double(analytic));
        rec.metrics.emplace_back("replay_network_bytes",
                                 double(sim.network_bytes));
        rec.metrics.emplace_back("replay_compressed_bytes",
                                 double(sim.compressed_bytes));
        rec.metrics.emplace_back("messages", double(r.wire.messages));
        rec.metrics.emplace_back("reconciled", row_ok ? 1.0 : 0.0);
      }
    }
    if (shipped_of[1] >= shipped_of[0]) {
      std::cerr << "compression regression under " << to_string(strat)
                << ": codec shipped " << shipped_of[1] << " bytes, raw "
                << shipped_of[0] << " (expected codec < raw)\n";
      ok = false;
    }
    if (!tiles_identical(factor_of[0], factor_of[1])) {
      std::cerr << "compression changed the factor under " << to_string(strat)
                << " (expected bit-identical)\n";
      ok = false;
    }
  }
  t.print(std::cout);
  if (!ok) {
    std::cerr << "compressed-wire reconciliation FAILED\n";
  }
  std::cout << "(Payload bytes must equal the comm map's closed-form fold;\n"
               "shipped bytes must equal the gpusim replay of the recorded\n"
               "log; the codec rows must ship strictly less than the raw\n"
               "rows and factor to bit-identical tiles.)\n\n";
  return ok;
}

/// Section 3: spill the covariance out of core and bring it back.
bool spill_section(std::size_t n, std::size_t nb, double nugget,
                   JsonWriter* json) {
  const AppConfig app = paper_applications()[0];
  Rng rng(42);
  const LocationSet locs = generate_locations(n, app.dim, rng);
  const Covariance cov(app.kind);
  TileMatrix a = build_tiled_covariance(cov, locs, app.theta, nb, nugget);
  const TileMatrix reference = a;

  const std::size_t resident = a.bytes();
  const std::size_t nt = a.num_tiles();
  const std::size_t capacity = nt * (nt + 1) / 2 * nb * nb * sizeof(double);
  SpillOptions sopts;
  sopts.enabled = true;  // anonymous temp file
  a.enable_spill(sopts);
  const std::size_t spilled = a.spill_all();
  const SpillStats st = a.spill_stats();
  bool none_resident = true;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      none_resident = none_resident && !a.tile(m, k).resident();
    }
  }
  a.restore_all();
  bool ok = spilled == st.spilled_bytes && spilled < resident &&
            none_resident && tiles_identical(a, reference);

  // Churn the same matrix: every re-spill overwrites the tile's own slot,
  // so the file stays within capacity after every cycle.
  constexpr int kCycles = 3;
  std::size_t file = st.file_bytes;  // largest size after any cycle
  for (int c = 0; c < kCycles; ++c) {
    a.spill_all();
    file = std::max(file, a.spill_stats().file_bytes);
    a.restore_all();
  }
  ok = ok && file <= capacity && tiles_identical(a, reference);

  std::cout << "-- spill tier (out-of-core backing file): n=" << n
            << " nb=" << nb << " --\n";
  Table t({"resident MiB", "spilled MiB", "ratio", "file MiB",
           "capacity MiB", "restored"});
  t.add_row({mib(resident), mib(spilled), ratio(resident, spilled),
             mib(file), mib(capacity), ok ? "bit-exact" : "MISMATCH"});
  t.print(std::cout);
  if (json) {
    JsonRecord& rec = json->add("spill/2D-sqexp", "bytes");
    rec.metrics.emplace_back("resident", double(resident));
    rec.metrics.emplace_back("spilled", double(spilled));
    rec.metrics.emplace_back("file", double(file));
    rec.metrics.emplace_back("capacity", double(capacity));
    rec.metrics.emplace_back("bit_exact", ok ? 1.0 : 0.0);
  }
  if (!ok) std::cerr << "spill tier round trip FAILED\n";
  std::cout << "(FP64 generation-order tiles compress well before any\n"
               "precision conversion; the tier holds the whole matrix in\n"
               "the file, no tile resident, and restores it bit for bit.\n"
               "Each tile owns a fixed slot, so after " << kCycles
            << " spill/restore cycles\nthe file is still within one FP64 "
               "slot per tile.)\n\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::size_t n = std::size_t(cli.get_int("n", 768));
  const std::size_t nb = std::size_t(cli.get_int("nb", 96));
  const std::size_t ranks = std::size_t(cli.get_int("ranks", 4));
  // Same SPD margin as bench_data_motion: the smooth 2D-sqexp covariance
  // needs a visible diagonal at the paper's loose u_req.
  const double nugget = cli.get_double("nugget", 0.02);
  const std::string json_path = cli.get_string("json", "");
  cli.check_unused();
  JsonWriter json;
  JsonWriter* jw = json_path.empty() ? nullptr : &json;

  std::cout << "== Compressed tile storage & wire format ==\n\n";
  bool ok = codec_table(n, nb, nugget, jw);
  ok = wire_section(ranks, n, nb, nugget, jw) && ok;
  ok = spill_section(n, nb, nugget, jw) && ok;

  if (jw) json.write_file(json_path);
  return ok ? 0 : 1;
}
