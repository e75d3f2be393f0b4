#include "core/comm_map.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/cholesky_tasks.hpp"

namespace mpgeo {
namespace {

/// The Precision a Storage format corresponds to on the accuracy ladder.
Precision precision_of_storage(Storage s) {
  switch (s) {
    case Storage::FP64: return Precision::FP64;
    case Storage::FP32: return Precision::FP32;
    case Storage::FP16: return Precision::FP16;
  }
  MPGEO_ASSERT(false);
  return Precision::FP64;
}

}  // namespace

std::string to_string(ConversionStrategy s) {
  switch (s) {
    case ConversionStrategy::Auto: return "STC/auto";
    case ConversionStrategy::AllTTC: return "TTC";
    case ConversionStrategy::AllSTC: return "STC/all";
  }
  MPGEO_ASSERT(false);
  return {};
}

CommMap::CommMap(std::size_t nt, Precision fill)
    : nt_(nt), comm_(nt * (nt + 1) / 2, fill) {}

std::size_t CommMap::idx(std::size_t m, std::size_t k) const {
  MPGEO_REQUIRE(m < nt_ && k <= m, "CommMap: index outside lower triangle");
  return m * (m + 1) / 2 + k;
}

Precision CommMap::comm(std::size_t m, std::size_t k) const {
  return comm_[idx(m, k)];
}

void CommMap::set_comm(std::size_t m, std::size_t k, Precision p) {
  comm_[idx(m, k)] = p;
}

bool CommMap::uses_stc(std::size_t m, std::size_t k,
                       const PrecisionMap& pmap) const {
  return bytes_per_element(wire_storage(comm(m, k))) <
         bytes_per_element(pmap.storage(m, k));
}

std::size_t CommMap::wire_bytes_per_element(std::size_t m,
                                            std::size_t k) const {
  return bytes_per_element(wire_storage(comm(m, k)));
}

double CommMap::stc_fraction(const PrecisionMap& pmap) const {
  std::size_t stc = 0, total = 0;
  for (std::size_t m = 0; m < nt_; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      ++total;
      if (uses_stc(m, k, pmap)) ++stc;
    }
  }
  return total ? double(stc) / double(total) : 0.0;
}

CommMap build_comm_map(const PrecisionMap& pmap, const CommMapOptions& options) {
  const std::size_t nt = pmap.nt();
  CommMap cmap(nt, Precision::FP64);

  if (options.strategy == ConversionStrategy::AllTTC) {
    // Receiver-side conversion everywhere: data travels at storage width.
    for (std::size_t m = 0; m < nt; ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        cmap.set_comm(m, k, precision_of_storage(pmap.storage(m, k)));
      }
    }
    return cmap;
  }

  // --- Algorithm 2, lines 6-11: diagonal tiles (POTRF broadcasts). -------
  // The factor L_kk is consumed by the TRSMs of column k, which execute in
  // FP64 only when their tile's kernel precision is FP64; otherwise FP32
  // suffices on the wire. A diagonal with no TRSMs below (the last column)
  // broadcasts nothing and keeps its storage width.
  for (std::size_t k = 0; k < nt; ++k) {
    Precision comm = (k + 1 < nt) ? Precision::FP32 : Precision::FP64;
    for (std::size_t m = k + 1; m < nt; ++m) {
      if (pmap.kernel(m, k) == Precision::FP64) {
        comm = Precision::FP64;
        break;
      }
    }
    cmap.set_comm(k, k, comm);
  }

  // --- Algorithm 2, lines 12-28: off-diagonal tiles (TRSM broadcasts). ---
  // AllSTC skips the consumer raise scans: every panel ships at its own
  // kernel-precision floor (capped at storage), the most aggressive wire the
  // sender can justify from local information alone.
  const bool all_stc = options.strategy == ConversionStrategy::AllSTC;
  for (std::size_t k = 0; k + 1 < nt; ++k) {
    for (std::size_t m = k + 1; m < nt; ++m) {
      const Precision storage_prec = precision_of_storage(pmap.storage(m, k));
      // Floor at the panel's own kernel precision: its information content
      // is bounded by its class anyway, so the FP64 diagonal consumers
      // (SYRK) never force a wider wire, while an FP64/FP32 panel is never
      // shipped narrower than it computes. This is the reading under which
      // the paper's extreme FP64/FP16 configurations are all-STC (Fig 8)
      // while a pure-FP64 run never converts.
      Precision comm = pmap.kernel(m, k);
      bool capped = !lower_than(comm, storage_prec);
      if (capped) comm = storage_prec;

      auto raise = [&](Precision consumer) {
        comm = higher_of(comm, consumer);
        if (!lower_than(comm, storage_prec)) {
          comm = storage_prec;  // cannot ship more than the tile stores
          capped = true;
        }
      };

      // Row broadcast: GEMM(m, n, k) for k < n < m consumes C_mk as its A
      // operand; with the literal-pseudocode veto the scan also includes
      // n == m, the FP64 SYRK on the diagonal.
      const std::size_t row_end = options.diagonal_consumers_veto ? m : m - 1;
      for (std::size_t n = k + 1; n <= row_end && !capped && !all_stc; ++n) {
        raise(pmap.kernel(m, n));
      }
      // Column broadcast: GEMM(n, m, k) for n > m consumes C_mk as its B
      // operand; the consuming kernel runs at the precision of tile (n, m).
      for (std::size_t n = m + 1; n < nt && !capped && !all_stc; ++n) {
        raise(pmap.kernel(n, m));
      }
      cmap.set_comm(m, k, comm);
    }
  }
  return cmap;
}

std::size_t broadcast_payload_bytes(const PrecisionMap& pmap,
                                    const CommMap& cmap, std::size_t tile) {
  const std::size_t nt = pmap.nt();
  MPGEO_REQUIRE(cmap.nt() == nt, "broadcast_payload_bytes: map size mismatch");
  const std::size_t elems = tile * tile;
  std::size_t total = 0;
  for (std::size_t k = 0; k < nt; ++k) {
    const std::size_t trsm_consumers = nt - 1 - k;
    total += trsm_consumers * elems * cmap.wire_bytes_per_element(k, k);
    for (std::size_t m = k + 1; m < nt; ++m) {
      const std::size_t consumers = nt - k - 1;  // row + column GEMMs + SYRK
      total += consumers * elems * cmap.wire_bytes_per_element(m, k);
    }
  }
  return total;
}

std::size_t expected_wire_bytes(const PrecisionMap& pmap, const CommMap& cmap,
                                const OwnerMap& owners, std::size_t n,
                                std::size_t nb) {
  const std::size_t nt = pmap.nt();
  MPGEO_REQUIRE(cmap.nt() == nt && owners.nt() == nt,
                "expected_wire_bytes: map size mismatch");
  MPGEO_REQUIRE(nb >= 1 && n >= 1 && (n + nb - 1) / nb == nt,
                "expected_wire_bytes: n/nb inconsistent with map size");
  const auto rows = [&](std::size_t t) { return std::min(nb, n - t * nb); };
  std::size_t total = 0;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const std::size_t consumers = cholesky_consumer_ranks(owners, m, k).size();
      if (consumers == 0) continue;
      // The codec never widens: wire width is clamped at storage width.
      const std::size_t bpe =
          std::min(cmap.wire_bytes_per_element(m, k),
                   bytes_per_element(pmap.storage(m, k)));
      total += consumers * rows(m) * rows(k) * bpe;
    }
  }
  return total;
}

std::size_t expected_wire_messages(const OwnerMap& owners) {
  const std::size_t nt = owners.nt();
  std::size_t total = 0;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      total += cholesky_consumer_ranks(owners, m, k).size();
    }
  }
  return total;
}

}  // namespace mpgeo
