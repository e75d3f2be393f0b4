#include "core/sim_graph.hpp"

#include "common/error.hpp"
#include "core/cholesky_tasks.hpp"
#include "dist/owner_map.hpp"

namespace mpgeo {

int tile_owner(std::size_t m, std::size_t k, int devices) {
  MPGEO_REQUIRE(devices >= 1, "tile_owner: need at least one device");
  const auto [p, q] = process_grid(std::size_t(devices));
  return int(m % p + (k % q) * p);
}

double cholesky_flops(std::size_t n) {
  const double dn = double(n);
  return dn * dn * dn / 3.0;
}

TaskGraph build_cholesky_sim_graph(const PrecisionMap& pmap, const CommMap& cmap,
                                   const ClusterConfig& cluster,
                                   const SimGraphOptions& options) {
  const std::size_t nt = pmap.nt();
  MPGEO_REQUIRE(cmap.nt() == nt, "sim graph: map size mismatch");
  const std::size_t b = options.tile;
  const double b3 = double(b) * double(b) * double(b);
  const double elems = double(b) * double(b);

  TaskGraph graph;
  // Datum and owner device per packed lower-triangle tile.
  std::vector<DataId> data(nt * (nt + 1) / 2);
  std::vector<int> device(data.size());
  const auto datum = [&](TileIndex t) { return data[t.packed()]; };
  auto storage_bytes = [&](TileIndex t) {
    return std::size_t(elems) * bytes_per_element(pmap.storage(t.m, t.k));
  };
  // Wire format a consumer of tile t receives it in.
  auto arriving = [&](TileIndex t) {
    return cmap.uses_stc(t.m, t.k, pmap) ? wire_storage(cmap.comm(t.m, t.k))
                                         : pmap.storage(t.m, t.k);
  };
  // Fold one logical conversion into a task: HBM streaming bytes plus one
  // launch-overhead unit (TaskInfo::extra_conv_count) so the cost model
  // charges folded conversions the same fixed cost as explicit CONVERTs.
  auto fold_conv = [&](TaskInfo& ti, double bytes) {
    if (bytes <= 0.0) return;
    ti.extra_conv_bytes += bytes;
    ti.extra_conv_count += 1;
  };

  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const std::size_t t = TileIndex{m, k}.packed();
      DataInfo info;
      info.bytes = storage_bytes({m, k});
      data[t] = graph.add_data(info);
      device[t] = tile_owner(m, k, cluster.total_gpus());
      if (!options.device_side_generation) continue;
      TaskInfo ti;
      ti.kind = KernelKind::GENERATE;
      ti.device = device[t];
      ti.wire_bytes = info.bytes;
      graph.add_task(ti, {{data[t], AccessMode::Write}});
    }
  }

  // Every task runs on its output tile's owner.
  for_each_cholesky_task(nt, [&](const CholeskyTask& t) {
    TaskInfo ti = t.info();
    ti.prec = t.precision(pmap);
    ti.flops = t.kind == KernelKind::POTRF ? b3 / 3.0
               : t.kind == KernelKind::GEMM ? 2.0 * b3
                                            : b3;
    ti.device = device[t.out.packed()];
    // Receiver-side conversion: the kernel wants every input in the wire
    // format of its own precision.
    const Storage need = wire_storage(ti.prec);
    for (int i = 0; i < t.num_inputs; ++i) {
      const Storage from = arriving(t.in[i]);
      if (from != need) {
        fold_conv(ti, elems * double(bytes_per_element(from) +
                                     bytes_per_element(need)));
      }
    }
    if (ti.prec == Precision::FP16) {
      // Pure-FP16 GEMM also round-trips its FP32-stored C operand through
      // binary16 (down before, up after the tensor-core call): two
      // conversions, each with its own launch.
      fold_conv(ti, elems * (4.0 + 2.0));
      fold_conv(ti, elems * (4.0 + 2.0));
    }
    const TileIndex o = t.out;
    if (t.writes_final() && cmap.uses_stc(o.m, o.k, pmap)) {
      // Sender-side conversion: the communication engine down-casts the
      // payload once as part of the broadcast. Modelled as HBM traffic on
      // the producer plus a narrower wire — not as a separate task, which
      // would (wrongly) also gate same-device consumers.
      const std::size_t wire_bpe = cmap.wire_bytes_per_element(o.m, o.k);
      ti.wire_bytes = std::size_t(elems) * wire_bpe;
      fold_conv(ti, elems * double(bytes_per_element(pmap.storage(o.m, o.k)) +
                                   wire_bpe));
    } else {
      ti.wire_bytes = storage_bytes(o);
    }
    graph.add_task(std::move(ti), cholesky_accesses(t, datum));
  });
  return graph;
}

}  // namespace mpgeo
