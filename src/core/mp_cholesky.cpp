#include "core/mp_cholesky.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "core/cholesky_tasks.hpp"
#include "core/shared_pager.hpp"
#include "linalg/blas.hpp"
#include "linalg/operand_cache.hpp"
#include "linalg/reference.hpp"
#include "linalg/tile_codec.hpp"
#include "linalg/tile_kernels.hpp"
#include "linalg/wire_codec.hpp"
#include "obs/metrics.hpp"
#include "precision/convert.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/live_ranges.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {
namespace {

/// Exception carrying a POTRF breakdown out of the task graph: the LAPACK
/// info plus the diagonal tile index, which escalation promotes around.
struct NotPositiveDefinite {
  int info;
  int tile;
};

/// Per-execution state of the rank-sharded path: the ownership map, the
/// mailboxes SENDs post payloads to, the wire log, the receiver-side replica
/// tiles (deque: RECV bodies hold stable pointers), and the wire.* metric
/// handles. Lives on run_cholesky's stack — task bodies referencing it never
/// run after execute() returns.
struct DistState {
  DistState(std::size_t nt, const DistOptions& opts, MetricsRegistry* reg)
      : owners(nt, opts.ranks),
        mail(opts.ranks),
        replica_of(nt * (nt + 1) / 2) {
    if (!reg) return;
    msgs = reg->counter("wire.msgs");
    bytes = reg->counter("wire.bytes");
    stc_sends = reg->counter("wire.stc_sends");
    ttc_sends = reg->counter("wire.ttc_sends");
    shipped_bytes = reg->counter("wire.shipped_bytes");
    compressed_msgs = reg->counter("wire.compressed_msgs");
    compressed_bytes = reg->counter("wire.compressed_bytes");
    pair_bytes.resize(opts.ranks * opts.ranks);
    for (std::size_t s = 0; s < opts.ranks; ++s) {
      for (std::size_t d = 0; d < opts.ranks; ++d) {
        if (s == d) continue;
        pair_bytes[s * opts.ranks + d] =
            reg->counter("wire.bytes." + std::to_string(s) + "->" +
                         std::to_string(d));
      }
    }
  }

  OwnerMap owners;
  MailboxSet mail;
  WireLog log;
  std::deque<AnyTile> replicas;
  /// Replica tile + its datum, per (lower-triangle tile index, consumer
  /// rank). Filled at insertion time, read only through view().
  std::vector<std::map<int, std::pair<const AnyTile*, DataId>>> replica_of;
  MetricsRegistry::Counter msgs;
  MetricsRegistry::Counter bytes;
  MetricsRegistry::Counter stc_sends;
  MetricsRegistry::Counter ttc_sends;
  MetricsRegistry::Counter shipped_bytes;
  MetricsRegistry::Counter compressed_msgs;
  MetricsRegistry::Counter compressed_bytes;
  std::vector<MetricsRegistry::Counter> pair_bytes;  ///< src * ranks + dst
};

MpCholeskyResult run_cholesky(TileMatrix& a, const MpCholeskyOptions& options,
                              PrecisionMap pmap, const TileNorms& norms) {
  const std::size_t nt = a.num_tiles();
  CommMap cmap = build_comm_map(pmap, options.comm);
  // Out-of-core mode: leave spilled tiles spilled, prepare storage one tile
  // at a time, and page residency during execution.
  const bool ooc_mode = options.ooc.enabled && a.spill_enabled();

  // Storage preparation, one visit per tile: Fig 2b's storage format (FP64
  // generation already happened; sub-FP32 kernels get FP32-stored tiles),
  // then sub-ladder truncation (DESIGN.md 5h), which zeroes the mantissa
  // bits the Higham–Mary slack says carry no information. Both happen
  // before any task — and in particular before any serialization — so
  // every rank computes on (and ships) identical values. The keep depths
  // come from the FP64 norms the precision map was built from; escalation
  // re-enters run_cholesky with pristine values and a promoted map, so the
  // depths are re-derived per attempt. Out of core, a spilled tile that
  // changes is restored, prepared and re-spilled at once, so the resident
  // set grows by one tile at a time.
  std::vector<int> keep;
  if (options.truncation.enabled) {
    keep = build_truncation_map(norms, pmap, options.u_req);
  }
  std::uint64_t truncated = 0;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const Storage s = pmap.storage(m, k);
      const int bits =
          keep.empty() ? mantissa_bits(s) : keep[m * (m + 1) / 2 + k];
      const bool truncate = bits < mantissa_bits(s);
      AnyTile& t = a.tile(m, k);
      if (t.storage() == s && !truncate) continue;
      const bool was_spilled = a.spilled(m, k);
      if (was_spilled) a.restore(m, k);
      t.convert_storage(s);
      if (truncate) {
        truncate_mantissa(t.raw_bytes(), s, bits);
        ++truncated;
      }
      if (was_spilled) a.spill(m, k);
    }
  }
  if (options.truncation.enabled && options.metrics) {
    options.metrics->counter("cholesky.truncated_tiles").add(truncated);
  }

  // Register one logical datum per tile. The graph lives in a shared_ptr so
  // a traced run can hand it to the caller for post-mortem analysis.
  // tile_of_datum grows with every add_datum (the dist path registers extra
  // payload and replica data); payload data map to no tile (nullptr).
  auto graph_ptr = std::make_shared<TaskGraph>();
  TaskGraph& graph = *graph_ptr;
  std::vector<DataId> data(nt * (nt + 1) / 2);
  std::vector<const AnyTile*> tile_of_datum;
  // Datum -> packed lower-triangle tile index for the out-of-core pager
  // (SharedOocPager::npos for payload/replica data the pager doesn't
  // manage).
  std::vector<std::size_t> tile_index_of_datum;
  auto add_datum = [&](DataInfo info, const AnyTile* tile,
                       std::size_t tile_idx = SharedOocPager::npos) {
    const DataId id = graph.add_data(std::move(info));
    MPGEO_ASSERT(tile_of_datum.size() == id);
    tile_of_datum.push_back(tile);
    tile_index_of_datum.push_back(tile_idx);
    return id;
  };
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      DataInfo info;
      info.name = "C(" + std::to_string(m) + "," + std::to_string(k) + ")";
      info.bytes = a.tile(m, k).bytes();
      data[m * (m + 1) / 2 + k] =
          add_datum(std::move(info), &a.tile(m, k), m * (m + 1) / 2 + k);
    }
  }

  // Rank-sharded execution: tiles are owned block-cyclically, tasks are
  // pinned to their tile's owner, and every DAG edge whose producer and
  // consumer tiles live on different ranks ships a real serialized payload.
  std::unique_ptr<DistState> dist;
  if (options.dist.enabled()) {
    dist = std::make_unique<DistState>(nt, options.dist, options.metrics);
  }
  auto owner = [&](std::size_t m, std::size_t k) {
    return dist ? dist->owners.owner(m, k) : 0;
  };

  // The tile (+ datum) a task running on `rank` must read for tile (m, k):
  // the original when the rank owns it, the rank's replica otherwise.
  auto view = [&](TileIndex t, int rank) -> std::pair<const AnyTile*, DataId> {
    if (!dist || dist->owners.owner(t.m, t.k) == rank) {
      return {&a.tile(t.m, t.k), data[t.packed()]};
    }
    const auto& per_rank = dist->replica_of[t.packed()];
    const auto it = per_rank.find(rank);
    MPGEO_ASSERT(it != per_rank.end());
    return it->second;
  };

  // Materialize the broadcast of tile (m, k)'s final version: one SEND at
  // the owner (serialize once — STC converts here, at the sender — then
  // post the same payload to every consumer rank's mailbox, logging one
  // message per destination) and one RECV per consumer rank (take the
  // payload, widen it into the rank-local replica). Inserted right after
  // the producing POTRF/TRSM, so sequential dependence analysis wires
  // SEND after the producer and every replica consumer after its RECV.
  auto broadcast = [&](std::size_t m, std::size_t k) {
    if (!dist) return;
    const std::vector<int> consumers =
        cholesky_consumer_ranks(dist->owners, m, k);
    if (consumers.empty()) return;
    const int src = owner(m, k);
    const AnyTile* tile = &a.tile(m, k);
    const Storage storage_fmt = pmap.storage(m, k);
    // The payload ships at the comm map's wire format, never wider than the
    // tile's storage.
    const Storage w = wire_storage(cmap.comm(m, k));
    const Storage wire_fmt =
        bytes_per_element(w) < bytes_per_element(storage_fmt) ? w : storage_fmt;
    const std::string tname =
        "(" + std::to_string(m) + "," + std::to_string(k) + ")";

    DataInfo pinfo;
    pinfo.name = "wire" + tname;
    pinfo.bytes = tile->size() * bytes_per_element(wire_fmt);
    const DataId pdid = add_datum(std::move(pinfo), nullptr);

    TaskInfo si;
    si.name = "SEND" + tname;
    si.kind = KernelKind::SEND;
    si.prec = cmap.comm(m, k);
    si.tm = int(m);
    si.tk = int(k);
    si.rank = src;
    si.wire_bytes = std::size_t(consumers.size()) *
                    (tile->size() * bytes_per_element(wire_fmt));
    DistState* ds = dist.get();
    FaultInjector* inj = options.fault_injector;
    const bool compress = options.compress_wire;
    const TaskId stid = TaskId(graph.num_tasks());
    graph.add_task(
        si,
        {{data[m * (m + 1) / 2 + k], AccessMode::Read},
         {pdid, AccessMode::Write}},
        [ds, tile, wire_fmt, src, consumers, pdid, inj, stid, compress, m, k] {
          WirePayload payload = serialize_tile(*tile, wire_fmt);
          // WireCorrupt fault: flip mantissa bits of the serialized bytes —
          // every consumer of this broadcast sees the corruption, exactly
          // like a bit error on a real interconnect payload. Injected before
          // compression: the codec faithfully ships the corrupted payload.
          if (inj && inj->payload_corruption(stid, KernelKind::SEND)) {
            corrupt_payload_mantissa(payload);
          }
          const std::size_t msg_bytes = payload.size_bytes();
          const Storage msg_fmt = payload.format;
          const bool is_stc =
              bytes_per_element(msg_fmt) < bytes_per_element(tile->storage());
          // Convert *and* compress at the sender: one codec pass shared by
          // every consumer of the broadcast, like the one STC conversion.
          std::size_t shipped = msg_bytes;
          std::shared_ptr<const WireMessage> message;
          if (compress) {
            CompressedBlob blob = compress_payload(payload);
            shipped = blob.size_bytes();
            message = std::make_shared<const WireMessage>(std::move(blob));
          } else {
            message = std::make_shared<const WireMessage>(std::move(payload));
          }
          for (int dst : consumers) {
            ds->mail.post(dst, pdid, message);
            ds->log.add(WireRecord{src, dst, int(m), int(k), msg_bytes,
                                   msg_fmt, is_stc, shipped, compress});
            ds->msgs.add();
            ds->bytes.add(msg_bytes);
            ds->shipped_bytes.add(shipped);
            if (compress) {
              ds->compressed_msgs.add();
              ds->compressed_bytes.add(shipped);
            }
            if (is_stc) {
              ds->stc_sends.add();
            } else {
              ds->ttc_sends.add();
            }
            if (!ds->pair_bytes.empty()) {
              ds->pair_bytes[std::size_t(src) * ds->owners.ranks() +
                             std::size_t(dst)]
                  .add(msg_bytes);
            }
          }
        });

    for (int dst : consumers) {
      dist->replicas.emplace_back(tile->rows(), tile->cols(), storage_fmt);
      AnyTile* rep = &dist->replicas.back();
      DataInfo rinfo;
      rinfo.name = "R" + tname + "@" + std::to_string(dst);
      rinfo.bytes = rep->bytes();
      const DataId rdid = add_datum(std::move(rinfo), rep);
      TaskInfo ri;
      ri.name = "RECV" + tname + "@" + std::to_string(dst);
      ri.kind = KernelKind::RECV;
      ri.prec = cmap.comm(m, k);
      ri.tm = int(m);
      ri.tk = int(k);
      ri.rank = dst;
      graph.add_task(
          ri, {{pdid, AccessMode::Read}, {rdid, AccessMode::Write}},
          [ds, rep, dst, pdid] {
            const auto message = ds->mail.take(dst, pdid);
            if (const auto* blob = std::get_if<CompressedBlob>(message.get())) {
              // Decompression reproduces the payload bytes exactly, so the
              // widened replica is bit-identical to the uncompressed path.
              decompress_into(*blob, *rep);
            } else {
              deserialize_into(std::get<WirePayload>(*message), *rep);
            }
          });
      dist->replica_of[m * (m + 1) / 2 + k].emplace(dst,
                                                    std::make_pair(rep, rdid));
    }
  };

  // The shared-memory STC: memoize packed operands keyed by the data version
  // each consumer observes (captured below at insertion time — insertion
  // order is the graph's sequential order, so the captured version is exactly
  // the one the task sees at runtime).
  OperandCache cache;
  OperandCache* cache_ptr = &cache;

  // Counts panels the numeric path actually rounded through the wire format
  // (the real-run analogue of the simulator's STC accounting). The handle is
  // captured by value in the TRSM bodies; a null registry makes it a no-op.
  MetricsRegistry::Counter stc_roundings;
  if (options.metrics) {
    stc_roundings = options.metrics->counter("cholesky.stc_wire_roundings");
  }

  // Algorithm 1, right-looking tile Cholesky. Every compute task is pinned
  // to its output tile's owner rank; cross-rank reads go through replicas
  // fed by the SEND/RECV broadcasts inserted right after each producer.
  FaultInjector* inj = options.fault_injector;
  for_each_cholesky_task(nt, [&](const CholeskyTask& t) {
    TaskInfo ti = t.info();
    ti.name = t.name();
    ti.prec = t.precision(pmap);
    const int rank = owner(t.out.m, t.out.k);
    if (dist) ti.rank = rank;
    // Inputs bind to this rank's view of each tile at the version the task
    // observes: insertion order is the graph's sequential order.
    TileOperand in[2];
    for (int i = 0; i < t.num_inputs; ++i) {
      const auto [tile, d] = view(t.in[i], rank);
      in[i] = TileOperand{tile, graph.data_version(d)};
    }
    AnyTile* out = &a.tile(t.out.m, t.out.k);
    // Fault hooks key on the id of the task being inserted: the task count.
    const TaskId tid = TaskId(graph.num_tasks());
    std::function<void()> body;
    switch (t.kind) {
      case KernelKind::POTRF:
        body = [out, inj, tid, k = t.k] {
          // Conversion fault: corrupt the diagonal before factoring.
          if (inj) {
            if (const auto bad = inj->corruption(tid, KernelKind::POTRF)) {
              out->set(0, 0, *bad);
            }
          }
          const int info = potrf_tile(*out);
          if (info != 0) throw NotPositiveDefinite{info, int(k)};
        };
        break;
      case KernelKind::TRSM:
        body = [ckk = in[0], out, prec = ti.prec,
                stc = cmap.uses_stc(t.out.m, t.out.k, pmap),
                wire = wire_storage(cmap.comm(t.out.m, t.out.k)), cache_ptr,
                stc_roundings, inj, tid] {
          trsm_tile(prec, ckk, *out, cache_ptr);
          if (stc) {
            stc_roundings.add();
            // STC: the broadcast payload is the wire-rounded panel; all
            // consumers (including the FP64 SYRK) see these values. The
            // rounding happens in the tile's own storage format — no double
            // round trip — with identical resulting bits. It also makes the
            // dist SEND's narrow serialization value-exact.
            out->round_through_wire(wire);
          }
          // Conversion fault: a panel entry leaves this task NaN or
          // FP16-overflowed, so the dependent SYRK drives the diagonal
          // non-SPD and POTRF reports a genuine breakdown downstream.
          if (inj) {
            if (const auto bad = inj->corruption(tid, KernelKind::TRSM)) {
              out->set(0, 0, *bad);
            }
          }
        };
        break;
      case KernelKind::SYRK:
        body = [cmk = in[0], out, cache_ptr] {
          syrk_tile(cmk, *out, cache_ptr);
        };
        break;
      default:
        body = [cmk = in[0], cnk = in[1], out, prec = ti.prec, cache_ptr] {
          gemm_tile(prec, cmk, cnk, *out, cache_ptr);
        };
        break;
    }
    graph.add_task(std::move(ti),
                   cholesky_accesses(
                       t, [&](TileIndex x) { return view(x, rank).second; }),
                   std::move(body));
    // Broadcast a finished diagonal or panel to its reader ranks. A diagonal
    // payload may travel at FP32 (Algorithm 2's diagonal rule); that is
    // value-lossy on an FP64 diagonal, but the rule only picks FP32 when no
    // FP64 TRSM consumes it — and a sub-FP64 TRSM rounds its inputs through
    // FP32 anyway, so the replica-fed result is bit-identical to the
    // shared-memory path.
    if (t.writes_final()) broadcast(t.out.m, t.out.k);
  });

  MpCholeskyResult result;
  result.pmap = std::move(pmap);
  result.cmap = std::move(cmap);
  result.stored_bytes = a.bytes();
  ExecutorOptions exec_opts;
  exec_opts.num_threads = options.num_threads;
  exec_opts.capture_trace = options.capture_trace;
  exec_opts.metrics = options.metrics;
  exec_opts.rethrow_errors = false;
  exec_opts.fault_injector = options.fault_injector;
  exec_opts.session = options.session;
  // One worker shard per rank: the dedicated session keeps rank-r tasks on
  // shard r % nshards. A shared session keeps its own sharding (locality
  // model only — dataflow edges already order everything, so numerics are
  // unaffected).
  exec_opts.rank_shards = options.dist.enabled() ? options.dist.ranks : 0;
  // Out-of-core pager: pins (and faults in) each task's tiles in
  // before_task (the executor's start hook), unpins and spills dead tiles in
  // after_task (the retire hook), all on the worker running the task. The
  // graph attaches as a tenant of ooc.shared, or of a pager built for this
  // attempt under ooc.resident_byte_budget. Attached after every add_datum
  // so tile_index_of_datum covers the dist payload/replica data too.
  std::unique_ptr<SharedOocPager> own_pager;
  std::unique_ptr<SharedOocPager::Tenant> pager;
  if (ooc_mode) {
    pager = attach_for_call(options.ooc, options.metrics,
                            options.capture_trace, own_pager, a, graph,
                            tile_index_of_datum);
    exec_opts.start_hook = [p = pager.get()](const Task& t) {
      p->before_task(t);
    };
  }
  // One lifetime rule for operand packs: a tile's packs die when the last
  // declared access of its datum retires — the count the pager spills dead
  // tiles by. By then every task touching the datum has retired, so no pack
  // is dropped while a reader still needs it, and a successful run returns
  // with the cache empty. The pager runs second: after_task may spill the
  // dead tile, and the cache drops its packs first.
  const std::vector<DataLiveRange> ranges = compute_live_ranges(graph);
  std::vector<std::atomic<std::uint32_t>> accesses_left(ranges.size());
  for (std::size_t d = 0; d < ranges.size(); ++d) {
    accesses_left[d] = ranges[d].uses;
  }
  SharedOocPager::Tenant* pager_ptr = pager.get();
  exec_opts.retire_hook = [cache_ptr, pager_ptr, &accesses_left,
                           &tile_of_datum](const Task& t) {
    for_each_distinct_datum(t, [&](DataId d) {
      if (accesses_left[d].fetch_sub(1) != 1) return;
      // Payload data (dist SEND outputs) map to no tile.
      if (const AnyTile* tile = tile_of_datum[d]) cache_ptr->invalidate(tile);
    });
    if (pager_ptr) pager_ptr->after_task(t);
  };
  result.exec = execute(graph, exec_opts);
  if (pager) {
    // Detach and collect the outcome even on a failed attempt (a thrown
    // body skips its retire hook; finish() copes).
    pager->finish();
    result.ooc = pager->stats();
    if (own_pager) result.ooc_residency = own_pager->residency_samples();
  }
  if (!result.exec.report.ok()) {
    // Classify the failure: POTRF breakdowns are the retryable kind the
    // escalation loop handles; anything else (injected task exceptions,
    // kernel invariant violations) propagates to the caller, keeping the
    // legacy throwing contract for non-numeric faults.
    try {
      std::rethrow_exception(result.exec.report.first_error);
    } catch (const NotPositiveDefinite& e) {
      result.info = e.info;
      result.breakdown_tile = e.tile;
    }
  }
  result.operand_cache = cache.stats();
  if (options.metrics) cache.publish(*options.metrics);
  if (dist) {
    result.wire = dist->log.stats();
    result.wire_log = sorted_records(dist->log);
  }
  if (options.capture_trace) result.graph = graph_ptr;
  return result;
}

/// Bounded breakdown-recovery loop around run_cholesky: escalate the
/// precision map, restore the pristine values, re-factor.
MpCholeskyResult cholesky_with_escalation(TileMatrix& a,
                                          const MpCholeskyOptions& options,
                                          PrecisionMap pmap,
                                          const TileNorms& norms) {
  MetricsRegistry::Counter breakdowns_c;
  MetricsRegistry::Counter escalations_c;
  if (options.metrics) {
    breakdowns_c = options.metrics->counter("cholesky.breakdowns");
    escalations_c = options.metrics->counter("cholesky.escalations");
  }
  const int max_attempts = std::max(options.escalation.max_attempts, 0);
  // Retries need the pristine FP64 values back: prefer the caller's
  // regenerate callback (e.g. refill from the covariance generator); fall
  // back to one up-front snapshot, paid only when retrying is possible.
  std::optional<TileMatrix> snapshot;
  if (max_attempts > 0 && !options.regenerate) snapshot.emplace(a);

  MpCholeskyResult result;
  std::vector<RunReport> attempt_failures;
  int breakdowns = 0;
  int escalations = 0;
  for (int attempt = 0;; ++attempt) {
    result = run_cholesky(a, options, PrecisionMap(pmap), norms);
    if (result.info == 0) break;
    ++breakdowns;
    breakdowns_c.add();
    attempt_failures.push_back(result.exec.report);
    if (attempt >= max_attempts) break;
    const std::size_t kbad = std::min(
        std::size_t(std::max(result.breakdown_tile, 0)), pmap.nt() - 1);
    escalate_band(pmap, kbad, options.ladder);
    if (options.escalation.promote_ladder) {
      escalate_all(pmap, options.ladder);
    }
    ++escalations;
    escalations_c.add();
    if (options.regenerate) {
      options.regenerate(a);
    } else {
      // Assignment copes with a partially-spilled destination: `a` comes
      // back fully resident and its slots are free for the next spill.
      a = *snapshot;
    }
  }
  result.breakdowns = breakdowns;
  result.escalations = escalations;
  result.attempt_failures = std::move(attempt_failures);
  return result;
}

}  // namespace

MpCholeskyResult mp_cholesky(TileMatrix& a, const MpCholeskyOptions& options) {
  MPGEO_REQUIRE(!options.ladder.empty(), "mp_cholesky: empty precision ladder");
  // Out of core, spilled tiles stay spilled and the one norm pass reads
  // them in place, bit-identical to the resident norms. Otherwise the
  // factorization touches every tile, so a spill-enabled matrix is made
  // fully resident up front and its spill tier stays idle for the run.
  if (a.spill_enabled() && !options.ooc.enabled) a.restore_all();
  // The FP64 norms drive both the precision map and the truncation depths.
  const TileNorms norms = a.norms();
  PrecisionMap pmap = build_precision_map_from_norms(
      a.num_tiles(), norms.tiles, norms.global, options.u_req, options.ladder,
      options.fp16_32_rule_eps);
  return cholesky_with_escalation(a, options, std::move(pmap), norms);
}

MpCholeskyResult fp64_cholesky(TileMatrix& a,
                               const MpCholeskyOptions& options) {
  MpCholeskyOptions opts = options;
  opts.ladder = {Precision::FP64};
  // The map is all-FP64 by construction: the norms are read only for the
  // truncation depths.
  if (a.spill_enabled() && !opts.ooc.enabled) a.restore_all();
  PrecisionMap pmap(a.num_tiles(), Precision::FP64);
  const TileNorms norms = opts.truncation.enabled ? a.norms() : TileNorms{};
  return cholesky_with_escalation(a, opts, std::move(pmap), norms);
}

double logdet_tiled(const TileMatrix& l, SharedOocPager* shared) {
  double acc = 0.0;
  for (std::size_t k = 0; k < l.num_tiles(); ++k) {
    // The lease outlives the scratch a spilled tile decodes into.
    SharedOocPager::Lease lease;
    if (shared && l.spilled(k, k)) {
      lease = shared->lease_bytes(l.tile(k, k).bytes());
    }
    AnyTile scratch;
    const AnyTile& t = l.read_tile(k, k, scratch);
    for (std::size_t i = 0; i < t.rows(); ++i) {
      const double d = t.at(i, i);
      MPGEO_REQUIRE(d > 0.0, "logdet_tiled: non-positive factor diagonal");
      acc += std::log(d);
    }
  }
  return 2.0 * acc;
}

void forward_solve_tiled(const TileMatrix& l, std::vector<double>& z,
                         OperandCache* cache, SharedOocPager* shared) {
  MPGEO_REQUIRE(z.size() == l.n(), "forward_solve_tiled: size mismatch");
  const std::size_t nt = l.num_tiles();
  const std::size_t nb = l.nb();
  for (std::size_t m = 0; m < nt; ++m) {
    const std::size_t rows = l.tile_rows(m);
    double* zm = z.data() + m * nb;
    // zm -= L(m,k) * zk for factored panels left of the diagonal, then solve
    // against L(m,m). The factor is immutable across solves, so cached
    // widenings use version 0: inside a Monte-Carlo or kriging loop each tile
    // is widened once, not per solve. A spilled tile decodes into scratch
    // under a lease, as in logdet_tiled, and bypasses the cache, which keys
    // packs by tile address.
    for (std::size_t k = 0; k <= m; ++k) {
      const bool spilled = l.spilled(m, k);
      SharedOocPager::Lease lease;
      if (shared && spilled) lease = shared->lease_bytes(l.tile(m, k).bytes());
      AnyTile scratch;
      const AnyTile& t = l.read_tile(m, k, scratch);
      const auto buf =
          cached_operand(spilled ? nullptr : cache, t, 0, Precision::FP64);
      if (k < m) {
        gemv_notrans<double>(rows, t.cols(), -1.0, buf->data(), rows,
                             z.data() + k * nb, 1.0, zm);
      } else {
        trsm_left_lower_notrans<double>(rows, 1, 1.0, buf->data(), rows, zm,
                                        rows);
      }
    }
  }
}

double tiled_cholesky_residual(const Matrix<double>& original,
                               const TileMatrix& factored) {
  Matrix<double> dense = factored.to_dense();
  // to_dense mirrors the lower triangle; rebuild a proper lower factor.
  for (std::size_t j = 0; j < dense.cols(); ++j) {
    for (std::size_t i = 0; i < j; ++i) dense(i, j) = 0.0;
  }
  return cholesky_residual(original, dense);
}

}  // namespace mpgeo
