#include "stream/dynamic_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "collectives/detail.hpp"
#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "fault/fault.hpp"
#include "pgas/coll.hpp"
#include "pgas/replica.hpp"
#include "sched/virtual_threads.hpp"
#include "stream/cc_incremental.hpp"

namespace pgraph::stream {

using machine::Cat;

namespace {

/// Run `f`; true when a permanent node loss cut it short.  The shrink
/// promoted the published mirrors, so the caller recovers on the
/// survivors (a retry, or a rebuild); every other fault propagates.
template <class F>
bool shrank_during(F&& f) {
  try {
    f();
  } catch (const fault::FaultError& fe) {
    if (fe.kind() != fault::FaultKind::PermanentLoss) throw;
    return true;
  }
  return false;
}

}  // namespace

DynamicGraph::DynamicGraph(pgas::Runtime& rt, const graph::EdgeList& base,
                           Options opt)
    : rt_(rt),
      n_(base.n),
      opt_(opt),
      d_(rt, base.n == 0 ? 1 : base.n,
         rt.make_partitioning(base.n == 0 ? 1 : base.n)),
      cc_(rt),
      edges_(static_cast<std::size_t>(rt.topo().total_threads())),
      pos_(static_cast<std::size_t>(rt.topo().total_threads())),
      fresh_tls_(static_cast<std::size_t>(rt.topo().total_threads())) {
  if (n_ == 0) throw std::invalid_argument("DynamicGraph: need n >= 1");
  if (n_ > (1ULL << 32))
    throw std::invalid_argument("DynamicGraph: vertex ids must fit 32 bits");
  // The snapshot ring and size arrays MUST share the live array's layout:
  // publish/compute_sizes copy slot-parallel local slices between them.
  for (std::size_t i = 0; i < kEpochRing; ++i) {
    snap_[i] = std::make_unique<pgas::GlobalArray<std::uint64_t>>(
        rt_, n_, rt_.make_partitioning(n_));
    sizes_[i] = std::make_unique<pgas::GlobalArray<std::uint64_t>>(
        rt_, n_, rt_.make_partitioning(n_));
  }

  initial_.ops = base.edges.size();
  for (const graph::Edge& e : base.edges) {
    if (e.u >= n_ || e.v >= n_ || e.u == e.v) {
      ++initial_.ignored;
      continue;
    }
    const int t = d_.owner(e.u);
    auto& posm = pos_[static_cast<std::size_t>(t)];
    const auto [it, fresh] =
        posm.emplace(graph::pair_key(e.u, e.v),
                     edges_[static_cast<std::size_t>(t)].size());
    if (!fresh) {
      ++initial_.ignored;
      continue;
    }
    edges_[static_cast<std::size_t>(t)].push_back(e);
    ++initial_.inserted;
  }

  rebuild(initial_);
  publish_recover(initial_);  // epoch 0
}

std::size_t DynamicGraph::live_edges() const {
  std::size_t m = 0;
  for (const auto& v : edges_) m += v.size();
  return m;
}

graph::EdgeList DynamicGraph::materialize() const {
  graph::EdgeList el;
  el.n = n_;
  el.edges.reserve(live_edges());
  for (const auto& v : edges_)
    el.edges.insert(el.edges.end(), v.begin(), v.end());
  return el;
}

std::uint64_t DynamicGraph::num_components() const {
  const std::size_t slot = slot_of(epoch_);
  assert(slot < kEpochRing && "latest epoch must be published");
  std::vector<std::uint64_t> labels;
  snap_[slot]->read_all(labels);  // global order under any layout
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (labels[i] == i) ++c;
  return c;
}

void DynamicGraph::ingest(std::span<const graph::EdgeUpdate> ops,
                          BatchStats& st) {
  rt_.reset_costs();
  for (auto& f : fresh_tls_) f.clear();

  const int s_total = rt_.topo().total_threads();
  // Owners stage their received record batches here, in requester-id order
  // (= global timestamp order, since chunks are contiguous ts ranges); the
  // edge stores are mutated host-side only after the SPMD routing phase
  // succeeded, so a permanent node loss mid-exchange leaves the stores
  // untouched and the phase simply re-runs on the surviving topology.
  std::vector<std::vector<std::uint64_t>> stage(
      static_cast<std::size_t>(s_total));
  const coll::CollectiveOptions& copt = opt_.cc.coll;

  const auto spmd = [&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts_ingest(ctx, "stream.ingest");
    const int s = ctx.nthreads();
    const int me = ctx.id();
    const auto [lo, hi] = graph::even_chunk(ops.size(), s, me);
    const std::size_t mloc = hi - lo;
    // One bucket per owner thread: the same count-sort scheduling as SetD
    // (Algorithm 1 at the cluster level; no cache-level recursion needed,
    // owners apply to hash stores rather than array blocks).
    const sched::VBlocks vb(d_.part(), 1);

    // --- group: stable count-sort of this chunk's updates by owner(u).
    // Records are (u, v<<1 | kind) word pairs; stability keeps timestamp
    // order within each owner, and chunks are contiguous timestamp ranges,
    // so owners applying requester batches in id order replay the global
    // timestamp order.
    std::vector<std::uint64_t> sa(mloc), sb(mloc);
    std::vector<std::size_t> off(static_cast<std::size_t>(s) + 1, 0);
    {
      pgas::TraceScope ts(ctx, "stream.ingest.group");
      for (std::size_t k = 0; k < mloc; ++k)
        ++off[static_cast<std::size_t>(vb.owner(ops[lo + k].u)) + 1];
      for (int t = 0; t < s; ++t)
        off[static_cast<std::size_t>(t) + 1] +=
            off[static_cast<std::size_t>(t)];
      std::vector<std::size_t> cur(off.begin(), off.end() - 1);
      for (std::size_t k = 0; k < mloc; ++k) {
        const graph::EdgeUpdate& op = ops[lo + k];
        const std::size_t pos =
            cur[static_cast<std::size_t>(vb.owner(op.u))]++;
        sa[pos] = op.u;
        sb[pos] = (op.v << 1) |
                  static_cast<std::uint64_t>(op.kind == graph::UpdateKind::Erase);
      }
      coll::detail::charge_group_sort(ctx, mloc, static_cast<std::size_t>(s),
                                      16);
    }

    // --- setup: publish counts/offsets through the shared SMatrix/PMatrix.
    {
      pgas::TraceScope ts(ctx, "stream.ingest.setup");
      ctx.publish(coll::kSlotIdx, sa.data());
      ctx.publish(coll::kSlotVal, sb.data());
      coll::detail::write_matrices(ctx, cc_, off, copt);
    }
    ctx.exchange_barrier();

    // --- apply (owner side): one coalesced message per requester carrying
    // its record batch, applied to this owner's private edge store.
    {
      pgas::TraceScope ts(ctx, "stream.ingest.apply");
      const auto srow = cc_.smatrix.local_span(me);
      const auto prow = cc_.pmatrix.local_span(me);
      ctx.mem_seq(2 * static_cast<std::size_t>(s) * sizeof(std::uint64_t),
                  Cat::Setup);
      // Messages are posted in the exchange-loop visit order (circular
      // when enabled) like SetD's apply phase ...
      for (int step = 0; step < s; ++step) {
        const int j = coll::detail::peer_at(copt, me, s, step);
        const std::size_t cnt = srow[static_cast<std::size_t>(j)];
        if (cnt == 0 || j == me) continue;
        ctx.post_exchange_msg(j, cnt * 16);
      }
      // ... but staged in requester-id order, which is global timestamp
      // order (chunks are contiguous ts ranges).  The label read per erase
      // and the hash-store probe per record are charged here even though
      // the functional application happens host-side after the run.
      auto& mine = stage[static_cast<std::size_t>(me)];
      mine.clear();  // a retry after a shrink starts over
      const std::size_t store_now = edges_[static_cast<std::size_t>(me)].size();
      for (int j = 0; j < s; ++j) {
        const std::size_t cnt = srow[static_cast<std::size_t>(j)];
        if (cnt == 0) continue;
        const std::size_t boff = prow[static_cast<std::size_t>(j)];
        const std::uint64_t* ra =
            ctx.peer_as<std::uint64_t>(j, coll::kSlotIdx) + boff;
        const std::uint64_t* rb =
            ctx.peer_as<std::uint64_t>(j, coll::kSlotVal) + boff;
        for (std::size_t k = 0; k < cnt; ++k) {
          mine.push_back(ra[k]);
          mine.push_back(rb[k]);
        }
        // Streamed read of the record batch plus hash-store traffic over
        // the live-edge working set (key probe + slot update per record).
        ctx.mem_seq(cnt * 16, Cat::Copy);
        const std::size_t store_bytes = std::max<std::size_t>(
            64, (store_now + cnt) * (sizeof(graph::Edge) + 24));
        ctx.mem_random(cnt, store_bytes, 16, Cat::Work);
        ctx.compute(cnt * 12, Cat::Work);
      }
    }
    ctx.exchange_barrier();
  };

  // The shrink promoted the published mirrors (live labels and the
  // snapshot ring are back to the last published epoch, the stores
  // were never touched); redo the routing on the survivors.  Costs of
  // the aborted attempt stay on the clock: degraded mode is not free.
  if (shrank_during([&] { rt_.run(spmd); })) rt_.run(spmd);

  // Apply the staged records owner by owner.  Within an owner, records are
  // in global timestamp order; across owners the streams are disjoint (an
  // owner sees exactly the updates of its own vertices' edges), so this
  // replay is equivalent to a sequential pass over the batch.
  std::size_t inserted = 0, erased = 0, ignored = 0, dirty = 0;
  for (int t = 0; t < s_total; ++t) {
    auto& store = edges_[static_cast<std::size_t>(t)];
    auto& posm = pos_[static_cast<std::size_t>(t)];
    auto& freshv = fresh_tls_[static_cast<std::size_t>(t)];
    const auto& mine = stage[static_cast<std::size_t>(t)];
    std::unordered_set<std::uint64_t> droots;
    for (std::size_t k = 0; k + 2 <= mine.size(); k += 2) {
      const graph::VertexId u = mine[k];
      const graph::VertexId v = mine[k + 1] >> 1;
      const bool erase = (mine[k + 1] & 1) != 0;
      assert(u < n_ && v < n_);
      const std::uint64_t key = graph::pair_key(u, v);
      if (!erase) {
        if (u == v) {
          ++ignored;
          continue;
        }
        const auto [it, fresh] = posm.emplace(key, store.size());
        if (!fresh) {
          ++ignored;
          continue;
        }
        store.push_back({u, v});
        freshv.push_back({u, v});
        ++inserted;
      } else {
        const auto it = posm.find(key);
        if (it == posm.end()) {
          ++ignored;
          continue;
        }
        // The erased edge's component (pre-batch label) becomes dirty:
        // its connectivity may have split.
        droots.insert(d_.raw(u));
        const std::size_t slot = it->second;
        posm.erase(it);
        const graph::Edge moved = store.back();
        store[slot] = moved;
        store.pop_back();
        if (slot < store.size())
          posm[graph::pair_key(moved.u, moved.v)] = slot;
        ++erased;
      }
    }
    dirty += droots.size();
  }

  st.ops = ops.size();
  st.inserted = inserted;
  st.erased = erased;
  st.ignored = ignored;
  st.dirty_components = dirty;
  for (const auto& f : fresh_tls_) st.fresh_edges += f.size();
  st.ingest = core::collect_costs(rt_);
}

void DynamicGraph::rebuild(BatchStats& st) {
  const graph::EdgeList el = materialize();
  // The full recompute path: carries cc_coalesced's superstep checkpoint /
  // rollback and buddy replication, so outages or a permanent node loss
  // mid-rebuild recover inside the call instead of leaking a half-built
  // labeling into the stream.
  const core::ParCCResult res = core::cc_coalesced(rt_, el, opt_.cc);
  // Adopt the labels into the live array (same cost window: no reset).
  rt_.run([&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts(ctx, "stream.adopt");
    const int me = ctx.id();
    auto dst = d_.local_span(me);
    if (d_.part().is_identity()) {
      const std::size_t b = d_.block_begin(me);
      std::copy(res.labels.begin() + static_cast<std::ptrdiff_t>(b),
                res.labels.begin() + static_cast<std::ptrdiff_t>(b) +
                    static_cast<std::ptrdiff_t>(dst.size()),
                dst.begin());
    } else {
      // Permuted storage: res.labels is global order, the slice is not.
      for (std::size_t k = 0; k < dst.size(); ++k)
        dst[k] = res.labels[d_.global_index(me, k)];
    }
    ctx.mem_seq(2 * dst.size() * sizeof(std::uint64_t), Cat::Copy);
    ctx.barrier();
  });
  st.rebuilt = true;
  st.iterations = res.iterations;
  st.maintain = core::collect_costs(rt_);
}

void DynamicGraph::publish(BatchStats& st) {
  rt_.reset_costs();
  const std::size_t slot = epoch_ % kEpochRing;
  pgas::GlobalArray<std::uint64_t>& snap = *snap_[slot];
  rt_.run([&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts(ctx, "stream.publish");
    const int me = ctx.id();
    const auto src = d_.local_span(me);
    auto dst = snap.local_span(me);
    std::copy(src.begin(), src.end(), dst.begin());
    ctx.mem_seq(2 * src.size() * sizeof(std::uint64_t), Cat::Copy);
    ctx.barrier();  // the epoch is queryable once every block landed
    // Refresh the buddy mirrors with the just-published state (live
    // labels, snapshot ring): a later shrink promotes exactly this epoch,
    // so queries against published epochs stay bit-identical across a
    // permanent node loss.  No-op without a loss plan.
    pgas::replicate_to_buddy(ctx);
  });
  snap_epoch_[slot] = epoch_;
  snap_valid_[slot] = true;
  sizes_valid_[slot] = false;
  st.epoch = epoch_;
  st.publish = core::collect_costs(rt_);
}

BatchStats DynamicGraph::apply_batch(std::span<const graph::EdgeUpdate> ops) {
  BatchStats st;
  ingest(ops, st);

  const std::size_t live = live_edges();
  bool full = st.erased > 0 || st.dirty_components > 0 ||
              static_cast<double>(st.fresh_edges) >
                  opt_.rebuild_frac * static_cast<double>(live);
  if (!full) {
    std::vector<graph::Edge> fresh;
    fresh.reserve(st.fresh_edges);
    for (const auto& f : fresh_tls_)
      fresh.insert(fresh.end(), f.begin(), f.end());
    // Only a node loss before the pass's first sealed checkpoint cuts it
    // short (later ones roll back in place); recompute over the survivors.
    full = shrank_during([&] {
      const IncrementalResult inc = cc_incremental(rt_, d_, fresh, opt_.cc);
      st.iterations = inc.iterations;
      st.maintain = inc.costs;
    });
  }
  if (full) rebuild(st);

  ++epoch_;
  publish_recover(st);
  return st;
}

BatchStats DynamicGraph::republish() {
  BatchStats st;
  publish_recover(st);
  return st;
}

void DynamicGraph::publish_recover(BatchStats& st) {
  // The shrink mid-publish reverted the lost node's slice of the live
  // labels to the previous epoch's mirror; recompute from the (intact,
  // host-side) edge stores and publish again.
  if (shrank_during([&] { publish(st); })) {
    rebuild(st);
    publish(st);
  }
}

void DynamicGraph::compute_sizes(std::size_t slot) {
  pgas::GlobalArray<std::uint64_t>& snap = *snap_[slot];
  pgas::GlobalArray<std::uint64_t>& szs = *sizes_[slot];
  const coll::CollectiveOptions& copt = opt_.cc.coll;
  rt_.run([&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts(ctx, "stream.sizes");
    const int me = ctx.id();
    // Zero this owner's slice, then aggregate: every vertex contributes 1
    // to its root label through one combining-CRCW SetDAdd pass, leaving
    // sizes[root] = |component| (and 0 off-root).
    auto dst = szs.local_span(me);
    std::fill(dst.begin(), dst.end(), 0);
    ctx.mem_seq(dst.size() * sizeof(std::uint64_t), Cat::Copy);
    const auto lab = snap.local_span(me);
    std::vector<std::uint64_t> idx(lab.begin(), lab.end());
    const std::vector<std::uint64_t> ones(idx.size(), 1);
    ctx.mem_seq(idx.size() * 2 * sizeof(std::uint64_t), Cat::Copy);
    coll::CollWorkspace<std::uint64_t> ws;
    coll::setd_add(ctx, szs, idx, std::span<const std::uint64_t>(ones), copt,
                   cc_, ws);
    // Mirror the aggregated sizes alongside the snapshots, so a later
    // shrink promotes the sizes of this epoch too.  No-op without a plan.
    pgas::replicate_to_buddy(ctx);
  });
  sizes_valid_[slot] = true;
}

QueryResult DynamicGraph::query(const QueryBatch& q) {
  const std::uint64_t e = q.epoch == QueryBatch::kLatest ? epoch_ : q.epoch;
  const std::size_t slot = slot_of(e);
  if (slot == kEpochRing)
    throw std::out_of_range(
        "DynamicGraph::query: epoch not in the snapshot ring");

  rt_.reset_costs();
  QueryResult res;
  res.epoch = e;
  // Degenerate batch: nothing to look up, so no SPMD run (and no modeled
  // cost) — the serving layer's coalescer never flushes an empty window,
  // but a fully-cached one resolves without touching the runtime.
  if (q.same_component.empty() && q.component_size.empty()) {
    res.costs = core::collect_costs(rt_);
    return res;
  }

  pgas::GlobalArray<std::uint64_t>& snap = *snap_[slot];
  pgas::GlobalArray<std::uint64_t>& szs = *sizes_[slot];
  const coll::CollectiveOptions& copt = opt_.cc.coll;
  // Snapshot labels are canonical, so label 0 is pinned (offload valid);
  // size entries are NOT constant, so the size lookup gets no offload.
  const coll::KnownElement known{0, 0};

  const auto spmd = [&](pgas::ThreadCtx& ctx) {
    pgas::TraceScope ts_query(ctx, q.scope);
    const int s = ctx.nthreads();
    const int me = ctx.id();
    coll::CollWorkspace<std::uint64_t> ws_a, ws_b;

    if (!q.same_component.empty()) {
      const auto [lo, hi] = graph::even_chunk(q.same_component.size(), s, me);
      const std::size_t mloc = hi - lo;
      std::vector<std::uint64_t> qu(mloc), qv(mloc), lu(mloc), lv(mloc);
      for (std::size_t k = 0; k < mloc; ++k) {
        qu[k] = q.same_component[lo + k].first;
        qv[k] = q.same_component[lo + k].second;
      }
      ctx.mem_seq(mloc * 2 * sizeof(std::uint64_t), Cat::Work);
      coll::getd(ctx, snap, qu, std::span<std::uint64_t>(lu), copt, cc_, ws_a,
                 known);
      coll::getd(ctx, snap, qv, std::span<std::uint64_t>(lv), copt, cc_, ws_b,
                 known);
      for (std::size_t k = 0; k < mloc; ++k)
        res.same[lo + k] = static_cast<std::uint8_t>(lu[k] == lv[k]);
      ctx.mem_seq(mloc, Cat::Work);
      ctx.compute(mloc, Cat::Work);
    }

    if (!q.component_size.empty()) {
      const auto [lo, hi] = graph::even_chunk(q.component_size.size(), s, me);
      const std::size_t mloc = hi - lo;
      std::vector<std::uint64_t> qv(mloc), lab(mloc), sz(mloc);
      for (std::size_t k = 0; k < mloc; ++k) qv[k] = q.component_size[lo + k];
      ctx.mem_seq(mloc * sizeof(std::uint64_t), Cat::Work);
      coll::getd(ctx, snap, qv, std::span<std::uint64_t>(lab), copt, cc_,
                 ws_a, known);
      coll::getd(ctx, szs, lab, std::span<std::uint64_t>(sz), copt, cc_,
                 ws_b);
      for (std::size_t k = 0; k < mloc; ++k) res.size[lo + k] = sz[k];
      ctx.mem_seq(mloc * sizeof(std::uint64_t), Cat::Work);
    }
  };

  const auto serve = [&] {
    // Lazy per-epoch size aggregation: charged (once) to the first query
    // batch that needs it, cached in sizes_valid_ for every later batch
    // on the same epoch.  The aggregation-only cost is surfaced in
    // res.agg_ns so callers (the serving layer, the regression test) can
    // see that a second batch pays nothing here.
    if (!q.component_size.empty() && !sizes_valid_[slot]) {
      compute_sizes(slot);
      res.agg_ns = rt_.modeled_time_ns();  // all cost since reset_costs()
    }
    res.same.assign(q.same_component.size(), 0);
    res.size.assign(q.component_size.size(), 0);
    rt_.run(spmd);
  };
  // Promotion restored the published mirrors, so the snapshot ring on
  // the survivors is exactly what publish() wrote; one retry serves
  // the same epoch bit-identically (at degraded-mode cost).
  if (shrank_during(serve)) serve();

  res.costs = core::collect_costs(rt_);
  return res;
}

}  // namespace pgraph::stream
