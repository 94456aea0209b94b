#include "core/mst_pgas.hpp"

#include <limits>
#include <stdexcept>

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "core/edge_requests.hpp"
#include "core/pointer_jump.hpp"
#include "core/recovery.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"

namespace pgraph::core {

using machine::Cat;

namespace {

/// Two-word SetDMin record: key packs (weight << 32 | edge id), so the
/// priority write resolves ties deterministically by edge id; `parent`
/// carries the other endpoint's supervertex, which is all the owner needs
/// to graft and to mark the MST edge (no second lookup of the edge).
struct CandRec {
  std::uint64_t key = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t parent = 0;

  friend bool operator<(const CandRec& a, const CandRec& b) {
    return a.key < b.key;
  }
};
static_assert(sizeof(CandRec) == 16);

constexpr std::uint64_t kInfKey = std::numeric_limits<std::uint64_t>::max();

}  // namespace

ParMstResult mst_pgas(pgas::Runtime& rt, const graph::WEdgeList& el,
                      const MstOptions& opt) {
  if (el.m() >= (1ULL << 32))
    throw std::invalid_argument("mst_pgas: edge ids must fit 32 bits");
  for (const auto& e : el.edges)
    if (e.w >= (1ULL << 32))
      throw std::invalid_argument("mst_pgas: weights must fit 32 bits");
  rt.reset_costs();

  const std::size_t n = el.n;
  const int s = rt.topo().total_threads();

  // Labels and candidates MUST share one layout: step 3 walks cb[k]/db[k]
  // in parallel assuming slot k of both slices is the same supervertex.
  const partition::Partitioning part = rt.make_partitioning(n);
  pgas::GlobalArray<std::uint64_t> d(rt, n, part);
  pgas::GlobalArray<CandRec> cand(rt, n, part);
  coll::CollectiveContext cc(rt);
  const coll::CollectiveOptions& copt = opt.coll;
  // NOTE: no offload KnownElement here -- Boruvka hooks along minimum
  // edges, so D[0] does not stay constant (unlike CC).

  std::vector<std::vector<std::uint64_t>> mst_edges(
      static_cast<std::size_t>(s));
  // At-rest integrity scrubs the label array only: `cand` is rebuilt from
  // scratch every trip, so it is not worth defending.
  RecoveryLoop loop(rt, {&d}, "mst_pgas",
                    opt.round_cap(default_round_cap(n)), opt.scrub_interval);

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int me = ctx.id();
    init_labels(ctx, d);

    const auto chunk = graph::edge_chunk(el.edges, s, me);
    const std::size_t chunk_base = graph::even_chunk(el.m(), s, me).first;
    std::vector<std::uint64_t> eu, ev, ew, eid;
    eu.reserve(chunk.size());
    ev.reserve(chunk.size());
    ew.reserve(chunk.size());
    eid.reserve(chunk.size());
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      eu.push_back(chunk[k].u);
      ev.push_back(chunk[k].v);
      ew.push_back(chunk[k].w);
      eid.push_back(chunk_base + k);
    }
    ctx.mem_seq(chunk.size() * sizeof(graph::WEdge), Cat::Work);

    // The endpoint columns keep their `id` keys; the others are scratch.
    coll::CollWorkspace<std::uint64_t> ws_u(true), ws_v(true);
    coll::CollWorkspace<std::uint64_t> ws_jump, ws_misc;
    coll::CollWorkspace<CandRec> ws_cand;
    std::vector<std::uint64_t> du, dv, gi, par, grand, roots, rloc, rpar,
        rkey;
    std::vector<CandRec> gval;

    auto& my_mst = mst_edges[static_cast<std::size_t>(me)];

    // Checkpointed with the label block: a rolled-back iteration re-marks
    // its edges, so the marked-edge list rolls back too.
    const RecoveryLoop::Private state{
        .vectors = {&eu, &ev, &ew, &eid, &my_mst},
        .key_caches = {&ws_u, &ws_v}};
    loop.run(ctx, state, [&](int) {
      // --- step 1: labels of both endpoints of every active edge.
      du.resize(eu.size());
      dv.resize(ev.size());
      coll::getd(ctx, d, eu, std::span<std::uint64_t>(du), copt, cc, ws_u);
      coll::getd(ctx, d, ev, std::span<std::uint64_t>(dv), copt, cc, ws_v);

      bool active = false;
      for (std::size_t k = 0; k < eu.size(); ++k)
        if (du[k] != dv[k]) {
          active = true;
          break;
        }
      if (!pgas::allreduce_or(ctx, active)) return false;

      // --- step 2: reset candidates, then priority-write the minimum
      // incident edge of every supervertex (SetDMin replaces MST-SMP's
      // fine-grained locks).
      {
        auto cb = cand.local_span(me);
        for (auto& rec : cb) rec = CandRec{};
        ctx.mem_seq(cb.size() * sizeof(CandRec), Cat::Work);
      }
      gi.clear();
      gval.clear();
      for (std::size_t k = 0; k < eu.size(); ++k) {
        if (du[k] == dv[k]) continue;
        const std::uint64_t key = (ew[k] << 32) | eid[k];
        gi.push_back(du[k]);
        gval.push_back({key, dv[k]});
        gi.push_back(dv[k]);
        gval.push_back({key, du[k]});
      }
      ctx.compute(eu.size() * 6, Cat::Work);
      coll::setd_min(ctx, cand, gi, std::span<const CandRec>(gval), copt,
                     cc, ws_cand);

      // --- step 3: graft every winning supervertex along its edge.
      {
        auto cb = cand.local_span(me);
        auto db = d.local_span(me);
        // Direct local writes to D are checksum commit points.
        const bool track = d.replica().tracking(me);
        roots.clear();
        rloc.clear();
        rpar.clear();
        rkey.clear();
        for (std::size_t k = 0; k < cb.size(); ++k) {
          if (cb[k].key == kInfKey) continue;
          // Targets of SetDMin are star roots, so the k-th local vertex
          // (global index via the distribution policy) is a root.
          const std::uint64_t g = d.global_index(me, k);
          if (track) d.integrity_note(me, g, db[k], cb[k].parent);
          db[k] = cb[k].parent;
          roots.push_back(g);
          rloc.push_back(k);
          rpar.push_back(cb[k].parent);
          rkey.push_back(cb[k].key);
        }
        ctx.mem_seq(cb.size() * sizeof(CandRec), Cat::Copy);
        ctx.barrier();  // all grafts visible before the 2-cycle check

        // --- step 4: break 2-cycles (two components choosing edges that
        // hook them onto each other); the smaller root reverts and does
        // not mark its edge, so each connecting edge is counted once.
        grand.resize(rpar.size());
        coll::getd(ctx, d, rpar, std::span<std::uint64_t>(grand), copt, cc,
                   ws_misc);
        for (std::size_t k = 0; k < roots.size(); ++k) {
          const bool two_cycle = grand[k] == roots[k];
          if (two_cycle && roots[k] < rpar[k]) {
            if (track)
              d.integrity_note(me, roots[k], db[rloc[k]], roots[k]);
            db[rloc[k]] = roots[k];  // stay root, unmark
            continue;
          }
          my_mst.push_back(rkey[k] & 0xffffffffULL);
        }
        ctx.compute(roots.size() * 3, Cat::Work);
        ctx.barrier();
      }

      // --- step 5: collapse the new trees to rooted stars.
      jump_to_stars(ctx, d, copt, cc, ws_jump, par, grand);

      // --- step 6: compact.
      if (opt.compact)
        compact_requests(
            ctx, [&](std::size_t k) { return du[k] != dv[k]; },
            {&eu, &ev, &ew, &eid}, {&ws_u, &ws_v});
      return true;
    });
  });

  ParMstResult r;
  for (const auto& edges : mst_edges)
    r.edges.insert(r.edges.end(), edges.begin(), edges.end());
  for (const std::uint64_t id : r.edges) r.total_weight += el.edges[id].w;
  r.iterations = loop.iterations();
  r.costs = collect_costs(rt);
  return r;
}

ParMstResult spanning_tree_pgas(pgas::Runtime& rt, const graph::EdgeList& el,
                                const MstOptions& opt) {
  graph::WEdgeList unit;
  unit.n = el.n;
  unit.edges.reserve(el.m());
  for (const graph::Edge& e : el.edges) unit.edges.push_back({e.u, e.v, 0});
  ParMstResult r = mst_pgas(rt, unit, opt);
  // Unit weights: the forest weight is trivially 0; the edge count is the
  // meaningful output (n - #components).
  return r;
}

}  // namespace pgraph::core
