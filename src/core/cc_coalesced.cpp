#include "core/cc_coalesced.hpp"

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "core/edge_requests.hpp"
#include "core/pointer_jump.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"

namespace pgraph::core {

using machine::Cat;

namespace {

/// Shared per-run scaffolding of the collective-based CC variants.
struct CcRun {
  pgas::GlobalArray<std::uint64_t> d;
  coll::CollectiveContext cc;
  RecoveryLoop loop;

  // The label array adopts the runtime's configured distribution policy
  // (--partition): under skewed inputs a degree-aware layout spreads the
  // hot vertex range across owners (docs/PARTITIONING.md).
  CcRun(pgas::Runtime& rt, std::size_t n, const char* kernel, int max_iters,
        int scrub_interval)
      : d(rt, n, rt.make_partitioning(n)),
        cc(rt),
        loop(rt, {&d}, kernel, max_iters, scrub_interval) {}

  /// Host side, after the run.
  ParCCResult result(pgas::Runtime& rt) {
    ParCCResult r;
    d.read_all(r.labels);  // global order under any storage layout
    for (std::size_t i = 0; i < r.labels.size(); ++i)
      if (r.labels[i] == i) ++r.num_components;
    r.iterations = loop.iterations();
    r.costs = collect_costs(rt);
    return r;
  }
};

// D[0] stays 0 under CC's larger-under-smaller hooking (offload target).
constexpr coll::KnownElement kRootZero{0, 0};

}  // namespace

CcRounds::CcRounds(pgas::ThreadCtx& ctx, pgas::GlobalArray<std::uint64_t>& d,
                   coll::CollectiveContext& cc,
                   const std::vector<graph::Edge>& edges, const CcOptions& opt)
    : ctx_(ctx), d_(d), cc_(cc), opt_(opt) {
  load_endpoints(ctx, edges, eu_, ev_);
}

bool CcRounds::step() {
  const coll::CollectiveOptions& copt = opt_.coll;
  du_.resize(eu_.size());
  dv_.resize(ev_.size());
  {
    pgas::TraceScope ts(ctx_, "cc.graft");
    // --- read endpoint labels (coalesced; keys cacheable via `id`).
    coll::getd(ctx_, d_, eu_, std::span<std::uint64_t>(du_), copt, cc_,
               ws_u_, kRootZero);
    coll::getd(ctx_, d_, ev_, std::span<std::uint64_t>(dv_), copt, cc_,
               ws_v_, kRootZero);

    // --- graft requests: hook the larger root under the smaller.
    gi_.clear();
    gv_.clear();
    for (std::size_t k = 0; k < eu_.size(); ++k) {
      if (du_[k] == dv_[k]) continue;
      if (du_[k] < dv_[k]) {
        gi_.push_back(dv_[k]);
        gv_.push_back(du_[k]);
      } else {
        gi_.push_back(du_[k]);
        gv_.push_back(dv_[k]);
      }
    }
    ctx_.mem_seq(eu_.size() * 2 * sizeof(std::uint64_t), Cat::Work);
    ctx_.compute(eu_.size() * 3, Cat::Work);
  }

  if (!pgas::allreduce_or(ctx_, !gi_.empty())) return false;

  // Arbitrary concurrent write, as in the paper's CC ("SetD implements
  // arbitrary concurrent writes").  All targets are star roots and all
  // proposals are smaller labels, so any winner preserves monotone
  // convergence.
  coll::setd(ctx_, d_, gi_, std::span<const std::uint64_t>(gv_), copt, cc_,
             ws_set_);

  // --- lock-step pointer jumping until rooted stars.  CC hooks larger
  // labels under smaller ones, so D[0] == 0 forever and the offload
  // optimization applies to the jump requests (the paper's hotspot).
  {
    pgas::TraceScope ts(ctx_, "cc.jump");
    jump_to_stars(ctx_, d_, copt, cc_, ws_jump_, par_, grand_, kRootZero);
  }

  // --- compact: drop edges already inside one component, keeping the
  // cached target keys aligned with the surviving requests.
  if (opt_.compact)
    compact_requests(
        ctx_, [&](std::size_t k) { return du_[k] != dv_[k]; }, {&eu_, &ev_},
        {&ws_u_, &ws_v_});
  return true;
}

ParCCResult cc_coalesced(pgas::Runtime& rt, const graph::EdgeList& el,
                         const CcOptions& opt) {
  rt.reset_costs();

  const std::size_t n = el.n;
  CcRun run(rt, n, "cc_coalesced", opt.round_cap(default_round_cap(n)),
            opt.scrub_interval);

  rt.run([&](pgas::ThreadCtx& ctx) {
    init_labels(ctx, run.d);
    CcRounds rounds(ctx, run.d, run.cc, el.edges, opt);
    run.loop.run(ctx, rounds.state(), [&](int) { return rounds.step(); });
  });

  return run.result(rt);
}

ParCCResult sv_coalesced(pgas::Runtime& rt, const graph::EdgeList& el,
                         const CcOptions& opt) {
  rt.reset_costs();

  const std::size_t n = el.n;
  // SV takes more rounds than CC: twice CC's cap.
  CcRun run(rt, n, "sv_coalesced", opt.round_cap(2 * default_round_cap(n)),
            opt.scrub_interval);
  // Star flags MUST share D's layout: compute_stars walks stb[k]/blk[k]
  // in parallel assuming slot k of both slices is the same vertex.
  pgas::GlobalArray<std::uint64_t> st(rt, n, rt.make_partitioning(n));
  const coll::CollectiveOptions& copt = opt.coll;
  // NOTE: no offload -- SV's star hooking (step 2) can hook root 0 under a
  // larger root, so D[0] is not constant.

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int me = ctx.id();
    init_labels(ctx, run.d);

    std::vector<std::uint64_t> eu, ev;
    load_endpoints(ctx, el.edges, eu, ev);

    // The endpoint columns keep their `id` keys; the others are scratch.
    coll::CollWorkspace<std::uint64_t> ws_u(true), ws_v(true), ws_lab, ws_set;
    std::vector<std::uint64_t> du, dv, ddu, ddv, gi, gv, par, grand, stu,
        stv;

    const auto my_block = [&] { return run.d.local_span(me); };

    // Recompute star flags from the current D (standard subroutine):
    //   st[i] = 1;  if D[i] != D[D[i]] { st[i] = 0; st[D[D[i]]] = 0; }
    //   st[i] = st[D[i]].
    const auto compute_stars = [&](bool& any_nonstar) {
      auto stb = st.local_span(me);
      auto blk = my_block();
      par.assign(blk.begin(), blk.end());
      grand.resize(par.size());
      coll::getd(ctx, run.d, par, std::span<std::uint64_t>(grand), copt,
                 run.cc, ws_lab);
      for (std::size_t k = 0; k < stb.size(); ++k) stb[k] = 1;
      ctx.barrier();  // everyone's st initialized before remote zeroing
      gi.clear();
      gv.clear();
      any_nonstar = false;
      for (std::size_t k = 0; k < par.size(); ++k) {
        if (grand[k] != par[k]) {
          any_nonstar = true;
          stb[k] = 0;
          gi.push_back(grand[k]);  // st[D[D[i]]] = 0
          gv.push_back(0);
        }
      }
      ctx.mem_seq(par.size() * sizeof(std::uint64_t) * 2, Cat::Copy);
      coll::setd(ctx, st, gi, std::span<const std::uint64_t>(gv), copt,
                 run.cc, ws_set);
      // st[i] = st[D[i]]
      std::vector<std::uint64_t>& stpar = grand;  // reuse buffer
      coll::getd(ctx, st, par, std::span<std::uint64_t>(stpar), copt, run.cc,
                 ws_lab);
      for (std::size_t k = 0; k < stb.size(); ++k) stb[k] = stpar[k];
      ctx.mem_seq(par.size() * sizeof(std::uint64_t), Cat::Copy);
    };

    // Checkpointed with the label block; the star flags are recomputed
    // from D every step, so they need no snapshot.
    const RecoveryLoop::Private state{
        .vectors = {&eu, &ev},
        .key_caches = {&ws_u, &ws_v}};
    run.loop.run(ctx, state, [&](int) {
      bool changed = false;

      // --- step 1: conditional graft onto roots.
      du.resize(eu.size());
      dv.resize(ev.size());
      coll::getd(ctx, run.d, eu, std::span<std::uint64_t>(du), copt, run.cc,
                 ws_u);
      coll::getd(ctx, run.d, ev, std::span<std::uint64_t>(dv), copt, run.cc,
                 ws_v);
      ddu.resize(du.size());
      ddv.resize(dv.size());
      coll::getd(ctx, run.d, du, std::span<std::uint64_t>(ddu), copt, run.cc,
                 ws_lab);
      coll::getd(ctx, run.d, dv, std::span<std::uint64_t>(ddv), copt, run.cc,
                 ws_lab);

      gi.clear();
      gv.clear();
      for (std::size_t k = 0; k < eu.size(); ++k) {
        if (dv[k] == ddv[k] && du[k] < dv[k]) {
          gi.push_back(dv[k]);
          gv.push_back(du[k]);
        } else if (du[k] == ddu[k] && dv[k] < du[k]) {
          gi.push_back(du[k]);
          gv.push_back(dv[k]);
        }
      }
      ctx.compute(eu.size() * 6, Cat::Work);
      changed = changed || !gi.empty();
      coll::setd_min(ctx, run.d, gi, std::span<const std::uint64_t>(gv),
                     copt, run.cc, ws_set);

      // --- step 2: hook stagnant stars onto any neighbouring component.
      bool any_nonstar = false;
      compute_stars(any_nonstar);
      stu.resize(eu.size());
      stv.resize(ev.size());
      coll::getd(ctx, st, eu, std::span<std::uint64_t>(stu), copt, run.cc,
                 ws_u);
      coll::getd(ctx, st, ev, std::span<std::uint64_t>(stv), copt, run.cc,
                 ws_v);
      // Fresh labels after step 1's grafts, plus a fresh root check on the
      // hook targets.
      coll::getd(ctx, run.d, eu, std::span<std::uint64_t>(du), copt, run.cc,
                 ws_u);
      coll::getd(ctx, run.d, ev, std::span<std::uint64_t>(dv), copt, run.cc,
                 ws_v);
      coll::getd(ctx, run.d, du, std::span<std::uint64_t>(ddu), copt, run.cc,
                 ws_lab);
      coll::getd(ctx, run.d, dv, std::span<std::uint64_t>(ddv), copt, run.cc,
                 ws_lab);
      gi.clear();
      gv.clear();
      for (std::size_t k = 0; k < eu.size(); ++k) {
        if (du[k] == dv[k]) continue;
        // Hook a star onto a *smaller* neighbouring label only, and only
        // through a verified root.  Two deviations from the textbook step:
        //  - monotone targets: SV's "hook onto any neighbour" is safe only
        //    with its full stagnancy-counter discipline; unconditional
        //    hooking can close 3-cycles that pointer jumping then rotates
        //    forever.  Monotone hooks keep the pointer graph acyclic.
        //  - fresh root check (du == D[du]): the one-round star detection
        //    leaves stale flags on members of depth >= 3 chains, and
        //    hooking through a non-root label would split its subtree off
        //    the component.
        if (stu[k] && dv[k] < du[k] && ddu[k] == du[k]) {
          gi.push_back(du[k]);
          gv.push_back(dv[k]);
        }
        if (stv[k] && du[k] < dv[k] && ddv[k] == dv[k]) {
          gi.push_back(dv[k]);
          gv.push_back(du[k]);
        }
      }
      ctx.compute(eu.size() * 4, Cat::Work);
      changed = changed || !gi.empty();
      coll::setd_min(ctx, run.d, gi, std::span<const std::uint64_t>(gv),
                     copt, run.cc, ws_set);

      // --- step 3: a single pointer jump.
      const bool jumped =
          jump_round(ctx, run.d, copt, run.cc, ws_lab, par, grand);
      changed = changed || jumped;

      // --- compact.
      if (opt.compact) {
        compact_requests(
            ctx, [&](std::size_t k) { return du[k] != dv[k]; }, {&eu, &ev});
        // SV recomputes its endpoint keys after a compaction; keeping them
        // aligned, as CC does, would lower its modeled time.
        ws_u.invalidate_keys();
        ws_v.invalidate_keys();
      }

      return pgas::allreduce_or(ctx, changed);
    });
  });

  return run.result(rt);
}

}  // namespace pgraph::core
