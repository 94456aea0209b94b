#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/context.hpp"
#include "collectives/options.hpp"
#include "fault/fault.hpp"
#include "machine/phase_stats.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"
#include "sched/fast_div.hpp"
#include "sched/virtual_threads.hpp"

namespace pgraph::coll::detail {

using machine::Cat;

/// Resolve the virtual-thread factor: explicit value, or (for tprime <= 0)
/// the smallest t' whose sub-block fits the modeled cache.  The caller
/// passes the LARGEST per-thread partition (Partitioning::max_local_size,
/// which is ceil(n/s) under the block layout) so skewed degree-aware cuts
/// still size their sub-blocks for the fattest owner.
inline int resolve_tprime(const pgas::ThreadCtx& ctx,
                          const CollectiveOptions& opt,
                          std::size_t max_part_elems,
                          std::size_t elem_bytes) {
  if (opt.tprime > 0) return opt.tprime;
  const std::size_t cache = ctx.mem().params().cache_bytes;
  const std::size_t blk_bytes =
      std::max<std::size_t>(1, max_part_elems * elem_bytes);
  return static_cast<int>((blk_bytes + cache - 1) / cache);
}

/// Charge the group-phase counting sort per Section IV: one streamed
/// histogram pass, one streamed read pass, two passes over the W-bucket
/// histogram, and the scatter itself.  The scatter keeps W write streams
/// open (one cursor per bucket), so once W cache lines exceed the cache it
/// starts missing — this is what turns the t' curve back up for very large
/// W ("the overhead associated with the extra log n factor may offset
/// gains", Section IV).
inline void charge_group_sort(pgas::ThreadCtx& ctx, std::size_t m,
                              std::size_t w, std::size_t rec_bytes) {
  // Degenerate batch: nothing to histogram, nothing to scatter.  The
  // W-bucket passes only exist to order the m records, so an empty
  // request vector pays nothing (late CC iterations and idle stream
  // threads hit this constantly).
  if (m == 0) return;
  ctx.mem_seq(m * rec_bytes, Cat::Sort);
  ctx.mem_seq(m * rec_bytes, Cat::Sort);
  ctx.mem_random(2 * w, w * sizeof(std::uint64_t), sizeof(std::uint64_t),
                 Cat::Sort);
  const std::size_t line = ctx.mem().params().cache_line_bytes;
  if (w * line > ctx.mem().params().cache_bytes) {
    // The W open write streams no longer fit: each output line is filled,
    // evicted and written back without reuse — line-grained random fills
    // instead of streamed stores.
    ctx.mem_random_write(m * rec_bytes / line, w * line, line, Cat::Sort);
  }
}

/// Step 3 of Algorithm 2: publish per-peer counts and offsets.
///
/// Flat (the paper's UPC reality): one fine-grained remote put per matrix
/// entry — the s^2 small-message all-to-all whose burst collapses t=16.
///
/// Hierarchical (the paper's Section-VI proposal, opt.hierarchical): each
/// node's leader thread ships the node's whole t x t count/offset tile to
/// every other node as ONE coalesced message — p^2 messages total — after
/// an intra-node staging barrier.  The matrix contents are identical, so
/// the serve phase is unchanged.
///
/// The caller must follow with ctx.exchange_barrier() (which degenerates
/// to a plain barrier in the flat case).
inline void write_matrices(pgas::ThreadCtx& ctx, CollectiveContext& cc,
                           const std::vector<std::size_t>& thr_off,
                           const CollectiveOptions& opt) {
  const int s = ctx.nthreads();
  const int me = ctx.id();
  if (!opt.hierarchical) {
    // The matrices persist across calls, so a (requester, owner) pair
    // whose batch is empty now and was empty on the previous call can
    // skip the fine-grained put: the remote entry already reads zero.
    // A nonzero -> zero transition must still publish the zero count
    // (owners would otherwise serve the stale batch); the offset entry
    // is never read when the count is zero, so pmatrix is left alone.
    // After a shrink every entry is published once (last_shrinks).
    auto& last = cc.last_cnt[static_cast<std::size_t>(me)];
    int& shrinks = cc.last_shrinks[static_cast<std::size_t>(me)];
    const bool stale = shrinks != ctx.topo().shrinks;
    shrinks = ctx.topo().shrinks;
    std::size_t writes = 0;
    for (int j = 0; j < s; ++j) {
      const std::size_t cnt = thr_off[static_cast<std::size_t>(j) + 1] -
                              thr_off[static_cast<std::size_t>(j)];
      if (cnt == 0 && last[static_cast<std::size_t>(j)] == 0 && !stale)
        continue;
      const std::size_t row = static_cast<std::size_t>(j) *
                                  static_cast<std::size_t>(s) +
                              static_cast<std::size_t>(me);
      cc.smatrix.put(ctx, row, cnt, Cat::Setup);
      if (cnt != 0)
        cc.pmatrix.put(ctx, row, thr_off[static_cast<std::size_t>(j)],
                       Cat::Setup);
      last[static_cast<std::size_t>(j)] = cnt;
      ++writes;
    }
    ctx.compute(2 * writes, Cat::Setup);
    return;
  }

  const pgas::Topology& topo = ctx.topo();
  const int p = ctx.nnodes();
  const int mynode = ctx.node();
  // Leaders and per-node thread sets resolve through the live owner map:
  // after a permanent-loss shrink the buddy's leader covers the adopted
  // threads, and dead nodes (no hosted threads) get no tile message.  With
  // the identity layout this reduces exactly to leader = mynode * tpn.
  const int leader = topo.leader_of_node(mynode);
  const int my_tpn = topo.threads_on_node(mynode);
  ctx.publish(kSlotCnt, const_cast<std::size_t*>(thr_off.data()));
  ctx.barrier();  // intra-node staging (a full barrier in this runtime)
  if (me == leader) {
    // Node-level degenerate-batch skip: when every thread hosted here has
    // an empty request vector now *and* published all-zero counts on the
    // previous call, under the current topology, the remote tiles already
    // read zero — skip the stores, the tile messages, and the setup
    // charges entirely.
    bool degenerate = true;
    for (int r = 0; r < s && degenerate; ++r) {
      if (topo.node_of(r) != mynode) continue;
      const auto* ro = ctx.peer_as<const std::size_t>(r, kSlotCnt);
      if (ro[static_cast<std::size_t>(s)] != 0 ||
          cc.last_shrinks[static_cast<std::size_t>(r)] != topo.shrinks)
        degenerate = false;
      for (const std::uint64_t c : cc.last_cnt[static_cast<std::size_t>(r)])
        if (c != 0) {
          degenerate = false;
          break;
        }
    }
    if (degenerate) return;
    // Write the whole node's columns of SMatrix/PMatrix on behalf of its
    // t threads; one coalesced message per remote node carries the t*t
    // tile pair.
    for (int j = 0; j < s; ++j) {
      for (int r = 0; r < s; ++r) {
        if (topo.node_of(r) != mynode) continue;
        const auto* ro = ctx.peer_as<const std::size_t>(r, kSlotCnt);
        const std::size_t row = static_cast<std::size_t>(j) *
                                    static_cast<std::size_t>(s) +
                                static_cast<std::size_t>(r);
        const std::uint64_t cnt = ro[static_cast<std::size_t>(j) + 1] -
                                  ro[static_cast<std::size_t>(j)];
        cc.smatrix.store_relaxed(row, cnt);
        cc.pmatrix.store_relaxed(row, ro[static_cast<std::size_t>(j)]);
        cc.last_cnt[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] =
            cnt;
        cc.last_shrinks[static_cast<std::size_t>(r)] = topo.shrinks;
      }
    }
    for (int step = 1; step < p; ++step) {
      const int nd = (mynode + step) % p;  // circular over nodes
      const int nd_tpn = topo.threads_on_node(nd);
      if (nd_tpn == 0) continue;  // dead node: nothing to ship
      const std::size_t tile_bytes = static_cast<std::size_t>(my_tpn) *
                                     static_cast<std::size_t>(nd_tpn) * 2 * 8;
      ctx.post_exchange_msg(topo.leader_of_node(nd), tile_bytes);
    }
    ctx.mem_seq(static_cast<std::size_t>(s) * my_tpn * 16, Cat::Setup);
    ctx.compute(static_cast<std::size_t>(s) * my_tpn * 4, Cat::Setup);
  }
}

/// Per-element op cost of touching the local portion of a shared array,
/// depending on the `localcpy` optimization.
inline std::size_t local_touch_ops(const CollectiveOptions& opt) {
  return opt.localcpy ? kPrivatePtrOps : kSharedPtrOps;
}

/// The exchange-loop visit order ("circular" optimization).
inline int peer_at(const CollectiveOptions& opt, int me, int s, int step) {
  return opt.circular ? (me + step) % s : step;
}

// --- the exchange skeleton shared by GetD and SetD* -------------------------
//
// GetD, SetD and SetDMin are one schedule (Algorithm 2): they differ only
// in each record's payload, the wire shape, and what the owner does with
// each element.  getd.hpp and setd.hpp supply those; the rest is here.

/// Step 1 of Algorithm 2: count-sort this thread's requests by virtual
/// block (owner thread, then sub-block within the owner's block) into
/// ws.sorted, with payload_of(i) at the same position of `payload`.  A
/// request with local(i) true never leaves the thread: answer(i) serves
/// it here.  Leaves the per-owner batch offsets in ws.thr_off; returns
/// the number of requests sent.
template <class T, class P, class PayloadOf, class Local, class Answer>
std::size_t group_by_vblock(pgas::ThreadCtx& ctx, const sched::VBlocks& vb,
                            std::span<const std::uint64_t> indices,
                            const CollectiveOptions& opt, CollWorkspace<T>& ws,
                            std::vector<P>& payload, PayloadOf payload_of,
                            Local local, Answer answer) {
  const std::size_t m = indices.size();
  const std::size_t w = vb.nbuckets();
  // Compute the virtual-block key of every request index, charging
  // Cat::Work per the `id` optimization level.  Under `id` a workspace
  // that serves one request column reuses the keys of its last call.
  if (!(opt.id && ws.keys_valid && ws.keys.size() == m)) {
    ws.keys.resize(m);
    for (std::size_t i = 0; i < m; ++i)
      ws.keys[i] = static_cast<std::uint32_t>(vb.vkey(indices[i]));
    ctx.compute(m * (opt.id ? kDirectKeyOps : kIntrinsicKeyOps), Cat::Work);
    ws.keys_valid = ws.keep_keys;
  }
#ifdef PGRAPH_CHECK_ACCESS
  // A kept workspace handed a different column of the same length would
  // route requests by stale keys: recompute them (uncharged) and compare.
  else {
    for (std::size_t i = 0; i < m; ++i)
      if (ws.keys[i] != static_cast<std::uint32_t>(vb.vkey(indices[i])))
        throw std::logic_error(
            std::string("collective at site '") +
            (opt.site != nullptr ? opt.site : "(anonymous)") +
            "': kept id keys do not match the requests (request " +
            std::to_string(i) + ")");
  }
#endif

  ws.bucket_off.assign(w + 1, 0);
  for (std::size_t i = 0; i < m; ++i)
    if (!local(i)) ++ws.bucket_off[ws.keys[i] + 1];
  for (std::size_t k = 0; k < w; ++k) ws.bucket_off[k + 1] += ws.bucket_off[k];
  const std::size_t kept = ws.bucket_off[w];

  ws.sorted.resize(kept);
  payload.resize(kept);
  ws.cursor.assign(ws.bucket_off.begin(), ws.bucket_off.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    if (local(i)) {
      answer(i);
      continue;
    }
    const std::size_t pos = ws.cursor[ws.keys[i]]++;
    ws.sorted[pos] = indices[i];
    payload[pos] = payload_of(i);
  }
  charge_group_sort(ctx, m, w, sizeof(std::uint64_t) + sizeof(P));

  // The per-owner-thread offsets, from the per-virtual-block ones.
  const int s = vb.nthreads;
  ws.thr_off.resize(static_cast<std::size_t>(s) + 1);
  for (int t = 0; t < s; ++t)
    ws.thr_off[static_cast<std::size_t>(t)] = ws.bucket_off[vb.first_bucket(t)];
  ws.thr_off[static_cast<std::size_t>(s)] = kept;
  return kept;
}

/// One byte range of a checksummed batch.
struct BatchPart {
  void* data;
  std::size_t bytes;
};

/// Checksum of a batch held in one or two byte ranges.
inline std::uint64_t batch_checksum(std::initializer_list<BatchPart> parts) {
  std::uint64_t sum = 0;
  for (const BatchPart& p : parts)
    sum ^= fault::checksum_words(p.data, p.bytes);
  return sum;
}

/// Checksum-retransmit protocol (docs/ROBUSTNESS.md): while the batch of
/// `cnt` records in `parts` mismatches its checksum `expect`, charge a
/// modeled retransmission (round trip + backoff), restore the damaged
/// bytes and re-validate the fresh copy.  Throws FaultError{Corruption}
/// with `what` once the retry budget is spent.
inline void retransmit_until_clean(pgas::ThreadCtx& ctx,
                                   fault::FaultInjector& finj,
                                   std::uint64_t expect, std::size_t cnt,
                                   std::initializer_list<BatchPart> parts,
                                   const char* what) {
  std::size_t payload = 0;
  for (const BatchPart& p : parts) payload += p.bytes;
  int tries = 0;
  while (batch_checksum(parts) != expect) {
    if (tries++ >= finj.config().max_retries)
      throw fault::FaultError(fault::FaultKind::Corruption, what);
    finj.count(&fault::FaultCounters::detected);
    ctx.charge(Cat::Comm, ctx.net().msg_wire_ns(payload + 24) +
                              finj.config().backoff_ns_for(tries - 1));
    ctx.count_message(payload + 24);
    finj.count(&fault::FaultCounters::retransmits);
    for (const BatchPart& p : parts) finj.repair(p.data, p.bytes);
    ctx.compute(parts.size() * cnt, Cat::Copy);
  }
}

/// Wire shape of a batch, in bytes per record: `in` travels requester ->
/// owner, `out` owner -> requester (0: the collective posts no reply).
/// With the fault protocol on, the 8-byte batch checksum seals the payload
/// that travels with values: the reply when there is one (the owner seals
/// it after serving), else the request (the owner validates it before
/// applying — a corrupted index must never be dereferenced).
struct Wire {
  std::size_t in;
  std::size_t out;
};

/// Steps 4-5 of Algorithm 2, owner side: walk the peers (circular or
/// identity order), post each batch's messages (one combined message per
/// node pair when hierarchical), run the owner half of the checksum
/// protocol, and apply `act(ri, elem, val)` to every requested element
/// `elem` of this thread's block, where `val` is the record's slot in the
/// requester's `slot` buffer (GetD's reply, SetD's value).  Charges the
/// stream of incoming records, one compulsory line fill per first touch,
/// and reuse accesses at their (often cached) cost.  A guarded index that
/// fails its bounds/owner check goes to `wild(ri, li)`, which rewrites it
/// and returns true to serve it anyway, or returns false to skip it.  The
/// caller follows with ctx.exchange_barrier().
template <class T, class Wild, class Act>
void owner_walk(pgas::ThreadCtx& ctx, pgas::GlobalArray<T>& D,
                CollectiveContext& cc, CollWorkspace<T>& ws,
                const CollectiveOptions& opt, const sched::VBlocks& vb,
                Wire wire, int slot, bool chk, Wild wild, Act act) {
  const int s = ctx.nthreads();
  const int me = ctx.id();
  const auto srow = cc.smatrix.local_span(me);
  const auto prow = cc.pmatrix.local_span(me);
  ctx.mem_seq(2 * static_cast<std::size_t>(s) * sizeof(std::uint64_t),
              Cat::Setup);
  const auto myblock = D.local_span(me);
  // Global -> local mapping of this owner's partition: subtracting the
  // span base IS the map for identity layouts (block, degree-aware); the
  // policy computes it otherwise.  `base` is only meaningful when `ident`.
  const auto& P = D.part();
  const bool ident = P.is_identity();
  const std::uint64_t base = D.block_begin(me);
  // Under an armed mem-flip plan a flipped label bit can escape into a
  // request index before the scrubber runs; bounds-guard the loop so the
  // epoch survives to be rolled back instead of faulting on a wild read
  // or scribbling on a wild write (docs/ROBUSTNESS.md, "At-rest
  // integrity").
  const bool guard = ctx.runtime().mem_guard_active();
  fault::FaultInjector* const finj = ctx.runtime().fault_injector();
  const std::size_t touch_ops = local_touch_ops(opt);
  const std::size_t line_bytes = ctx.mem().params().cache_line_bytes;
  const sched::FastDiv line_elems(
      std::max<std::size_t>(1, line_bytes / sizeof(T)));
  const std::size_t nlines = line_elems.div(myblock.size()) + 1;
  ws.touched.assign((nlines + 63) / 64, 0);
  ctx.mem_seq(ws.touched.size() * 8, Cat::Copy);
  std::size_t distinct_lines = 0;
  // Hierarchical per-node combining.
  std::vector<std::size_t>& node_bytes = ws.node_bytes;
  if (opt.hierarchical)
    node_bytes.assign(static_cast<std::size_t>(ctx.nnodes()), 0);

  for (int step = 0; step < s; ++step) {
    const int j = peer_at(opt, me, s, step);
    const std::size_t cnt = srow[static_cast<std::size_t>(j)];
    if (cnt == 0) continue;
    const std::size_t off = prow[static_cast<std::size_t>(j)];
    const std::uint64_t* ridx = ctx.peer_as<std::uint64_t>(j, kSlotIdx) + off;
    T* vals = ctx.peer_as<T>(j, slot) + off;
    if (j != me) {
      std::size_t in = cnt * wire.in;
      std::size_t out = cnt * wire.out;
      if (chk) (out != 0 ? out : in) += sizeof(std::uint64_t);
      if (opt.hierarchical) {
        node_bytes[static_cast<std::size_t>(ctx.topo().node_of(j))] +=
            in + out;
      } else {
        ctx.post_exchange_msg(j, in);
        if (out != 0) ctx.post_exchange_msg(j, out);
      }
    }
    if (chk && wire.out == 0) {
      // Validate the request before applying it; a damaged batch is
      // repaired by a modeled retransmission from requester j.
      const std::uint64_t expect = ctx.peer_as<std::uint64_t>(j, kSlotSum)[me];
      ctx.compute(2 * cnt, Cat::Copy);
      retransmit_until_clean(
          ctx, *finj, expect, cnt,
          {{const_cast<std::uint64_t*>(ridx), cnt * sizeof(std::uint64_t)},
           {vals, cnt * sizeof(T)}},
          "setd: request batch unrecoverable");
    }
    std::size_t first_touches = 0;
    for (std::size_t k = 0; k < cnt; ++k) {
      std::uint64_t ri = ridx[k];
      // A wild ri underflows li past the size check on the identity path
      // (unsigned wrap); non-identity layouts also need the owner check —
      // a foreign index can map to an in-range local slot.
      std::uint64_t li = ident ? ri - base : P.local_of(ri);
      if (guard && (li >= myblock.size() ||
                    (!ident && P.owner_of(ri) != me))) [[unlikely]] {
        ctx.runtime().note_corruption();
        if (!wild(ri, li)) continue;
      }
      assert(li < myblock.size() && (ident || P.owner_of(ri) == me));
      const std::size_t l = line_elems.div(li);
      if (!(ws.touched[l >> 6] & (1ull << (l & 63)))) {
        ws.touched[l >> 6] |= 1ull << (l & 63);
        ++first_touches;
      }
      act(ri, myblock[li], vals[k]);
    }
    if (chk && wire.out != 0) {
      // Deposit the reply's checksum into the requester's sum array (slot
      // indexed by owner); validated requester-side after the exchange.
      ctx.peer_as<std::uint64_t>(j, kSlotSum)[me] =
          fault::checksum_words(vals, cnt * sizeof(T));
      ctx.compute(cnt, Cat::Copy);
    }
    distinct_lines += first_touches;
    // Streamed read of the incoming records; compulsory line fills for
    // first touches; reuse accesses over the effective working set (the
    // sub-block, or the touched footprint if smaller — duplicated requests
    // stay cached).
    ctx.mem_seq(cnt * wire.in, Cat::Copy);
    ctx.mem_compulsory(first_touches, sizeof(T), Cat::Copy);
    const std::size_t ws_eff =
        std::min(vb.sub_blk * sizeof(T), distinct_lines * line_bytes);
    ctx.mem_random(cnt - first_touches, ws_eff, sizeof(T), Cat::Copy);
    ctx.compute(cnt * touch_ops, Cat::Copy);
  }
  if (opt.hierarchical) {
    // One combined message per node pair, visited in circular node order.
    // Targets resolve through the live leader map so a post-shrink run
    // addresses the buddy that adopted a lost node's threads; a dead node
    // accumulates no bytes (node_of never maps a thread to it).
    const int p = ctx.nnodes();
    for (int step = 0; step < p; ++step) {
      const int nd = (ctx.node() + step) % p;
      if (node_bytes[static_cast<std::size_t>(nd)] > 0)
        ctx.post_exchange_msg(ctx.topo().leader_of_node(nd),
                              node_bytes[static_cast<std::size_t>(nd)]);
    }
  }
}

}  // namespace pgraph::coll::detail
