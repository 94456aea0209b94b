#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "analysis/access_checker.hpp"
#include "machine/phase_stats.hpp"
#include "partition/partitioning.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::pgas {

/// Distributed shared array — the UPC `shared [blk] T A[n]` analogue, with
/// a pluggable distribution policy (docs/PARTITIONING.md).
///
/// By default element i has affinity to thread i / ceil(n/s) (block
/// distribution, the layout the paper's partition phase assumes); a
/// partition::Partitioning handed to the constructor swaps the owner map
/// (cyclic, block-cyclic, degree-aware).  Storage is one contiguous buffer
/// (we are simulating the cluster in one address space) laid out
/// PARTITION-MAJOR: thread t's elements occupy the slice
/// [block_begin(t), block_end(t)), in increasing global-index order.  For
/// identity layouts (block, degree-aware — contiguous owner ranges) the
/// storage slot of element i is i itself, bit-identical to the historical
/// block layout; otherwise slot_of(i) permutes through the policy.
/// The array's Replica (buddy mirror, scrub checksums, state digest) walks
/// storage order, so it is partition-agnostic by construction.
///
/// Access paths and their costs:
///  - get/put: fine-grained single-element access.  Charged as a remote
///    round trip when the owner lives on another node (the naive
///    implementation's pattern), or as a random local memory access
///    otherwise.  Data is moved with relaxed atomics because PRAM-style
///    algorithms race benignly on these cells.
///  - memget/memput: coalesced bulk transfer within a single owner's block
///    (the optimized pattern).  Charged as one message.
///  - local_span/raw: direct access for owner-local phases and for
///    verification; uninstrumented (callers charge via ThreadCtx, which is
///    what the `localcpy` optimization controls).
template <class T>
class GlobalArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  GlobalArray(Runtime& rt, std::size_t n)
      : GlobalArray(rt, n,
                    partition::Partitioning::block(
                        n, rt.topo().total_threads())) {}

  GlobalArray(Runtime& rt, std::size_t n, partition::Partitioning part)
      : rt_(&rt),
        uid_(rt.new_array_uid()),
        n_(n),
        part_(std::move(part)),
        data_(n),
        replica_(rt.replicas(), reinterpret_cast<unsigned char*>(data_.data()),
                 sizeof(T), part_) {
    assert(part_.size() == n_ &&
           part_.num_threads() == rt.topo().total_threads());
#ifdef PGRAPH_CHECK_ACCESS
    shadow_ = analysis::AccessChecker::instance().register_array(n, sizeof(T));
#endif
  }

  GlobalArray(const GlobalArray&) = delete;
  GlobalArray& operator=(const GlobalArray&) = delete;

  std::size_t size() const { return n_; }
  /// Largest per-thread partition (ceil(n/s) under the block layout).
  std::size_t block_size() const { return part_.max_local_size(); }
  /// The distribution policy of this array (owner map + storage layout).
  const partition::Partitioning& part() const { return part_; }
  /// Per-runtime sequential id (host-side construction order, so stable
  /// across runs of the same program).  The conformance verifier folds it
  /// into collective argument signatures.
  std::uint64_t uid() const { return uid_; }

  int owner(std::size_t i) const {
    assert(i < n_);
    return part_.owner_of(i);
  }

  /// Global index of thread `thr`'s k-th local element — what owner-local
  /// loops iterate instead of `block_begin(thr) + k` (which is a STORAGE
  /// offset and only equals the global index under identity layouts).
  std::uint64_t global_index(int thr, std::uint64_t k) const {
    return part_.global_of(thr, k);
  }

  /// STORAGE offsets of thread `thr`'s partition slice (equal to the
  /// global-index range under identity layouts — block, degree-aware).
  std::size_t block_begin(int thr) const { return part_.part_begin(thr); }
  std::size_t block_end(int thr) const {
    return part_.part_begin(thr) + part_.local_size(thr);
  }
  std::size_t local_size(int thr) const { return part_.local_size(thr); }

  /// Fine-grained read of element i (relaxed atomic; benign races allowed).
  /// Node-local accesses (own block or a same-node peer's) are random
  /// probes whose working set is the node's slice of the array — the
  /// access pattern of PRAM-style code; remote accesses are a network
  /// round trip.
  T get(ThreadCtx& ctx, std::size_t i,
        machine::Cat c = machine::Cat::Comm) {
    static_assert(sizeof(T) <= 8, "fine-grained access requires small T");
    charge_fine(ctx, i, c, /*is_write=*/false);
    chk_elem(&ctx, i, analysis::AccessKind::Read);
    return load_raw(i);
  }

  /// Fine-grained write of element i.
  void put(ThreadCtx& ctx, std::size_t i, T v,
           machine::Cat c = machine::Cat::Comm) {
    static_assert(sizeof(T) <= 8, "fine-grained access requires small T");
    charge_fine(ctx, i, c, /*is_write=*/true);
    chk_elem(&ctx, i, analysis::AccessKind::Write);
    store_raw(i, v);
  }

  /// Fine-grained write charged exactly like put(), but stored as a
  /// monotone min so that PRAM-style benign write races cannot resurrect a
  /// larger value in the host execution (the modeled machine would race
  /// benignly; the cost is that of the racy plain write).
  void put_min(ThreadCtx& ctx, std::size_t i, T v,
               machine::Cat c = machine::Cat::Comm)
    requires(sizeof(T) <= 8)
  {
    charge_fine(ctx, i, c, /*is_write=*/true);
    chk_elem(&ctx, i, analysis::AccessKind::CombineMin);
    fetch_min_raw(i, v);
  }

  /// Coalesced bulk read of [start, start+count), which must lie within one
  /// owner's block (upc_memget).
  void memget(ThreadCtx& ctx, std::size_t start, std::size_t count, T* dst,
              machine::Cat c = machine::Cat::Comm) {
    if (count == 0) return;
    const int own = owner(start);
    assert(owner(start + count - 1) == own && "memget must not span blocks");
    ctx.bulk_get_cost(own, count * sizeof(T), c);
    chk_range(ctx, start, count, analysis::AccessKind::Read);
    if (part_.is_identity()) {
      std::memcpy(dst, data_.data() + start, count * sizeof(T));
    } else {
      // Permuted storage: the owner's elements for a contiguous global
      // range need not be contiguous slots; gather element-wise (the bulk
      // cost above is unchanged — one coalesced message either way).
      for (std::size_t j = 0; j < count; ++j)
        dst[j] = data_[part_.slot_of(start + j)];
    }
  }

  /// Coalesced bulk write (upc_memput); same single-block restriction.
  void memput(ThreadCtx& ctx, std::size_t start, std::size_t count,
              const T* src, machine::Cat c = machine::Cat::Comm) {
    if (count == 0) return;
    const int own = owner(start);
    assert(owner(start + count - 1) == own && "memput must not span blocks");
    ctx.bulk_put_cost(own, count * sizeof(T), c);
    chk_range(ctx, start, count, analysis::AccessKind::Write);
    if (part_.is_identity()) {
      std::memcpy(data_.data() + start, src, count * sizeof(T));
    } else {
      for (std::size_t j = 0; j < count; ++j)
        data_[part_.slot_of(start + j)] = src[j];
    }
  }

  /// The calling thread's own block (or a same-node peer's, for owner-side
  /// phases).  Uninstrumented: cost is charged by the caller, which is how
  /// the `localcpy` optimization (private-pointer arithmetic) is modeled.
  /// Taking a span of another NODE's block from inside an SPMD region is
  /// an affinity violation — the private-pointer cast that would be UB in
  /// real UPC — and is flagged under PGRAPH_CHECK_ACCESS.
  std::span<T> local_span(int thr) {
    chk_span(thr, "local_span of a remote node's block");
    return std::span<T>(data_.data() + block_begin(thr), local_size(thr));
  }
  std::span<const T> local_span(int thr) const {
    chk_span(thr, "local_span of a remote node's block");
    return std::span<const T>(data_.data() + block_begin(thr),
                              local_size(thr));
  }

  /// Uninstrumented whole-array view for single-threaded verification.
  /// Inside an SPMD region these are affinity-checked like local_span.
  /// raw(i) is GLOBAL-index addressed under every layout; raw_all() is a
  /// storage-order view and therefore only meaningful for identity
  /// layouts — permuted arrays must gather through read_all()/raw(i).
  T& raw(std::size_t i) {
    chk_raw(i);
    return data_[part_.slot_of(i)];
  }
  const T& raw(std::size_t i) const {
    chk_raw(i);
    return data_[part_.slot_of(i)];
  }
  std::span<T> raw_all() {
    assert(part_.is_identity() &&
           "raw_all is storage order; gather permuted arrays via read_all");
    chk_raw_all();
    return std::span<T>(data_);
  }
  std::span<const T> raw_all() const {
    assert(part_.is_identity() &&
           "raw_all is storage order; gather permuted arrays via read_all");
    chk_raw_all();
    return std::span<const T>(data_);
  }

  /// Gather the whole array in GLOBAL index order into `out`, regardless
  /// of the storage layout (uninstrumented, like raw_all; host-side result
  /// extraction).
  void read_all(std::vector<T>& out) const {
    chk_raw_all();
    out.resize(n_);
    if (part_.is_identity()) {
      std::memcpy(out.data(), data_.data(), n_ * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n_; ++i) out[i] = data_[part_.slot_of(i)];
    }
  }

  /// Relaxed element access without cost charging (used inside collectives
  /// where the cost is accounted at batch granularity).  Under
  /// PGRAPH_CHECK_ACCESS the bytes still count as data motion, so an epoch
  /// that moves more than its threads charge is flagged.
  T load_relaxed(std::size_t i) const {
    chk_elem(nullptr, i, analysis::AccessKind::Read);
    return load_raw(i);
  }
  void store_relaxed(std::size_t i, T v) {
    chk_elem(nullptr, i, analysis::AccessKind::Write);
    store_raw(i, v);
  }

  Runtime& runtime() { return *rt_; }

  /// --- access-discipline annotations (no-ops unless PGRAPH_CHECK_ACCESS)
  /// Declare that writes to this array are resolved by a CRCW combine rule
  /// until the matching end (refcounted; see coll::CrcwRegion).
  void checker_begin_crcw(analysis::AccessKind combine_kind) {
#ifdef PGRAPH_CHECK_ACCESS
    analysis::AccessChecker::instance().begin_crcw(shadow_.get(),
                                                   combine_kind);
#else
    (void)combine_kind;
#endif
  }
  void checker_end_crcw() {
#ifdef PGRAPH_CHECK_ACCESS
    analysis::AccessChecker::instance().end_crcw(shadow_.get());
#endif
  }
  /// Record an owner-side combining write / read applied through a raw
  /// local pointer (the collectives' serve and apply loops), so the
  /// checker can see collisions between collectives and stray fine-grained
  /// traffic in the same epoch.
  void note_combine(ThreadCtx& ctx, std::size_t i,
                    analysis::AccessKind combine_kind) {
    chk_elem(&ctx, i, combine_kind);
  }
  void note_read(ThreadCtx& ctx, std::size_t i) {
    chk_elem(&ctx, i, analysis::AccessKind::Read);
  }

  /// Bytes of this array with affinity to one node (the fine-grained
  /// working set of node-local irregular access).
  std::size_t node_slice_bytes() const {
    const int tpn = rt_->topo().threads_per_node;
    return part_.max_local_size() * static_cast<std::size_t>(tpn) *
           sizeof(T);
  }

  /// Buddy mirror, scrub checksums and state digest (docs/ROBUSTNESS.md).
  Replica& replica() { return replica_; }
  /// Tracked commit point of the scrub protocol: element `i` (global index,
  /// owned by thread `thr`) went from `oldv` to `newv` (Replica::note).
  void integrity_note(int thr, std::size_t i, const T& oldv, const T& newv) {
    replica_.note(thr, i, &oldv, &newv);
  }

 private:
  /// Shared cost path of all fine-grained single-element operations
  /// (get/put/put_min): a node-local access is one random probe over the
  /// node's slice of the array; a cross-node access is a network round
  /// trip.  Keeping this in ONE place guarantees the working-set
  /// computation cannot drift between the read and write paths.
  void charge_fine(ThreadCtx& ctx, std::size_t i, machine::Cat c,
                   bool is_write) {
    const int own = owner(i);
    if (ctx.topo().same_node(own, ctx.id())) {
      ctx.mem_random(1, node_slice_bytes(), sizeof(T), c);
    } else if (is_write) {
      ctx.remote_put_cost(own, sizeof(T), c);
    } else {
      ctx.remote_get_cost(own, sizeof(T), c);
    }
  }

  /// --- uninstrumented element primitives (global-index addressed) -------
  T load_raw(std::size_t i) const {
    if constexpr (sizeof(T) <= 8) {
      // atomic_ref<const T> is not available in C++20; the cast is safe
      // because the underlying storage is always mutable.
      return std::atomic_ref<T>(const_cast<T&>(data_[part_.slot_of(i)]))
          .load(std::memory_order_relaxed);
    } else {
      return data_[part_.slot_of(i)];
    }
  }
  void store_raw(std::size_t i, T v) {
    if constexpr (sizeof(T) <= 8) {
      std::atomic_ref<T>(data_[part_.slot_of(i)])
          .store(v, std::memory_order_relaxed);
    } else {
      data_[part_.slot_of(i)] = v;
    }
  }
  void fetch_min_raw(std::size_t i, T v)
    requires(sizeof(T) <= 8)
  {
    std::atomic_ref<T> ref(data_[part_.slot_of(i)]);
    T cur = ref.load(std::memory_order_relaxed);
    while (v < cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// --- access-checker plumbing (all empty unless PGRAPH_CHECK_ACCESS) ---
  /// Record one element access.  `ctx` may be null for paths without a
  /// ThreadCtx parameter (the relaxed accessors); the calling thread's
  /// context is then looked up, and accesses from outside any SPMD region
  /// (verification code) are exempt.
  void chk_elem(ThreadCtx* ctx, std::size_t i, analysis::AccessKind k) const {
#ifdef PGRAPH_CHECK_ACCESS
    if (shadow_ == nullptr) return;
    auto& ck = analysis::AccessChecker::instance();
    if (!ck.enabled()) return;
    if (ctx == nullptr) ctx = current_ctx();
    if (ctx == nullptr) return;
    ck.record_access(shadow_.get(), i, k, ctx->id(), ctx->epoch());
    ck.add_moved(ctx->id(), sizeof(T));
#else
    (void)ctx;
    (void)i;
    (void)k;
#endif
  }

  void chk_range(ThreadCtx& ctx, std::size_t start, std::size_t count,
                 analysis::AccessKind k) const {
#ifdef PGRAPH_CHECK_ACCESS
    if (shadow_ == nullptr) return;
    auto& ck = analysis::AccessChecker::instance();
    if (!ck.enabled()) return;
    for (std::size_t j = 0; j < count; ++j)
      ck.record_access(shadow_.get(), start + j, k, ctx.id(), ctx.epoch());
    ck.add_moved(ctx.id(), count * sizeof(T));
#else
    (void)ctx;
    (void)start;
    (void)count;
    (void)k;
#endif
  }

  /// Affinity check for block-span views: flagged when an SPMD thread
  /// takes a direct span of a block that lives on another node.
  void chk_span(int thr, const char* what) const {
#ifdef PGRAPH_CHECK_ACCESS
    auto& ck = analysis::AccessChecker::instance();
    if (!ck.enabled()) return;
    ThreadCtx* ctx = current_ctx();
    if (ctx == nullptr) return;
    const int owner_node = rt_->topo().node_of(thr);
    if (owner_node != ctx->node())
      ck.record_affinity(shadow_.get(), block_begin(thr), ctx->id(),
                         ctx->node(), owner_node, ctx->epoch(), what);
#else
    (void)thr;
    (void)what;
#endif
  }

  void chk_raw(std::size_t i) const {
#ifdef PGRAPH_CHECK_ACCESS
    auto& ck = analysis::AccessChecker::instance();
    if (!ck.enabled()) return;
    ThreadCtx* ctx = current_ctx();
    if (ctx == nullptr) return;
    const int owner_node = rt_->topo().node_of(owner(i));
    if (owner_node != ctx->node())
      ck.record_affinity(shadow_.get(), i, ctx->id(), ctx->node(),
                         owner_node, ctx->epoch(),
                         "raw element reference to a remote node's block");
#else
    (void)i;
#endif
  }

  void chk_raw_all() const {
#ifdef PGRAPH_CHECK_ACCESS
    auto& ck = analysis::AccessChecker::instance();
    if (!ck.enabled()) return;
    ThreadCtx* ctx = current_ctx();
    if (ctx == nullptr || rt_->topo().nodes <= 1) return;
    // Report a representative remote element: the first block owned by a
    // thread on some other node.
    const int remote_thr =
        ctx->node() == 0 ? rt_->topo().threads_per_node : 0;
    ck.record_affinity(shadow_.get(), block_begin(remote_thr), ctx->id(),
                       ctx->node(), rt_->topo().node_of(remote_thr),
                       ctx->epoch(),
                       "raw_all whole-array view inside an SPMD region");
#endif
  }

  Runtime* rt_;
  std::uint64_t uid_;
  std::size_t n_;
  partition::Partitioning part_;
  std::vector<T> data_;
  Replica replica_;
#ifdef PGRAPH_CHECK_ACCESS
  std::shared_ptr<analysis::ArrayShadow> shadow_;
#endif
};

}  // namespace pgraph::pgas
