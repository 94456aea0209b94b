#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "collectives/context.hpp"
#include "core/cc_coalesced.hpp"
#include "core/par_common.hpp"
#include "graph/edge_list.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"
#include "stream/query.hpp"

namespace pgraph::stream {

/// Telemetry of one ingested update batch: what it did and what each phase
/// cost on the modeled clock (the per-batch attribution the str01 bench
/// emits).
struct BatchStats {
  std::uint64_t epoch = 0;       ///< label epoch this batch published
  std::size_t ops = 0;           ///< updates in the batch
  std::size_t inserted = 0;      ///< edges added to the live set
  std::size_t erased = 0;        ///< edges removed from the live set
  std::size_t ignored = 0;       ///< duplicate inserts / missing erases
  std::size_t fresh_edges = 0;   ///< inserts handed to maintenance
  std::size_t dirty_components = 0;  ///< distinct components hit by erases
                                     ///< (per-owner distinct, summed)
  bool rebuilt = false;  ///< maintenance fell back to a full recompute
  int iterations = 0;    ///< graft+jump rounds (or cc_coalesced iterations)
  std::uint64_t certify_checks = 0;    ///< publish re-digest comparisons
  std::uint64_t certify_failures = 0;  ///< re-digest mismatches (pre-throw)
  core::RunCosts ingest;    ///< routing updates to their owner threads
  core::RunCosts maintain;  ///< incremental pass or rebuild + label adopt
  core::RunCosts publish;   ///< snapshotting labels into the epoch ring

  double total_modeled_ns() const {
    return ingest.modeled_ns + maintain.modeled_ns + publish.modeled_ns;
  }
};

/// Dynamic-graph subsystem: ingests timestamped edge updates in batches,
/// maintains canonical CC labels incrementally, and serves connectivity /
/// component-size query batches from epoch-versioned label snapshots.
///
/// Structure per apply_batch (each phase is its own modeled-cost window):
///  1. ingest  — updates are count-sorted by the owner thread of their
///     `u` endpoint (the same Algorithm 1 scheduling as SetD, through the
///     shared SMatrix/PMatrix setup) and shipped in one coalesced exchange;
///     owners apply them to their private edge stores and note the
///     component label of every erased edge (the dirty-component counter).
///  2. maintain — insert-only batches run `cc_incremental` (hook-and-
///     shortcut over just the fresh edges; bit-identical to a fresh
///     `cc_coalesced` of the materialized graph).  Both run under the
///     checkpoint/rollback and buddy-replication machinery, so an outage
///     or a node loss mid-pass rolls back in place instead of serving a
///     half-updated labeling.  Any batch with erases (dirty components),
///     a fresh-edge volume past `rebuild_frac` of the live set, or a
///     permanent loss before the pass's first sealed checkpoint falls back
///     to a full `cc_coalesced` rebuild.
///  3. publish — the live labels are copied into the epoch ring
///     (kEpochRing snapshots), and the new epoch becomes queryable.
///
/// Queries (same_component / component_size) are answered from snapshots
/// through GetD with whatever collective optimizations the CcOptions
/// carry; component sizes are aggregated lazily per epoch with one
/// SetDAdd pass (combining CRCW) the first time a size query hits it.
struct DynamicGraphOptions {
  core::CcOptions cc = core::CcOptions::optimized();
  /// Fresh-insert volume (fraction of the live edge count) past which an
  /// incremental pass is predicted slower than a rebuild.
  double rebuild_frac = 0.25;
  /// Certify epochs before they become queryable (docs/ROBUSTNESS.md,
  /// "At-rest integrity"): after the publish copy, every ring-slot block
  /// is re-digested against the live labels on the modeled clock (Scrub
  /// attribution), and a mismatch throws before the epoch is published.
  bool certify = false;
};

class DynamicGraph {
 public:
  /// Label snapshots kept queryable: the latest epoch and its predecessor.
  static constexpr std::size_t kEpochRing = 2;

  using Options = DynamicGraphOptions;

  /// Builds the initial labeling of `base` with cc_coalesced and publishes
  /// it as epoch 0.  `base.n` fixes the vertex-id space for the lifetime
  /// of the stream.
  DynamicGraph(pgas::Runtime& rt, const graph::EdgeList& base,
               Options opt = {});

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  /// Ingest one update batch, maintain labels, publish the next epoch.
  /// Updates must be in nondecreasing timestamp order (as generated).
  BatchStats apply_batch(std::span<const graph::EdgeUpdate> ops);

  /// Serve one query batch from a published epoch (QueryBatch::kLatest or
  /// an epoch still in the ring; std::out_of_range otherwise).
  QueryResult query(const QueryBatch& q);

  /// Re-snapshot the current epoch into its ring slot (with the same
  /// rebuild-and-retry protection apply_batch uses).  The serving layer
  /// calls this after detecting a topology shrink so the ring and the
  /// buddy mirrors are consistent on the survivor topology; answers stay
  /// bit-identical because live labels were already restored by the
  /// shrink promotion.  Invalidates the epoch's lazy size aggregate, so
  /// the next size query re-aggregates (charged once, as always).
  BatchStats republish();

  std::uint64_t latest_epoch() const { return epoch_; }
  /// The runtime this stream charges — exposed so front ends (the query
  /// server's resilience layer) can read modeled time and fault state.
  pgas::Runtime& runtime() { return rt_; }
  /// Is `e` still queryable (published and not yet evicted from the ring)?
  /// The serving layer probes this instead of letting std::out_of_range
  /// escape a coalesced flush; see docs/SERVING.md.
  bool has_epoch(std::uint64_t e) const { return slot_of(e) < kEpochRing; }
  std::size_t num_vertices() const { return n_; }
  std::size_t live_edges() const;
  /// Current live edge set, concatenated in owner order (deterministic for
  /// a given update sequence).  Host-side; used by rebuilds and tests.
  graph::EdgeList materialize() const;
  /// Component count at the latest epoch (host-side verification scan).
  std::uint64_t num_components() const;
  /// Cost/telemetry of the constructor's initial build.
  const BatchStats& initial_build() const { return initial_; }
  /// Live label array (canonical min-id labels of the latest batch).
  pgas::GlobalArray<std::uint64_t>& labels() { return d_; }

 private:
  /// Route `ops` to their owner threads and apply to the edge stores.
  void ingest(std::span<const graph::EdgeUpdate> ops, BatchStats& st);
  /// Full recompute: cc_coalesced over materialize(), labels adopted.
  void rebuild(BatchStats& st);
  /// Copy live labels into the ring slot for `epoch_` and time it.
  void publish(BatchStats& st);
  /// publish(), with a rebuild+retry if a permanent loss lands mid-copy.
  void publish_recover(BatchStats& st);
  /// Aggregate component sizes for ring slot `slot` (SetDAdd pass).
  void compute_sizes(std::size_t slot);
  /// Ring slot holding epoch `e`, or kEpochRing if `e` is not queryable.
  std::size_t slot_of(std::uint64_t e) const {
    for (std::size_t i = 0; i < kEpochRing; ++i)
      if (snap_valid_[i] && snap_epoch_[i] == e) return i;
    return kEpochRing;
  }

  pgas::Runtime& rt_;
  std::size_t n_;
  Options opt_;

  pgas::GlobalArray<std::uint64_t> d_;  ///< live canonical labels
  coll::CollectiveContext cc_;          ///< shared across ingest + queries

  /// Per-owner-thread live edge stores; edges_[t] holds edges whose `u`
  /// endpoint has affinity to thread t.  pos_[t] maps the packed edge key
  /// to its slot for O(1) duplicate checks and swap-remove deletion.
  std::vector<std::vector<graph::Edge>> edges_;
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> pos_;
  /// Fresh inserts of the current batch, collected per owner thread.
  std::vector<std::vector<graph::Edge>> fresh_tls_;

  std::uint64_t epoch_ = 0;
  std::array<std::unique_ptr<pgas::GlobalArray<std::uint64_t>>, kEpochRing>
      snap_;
  std::array<std::unique_ptr<pgas::GlobalArray<std::uint64_t>>, kEpochRing>
      sizes_;
  std::array<std::uint64_t, kEpochRing> snap_epoch_{};
  std::array<bool, kEpochRing> snap_valid_{};
  std::array<bool, kEpochRing> sizes_valid_{};

  BatchStats initial_;
};

}  // namespace pgraph::stream
