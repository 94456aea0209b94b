#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/conformance.hpp"
#include "fault/fault.hpp"
#include "machine/cost_params.hpp"
#include "machine/exchange_sim.hpp"
#include "machine/memory_model.hpp"
#include "machine/network_model.hpp"
#include "machine/phase_stats.hpp"
#include "partition/partitioning.hpp"
#include "pgas/replica.hpp"
#include "pgas/topology.hpp"
#include "pgas/trace_hook.hpp"

namespace pgraph::pgas {

class FiberExecutor;
class Runtime;

/// Per-thread execution context handed to every SPMD function.
///
/// Carries the thread's identity, its BSP cost clock, and its per-category
/// cost statistics.  All cost-charging goes through this class so that
/// algorithms read like their UPC originals with instrumentation attached.
class ThreadCtx {
 public:
  ThreadCtx(Runtime& rt, int id);

  int id() const { return id_; }
  /// Node currently hosting this thread.  Resolved through the live owner
  /// map, so it changes when the runtime shrinks after a permanent loss.
  int node() const;
  int nthreads() const;
  int nnodes() const;
  const Topology& topo() const;
  Runtime& runtime() { return *rt_; }
  const machine::MemoryModel& mem() const;
  /// The network model's pricing and counters.  Charges go through the
  /// cost functions below, which write this thread's own tally.
  const machine::NetworkModel& net() const;

  /// Barrier epoch this thread is executing in: the number of barrier
  /// completions this Runtime has performed, never reset (reset_costs
  /// zeroes clocks but not the epoch, so access-checker shadow state can
  /// never alias across runs).  Two accesses are "concurrent" for the
  /// access discipline iff they happen in the same epoch.
  std::uint64_t epoch() const;

  /// --- cost charging ---------------------------------------------------
  double now_ns() const { return clock_; }
  void charge(machine::Cat c, double ns) {
    clock_ += ns;
    stats_.add(c, ns);
#ifdef PGRAPH_CHECK_ACCESS
    // Double-entry ledger: every charge is mirrored so the conformance
    // verifier can assert, at each barrier, that the sum of individual
    // charges equals the PhaseStats totals exactly.
    analysis::ConformanceVerifier::instance().ledger_charge(id_, c, ns);
#endif
  }
  /// `ops` simple CPU operations.
  void compute(std::size_t ops, machine::Cat c = machine::Cat::Work);
  /// Sequential stream of `bytes` local memory.
  void mem_seq(std::size_t bytes, machine::Cat c);
  /// `count` random accesses of `elem_bytes` over `working_set_bytes`.
  void mem_random(std::size_t count, std::size_t working_set_bytes,
                  std::size_t elem_bytes, machine::Cat c);
  /// `count` scattered stores (write misses overlap; see MemoryModel).
  void mem_random_write(std::size_t count, std::size_t working_set_bytes,
                        std::size_t elem_bytes, machine::Cat c);
  /// `count` compulsory (first-touch) misses: full latency plus one DRAM
  /// line each, regardless of working set.
  void mem_compulsory(std::size_t count, std::size_t elem_bytes,
                      machine::Cat c);
  /// `n` fine-grained lock acquire/release pairs.
  void locks(std::size_t n, machine::Cat c = machine::Cat::Work);

  /// --- fine-grained remote operations (cost only) ----------------------
  /// Blocking remote read of `bytes` from `owner_thread` (cost only; the
  /// data movement itself is done by the caller through shared memory).
  void remote_get_cost(int owner_thread, std::size_t bytes,
                       machine::Cat c = machine::Cat::Comm);
  void remote_put_cost(int owner_thread, std::size_t bytes,
                       machine::Cat c = machine::Cat::Comm);
  /// Bulk (coalesced) one-sided transfers.
  void bulk_get_cost(int owner_thread, std::size_t bytes,
                     machine::Cat c = machine::Cat::Comm);
  void bulk_put_cost(int owner_thread, std::size_t bytes,
                     machine::Cat c = machine::Cat::Comm);

  /// --- scheduled exchange (order-sensitive, see ExchangeSim) -----------
  /// Record that this thread's next exchange phase sends `bytes` to
  /// `dst_thread` as its next message in issue order.  Same-node messages
  /// are charged as memory copies immediately and not enqueued.
  void post_exchange_msg(int dst_thread, std::size_t bytes);
  /// Barrier that additionally prices the posted exchange messages with the
  /// event-sweep NIC simulation and advances every clock past the phase.
  void exchange_barrier();
  /// Count one message of `bytes` priced by the caller (a modeled
  /// retransmission) in the message and byte counters.
  void count_message(std::size_t bytes);

  /// --- synchronization --------------------------------------------------
  void barrier();

  /// --- pointer registry (for one-sided access to peers' buffers) -------
  static constexpr int kRegistrySlots = 8;
  void publish(int slot, void* p);
  void* peer_ptr(int thread, int slot) const;
  template <class T>
  T* peer_as(int thread, int slot) const {
    return static_cast<T*>(peer_ptr(thread, slot));
  }

  const machine::PhaseStats& stats() const { return stats_; }
  machine::PhaseStats& stats() { return stats_; }

 private:
  friend class Runtime;
  /// DRAM traffic of `ns` bus time on this thread's node.
  void accrue_bus(double ns) {
    tally_->bus_ns += static_cast<std::uint64_t>(ns);
  }

  Runtime* rt_;
  int id_;
  /// This thread's shared-resource charges (its Runtime slot's tally).
  machine::NetTally* tally_;
  double clock_ = 0.0;
  machine::PhaseStats stats_;
  // Pending exchange messages for the next exchange_barrier().
  std::vector<machine::ExchangeMsg> pending_;
};

/// SPMD PGAS runtime: runs the UPC threads as cooperative fibers on the
/// calling thread plus, once a superstep runs long, one persistent helper
/// per further available core (FiberExecutor), provides
/// cost-aligned barriers (BSP superstep boundaries), and owns the machine
/// models.
///
/// Cost semantics of a barrier:
///   T_new = max( max_i clock_i,
///                T_last_barrier + drain(NIC service since last barrier),
///                T_last_barrier + drain(node memory-bus traffic),
///                T_last_barrier + exchange_phase_duration )
///          + barrier_cost(s)
/// after which every thread clock is set to T_new.  The NIC drain term
/// implements per-node serialization of fine-grained network traffic; the
/// memory-bus drain implements the shared DRAM bandwidth of an SMP node
/// (the t threads' misses contend for one bus); the exchange term prices
/// collective exchange phases with the order-sensitive event-sweep
/// simulation.
class Runtime {
 public:
  Runtime(Topology topo, machine::CostParams params);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const Topology& topo() const { return topo_; }
  const machine::CostParams& params() const { return params_; }
  const machine::MemoryModel& mem() const { return mem_model_; }
  /// Network pricing and counters.  The counters include every SPMD
  /// thread's charges up to the last barrier, and all of them once run()
  /// has returned.
  const machine::NetworkModel& net() const { return *net_; }

  /// Run `f` SPMD on all threads; blocks until all complete.  May be called
  /// repeatedly, from any host thread, one call at a time; cost clocks and
  /// stats persist across calls until reset_costs().  The SPMD threads are
  /// fibers: the calling thread runs them itself while supersteps are
  /// short and wakes one helper thread per further core once one runs
  /// long, so a thread may change OS thread at a barrier.  `f` must follow
  /// the rules in executor.hpp (no thread_local state or pointer to it
  /// held across a barrier, no blocking waits, no barrier inside a catch
  /// handler or an unwinding destructor).  Calling run() from one of this
  /// Runtime's own SPMD threads throws std::logic_error.
  ///
  /// Exception safety: a thread whose `f` throws drops out of the barrier.
  /// If every thread throws after the same barrier (how FaultError is
  /// raised — retry exhaustion is detected in the completion step, so all
  /// threads see it together), no barrier runs after the throw, exactly as
  /// if the threads had returned there.  If only some threads throw, the
  /// next barrier the others reach aborts instead of completing: its
  /// completion step is skipped and the parked threads are unwound with a
  /// runtime-private exception that no user catch clause matches.  Either
  /// way the thrower's original exception is rethrown here (the first one
  /// when several threads threw), and the Runtime stays usable; call
  /// reset_costs() before relying on its clocks again after a divergent
  /// throw.
  void run(const std::function<void(ThreadCtx&)>& f);

  /// Zero all clocks, stats and counters (not the topology), and open a
  /// new cost window on the host clock.
  void reset_costs();

  /// Max thread clock after the last run (including a final NIC drain).
  double modeled_time_ns() const { return finish_ns_; }
  /// Host seconds since the cost window opened: the last reset_costs(), or
  /// construction.
  double cost_window_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         window_start_)
        .count();
  }
  /// Per-category stats of the critical thread (element-wise max).
  machine::PhaseStats critical_stats() const;
  /// Element-wise sum over threads (total resource consumption).
  machine::PhaseStats total_stats() const;
  /// Per-thread cumulative stats as of the last completed run() (index =
  /// thread id).  Tracers attaching mid-life use this as their baseline.
  const std::vector<machine::PhaseStats>& saved_thread_stats() const {
    return saved_stats_;
  }

  std::uint64_t barriers_executed() const { return barriers_; }
  /// Monotone barrier-epoch counter (like barriers_executed, but never
  /// reset by reset_costs — the access checker keys its shadow state on
  /// it, so epochs must not repeat within a Runtime's lifetime).
  std::uint64_t epoch() const { return epoch_; }

  /// Verdict of the most recent barrier: which of the four competing terms
  /// set the superstep's end time.  Maintained at every barrier, tracing
  /// on or off (the terms are computed anyway; labeling the max is free).
  /// Readable from SPMD code immediately after a barrier returns — the
  /// completion step is ordered before any thread resumes — and after
  /// run() returns.
  const BarrierVerdict& last_barrier_verdict() const { return last_verdict_; }

  /// Attach (or detach, with nullptr) a trace sink.  Must not be called
  /// while run() is executing.  The sink outlives the attachment.
  void set_trace_sink(TraceSink* sink);

  /// Attach (or detach, with nullptr) a fault injector.  Must not be
  /// called while run() is executing; the injector outlives the
  /// attachment.  With an all-zero FaultConfig attached, modeled times are
  /// bit-identical to running with no injector at all (every fault cost is
  /// gated on its rate being nonzero).
  ///
  /// Attaching a non-null injector validates its plan against this
  /// runtime's topology (std::invalid_argument on e.g. outage/loss plans
  /// with one node) and resets its counters, so per-attach deltas in bench
  /// reports never double-count a previous runtime's events.
  void set_fault_injector(fault::FaultInjector* inj);
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// --- buddy replication and at-rest integrity (docs/ROBUSTNESS.md) ----
  /// The Replica of every GlobalArray on this runtime, registered at
  /// construction.  Registration is free on the modeled clock; mirrors are
  /// only materialized when a replication pass runs.  The collective scrub
  /// pass lives in core::RecoveryLoop.
  ReplicaSet& replicas() { return replicas_; }

  /// True while an armed mem-flip plan is attached: collectives then
  /// bounds-check corruption-derived request indices instead of asserting
  /// (a flipped high bit in a label becomes a wild gather index before the
  /// next scrub pass can catch it).  Off this path behavior is unchanged.
  bool mem_guard_active() const;
  /// Called when corruption is caught outside a scrub pass — a serve loop
  /// clamped an out-of-range request index under mem_guard_active(), or a
  /// seal-time verify refused a mismatching snapshot.  The next barrier
  /// completion converts the flag into a detection plus scrub recovery
  /// event, so checkpointing loops roll back past the corrupted epoch
  /// instead of crashing on (or re-sealing) it.
  void note_corruption() {
    corrupt_index_.store(true, std::memory_order_relaxed);
  }

  /// --- determinism digests (docs/ANALYSIS.md) --------------------------
  /// When enabled, the barrier completion step hashes the committed state
  /// of every registered array (ReplicaSet::digest) into an
  /// order-independent digest per superstep, recorded in SuperstepRecord
  /// (trace/bench JSON) and readable here.  Observation only: digests
  /// never touch the modeled clocks, so enabling them cannot change
  /// modeled time.  Must not be toggled while run() is executing.
  void set_digest_enabled(bool on) { digest_enabled_ = on; }
  bool digest_enabled() const { return digest_enabled_; }
  /// Digest computed at the most recent barrier (0 until one completes
  /// with digests enabled).
  std::uint64_t last_state_digest() const { return last_digest_; }

  /// --- partitioning policy (docs/PARTITIONING.md) ----------------------
  /// The distribution scheme kernels apply to their vertex-shaped data
  /// arrays.  Host-side only (arrays are constructed host-side); default
  /// Block, which every committed baseline was generated under.  Arrays
  /// opt in explicitly via `GlobalArray(rt, n, rt.make_partitioning(n))`;
  /// infrastructure arrays (the collective count/offset matrices) keep the
  /// plain Block constructor so their local_span layout stays put.
  void set_partition_spec(partition::PartitionSpec spec) {
    part_spec_ = std::move(spec);
  }
  const partition::PartitionSpec& partition_spec() const {
    return part_spec_;
  }
  /// Instantiate the active spec for an n-element array.  Degree specs
  /// bind only to arrays of exactly n_hint elements (one slot per vertex);
  /// any other size falls back to Block.
  partition::Partitioning make_partitioning(std::size_t n) const {
    return partition::Partitioning::make(part_spec_, n,
                                         topo_.total_threads());
  }

  /// Per-runtime sequential id for GlobalArrays (host-side construction
  /// order, so ids are deterministic across runs).  The conformance
  /// verifier folds it into collective argument signatures to catch
  /// threads targeting different arrays at the same call site.
  std::uint64_t new_array_uid() {
    return next_array_uid_.fetch_add(1, std::memory_order_relaxed);
  }

  /// True iff a TraceSink is attached.
  bool tracing() const;
  /// Forward a completed modeled-time scope [t0_ns, now] on the calling
  /// SPMD thread to the sink (used by TraceScope; no-op without a sink or
  /// outside run()).
  void trace_scope(const char* name, double t0_ns);
  /// Forward a CRCW window boundary at the calling thread's modeled time.
  void trace_crcw(const char* label, bool begin);

 private:
  friend class ThreadCtx;

  struct alignas(64) Slot {
    ThreadCtx* ctx = nullptr;
    /// The thread's NIC, bus and counter charges since the last fold.
    machine::NetTally tally;
    /// Read by peers; kept off the cache lines the charges write.
    alignas(64) void* registry[ThreadCtx::kRegistrySlots] = {};
  };

  /// Body of SPMD thread `i` for one run() (runs on its fiber).
  void spmd_main(int i, const std::function<void(ThreadCtx&)>& f) noexcept;
  void barrier_sync(ThreadCtx& ctx, bool exchange);
  void on_barrier();  // completion step, runs on one thread
  /// Called from the completion step when the exchange retry budget is
  /// exhausted.  If every surviving retransmission involves a permanently
  /// lost node and valid buddy mirrors exist, promotes the mirrors, remaps
  /// the dead node's threads onto the buddy and returns true (the threads
  /// of this barrier then throw FaultError{PermanentLoss} collectively);
  /// otherwise returns false and the caller falls back to RetryExhausted.
  bool try_shrink_after_exhaustion(
      const std::vector<std::pair<std::size_t, machine::ExchangeMsg>>& retry,
      double& exch_dur);
  /// Add every thread's tally to the network and bus models and zero it.
  /// Runs where no SPMD thread is running: at the start of the completion
  /// step, at the end of run(), and in reset_costs().
  void fold_tallies();
  /// Drain per-node DRAM-bus accumulators; when `out` is non-null, writes
  /// each node's busy time into out[0..nodes).
  double drain_bus_ns(double* out);
  double drain_bus_max_ns() { return drain_bus_ns(nullptr); }

  Topology topo_;
  machine::CostParams params_;
  machine::MemoryModel mem_model_;
  std::unique_ptr<machine::NetworkModel> net_;
  std::vector<Slot> slots_;
  /// Per-node DRAM-bus ns since the last drain.
  std::vector<std::uint64_t> bus_ns_;
  std::vector<std::int32_t> thread_node_;
  double last_barrier_ns_ = 0.0;
  double finish_ns_ = 0.0;
  std::uint64_t barriers_ = 0;
  std::uint64_t epoch_ = 0;
  // Saved stats from threads of completed run() calls.
  std::vector<machine::PhaseStats> saved_stats_;
  std::vector<double> saved_clocks_;
  /// Exchange messages being priced by the completion step: row i swaps
  /// with thread i's pending list, so both keep their capacity.
  machine::ExchangePlan exch_plan_;
  machine::ExchangeScratch exch_scratch_;
  /// First exception that left `f` during the current run().
  std::mutex error_mu_;
  std::exception_ptr first_error_;

  // --- fault injection --------------------------------------------------
  fault::FaultInjector* fault_ = nullptr;
  /// Set in the completion step when exchange retransmissions exhausted
  /// their retry budget; every thread of that barrier throws FaultError.
  std::atomic<bool> fault_failed_{false};
  fault::FaultCounters trace_prev_faults_;

  // --- degraded mode (permanent node loss) ------------------------------
  ReplicaSet replicas_;
  /// Set when a shrink was refused because a buddy mirror failed its
  /// checksum validation; the collective failure throw is then
  /// FaultError{MemoryCorrupt} instead of RetryExhausted, so the operator
  /// can tell a poisoned mirror from a flaky network.
  std::atomic<bool> mirror_poisoned_{false};

  // --- at-rest integrity (scrub protocol) -------------------------------
  /// Set by serve loops that clamp an out-of-range (corruption-derived)
  /// request index under an armed mem-flip plan; drained by the barrier
  /// completion step into a scrub recovery event.
  std::atomic<bool> corrupt_index_{false};

  // --- partitioning policy ----------------------------------------------
  partition::PartitionSpec part_spec_;

  // --- determinism digests ----------------------------------------------
  bool digest_enabled_ = false;
  std::uint64_t last_digest_ = 0;
  std::atomic<std::uint64_t> next_array_uid_{0};

  // --- bottleneck attribution / tracing --------------------------------
  BarrierVerdict last_verdict_;
  TraceSink* sink_ = nullptr;
  // Scratch reused every traced barrier (allocated on sink attach so the
  // untraced path never touches them).
  std::vector<double> trace_arrival_;
  std::vector<machine::PhaseStats> trace_stats_;
  std::vector<NodeSuperstep> trace_nodes_;
  std::vector<machine::NetworkModel::NicDrain> trace_nic_;
  std::vector<double> trace_bus_;
  std::vector<machine::ExchangeNodeStats> trace_exch_;
  std::vector<machine::ExchangeNodeStats> trace_attempt_;
  std::uint64_t trace_prev_msgs_ = 0;
  std::uint64_t trace_prev_bytes_ = 0;
  std::uint64_t trace_prev_fine_ = 0;

  /// Host time the cost window opened (construction or reset_costs()).
  std::chrono::steady_clock::time_point window_start_ =
      std::chrono::steady_clock::now();

  // Last member: destroyed first, so the workers are joined before any
  // state their fibers could touch goes away.
  std::unique_ptr<FiberExecutor> exec_;
};

/// The ThreadCtx of the calling SPMD thread while inside Runtime::run, or
/// null outside any SPMD region (kept per OS thread, restored on every
/// fiber resume, and restored on the calling thread when run() returns).
/// The access checker uses this to identify
/// the accessor on paths that do not take a ThreadCtx parameter
/// (local_span, raw, the relaxed element accessors); null means
/// single-threaded verification code, which is exempt from the discipline.
ThreadCtx* current_ctx() noexcept;

}  // namespace pgraph::pgas
