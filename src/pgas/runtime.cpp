#include "pgas/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/access_checker.hpp"
#include "analysis/conformance.hpp"
#include "pgas/executor.hpp"

namespace pgraph::pgas {

namespace {

// Per OS thread, so every fiber resume must restore it (barrier_sync).
thread_local ThreadCtx* t_current_ctx = nullptr;

/// Unwinds SPMD threads parked in a barrier that aborted because a peer
/// left `f` by exception.  Runtime-private and not derived from
/// std::exception, so no catch clause in SPMD code matches it.
struct SpmdAbort {};

/// Credit `bytes` of data motion against this thread's cost clock in the
/// access checker's per-epoch ledger (no-op unless PGRAPH_CHECK_ACCESS).
inline void checker_charged(int thread, std::size_t bytes) {
#ifdef PGRAPH_CHECK_ACCESS
  analysis::AccessChecker::instance().add_charged(thread, bytes);
#else
  (void)thread;
  (void)bytes;
#endif
}

}  // namespace

ThreadCtx* current_ctx() noexcept { return t_current_ctx; }

// ---------------------------------------------------------------------------
// TraceScope
// ---------------------------------------------------------------------------

TraceScope::TraceScope(ThreadCtx& ctx, const char* name)
    : ctx_(&ctx), name_(name) {
  if (ctx_->runtime().tracing()) t0_ = ctx_->now_ns();
}

TraceScope::~TraceScope() {
  if (ctx_->runtime().tracing()) ctx_->runtime().trace_scope(name_, t0_);
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

ThreadCtx::ThreadCtx(Runtime& rt, int id)
    : rt_(&rt),
      id_(id),
      tally_(&rt.slots_[static_cast<std::size_t>(id)].tally) {
  clock_ = rt.saved_clocks_[static_cast<std::size_t>(id)];
  stats_ = rt.saved_stats_[static_cast<std::size_t>(id)];
}

int ThreadCtx::node() const { return rt_->topo().node_of(id_); }

std::uint64_t ThreadCtx::epoch() const { return rt_->epoch_; }

int ThreadCtx::nthreads() const { return rt_->topo().total_threads(); }
int ThreadCtx::nnodes() const { return rt_->topo().nodes; }
const Topology& ThreadCtx::topo() const { return rt_->topo(); }
const machine::MemoryModel& ThreadCtx::mem() const { return rt_->mem(); }
const machine::NetworkModel& ThreadCtx::net() const { return rt_->net(); }

void ThreadCtx::compute(std::size_t ops, machine::Cat c) {
  charge(c, rt_->mem().compute_ns(ops));
}

void ThreadCtx::mem_seq(std::size_t bytes, machine::Cat c) {
  charge(c, rt_->mem().seq_ns(bytes));
  accrue_bus(static_cast<double>(bytes) *
             rt_->params().mem_bus_inv_bw_ns_per_byte);
  checker_charged(id_, bytes);
}

void ThreadCtx::mem_random(std::size_t count, std::size_t working_set_bytes,
                           std::size_t elem_bytes, machine::Cat c) {
  charge(c, rt_->mem().random_ns(count, working_set_bytes, elem_bytes));
  accrue_bus(
      rt_->mem().random_traffic_bytes(count, working_set_bytes, elem_bytes) *
      rt_->params().mem_bus_inv_bw_ns_per_byte);
  checker_charged(id_, count * elem_bytes);
}

void ThreadCtx::mem_random_write(std::size_t count,
                                 std::size_t working_set_bytes,
                                 std::size_t elem_bytes, machine::Cat c) {
  charge(c, rt_->mem().random_write_ns(count, working_set_bytes, elem_bytes));
  accrue_bus(
      rt_->mem().random_traffic_bytes(count, working_set_bytes, elem_bytes) *
      rt_->params().mem_bus_inv_bw_ns_per_byte);
  checker_charged(id_, count * elem_bytes);
}

void ThreadCtx::mem_compulsory(std::size_t count, std::size_t elem_bytes,
                               machine::Cat c) {
  const auto& p = rt_->params();
  charge(c, static_cast<double>(count) *
                (p.mem_latency_ns +
                 static_cast<double>(elem_bytes) * p.mem_inv_bw_ns_per_byte));
  accrue_bus(static_cast<double>(count) *
             static_cast<double>(p.cache_line_bytes) * p.dram_random_penalty *
             p.mem_bus_inv_bw_ns_per_byte);
  checker_charged(id_, count * elem_bytes);
}

void ThreadCtx::locks(std::size_t n, machine::Cat c) {
  charge(c, rt_->mem().locks_ns(n));
}

void ThreadCtx::remote_get_cost(int owner_thread, std::size_t bytes,
                                machine::Cat c) {
  const int me = node();
  const int dst = rt_->topo().node_of(owner_thread);
  if (dst == me) {
    // Same node: a random access into the owner's block.
    mem_random(1, rt_->params().cache_bytes * 4, bytes, c);
    return;
  }
  charge(c, rt_->net().fine_get_ns(*tally_, me, dst, bytes));
  checker_charged(id_, bytes);
}

void ThreadCtx::remote_put_cost(int owner_thread, std::size_t bytes,
                                machine::Cat c) {
  const int me = node();
  const int dst = rt_->topo().node_of(owner_thread);
  if (dst == me) {
    mem_random(1, rt_->params().cache_bytes * 4, bytes, c);
    return;
  }
  charge(c, rt_->net().fine_put_ns(*tally_, me, dst, bytes));
  checker_charged(id_, bytes);
}

void ThreadCtx::bulk_get_cost(int owner_thread, std::size_t bytes,
                              machine::Cat c) {
  checker_charged(id_, bytes);
  const int me = node();
  const int dst = rt_->topo().node_of(owner_thread);
  if (dst == me) {
    charge(c, rt_->mem().seq_ns(bytes));
    return;
  }
  charge(c, rt_->net().bulk_get_ns(*tally_, me, dst, bytes));
}

void ThreadCtx::bulk_put_cost(int owner_thread, std::size_t bytes,
                              machine::Cat c) {
  checker_charged(id_, bytes);
  const int me = node();
  const int dst = rt_->topo().node_of(owner_thread);
  if (dst == me) {
    charge(c, rt_->mem().seq_ns(bytes));
    return;
  }
  charge(c, rt_->net().bulk_put_ns(*tally_, me, dst, bytes));
}

void ThreadCtx::post_exchange_msg(int dst_thread, std::size_t bytes) {
  const int dst_node = rt_->topo().node_of(dst_thread);
  if (dst_node == node()) {
    // Intra-node "message": a streamed memory copy, no NIC involvement.
    mem_seq(bytes, machine::Cat::Comm);
    return;
  }
  const std::size_t wire = bytes + 16;  // header
  machine::ExchangeMsg msg;
  msg.dst_node = static_cast<std::int32_t>(dst_node);
  msg.service_ns = rt_->net().msg_service_ns(wire);
  msg.wire_bytes = static_cast<std::uint32_t>(wire);
  pending_.push_back(msg);
  tally_->count_message(wire);
  checker_charged(id_, bytes);
}

void ThreadCtx::count_message(std::size_t bytes) {
  tally_->count_message(bytes);
}

void ThreadCtx::exchange_barrier() {
  const int shrinks = topo().shrinks;
  rt_->barrier_sync(*this, true);
  // A shrink in the completion step moves the topology's count; the
  // threads returning from exactly that barrier throw together so
  // checkpointing algorithms can roll back onto the surviving nodes.
  if (topo().shrinks != shrinks) {
    throw fault::FaultError(
        fault::FaultKind::PermanentLoss,
        "permanent node loss; runtime shrank onto the buddy (epoch " +
            std::to_string(epoch() - 1) + ")");
  }
  // Retry exhaustion is detected in the completion step, so every thread
  // of this barrier observes it and throws together (collective failure;
  // Runtime::run unwinds without deadlock).
  if (rt_->fault_failed_.load(std::memory_order_relaxed)) {
    if (rt_->mirror_poisoned_.load(std::memory_order_relaxed)) {
      throw fault::FaultError(
          fault::FaultKind::MemoryCorrupt,
          "buddy mirror failed checksum validation at promotion; refusing "
          "to resume on poisoned replica bytes (epoch " +
              std::to_string(rt_->epoch_) + ")");
    }
    throw fault::FaultError(
        fault::FaultKind::RetryExhausted,
        "exchange retransmission retries exhausted (epoch " +
            std::to_string(rt_->epoch_) + ")");
  }
}

void ThreadCtx::barrier() { rt_->barrier_sync(*this, false); }

void ThreadCtx::publish(int slot, void* p) {
  assert(slot >= 0 && slot < kRegistrySlots);
  rt_->slots_[static_cast<std::size_t>(id_)].registry[slot] = p;
}

void* ThreadCtx::peer_ptr(int thread, int slot) const {
  assert(slot >= 0 && slot < kRegistrySlots);
  return rt_->slots_[static_cast<std::size_t>(thread)].registry[slot];
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Topology topo, machine::CostParams params)
    : topo_(topo),
      params_(std::move(params)),
      mem_model_(params_),
      net_(std::make_unique<machine::NetworkModel>(params_, topo.nodes)),
      slots_(static_cast<std::size_t>(topo.total_threads())),
      bus_ns_(static_cast<std::size_t>(topo.nodes), 0),
      thread_node_(topo.thread_node_map()),
      saved_stats_(static_cast<std::size_t>(topo.total_threads())),
      saved_clocks_(static_cast<std::size_t>(topo.total_threads()), 0.0),
      exch_plan_(static_cast<std::size_t>(topo.total_threads())) {
  for (Slot& sl : slots_) sl.tally = machine::NetTally(topo.nodes);
}

Runtime::~Runtime() {
  if (sink_ != nullptr) sink_->on_runtime_gone();
}

void Runtime::run(const std::function<void(ThreadCtx&)>& f) {
  ThreadCtx* const outer = t_current_ctx;
  if (outer != nullptr && &outer->runtime() == this)
    throw std::logic_error("Runtime::run called from its own SPMD thread " +
                           std::to_string(outer->id()) +
                           "; run() is not reentrant");
  fault_failed_.store(false, std::memory_order_relaxed);
  mirror_poisoned_.store(false, std::memory_order_relaxed);
  corrupt_index_.store(false, std::memory_order_relaxed);
#ifdef PGRAPH_CHECK_ACCESS
  // Re-baseline the conformance verifier on this runtime's saved stats
  // (what each ThreadCtx starts from) and clear stale fingerprints, so
  // consecutively attached runtimes never leak verifier state into each
  // other's rows.
  analysis::ConformanceVerifier::instance().begin_run(topo_.total_threads(),
                                                      saved_stats_.data());
#endif
  if (!exec_)
    exec_ = std::make_unique<FiberExecutor>(topo_.total_threads(),
                                            [this] { on_barrier(); });
  exec_->run([this, &f](int i) { spmd_main(i, f); });
  // A thread that left `f` by exception may have charged after the last
  // completed barrier; otherwise the final barrier folded every tally.
  if (first_error_) fold_tallies();
  // A fiber that parked on this thread may have finished on a helper, so
  // this thread's current_ctx() can still name a finished ThreadCtx.
  t_current_ctx = outer;
  finish_ns_ = last_barrier_ns_;
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, {}));
}

void Runtime::spmd_main(int i,
                        const std::function<void(ThreadCtx&)>& f) noexcept {
  ThreadCtx ctx(*this, i);
  slots_[static_cast<std::size_t>(i)].ctx = &ctx;
  t_current_ctx = &ctx;
  try {
    // Initial sync: every slot registered before anyone proceeds.
    barrier_sync(ctx, false);
    f(ctx);
    // Final alignment so modeled_time_ns() reflects the critical path.
    barrier_sync(ctx, false);
  } catch (const SpmdAbort&) {
    // A peer left `f` by exception; run() rethrows that one.
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    exec_->drop(i);
  }
  saved_clocks_[static_cast<std::size_t>(i)] = ctx.clock_;
  saved_stats_[static_cast<std::size_t>(i)] = ctx.stats_;
  slots_[static_cast<std::size_t>(i)].ctx = nullptr;
  t_current_ctx = nullptr;
}

void Runtime::fold_tallies() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    machine::NetTally& t = slots_[i].tally;
    if (t.bus_ns != 0) {
      // Every bus charge targets the thread's own node, which only a
      // completion step can change, after this fold.
      bus_ns_[static_cast<std::size_t>(thread_node_[i])] += t.bus_ns;
      t.bus_ns = 0;
    }
    net_->fold(t);
  }
}

double Runtime::drain_bus_ns(double* out) {
  std::uint64_t mx = 0;
  for (int i = 0; i < topo_.nodes; ++i) {
    const std::uint64_t v =
        std::exchange(bus_ns_[static_cast<std::size_t>(i)], 0);
    if (out != nullptr) out[i] = static_cast<double>(v);
    if (v > mx) mx = v;
  }
  return static_cast<double>(mx);
}

bool Runtime::tracing() const { return sink_ != nullptr; }

void Runtime::trace_scope(const char* name, double t0_ns) {
  ThreadCtx* c = t_current_ctx;
  if (sink_ == nullptr || c == nullptr) return;
  sink_->on_scope(c->id(), name, t0_ns, c->now_ns());
}

void Runtime::trace_crcw(const char* label, bool begin) {
  ThreadCtx* c = t_current_ctx;
  if (sink_ == nullptr || c == nullptr) return;
  sink_->on_crcw(c->id(), label, c->now_ns(), begin);
}

void Runtime::set_fault_injector(fault::FaultInjector* inj) {
  if (inj != nullptr) {
    inj->config().validate_topology(topo_.nodes);
    // Per-attach counter lifetime: bench reports delta per row, so a
    // previously attached runtime's events must not leak into this one.
    inj->reset_counters();
  }
  fault_ = inj;
  fault_failed_.store(false, std::memory_order_relaxed);
  mirror_poisoned_.store(false, std::memory_order_relaxed);
  corrupt_index_.store(false, std::memory_order_relaxed);
  trace_prev_faults_ =
      inj != nullptr ? inj->counters() : fault::FaultCounters{};
}

void Runtime::set_trace_sink(TraceSink* sink) {
  sink_ = sink;
  if (sink_ == nullptr) return;
  const std::size_t s = static_cast<std::size_t>(topo_.total_threads());
  trace_arrival_.assign(s, 0.0);
  trace_stats_.assign(s, machine::PhaseStats{});
  const std::size_t nodes = static_cast<std::size_t>(topo_.nodes);
  trace_nodes_.assign(nodes, NodeSuperstep{});
  trace_nic_.assign(nodes, machine::NetworkModel::NicDrain{});
  trace_bus_.assign(nodes, 0.0);
  trace_exch_.assign(nodes, machine::ExchangeNodeStats{});
  trace_attempt_.assign(nodes, machine::ExchangeNodeStats{});
  trace_prev_msgs_ = net_->total_messages();
  trace_prev_bytes_ = net_->total_bytes();
  trace_prev_fine_ = net_->fine_messages();
  trace_prev_faults_ =
      fault_ != nullptr ? fault_->counters() : fault::FaultCounters{};
}

void Runtime::reset_costs() {
  window_start_ = std::chrono::steady_clock::now();
  for (auto& st : saved_stats_) st.reset();
  std::fill(saved_clocks_.begin(), saved_clocks_.end(), 0.0);
  last_barrier_ns_ = 0.0;
  finish_ns_ = 0.0;
  barriers_ = 0;
  // Empty the tallies into the models being discarded.
  fold_tallies();
  net_ = std::make_unique<machine::NetworkModel>(params_, topo_.nodes);
  drain_bus_max_ns();
  last_verdict_ = BarrierVerdict{};
  // The fresh NetworkModel's counters restart at zero; the external fault
  // injector's do not, so re-baseline the fault deltas instead.
  trace_prev_msgs_ = trace_prev_bytes_ = trace_prev_fine_ = 0;
  trace_prev_faults_ =
      fault_ != nullptr ? fault_->counters() : fault::FaultCounters{};
  fault_failed_.store(false, std::memory_order_relaxed);
  mirror_poisoned_.store(false, std::memory_order_relaxed);
  corrupt_index_.store(false, std::memory_order_relaxed);
  // An attached sink baselines its deltas on cumulative stats; tell it the
  // clocks restarted so it can re-baseline (and rebase its timeline).
  if (sink_ != nullptr) sink_->on_reset();
}

machine::PhaseStats Runtime::critical_stats() const {
  machine::PhaseStats out;
  for (const auto& st : saved_stats_) out.merge_max(st);
  return out;
}

machine::PhaseStats Runtime::total_stats() const {
  machine::PhaseStats out;
  for (const auto& st : saved_stats_) out.merge_sum(st);
  return out;
}

void Runtime::barrier_sync(ThreadCtx& ctx, bool exchange) {
  // A handler that swallowed SpmdAbort must not park in a new barrier.
  if (exec_->aborted()) throw SpmdAbort{};
#ifdef PGRAPH_CHECK_ACCESS
  // Fingerprint the barrier kind closing this epoch; the completion step
  // cross-checks it together with the collective sequence.
  analysis::ConformanceVerifier::instance().note_barrier(ctx.id(), exchange);
#else
  (void)exchange;
#endif
  const bool completed = exec_->arrive_and_wait(ctx.id());
  // Sibling fibers ran on this OS thread meanwhile, or this fiber moved to
  // another one.
  t_current_ctx = &ctx;
  if (!completed) throw SpmdAbort{};
}

bool Runtime::try_shrink_after_exhaustion(
    const std::vector<std::pair<std::size_t, machine::ExchangeMsg>>& retry,
    double& exch_dur) {
  if (fault_ == nullptr) return false;
  const int lost = fault_->perm_lost_node(topo_.nodes, epoch_);
  if (lost < 0 || !topo_.node_alive(lost)) return false;
  if (topo_.live_node_count() < 2) return false;
  // Only shrink when the dead node explains every undelivered message;
  // anything else is a genuine retry exhaustion.
  for (const auto& [thr, msg] : retry) {
    const int src = thread_node_[static_cast<std::size_t>(thr)];
    if (src != lost && msg.dst_node != lost) return false;
  }
  const int buddy = topo_.prev_live_node(lost);
  if (buddy < 0) return false;
  // Without valid mirrors there is nothing to promote; refuse rather than
  // resume on stale data (the run fails with RetryExhausted).
  if (!replicas_.promotable()) return false;
  // The mirror checksum re-walk that precedes any restore is charged as a
  // streamed read of the candidate bytes; a poisoned mirror surfaces as a
  // collective FaultError{MemoryCorrupt} instead of RetryExhausted.
  const ReplicaSet::Promotion p = replicas_.promote(topo_, lost);
  exch_dur += mem_model_.seq_ns(p.bytes);
  if (p.poisoned) {
    mirror_poisoned_.store(true, std::memory_order_relaxed);
    return false;
  }
  // Promotion cost: a streamed read of the mirror plus a write of the
  // block, on the buddy.  It extends this barrier's exchange term and
  // occupies the buddy's memory bus.
  if (p.bytes > 0) {
    exch_dur += mem_model_.seq_ns(2 * p.bytes);
    bus_ns_[static_cast<std::size_t>(buddy)] += static_cast<std::uint64_t>(
        static_cast<double>(2 * p.bytes) * params_.mem_bus_inv_bw_ns_per_byte);
  }
  // The buddy adopts the dead node's threads: every affinity query,
  // exchange route and collective target id now resolves through the
  // updated owner map.  Thread count is unchanged (the SPMD barrier needs
  // all of them); live node count drops by one.
  topo_.remap_node(lost, buddy);
  thread_node_ = topo_.thread_node_map();
  fault_->count(&fault::FaultCounters::promoted_bytes, p.bytes);
  fault_->count(&fault::FaultCounters::loss_events);
  return true;
}

bool Runtime::mem_guard_active() const {
  return fault_ != nullptr && fault_->armed() &&
         fault_->config().mem_flips_enabled();
}

void Runtime::on_barrier() {
  const int s = topo_.total_threads();
  const bool traced = sink_ != nullptr;
  const double t_start = last_barrier_ns_;
  // The superstep's charges, before the drains and the tracer read them.
  fold_tallies();

  // Straggler injection: perturb per-thread clocks before they compete in
  // the barrier max (a slow thread is indistinguishable from one that did
  // more work).  Gated on the rate so a zero-fault plan costs nothing.
  if (fault_ != nullptr && fault_->config().straggle_p > 0.0) {
    for (int i = 0; i < s; ++i) {
      const double d = fault_->straggler_delay_ns(epoch_, i);
      if (d > 0.0) {
        ThreadCtx* c = slots_[static_cast<std::size_t>(i)].ctx;
        c->clock_ += d;
        c->stats_.add(machine::Cat::Comm, d);
#ifdef PGRAPH_CHECK_ACCESS
        analysis::ConformanceVerifier::instance().ledger_charge(
            i, machine::Cat::Comm, d);
#endif
      }
    }
  }

  double max_clock = 0.0;
  bool any_exchange = false;
  for (int i = 0; i < s; ++i) {
    ThreadCtx* c = slots_[static_cast<std::size_t>(i)].ctx;
    assert(c != nullptr);
    max_clock = std::max(max_clock, c->clock_);
    any_exchange = any_exchange || !c->pending_.empty();
    if (traced) trace_arrival_[static_cast<std::size_t>(i)] = c->clock_;
  }

  // Per-node serialization floors: fine-grained network traffic on the
  // NIC, and DRAM traffic on the shared memory bus.  With a sink attached
  // we additionally keep the per-node breakdown instead of only the max.
  double nic_drain = 0.0;
  double bus_drain = 0.0;
  if (traced) {
    nic_drain = net_->drain_nic_ns(trace_nic_.data());
    bus_drain = drain_bus_ns(trace_bus_.data());
  } else {
    nic_drain = net_->drain_nic_max_ns();
    bus_drain = drain_bus_max_ns();
  }

  double exch_dur = 0.0;
  if (any_exchange) {
    // Every plan row is empty here, so each thread gets back an empty
    // list that keeps the capacity of an earlier superstep.
    machine::ExchangePlan& plan = exch_plan_;
    for (int i = 0; i < s; ++i)
      plan[static_cast<std::size_t>(i)].swap(
          slots_[static_cast<std::size_t>(i)].ctx->pending_);
    if (traced)
      std::fill(trace_exch_.begin(), trace_exch_.end(),
                machine::ExchangeNodeStats{});
    // Ack/timeout protocol in modeled time: the injector marks each
    // attempt's losses, the sweep prices what actually flew, and lost
    // messages are retransmitted after a timeout plus exponential backoff
    // until delivered or the retry budget is exhausted (collective
    // FaultError).  Outage losses time out once but are not retried while
    // the node is down — the checkpoint/rollback path recovers those.
    int attempt = 0;
    for (;;) {
      fault::ExchangeFaults ef;
      if (fault_ != nullptr)
        ef = fault_->apply_exchange(plan, thread_node_, topo_.nodes, epoch_,
                                    attempt);
      const double before = exch_dur;
      exch_dur += machine::exchange_duration_ns(
          plan, thread_node_, topo_.nodes, params_.net_latency_ns,
          traced ? trace_attempt_.data() : nullptr, exch_scratch_);
      if (traced) {
        for (int n = 0; n < topo_.nodes; ++n) {
          machine::ExchangeNodeStats& acc =
              trace_exch_[static_cast<std::size_t>(n)];
          const machine::ExchangeNodeStats& a =
              trace_attempt_[static_cast<std::size_t>(n)];
          acc.send_busy_ns += a.send_busy_ns;
          acc.recv_busy_ns += a.recv_busy_ns;
          acc.send_finish_ns =
              std::max(acc.send_finish_ns, before + a.send_finish_ns);
          acc.recv_finish_ns =
              std::max(acc.recv_finish_ns, before + a.recv_finish_ns);
          acc.msgs_out += a.msgs_out;
          acc.msgs_in += a.msgs_in;
        }
      }
      if (fault_ == nullptr) break;
      const fault::FaultConfig& fc = fault_->config();
      if (ef.outage_drops > 0 || !ef.retry.empty()) {
        // Senders discover the losses by ack timeout.
        exch_dur += fc.ack_timeout_ns;
        fault_->count(&fault::FaultCounters::retry_wait_ns,
                      static_cast<std::uint64_t>(fc.ack_timeout_ns));
      }
      if (ef.retry.empty()) break;
      if (attempt >= fc.max_retries) {
        // When every surviving retransmission targets (or originates on) a
        // permanently lost node, the retry budget exhausting is the
        // failure detector: shrink onto the buddy instead of giving up.
        if (!try_shrink_after_exhaustion(ef.retry, exch_dur))
          fault_failed_.store(true, std::memory_order_relaxed);
        break;
      }
      const double backoff = fc.backoff_ns_for(attempt);
      exch_dur += backoff;
      fault_->count(&fault::FaultCounters::retry_wait_ns,
                    static_cast<std::uint64_t>(backoff));
      // Rebuild the plan from the lost messages only and go again; the
      // retransmissions are real traffic for the message counters.
      for (auto& lst : plan) lst.clear();
      machine::NetTally resent;
      for (const auto& [thr, msg] : ef.retry) {
        plan[thr].push_back(msg);
        resent.count_message(msg.wire_bytes);
      }
      net_->fold(resent);
      fault_->count(&fault::FaultCounters::retransmits, ef.retry.size());
      ++attempt;
    }
    for (auto& row : plan) row.clear();
  }

  // The four competing terms of the barrier max; the largest wins and is
  // recorded as the superstep's bottleneck verdict (ties resolve in the
  // order threads < nic < bus < exchange).  A non-exchange superstep's
  // exchange term degenerates to t_start so it can never win.
  const double t_threads = max_clock;
  const double t_nic = t_start + nic_drain;
  const double t_bus = t_start + bus_drain;
  const double t_exchange = any_exchange ? max_clock + exch_dur : t_start;
  // Clock-regression guard: every candidate end time must be at or past
  // the previous barrier (clocks only advance; drains are non-negative).
  assert(t_threads >= t_start);
  assert(t_nic >= t_start);
  assert(t_bus >= t_start);
  assert(t_exchange >= t_start);

  double t = t_threads;
  BarrierVerdict::Winner winner = BarrierVerdict::Winner::Threads;
  if (t_nic > t) {
    t = t_nic;
    winner = BarrierVerdict::Winner::Nic;
  }
  if (t_bus > t) {
    t = t_bus;
    winner = BarrierVerdict::Winner::Bus;
  }
  if (t_exchange > t) {
    t = t_exchange;
    winner = BarrierVerdict::Winner::Exchange;
  }

  const double bar_cost =
      params_.barrier_base_ns + params_.barrier_per_thread_ns * s;
  const double t_final = t + bar_cost;
  last_verdict_ = {t_start,  t_threads, t_nic,   t_bus,        t_exchange,
                   exch_dur, bar_cost,  t_final, winner,       any_exchange};

  for (int i = 0; i < s; ++i) {
    ThreadCtx* c = slots_[static_cast<std::size_t>(i)].ctx;
    if (any_exchange) {
      // In a communication superstep, waiting *is* communication time.
      const double wait = t_final - c->clock_;
      c->stats_.add(machine::Cat::Comm, wait);
#ifdef PGRAPH_CHECK_ACCESS
      analysis::ConformanceVerifier::instance().ledger_charge(
          i, machine::Cat::Comm, wait);
#endif
    } else {
      c->stats_.add(machine::Cat::Comm, bar_cost);
#ifdef PGRAPH_CHECK_ACCESS
      analysis::ConformanceVerifier::instance().ledger_charge(
          i, machine::Cat::Comm, bar_cost);
#endif
    }
    c->clock_ = t_final;
  }
  last_barrier_ns_ = t_final;
#ifdef PGRAPH_CHECK_ACCESS
  // Close the access-checker epoch that the threads just finished: compare
  // per-thread moved vs. charged bytes while everyone is parked in the
  // barrier (the completion step is ordered against all of them).
  analysis::AccessChecker::instance().end_epoch(epoch_, s);
  {
    // Conformance checks ride the same completion step: the cost ledger
    // must balance against the final per-thread stats of the epoch, and
    // the collective fingerprints must agree across threads.
    auto& cv = analysis::ConformanceVerifier::instance();
    std::vector<const machine::PhaseStats*> actual(
        static_cast<std::size_t>(s));
    for (int i = 0; i < s; ++i)
      actual[static_cast<std::size_t>(i)] =
          &slots_[static_cast<std::size_t>(i)].ctx->stats_;
    cv.check_ledger(epoch_, s, actual.data());
    cv.end_epoch(epoch_, s);
  }
#endif
  // Seeded at-rest bit flips land here, after every thread's writes of the
  // epoch committed and before the digest observes the state.  Silent and
  // free by construction — the modeled clock only moves when the scrubber
  // detects and heals.  Gated on the plan so zero-flip configurations are
  // byte-identical to uninjected runs.
  if (fault_ != nullptr && fault_->armed() &&
      fault_->config().mem_flips_enabled() &&
      epoch_ == fault_->config().mem_flip_at)
    replicas_.apply_flips(*fault_, epoch_);
  // A serve loop clamped an out-of-range request index this epoch: that
  // can only come from a flipped label escaping into a gather before the
  // scrubber ran.  Count it as a detection and raise a recovery event so
  // the checkpoint loop rolls back past the clamped (garbage) superstep.
  if (corrupt_index_.exchange(false, std::memory_order_relaxed) &&
      fault_ != nullptr && fault_->armed()) {
    fault_->count(&fault::FaultCounters::scrub_detected);
    fault_->count(&fault::FaultCounters::scrub_events);
  }
  // Determinism digest of the committed GlobalArray state at this barrier
  // (observation only: never touches the modeled clocks).
  if (digest_enabled_) last_digest_ = replicas_.digest();
  if (traced) {
    for (int i = 0; i < s; ++i)
      trace_stats_[static_cast<std::size_t>(i)] =
          slots_[static_cast<std::size_t>(i)].ctx->stats_;
    for (int n = 0; n < topo_.nodes; ++n) {
      NodeSuperstep& ns = trace_nodes_[static_cast<std::size_t>(n)];
      ns.nic = trace_nic_[static_cast<std::size_t>(n)];
      ns.bus_busy_ns = trace_bus_[static_cast<std::size_t>(n)];
      ns.exch = any_exchange ? trace_exch_[static_cast<std::size_t>(n)]
                             : machine::ExchangeNodeStats{};
    }
    SuperstepRecord rec;
    rec.index = barriers_;
    rec.epoch = epoch_;
    rec.verdict = last_verdict_;
    rec.arrival_clock = &trace_arrival_;
    rec.stats = &trace_stats_;
    rec.nodes = &trace_nodes_;
    const std::uint64_t msgs = net_->total_messages();
    const std::uint64_t bytes = net_->total_bytes();
    const std::uint64_t fine = net_->fine_messages();
    rec.msgs_delta = msgs - trace_prev_msgs_;
    rec.bytes_delta = bytes - trace_prev_bytes_;
    rec.fine_msgs_delta = fine - trace_prev_fine_;
    trace_prev_msgs_ = msgs;
    trace_prev_bytes_ = bytes;
    trace_prev_fine_ = fine;
    if (fault_ != nullptr) {
      const fault::FaultCounters fc = fault_->counters();
      rec.fault_delta = fc - trace_prev_faults_;
      trace_prev_faults_ = fc;
    }
    rec.live_nodes = topo_.live_node_count();
    rec.has_digest = digest_enabled_;
    rec.state_digest = digest_enabled_ ? last_digest_ : 0;
    sink_->on_superstep(rec);
  }
  // One recovery event per outage window, raised at the barrier that ends
  // it (the node "reboots"); checkpointing loops poll recovery_events() at
  // iteration granularity and roll back on a change.
  if (fault_ != nullptr && fault_->outage_ends_at(epoch_))
    fault_->count(&fault::FaultCounters::outage_events);
  ++barriers_;
  ++epoch_;
}

}  // namespace pgraph::pgas
