#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/types.hpp"
#include "serve/resilience.hpp"
#include "serve/workload.hpp"
#include "stream/dynamic_graph.hpp"

namespace pgraph::serve {

/// How a request left the server.
enum class Status : std::uint8_t {
  Pending = 0,     ///< still queued (never final after finish())
  Ok = 1,          ///< answered from a published epoch
  Shed = 2,        ///< rejected (see Outcome::shed_reason)
  StaleEpoch = 3,  ///< pinned epoch evicted from the ring before service
  Degraded = 4,    ///< answered from the previous epoch's cache (brownout)
};

/// Final record of one offered request, in offer order.  The answer field
/// is the same bit pattern a direct DynamicGraph::query would return
/// (0/1 for SameComponent, the count for ComponentSize), which is what the
/// bit-identity tests compare.  A Degraded outcome's epoch is the epoch
/// actually answered from (the resolved epoch minus one), bounding the
/// staleness to exactly one epoch.
struct Outcome {
  Status status = Status::Pending;
  ShedReason shed_reason = ShedReason::None;  ///< set iff status == Shed
  std::uint64_t answer = 0;
  std::uint64_t epoch = 0;    ///< epoch served (kLatest bound at admission)
  double arrive_ns = 0.0;
  double start_ns = 0.0;      ///< when its flush entered service
  double done_ns = 0.0;       ///< when its flush completed
  double latency_ns() const { return done_ns - arrive_ns; }
  double queue_ns() const { return start_ns - arrive_ns; }
};

/// Per-tenant SLO summary.
struct TenantStats {
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;  ///< answered Ok
  std::uint64_t stale = 0;
  std::uint64_t degraded = 0;   ///< answered from the previous epoch
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
};

/// Aggregate serving telemetry returned by QueryServer::finish().
struct ServeStats {
  std::vector<TenantStats> tenants;
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t stale = 0;
  std::uint64_t degraded = 0;  ///< Degraded answers (brownout serving)

  /// Shed split by reason; the three always sum to `shed`.
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_breaker_open = 0;
  std::uint64_t shed_deadline = 0;

  std::uint64_t flushes = 0;       ///< windows executed
  std::uint64_t epoch_batches = 0; ///< per-epoch QueryBatches sent to GetD
  std::uint64_t keys_sent = 0;     ///< unique uncached keys actually fetched
  std::uint64_t coalesced = 0;     ///< requests answered by another's key
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidated = 0;    ///< entries dropped at evictions
  std::uint64_t invalidation_events = 0;  ///< publishes that dropped entries
  std::uint64_t publishes = 0;
  std::uint64_t verify_mismatches = 0;    ///< bit-identity violations seen

  /// Resilience telemetry (all zero when the layer is disabled).
  std::uint64_t flush_failures = 0;   ///< backend attempts that threw
  std::uint64_t flush_retries = 0;    ///< failed attempts retried
  std::uint64_t retry_denied = 0;     ///< retries refused by the budget
  std::uint64_t breaker_trips = 0;    ///< -> Open transitions
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t brownout_enters = 0;
  std::uint64_t brownout_exits = 0;
  std::uint64_t brownout_cache_ok = 0;  ///< instant fresh-cache Ok in brownout
  std::uint64_t deadline_misses = 0;    ///< served Ok but past the deadline
  std::uint64_t recoveries = 0;         ///< post-shrink republishes triggered
  double failed_ns = 0.0;    ///< modeled time burned by failed attempts
  double recovery_ns = 0.0;  ///< modeled time inside recovery republishes
  /// Mode/breaker transition log in virtual-time order (for the
  /// Chrome-trace instant export and the lifecycle tests).
  std::vector<ServeEvent> events;

  double service_ns = 0.0;  ///< modeled time inside query flushes
  double publish_ns = 0.0;  ///< modeled time inside apply_batch
  double agg_ns = 0.0;      ///< lazy size-aggregation share of service_ns
  double first_arrival_ns = 0.0;
  double last_done_ns = 0.0;
  double makespan_ns = 0.0;
  double throughput_rps = 0.0;  ///< completed per modeled second

  double p50_ns = 0.0;  ///< aggregate latency percentiles over Ok requests
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
  double mean_queue_ns = 0.0;

  double cache_hit_rate() const {
    const double tot = static_cast<double>(cache_hits + cache_misses);
    return tot > 0 ? static_cast<double>(cache_hits) / tot : 0.0;
  }
  /// Fraction of offered requests that got an answer (Ok + Degraded) —
  /// the availability metric srv02 sweeps against fault intensity.
  double availability() const {
    return offered > 0
               ? static_cast<double>(completed + degraded) /
                     static_cast<double>(offered)
               : 1.0;
  }
};

struct ServerOptions {
  /// Coalescing window: a window opened at t closes at t + window_ns (or
  /// earlier on max_batch).  0 means flush every request individually.
  double window_ns = 0.0;
  std::size_t max_batch = 4096;  ///< requests per window before forced close
  /// Admission bound: per-tenant in-flight requests (queued + in service).
  /// Offers past the bound are shed with a counted rejection.
  std::size_t max_queue = 64;
  bool cache = true;  ///< per-epoch result cache
  /// Cross-check every k-th flush against a direct DynamicGraph::query of
  /// the same keys (0 = off).  Mismatches land in verify_mismatches
  /// instead of aborting, so benches can gate on the counter.
  std::size_t verify_every = 0;
  /// Overload/failure resilience: deadlines, retry budgets, breakers and
  /// brownout degradation (docs/SERVING.md "Degraded serving").  Disabled
  /// by default; when disabled the server behaves byte-identically to the
  /// pre-resilience implementation.
  ResilienceOptions resilience;
};

/// Multi-tenant query front end over DynamicGraph epoch snapshots.
///
/// The server is a discrete-event simulation on the modeled clock: client
/// arrivals (Request::arrive_ns), window closings, flush service and epoch
/// publishes are totally ordered by virtual time, with service durations
/// taken from the modeled RunCosts of the underlying collective runs.  The
/// backend is serialized (one flush or publish at a time), which models
/// the single PGAS runtime the queries share.
///
/// Drive it with offer()/publish() in nondecreasing virtual time, then
/// finish() to drain and collect SLO stats.  See docs/SERVING.md.
class QueryServer {
 public:
  QueryServer(stream::DynamicGraph& dg, int tenants, ServerOptions opt = {});

  /// Admit (or shed) one request; returns its index into outcomes().
  std::size_t offer(const Request& r);

  /// Publish the next epoch at virtual time `at_ns`: flushes due before
  /// the publish are serviced first, the update batch is applied, and
  /// cached results of epochs that fell out of the snapshot ring are
  /// invalidated.
  stream::BatchStats publish(double at_ns,
                             std::span<const graph::EdgeUpdate> ops);

  /// Drain every queued window and compute the final statistics.
  ServeStats finish();

  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  const ServeStats& stats() const { return stats_; }

 private:
  struct Pending {
    Request req;       ///< epoch already resolved
    std::size_t idx;   ///< index into outcomes_
  };
  struct Window {
    std::vector<Pending> reqs;
    double open_ns = 0.0;
    double close_ns = 0.0;  ///< when it becomes ready for service
  };
  static constexpr std::size_t kQueryKinds = 2;  ///< QueryKind values
  /// One epoch's answers, one map per QueryKind keyed by the request's
  /// vertex pair (SameComponent) or vertex (ComponentSize).
  struct EpochCache {
    std::array<std::unordered_map<std::uint64_t, std::uint64_t>, kQueryKinds>
        by_kind;
    /// rq's cached answer, if any.
    bool find(const Request& rq, std::uint64_t* answer) const;
    std::size_t entries() const {
      return by_kind[0].size() + by_kind[1].size();
    }
  };
  enum class Mode : std::uint8_t { Normal = 0, Brownout = 1 };

  /// Advance the event loop to virtual time `t`: retire completions, close
  /// due windows, execute queued flushes whose start time has come.
  void drain(double t);
  void close_open(double ready_ns);
  void execute_flush(Window& w, double start_ns);
  void invalidate_evicted();
  /// The one place a finished request is counted: the aggregate and
  /// per-tenant counter of its status, the shed counter of its reason, its
  /// latency if Ok, and the makespan end if it was answered (Ok, Degraded).
  void settle(const Outcome& o, std::int32_t tenant);
  /// Finish `o` at its arrival (no queue slot, no backend time), settle it
  /// and record it; returns its index into outcomes().
  std::size_t settle_on_arrival(Outcome& o, std::int32_t tenant);

  /// Resilience helpers (no-ops unless opt_.resilience.enabled).
  void note_event(ServeEventKind kind, double t_ns, std::int32_t tenant);
  void update_mode(double now_ns);
  /// Fresh-epoch cache probe for the brownout fast path.
  bool lookup_cached(const Request& rq, std::uint64_t epoch,
                     std::uint64_t* answer) const;
  /// Answer `o` Degraded from the previous epoch's cache if it holds rq's
  /// key; false (and `o` untouched) otherwise.
  bool serve_degraded(const Request& rq, Outcome& o) const;
  /// The distinct tenants of a flush group's members, in first-seen order.
  static std::vector<std::int32_t> tenants_of(
      const Window& w, const std::vector<std::size_t>& members);
  /// Apply one flush group's backend verdict to the member tenants'
  /// breakers, maintaining open_breakers_ and the transition counters.
  void breaker_result(const Window& w, const std::vector<std::size_t>& members,
                      bool ok, double now_ns);
  /// One budget token per distinct member tenant; all-or-nothing.
  bool spend_retry_tokens(const Window& w,
                          const std::vector<std::size_t>& members,
                          double now_ns);
  /// After a topology shrink (the runtime's count moved), republish the
  /// current epoch on the survivor topology, charging the cost.
  void poll_recovery(double now_ns, double* service_ns);

  stream::DynamicGraph& dg_;
  ServerOptions opt_;
  int tenants_;

  std::optional<Window> open_;
  std::deque<Window> queue_;  ///< closed windows awaiting service
  /// FIFO of (completion time, tenant) for in-flight accounting; valid
  /// because the serialized backend completes flushes in start order.
  std::deque<std::pair<double, std::int32_t>> retire_;
  std::vector<std::size_t> inflight_;  ///< per tenant

  double server_free_ns_ = 0.0;  ///< backend busy until here
  std::unordered_map<std::uint64_t, EpochCache> cache_;  ///< by epoch

  /// Resilience state (inert when disabled).
  Mode mode_ = Mode::Normal;
  std::vector<CircuitBreaker> breakers_;  ///< per tenant
  std::vector<RetryBudget> budgets_;      ///< per tenant
  int open_breakers_ = 0;        ///< breakers not in Closed state
  std::size_t queued_reqs_ = 0;  ///< admitted, not yet entered service
  int seen_shrinks_ = 0;  ///< topology shrinks already recovered from

  std::vector<Outcome> outcomes_;
  std::vector<std::vector<double>> lat_;  ///< per-tenant Ok latencies
  ServeStats stats_;
  bool finished_ = false;
};

}  // namespace pgraph::serve
