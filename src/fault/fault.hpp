#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "machine/exchange_sim.hpp"

namespace pgraph::fault {

/// Deterministic fault injection for the simulated PGAS machine.
///
/// The simulator moves real data through shared memory and models *time*;
/// faults follow the same split.  Drops, duplicates, delays and stragglers
/// perturb modeled time and control flow but never lose committed data —
/// a dropped exchange message costs its sender an ack timeout and a
/// retransmission (exponential backoff, charged to the clock, capped by
/// `max_retries`; exhaustion surfaces as a collective FaultError).  Payload
/// corruption flips real bits in staged collective buffers; the injector
/// records the originals so that the checksum-validate-retransmit protocol
/// in getd/setd can restore them at exactly the modeled cost of a
/// retransmission.  Node outages drop all exchange traffic of one node for
/// K consecutive supersteps and raise a recovery event that checkpointing
/// algorithms (cc_coalesced, mst_pgas) answer with a rollback.
///
/// Every decision is a pure hash of (seed, stream, epoch, actor, attempt):
/// two runs over the same epoch sequence draw identical faults, so chaos
/// tests are reproducible bit-for-bit.  See docs/ROBUSTNESS.md.

/// splitmix64 finalizer: the one hash both the draws and the checksums use.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Position-mixed word checksum over raw bytes (trailing partial word
/// zero-padded).  Any single flipped word changes the sum.
std::uint64_t checksum_words(const void* p, std::size_t bytes);

enum class FaultKind : std::uint8_t {
  MsgDrop = 0,
  MsgDuplicate,
  MsgDelay,
  Corruption,
  Straggler,
  Outage,
  RetryExhausted,
  PermanentLoss,  ///< node never comes back; runtime shrank to the buddy
  MemoryCorrupt,  ///< at-rest bit flip that could not be healed
};

const char* fault_kind_name(FaultKind k);

/// Typed failure surfaced when the recovery protocol gives up (retry limit
/// exceeded).  Thrown collectively: every SPMD thread of the run throws
/// after the same barrier, so Runtime::run can unwind without deadlock.
class FaultError : public std::runtime_error {
 public:
  FaultError(FaultKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  FaultKind kind() const { return kind_; }

 private:
  FaultKind kind_;
};

/// A seeded fault plan plus the retry-protocol constants.  Parsed from the
/// harness `--faults` spec: comma-separated key=value pairs, e.g.
///   drop=0.02,dup=0.01,delay=0.05,corrupt=0.1,straggle=0.1,outage_every=50
/// Keys: drop dup delay delay_ns corrupt straggle straggle_ns outage_every
/// outage_k loss_at loss_node retries timeout_ns backoff_ns cap_ns arm.
struct FaultConfig {
  std::uint64_t seed = 1;

  // Per-message exchange faults (drawn once per message per attempt).
  double drop_p = 0.0;
  double dup_p = 0.0;
  double delay_p = 0.0;
  double delay_ns = 20000.0;  ///< extra in-flight latency when delayed

  // Per-buffer payload corruption in the collectives (one word flipped).
  double corrupt_p = 0.0;

  // Per-(thread, superstep) straggler probability and magnitude.
  double straggle_p = 0.0;
  double straggle_ns = 50000.0;

  // Transient node outages: every `outage_every` epochs one pseudo-random
  // node loses its exchange traffic for `outage_k` consecutive supersteps
  // (0 disables outages).
  std::uint64_t outage_every = 0;
  int outage_k = 2;

  // Permanent node loss: from epoch `loss_at` on, one node is down for
  // good (0 disables).  `loss_node` pins the victim; -1 draws it from the
  // seeded plan.  Recovery is the buddy-replication shrink protocol
  // (docs/ROBUSTNESS.md "Degraded mode").
  std::uint64_t loss_at = 0;
  int loss_node = -1;

  // One-shot silent memory corruption: at the barrier closing epoch
  // `mem_flip_at` the runtime flips `mem_flips` seeded bits in resident
  // GlobalArray partitions (`mem_flip_mirror=1` targets the buddy mirrors
  // instead).  0 disables.  Detection/repair is the scrub protocol
  // (docs/ROBUSTNESS.md "At-rest integrity").
  std::uint64_t mem_flip_at = 0;
  int mem_flips = 1;
  bool mem_flip_mirror = false;

  // Recovery protocol (modeled time).
  int max_retries = 6;
  double ack_timeout_ns = 8000.0;
  double retry_backoff_ns = 4000.0;
  double backoff_cap_ns = 262144.0;

  // Serving-phase arming (`arm=0|1`, default armed): with start_armed
  // false the injector is constructed disarmed — no draws fire until the
  // host calls FaultInjector::set_armed(true).  Because every draw is a
  // pure hash of (seed, stream, epoch, actor, attempt), arming later does
  // not perturb the keying of subsequent draws; serving tests use this to
  // build the graph cleanly and then unleash the plan mid-service.
  bool start_armed = true;

  bool corruption_enabled() const { return corrupt_p > 0.0; }
  bool loss_enabled() const { return loss_at > 0; }
  bool mem_flips_enabled() const { return mem_flip_at > 0 && mem_flips > 0; }
  bool network_faults() const {
    return drop_p > 0.0 || dup_p > 0.0 || delay_p > 0.0 || outage_every > 0 ||
           loss_at > 0;
  }
  bool any_faults() const {
    return network_faults() || corruption_enabled() || straggle_p > 0.0 ||
           mem_flips_enabled();
  }
  double backoff_ns_for(int attempt) const;

  /// Parse a `--faults` spec; throws std::invalid_argument on unknown keys
  /// or malformed values.  An empty spec is a valid all-zero plan; a key
  /// given twice keeps its last value.  Every value must be finite:
  /// probabilities (drop dup delay corrupt straggle) in [0,1], durations
  /// (delay_ns straggle_ns timeout_ns backoff_ns cap_ns) in [0, 2^64) ns,
  /// and integer keys integral and within their field.  outage_every is 0
  /// or >= 2, and outage_k is then clamped to [1, outage_every - 1];
  /// loss_node >= -1 (>= 0 needs loss_at > 0); mem_flips >= 0; retries is
  /// clamped to >= 0; arm and mem_flip_mirror are 0 or 1 (mirror needs
  /// mem_flip_at > 0).
  static FaultConfig parse(const std::string& spec, std::uint64_t seed);

  /// Reject plans that cannot run on `nodes` nodes: outages and permanent
  /// loss need at least 2 nodes (there is nobody to fail over to on one),
  /// and a pinned loss_node must exist.  Throws std::invalid_argument.
  void validate_topology(int nodes) const;
};

/// Monotone event counters (snapshot; see FaultInjector::counters).
struct FaultCounters {
  std::uint64_t drops = 0;         ///< retryable exchange-message drops
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  std::uint64_t outage_drops = 0;  ///< non-retryable (node down)
  std::uint64_t retransmits = 0;   ///< messages re-sent after a timeout
  std::uint64_t corruptions = 0;   ///< words flipped in staged payloads
  std::uint64_t detected = 0;      ///< checksum mismatches caught
  std::uint64_t repairs = 0;       ///< words restored by retransmission
  std::uint64_t straggles = 0;
  std::uint64_t outage_events = 0; ///< outage windows that ended (rollback
                                   ///< triggers for checkpointing loops)
  std::uint64_t rollbacks = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t retry_wait_ns = 0; ///< modeled ack-timeout + backoff time
  std::uint64_t loss_drops = 0;    ///< drops caused by a permanently lost node
  std::uint64_t loss_events = 0;   ///< shrink events (one per lost node)
  std::uint64_t replications = 0;  ///< buddy replication passes completed
  std::uint64_t replica_bytes = 0; ///< bytes mirrored to buddies
  std::uint64_t promoted_bytes = 0;///< mirror bytes promoted at a shrink
  std::uint64_t mem_flips = 0;     ///< at-rest bits flipped by the injector
  std::uint64_t scrub_passes = 0;  ///< collective scrub passes completed
  std::uint64_t scrub_detected = 0;///< partitions caught with bad checksums
  std::uint64_t scrub_heals = 0;   ///< partitions healed from buddy mirrors
  std::uint64_t scrub_events = 0;  ///< scrub recovery events (rollback
                                   ///< triggers for checkpointing loops)
};

/// One FaultCounters field and the key bench JSON reports it under.
struct FaultCounterField {
  std::uint64_t FaultCounters::*member;
  std::string_view key;
};

/// The one list of fault counters, in bench-JSON emission order.  The
/// injector's snapshot and reset, the field-wise delta and the per-row
/// bench extras all loop over it: a new counter is one FaultCounters field
/// plus one row here.  Keys are frozen by the committed baselines, hence
/// the irregular ones (`fault_dups`, `fault_outages`, `fault_shrinks`, the
/// unprefixed `scrub_*`).
inline constexpr FaultCounterField kFaultCounterFields[] = {
    {&FaultCounters::drops, "fault_drops"},
    {&FaultCounters::duplicates, "fault_dups"},
    {&FaultCounters::delays, "fault_delays"},
    {&FaultCounters::outage_drops, "fault_outage_drops"},
    {&FaultCounters::retransmits, "fault_retransmits"},
    {&FaultCounters::corruptions, "fault_corruptions"},
    {&FaultCounters::detected, "fault_detected"},
    {&FaultCounters::repairs, "fault_repairs"},
    {&FaultCounters::straggles, "fault_straggles"},
    {&FaultCounters::outage_events, "fault_outages"},
    {&FaultCounters::rollbacks, "fault_rollbacks"},
    {&FaultCounters::checkpoints, "fault_checkpoints"},
    {&FaultCounters::retry_wait_ns, "fault_retry_wait_ns"},
    {&FaultCounters::loss_drops, "fault_loss_drops"},
    {&FaultCounters::loss_events, "fault_shrinks"},
    {&FaultCounters::replications, "fault_replications"},
    {&FaultCounters::replica_bytes, "fault_replica_bytes"},
    {&FaultCounters::promoted_bytes, "fault_promoted_bytes"},
    {&FaultCounters::mem_flips, "fault_mem_flips"},
    {&FaultCounters::scrub_passes, "scrub_passes"},
    {&FaultCounters::scrub_detected, "scrub_detected"},
    {&FaultCounters::scrub_heals, "scrub_heals"},
    {&FaultCounters::scrub_events, "scrub_events"},
};

/// Field-wise difference of two snapshots of one injector (a later minus an
/// earlier one: the events in between).
constexpr FaultCounters operator-(const FaultCounters& a,
                                  const FaultCounters& b) {
  FaultCounters d;
  for (const FaultCounterField& f : kFaultCounterFields)
    d.*f.member = a.*f.member - b.*f.member;
  return d;
}

/// What one fault pass over an exchange plan produced: the retryable lost
/// messages (keyed by sending thread) and the count of outage drops, which
/// time out once but are not retransmitted while the node is down.
struct ExchangeFaults {
  std::vector<std::pair<std::size_t, machine::ExchangeMsg>> retry;
  std::uint64_t outage_drops = 0;
};

/// The seeded injector.  One instance serves a whole bench process; it is
/// attached to a Runtime (Runtime::set_fault_injector) and shared by the
/// collectives' checksum protocol and the algorithms' checkpoint loops.
/// Counting is thread-safe; apply_exchange and the outage/straggler draws
/// are called from the barrier completion step (single-threaded).
class FaultInjector {
 public:
  /// Names one counter, e.g. `&FaultCounters::rollbacks`.
  using Counter = std::uint64_t FaultCounters::*;

  explicit FaultInjector(FaultConfig cfg)
      : cfg_(cfg), armed_(cfg.start_armed) {}

  const FaultConfig& config() const { return cfg_; }

  // --- counters ---------------------------------------------------------
  /// Add `n` events to one counter.  Recovery events (`outage_events`,
  /// `loss_events`, `scrub_events`) are counted in the barrier completion
  /// step or before a barrier, so every thread's poll after it sees them.
  void count(Counter field, std::uint64_t n = 1) {
    slot(field).fetch_add(n, std::memory_order_acq_rel);
  }
  std::uint64_t count_of(Counter field) const {
    return slot(field).load(std::memory_order_acquire);
  }
  /// Rollback triggers for checkpointing loops: outage windows that ended,
  /// shrink events, and scrub heals (a heal restores checkpoint-time bytes,
  /// so the loop must rewind to that checkpoint for consistency).
  std::uint64_t recovery_events() const {
    return count_of(&FaultCounters::outage_events) +
           count_of(&FaultCounters::loss_events) +
           count_of(&FaultCounters::scrub_events);
  }
  FaultCounters counters() const;
  /// Zero every counter and forget unrepaired corruptions.
  void reset_counters();

  // --- arming ------------------------------------------------------------
  /// Host-side gate over every injection point (drops, outages, loss,
  /// stragglers, corruption).  Disarmed, the injector behaves like an
  /// empty plan; re-arming mid-process is deterministic because draws are
  /// keyed by epoch, not by how many draws happened before.  Toggle only
  /// between runs (it is read from the barrier completion step).
  void set_armed(bool armed) {
    armed_.store(armed, std::memory_order_release);
  }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // --- exchange phase (machine layer) ----------------------------------
  /// Mutate `plan` in place for one delivery attempt: mark drops (the
  /// sender still occupies its NIC; nothing arrives), append duplicates,
  /// and add in-flight delays.  Messages to or from a down node are
  /// dropped non-retryably.  Returns the retryable losses.
  ExchangeFaults apply_exchange(machine::ExchangePlan& plan,
                                const std::vector<std::int32_t>& thread_node,
                                int nodes, std::uint64_t epoch, int attempt);

  // --- outages ----------------------------------------------------------
  /// Node that is down during `epoch`, or -1.
  int down_node(int nodes, std::uint64_t epoch) const;
  bool outage_active(std::uint64_t epoch) const;
  /// True iff `epoch` is the last superstep of an outage window; the
  /// runtime raises one recovery event per window at that barrier.
  bool outage_ends_at(std::uint64_t epoch) const;

  // --- permanent node loss ----------------------------------------------
  /// Node that is permanently lost as of `epoch`, or -1.  Stable: the same
  /// node for every epoch >= loss_at.
  int perm_lost_node(int nodes, std::uint64_t epoch) const;

  // --- at-rest memory corruption ----------------------------------------
  /// Seeded draw for the k-th memory bit flip of `epoch`; `salt`
  /// distinguishes independent sub-draws (victim pick vs. bit pick).  The
  /// runtime maps the value onto a (site, thread, byte, bit) target.
  std::uint64_t mem_flip_word(std::uint64_t epoch, int k, int salt) const;

  // --- stragglers -------------------------------------------------------
  /// Extra modeled delay for `thread` in the superstep ending at `epoch`
  /// (0 for non-straggling threads); counts the event when it fires.
  double straggler_delay_ns(std::uint64_t epoch, int thread);

  // --- payload corruption ----------------------------------------------
  /// Maybe flip one aligned word inside [buf, buf+bytes), keyed on
  /// (epoch, thread, tag); records the original for repair().  Returns
  /// the number of words flipped (0 or 1).
  int corrupt(void* buf, std::size_t bytes, std::uint64_t epoch, int thread,
              int tag);
  /// Restore every recorded corruption inside [buf, buf+bytes) — the
  /// modeled retransmission delivering a clean copy.  Returns the number
  /// of words restored.
  int repair(void* buf, std::size_t bytes);

 private:
  static_assert(alignof(std::uint64_t) >=
                std::atomic_ref<std::uint64_t>::required_alignment);
  std::atomic_ref<std::uint64_t> slot(Counter field) const {
    return std::atomic_ref<std::uint64_t>(counters_.*field);
  }
  std::uint64_t draw(std::uint64_t stream, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c) const;
  /// Uniform [0,1) from a draw.
  static double unit(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  FaultConfig cfg_;
  std::atomic<bool> armed_{true};

  struct CorruptEvent {
    unsigned char* addr = nullptr;
    std::uint64_t original = 0;
  };
  mutable std::mutex corrupt_mu_;
  std::vector<CorruptEvent> corrupt_events_;

  /// Accessed only through std::atomic_ref (slot()), which needs a
  /// non-const object even for loads.
  mutable FaultCounters counters_;
};

}  // namespace pgraph::fault
