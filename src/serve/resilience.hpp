#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pgraph::serve {

/// Why a request was shed.  Stored on the Outcome and counted per reason
/// so the conservation invariant can be checked at full resolution:
///   offered == completed + shed + stale + degraded
///   shed    == shed_queue_full + shed_breaker_open + shed_deadline
enum class ShedReason : std::uint8_t {
  None = 0,             ///< not shed
  QueueFull = 1,        ///< tenant admission bound hit at arrival
  BreakerOpen = 2,      ///< fast-failed: breaker open / backend unavailable
  DeadlineExpired = 3,  ///< deadline passed while waiting in the coalescer
};

/// Mode/breaker transitions on the modeled clock, recorded in arrival
/// order.  tenant == -1 marks server-global events (brownout, recovery).
enum class ServeEventKind : std::uint8_t {
  BreakerOpen = 0,      ///< a tenant breaker tripped
  BreakerHalfOpen = 1,  ///< cooldown elapsed, probing
  BreakerClose = 2,     ///< probe (or in-flight work) succeeded
  BrownoutEnter = 3,    ///< degraded serving engaged
  BrownoutExit = 4,     ///< normal serving restored
  Recovery = 5,         ///< post-shrink republish on the survivor topology
};

const char* serve_event_name(ServeEventKind k);

struct ServeEvent {
  double t_ns = 0.0;
  ServeEventKind kind = ServeEventKind::BreakerOpen;
  std::int32_t tenant = -1;  ///< -1 = server-global
};

/// Token bucket on the modeled clock.  Each failed flush retry spends one
/// token per affected tenant; tokens refill at a modeled rate so a tenant
/// cannot convert a persistent fault into unbounded backend time.
class RetryBudget {
 public:
  RetryBudget() = default;
  RetryBudget(double capacity, double refill_per_s);

  /// True (and one token spent) if the budget allows a retry at `now_ns`.
  bool try_spend(double now_ns);
  double available(double now_ns);

 private:
  void refill(double now_ns);

  double cap_ = 0.0;
  double rate_per_ns_ = 0.0;
  double tokens_ = 0.0;
  double last_ns_ = 0.0;
};

/// Per-tenant circuit breaker: Closed -> Open after `trip_after`
/// consecutive flush failures, Open -> HalfOpen after `cooldown_ns` of
/// modeled time, HalfOpen admits a single probe whose outcome either
/// closes the breaker or re-trips it.  All transitions are driven by the
/// virtual clock, so they are bit-deterministic.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { Closed = 0, Open = 1, HalfOpen = 2 };

  CircuitBreaker() = default;
  CircuitBreaker(int trip_after, double cooldown_ns);

  State state() const { return state_; }

  /// Advance the cooldown: returns true on the Open -> HalfOpen edge.
  bool tick(double now_ns);
  /// May a request be admitted right now?  (HalfOpen: only the probe.)
  bool admit() const;
  /// Mark the HalfOpen probe as taken (call after real admission).
  void take_probe() { probe_out_ = true; }
  /// Returns true on the -> Closed edge.
  bool on_success();
  /// Returns true on the -> Open edge (a trip).
  bool on_failure(double now_ns);

 private:
  int trip_after_ = 0;  ///< 0 disables tripping
  double cooldown_ns_ = 0.0;
  State state_ = State::Closed;
  int consecutive_failures_ = 0;
  bool probe_out_ = false;
  double open_until_ns_ = 0.0;
};

/// Knobs for the overload/failure-resilience layer.  Disabled by default:
/// with enabled == false the server is byte-identical to the pre-resilience
/// behavior (FaultError propagates, deadlines are ignored, no mode logic).
struct ResilienceOptions {
  bool enabled = false;

  /// Per-tenant retry token bucket (modeled clock).
  double retry_tokens = 4.0;
  double retry_refill_per_s = 50.0;

  /// Breaker: consecutive failed flushes before tripping (0 = never), and
  /// the Open -> HalfOpen cooldown in modeled ns.
  int breaker_trip_after = 3;
  double breaker_cooldown_ns = 3e6;

  /// Brownout: serve Degraded answers from the previous epoch's cached
  /// results instead of shedding when the breaker is open or the coalescer
  /// backlog crosses `brownout_high` queued requests; exit below
  /// `brownout_low` (hysteresis keeps the mode flips deterministic).
  bool brownout = true;
  std::size_t brownout_high = 64;
  std::size_t brownout_low = 16;
};

}  // namespace pgraph::serve
