#include "serve/resilience.hpp"

#include <algorithm>
#include <stdexcept>

namespace pgraph::serve {

const char* serve_event_name(ServeEventKind k) {
  switch (k) {
    case ServeEventKind::BreakerOpen: return "breaker-open";
    case ServeEventKind::BreakerHalfOpen: return "breaker-half-open";
    case ServeEventKind::BreakerClose: return "breaker-close";
    case ServeEventKind::BrownoutEnter: return "brownout-enter";
    case ServeEventKind::BrownoutExit: return "brownout-exit";
    case ServeEventKind::Recovery: return "recovery";
  }
  return "?";
}

RetryBudget::RetryBudget(double capacity, double refill_per_s)
    : cap_(capacity), rate_per_ns_(refill_per_s / 1e9), tokens_(capacity) {
  if (capacity < 0.0)
    throw std::invalid_argument("RetryBudget: need capacity >= 0");
  if (refill_per_s < 0.0)
    throw std::invalid_argument("RetryBudget: need refill_per_s >= 0");
}

void RetryBudget::refill(double now_ns) {
  if (now_ns > last_ns_) {
    tokens_ = std::min(cap_, tokens_ + (now_ns - last_ns_) * rate_per_ns_);
    last_ns_ = now_ns;
  }
}

bool RetryBudget::try_spend(double now_ns) {
  refill(now_ns);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double RetryBudget::available(double now_ns) {
  refill(now_ns);
  return tokens_;
}

CircuitBreaker::CircuitBreaker(int trip_after, double cooldown_ns)
    : trip_after_(trip_after), cooldown_ns_(cooldown_ns) {
  if (trip_after < 0)
    throw std::invalid_argument("CircuitBreaker: need trip_after >= 0");
  if (cooldown_ns < 0.0)
    throw std::invalid_argument("CircuitBreaker: need cooldown_ns >= 0");
}

bool CircuitBreaker::tick(double now_ns) {
  if (state_ == State::Open && now_ns >= open_until_ns_) {
    state_ = State::HalfOpen;
    probe_out_ = false;
    return true;
  }
  return false;
}

bool CircuitBreaker::admit() const {
  switch (state_) {
    case State::Closed: return true;
    case State::Open: return false;
    case State::HalfOpen: return !probe_out_;
  }
  return true;
}

bool CircuitBreaker::on_success() {
  probe_out_ = false;
  consecutive_failures_ = 0;
  if (state_ != State::Closed) {
    state_ = State::Closed;
    return true;
  }
  return false;
}

bool CircuitBreaker::on_failure(double now_ns) {
  probe_out_ = false;
  ++consecutive_failures_;
  if (state_ == State::HalfOpen ||
      (state_ == State::Closed && trip_after_ > 0 &&
       consecutive_failures_ >= trip_after_)) {
    state_ = State::Open;
    open_until_ns_ = now_ns + cooldown_ns_;
    return true;
  }
  if (state_ == State::Open) open_until_ns_ = now_ns + cooldown_ns_;
  return false;
}

}  // namespace pgraph::serve
