#include "serve/server.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::serve {

namespace {

/// A request's cache key: its vertex pair, or its vertex for a size query.
std::uint64_t cache_key(const Request& rq) {
  return rq.kind == QueryKind::SameComponent ? graph::pair_key(rq.u, rq.v)
                                             : rq.u;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q / 100.0 * static_cast<double>(sorted.size());
  std::size_t i =
      pos <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(pos)) - 1;
  i = std::min(i, sorted.size() - 1);
  return sorted[i];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

QueryServer::QueryServer(stream::DynamicGraph& dg, int tenants,
                         ServerOptions opt)
    : dg_(dg), opt_(opt), tenants_(tenants) {
  if (tenants <= 0)
    throw std::invalid_argument("QueryServer: need tenants >= 1");
  if (opt_.max_batch == 0)
    throw std::invalid_argument("QueryServer: need max_batch >= 1");
  if (opt_.max_queue == 0)
    throw std::invalid_argument("QueryServer: need max_queue >= 1");
  if (opt_.window_ns < 0.0)
    throw std::invalid_argument("QueryServer: need window_ns >= 0");
  inflight_.assign(static_cast<std::size_t>(tenants), 0);
  lat_.assign(static_cast<std::size_t>(tenants), {});
  stats_.tenants.assign(static_cast<std::size_t>(tenants), {});
  stats_.first_arrival_ns = std::numeric_limits<double>::infinity();

  const ResilienceOptions& ro = opt_.resilience;
  if (ro.enabled) {
    if (ro.brownout && ro.brownout_low > ro.brownout_high)
      throw std::invalid_argument(
          "QueryServer: need brownout_low <= brownout_high");
    breakers_.assign(
        static_cast<std::size_t>(tenants),
        CircuitBreaker(ro.breaker_trip_after, ro.breaker_cooldown_ns));
    budgets_.assign(static_cast<std::size_t>(tenants),
                    RetryBudget(ro.retry_tokens, ro.retry_refill_per_s));
  }
  // Losses the DynamicGraph already absorbed (construction, earlier
  // batches) are not ours to recover from.
  seen_shrinks_ = dg_.runtime().topo().shrinks;
}

std::size_t QueryServer::offer(const Request& r) {
  if (finished_) throw std::logic_error("QueryServer: offer after finish");
  if (r.tenant < 0 || r.tenant >= tenants_)
    throw std::out_of_range("QueryServer: tenant id out of range");
  drain(r.arrive_ns);

  const auto t = static_cast<std::size_t>(r.tenant);
  const std::size_t idx = outcomes_.size();
  Outcome o;
  o.arrive_ns = r.arrive_ns;
  // kLatest binds at admission: the session observes whatever epoch is
  // published when its request arrives, even if the flush serving it runs
  // after a later publish.
  o.epoch = r.epoch == stream::QueryBatch::kLatest ? dg_.latest_epoch()
                                                   : r.epoch;
  ++stats_.tenants[t].offered;
  ++stats_.offered;
  stats_.first_arrival_ns = std::min(stats_.first_arrival_ns, r.arrive_ns);

  const ResilienceOptions& ro = opt_.resilience;
  if (ro.enabled) {
    CircuitBreaker& cb = breakers_[t];
    if (cb.tick(r.arrive_ns)) {
      ++stats_.breaker_half_opens;
      note_event(ServeEventKind::BreakerHalfOpen, r.arrive_ns, r.tenant);
    }
    const bool pass = cb.admit();
    const bool brown = ro.brownout && mode_ == Mode::Brownout;
    // A HalfOpen breaker's probe must reach the real backend — serving it
    // from cache would never test recovery and the breaker could stay
    // half-open forever.
    const bool probing =
        pass && cb.state() == CircuitBreaker::State::HalfOpen;
    if ((!pass || brown) && !probing) {
      // Degraded fast paths: answer instantly (zero backend cost, no
      // queue slot) instead of queuing into a saturated or broken
      // backend.  Fresh-epoch cache hits stay Ok; previous-epoch hits
      // are Degraded (staleness bound: exactly one epoch).
      std::uint64_t ans = 0;
      std::uint64_t from = 0;
      if (brown && lookup_cached(r, o.epoch, &ans)) {
        o.status = Status::Ok;
        o.answer = ans;
        o.start_ns = o.done_ns = r.arrive_ns;
        ++stats_.cache_hits;
        ++stats_.brownout_cache_ok;
        ++stats_.tenants[t].completed;
        ++stats_.completed;
        lat_[t].push_back(0.0);
        stats_.last_done_ns = std::max(stats_.last_done_ns, r.arrive_ns);
        outcomes_.push_back(o);
        return idx;
      }
      if (ro.brownout && lookup_degraded(r, o.epoch, &ans, &from)) {
        o.status = Status::Degraded;
        o.answer = ans;
        o.epoch = from;
        o.start_ns = o.done_ns = r.arrive_ns;
        ++stats_.tenants[t].degraded;
        ++stats_.degraded;
        stats_.last_done_ns = std::max(stats_.last_done_ns, r.arrive_ns);
        outcomes_.push_back(o);
        return idx;
      }
      if (!pass) {
        o.status = Status::Shed;
        o.shed_reason = ShedReason::BreakerOpen;
        o.start_ns = o.done_ns = r.arrive_ns;
        ++stats_.tenants[t].shed;
        ++stats_.shed;
        ++stats_.shed_breaker_open;
        outcomes_.push_back(o);
        return idx;
      }
      // Brownout but the breaker admits and nothing is cached: fall
      // through to normal admission so the request still gets a fresh
      // answer.
    }
  }

  if (inflight_[t] >= opt_.max_queue) {
    o.status = Status::Shed;
    o.shed_reason = ShedReason::QueueFull;
    o.start_ns = o.done_ns = r.arrive_ns;
    ++stats_.tenants[t].shed;
    ++stats_.shed;
    ++stats_.shed_queue_full;
    outcomes_.push_back(o);
    return idx;
  }

  ++inflight_[t];
  ++queued_reqs_;
  if (ro.enabled &&
      breakers_[t].state() == CircuitBreaker::State::HalfOpen)
    breakers_[t].take_probe();
  Pending p;
  p.req = r;
  p.req.epoch = o.epoch;
  p.idx = idx;
  if (!open_) {
    open_.emplace();
    open_->open_ns = r.arrive_ns;
    open_->close_ns = r.arrive_ns + opt_.window_ns;
  }
  // A flush's budget is the min over its members: the window must close
  // in time for its tightest deadline to still be serviceable.
  if (ro.enabled && r.deadline_ns > 0.0)
    open_->close_ns = std::min(open_->close_ns, r.arrive_ns + r.deadline_ns);
  open_->reqs.push_back(std::move(p));
  outcomes_.push_back(o);
  if (open_->reqs.size() >= opt_.max_batch || opt_.window_ns <= 0.0)
    close_open(r.arrive_ns);
  if (ro.enabled) update_mode(r.arrive_ns);
  return idx;
}

void QueryServer::close_open(double ready_ns) {
  open_->close_ns = ready_ns;
  queue_.push_back(std::move(*open_));
  open_.reset();
}

void QueryServer::drain(double t) {
  for (;;) {
    if (!retire_.empty() && retire_.front().first <= t) {
      const auto tenant = static_cast<std::size_t>(retire_.front().second);
      assert(inflight_[tenant] > 0);
      --inflight_[tenant];
      retire_.pop_front();
      continue;
    }
    if (open_ && open_->close_ns <= t) {
      close_open(open_->close_ns);
      continue;
    }
    if (!queue_.empty()) {
      const double start =
          std::max(server_free_ns_, queue_.front().close_ns);
      if (start <= t) {
        Window w = std::move(queue_.front());
        queue_.pop_front();
        execute_flush(w, start);
        continue;
      }
    }
    break;
  }
}

void QueryServer::execute_flush(Window& w, double start_ns) {
  ++stats_.flushes;
  assert(queued_reqs_ >= w.reqs.size());
  queued_reqs_ -= w.reqs.size();
  const ResilienceOptions& ro = opt_.resilience;
  const bool verify =
      opt_.verify_every > 0 && stats_.flushes % opt_.verify_every == 0;

  if (ro.enabled) {
    // Deadline enforcement at the service boundary: a member whose
    // budget ran out while it waited is shed here, before it can occupy
    // backend time, and retires immediately at the flush start.
    std::vector<Pending> alive;
    alive.reserve(w.reqs.size());
    for (Pending& p : w.reqs) {
      if (p.req.deadline_ns > 0.0 &&
          p.req.arrive_ns + p.req.deadline_ns <= start_ns) {
        Outcome& o = outcomes_[p.idx];
        o.status = Status::Shed;
        o.shed_reason = ShedReason::DeadlineExpired;
        o.start_ns = o.done_ns = start_ns;
        retire_.push_back({start_ns, p.req.tenant});
        const auto t = static_cast<std::size_t>(p.req.tenant);
        ++stats_.tenants[t].shed;
        ++stats_.shed;
        ++stats_.shed_deadline;
      } else {
        alive.push_back(std::move(p));
      }
    }
    w.reqs = std::move(alive);
    if (w.reqs.empty()) {
      update_mode(start_ns);
      return;
    }
  }

  // Group the window's requests by resolved epoch (first-appearance
  // order): each still-published epoch becomes one coalesced QueryBatch,
  // evicted epochs resolve to clean StaleEpoch outcomes without touching
  // the runtime.
  std::vector<std::pair<std::uint64_t, std::vector<std::size_t>>> groups;
  for (std::size_t i = 0; i < w.reqs.size(); ++i) {
    const std::uint64_t e = w.reqs[i].req.epoch;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == e; });
    if (it == groups.end()) {
      groups.push_back({e, {}});
      it = std::prev(groups.end());
    }
    it->second.push_back(i);
  }

  double service_ns = 0.0;
  for (auto& [epoch, members] : groups) {
    if (!dg_.has_epoch(epoch)) {
      for (std::size_t i : members)
        outcomes_[w.reqs[i].idx].status = Status::StaleEpoch;
      continue;
    }
    // `store` is the persistent per-epoch cache when enabled, or a
    // flush-local scratch otherwise — either way it is what dedups keys
    // and resolves every member after the batch returns.
    EpochCache local;
    EpochCache& store = opt_.cache ? cache_[epoch] : local;

    std::vector<std::pair<graph::VertexId, graph::VertexId>> same_q;
    std::vector<graph::VertexId> size_q;
    std::unordered_map<std::uint64_t, std::size_t> same_sched, size_sched;
    for (std::size_t i : members) {
      const Request& rq = w.reqs[i].req;
      const bool is_same = rq.kind == QueryKind::SameComponent;
      auto& sched = is_same ? same_sched : size_sched;
      auto& cached = is_same ? store.same : store.size;
      const std::uint64_t key = cache_key(rq);
      if (sched.count(key) != 0) {
        ++stats_.coalesced;  // deduped against this window
        continue;
      }
      if (cached.count(key) != 0) {
        ++stats_.cache_hits;  // answered by an earlier flush on this epoch
        continue;
      }
      if (opt_.cache) ++stats_.cache_misses;
      sched.emplace(key, is_same ? same_q.size() : size_q.size());
      if (is_same)
        same_q.push_back({rq.u, rq.v});
      else
        size_q.push_back(rq.u);
    }

    bool ok = true;
    if (!same_q.empty() || !size_q.empty()) {
      stream::QueryBatch qb;
      qb.epoch = epoch;
      qb.scope = "serve.flush";
      qb.same_component = std::move(same_q);
      qb.component_size = std::move(size_q);
      for (;;) {
        try {
          const stream::QueryResult res = dg_.query(qb);
          service_ns += res.costs.modeled_ns;
          stats_.agg_ns += res.agg_ns;
          stats_.keys_sent +=
              qb.same_component.size() + qb.component_size.size();
          ++stats_.epoch_batches;
          for (const auto& [key, pos] : same_sched)
            store.same[key] = res.same[pos];
          for (const auto& [key, pos] : size_sched)
            store.size[key] = res.size[pos];
          if (ro.enabled) poll_recovery(start_ns + service_ns, &service_ns);
          break;
        } catch (const fault::FaultError&) {
          // Without resilience a FaultError escapes and tears the serving
          // loop down, as the pre-resilience server did.
          if (!ro.enabled) throw;
          // Charge the failed attempt its honest cost (the runtime's
          // clock covers the burned retry ladder and timeouts), then
          // retry on the — possibly shrunken — topology while every
          // member tenant's budget allows.
          const double burned = dg_.runtime().modeled_time_ns();
          service_ns += burned;
          stats_.failed_ns += burned;
          ++stats_.flush_failures;
          poll_recovery(start_ns + service_ns, &service_ns);
          if (spend_retry_tokens(w, members, start_ns + service_ns)) {
            ++stats_.flush_retries;
            continue;
          }
          ok = false;
          break;
        }
      }
    }

    if (ok) {
      for (std::size_t i : members) {
        const Request& rq = w.reqs[i].req;
        Outcome& o = outcomes_[w.reqs[i].idx];
        const bool is_same = rq.kind == QueryKind::SameComponent;
        const std::uint64_t key = cache_key(rq);
        o.status = Status::Ok;
        o.answer = is_same ? store.same.at(key) : store.size.at(key);
      }
      if (ro.enabled) breaker_result(w, members, true, start_ns + service_ns);
    } else {
      // The backend gave up on this group: members whose key an earlier
      // flush already cached still get exact answers; the previous
      // epoch's cache serves the rest Degraded; only the remainder is
      // shed (fast-fail, counted against the breaker).
      for (std::size_t i : members) {
        const Request& rq = w.reqs[i].req;
        Outcome& o = outcomes_[w.reqs[i].idx];
        const bool is_same = rq.kind == QueryKind::SameComponent;
        const std::uint64_t key = cache_key(rq);
        const auto& cached = is_same ? store.same : store.size;
        const auto it = cached.find(key);
        std::uint64_t ans = 0;
        std::uint64_t from = 0;
        if (it != cached.end()) {
          o.status = Status::Ok;
          o.answer = it->second;
        } else if (ro.brownout && lookup_degraded(rq, epoch, &ans, &from)) {
          o.status = Status::Degraded;
          o.answer = ans;
          o.epoch = from;
        } else {
          o.status = Status::Shed;
          o.shed_reason = ShedReason::BreakerOpen;
        }
      }
      breaker_result(w, members, false, start_ns + service_ns);
    }

    if (ok && verify) {
      // Measurement-only cross-check: re-ask the runtime directly, one
      // entry per request (no dedup, no cache), and compare bit patterns.
      // Costs of the reference run are deliberately NOT charged to the
      // server's clock.
      stream::QueryBatch direct;
      direct.epoch = epoch;
      direct.scope = "serve.verify";
      std::vector<std::pair<bool, std::size_t>> where;
      for (std::size_t i : members) {
        const Request& rq = w.reqs[i].req;
        if (rq.kind == QueryKind::SameComponent) {
          where.emplace_back(true, direct.same_component.size());
          direct.same_component.push_back({rq.u, rq.v});
        } else {
          where.emplace_back(false, direct.component_size.size());
          direct.component_size.push_back(rq.u);
        }
      }
      try {
        const stream::QueryResult ref = dg_.query(direct);
        for (std::size_t k = 0; k < members.size(); ++k) {
          const std::uint64_t want =
              where[k].first
                  ? static_cast<std::uint64_t>(ref.same[where[k].second])
                  : ref.size[where[k].second];
          if (outcomes_[w.reqs[members[k]].idx].answer != want)
            ++stats_.verify_mismatches;
        }
      } catch (const fault::FaultError&) {
        // The reference probe is uncharged and advisory; with resilience
        // on, a faulted probe is simply skipped.
        if (!ro.enabled) throw;
      }
    }
  }

  const double done_ns = start_ns + service_ns;
  server_free_ns_ = done_ns;
  stats_.service_ns += service_ns;
  for (const Pending& p : w.reqs) {
    Outcome& o = outcomes_[p.idx];
    o.start_ns = start_ns;
    o.done_ns = done_ns;
    retire_.push_back({done_ns, p.req.tenant});
    const auto t = static_cast<std::size_t>(p.req.tenant);
    switch (o.status) {
      case Status::StaleEpoch:
        ++stats_.tenants[t].stale;
        ++stats_.stale;
        break;
      case Status::Degraded:
        ++stats_.tenants[t].degraded;
        ++stats_.degraded;
        break;
      case Status::Shed:
        ++stats_.tenants[t].shed;
        ++stats_.shed;
        ++stats_.shed_breaker_open;
        break;
      default:
        ++stats_.tenants[t].completed;
        ++stats_.completed;
        lat_[t].push_back(o.latency_ns());
        if (opt_.resilience.enabled && p.req.deadline_ns > 0.0 &&
            done_ns > p.req.arrive_ns + p.req.deadline_ns)
          ++stats_.deadline_misses;
        break;
    }
    stats_.last_done_ns = std::max(stats_.last_done_ns, done_ns);
  }
  if (ro.enabled) update_mode(done_ns);
}

void QueryServer::note_event(ServeEventKind kind, double t_ns,
                             std::int32_t tenant) {
  ServeEvent e;
  e.t_ns = t_ns;
  e.kind = kind;
  e.tenant = tenant;
  stats_.events.push_back(e);
}

void QueryServer::update_mode(double now_ns) {
  const ResilienceOptions& ro = opt_.resilience;
  if (!ro.enabled || !ro.brownout) return;
  if (mode_ == Mode::Normal) {
    if (open_breakers_ > 0 || queued_reqs_ >= ro.brownout_high) {
      mode_ = Mode::Brownout;
      ++stats_.brownout_enters;
      note_event(ServeEventKind::BrownoutEnter, now_ns, -1);
    }
  } else {
    if (open_breakers_ == 0 && queued_reqs_ <= ro.brownout_low) {
      mode_ = Mode::Normal;
      ++stats_.brownout_exits;
      note_event(ServeEventKind::BrownoutExit, now_ns, -1);
    }
  }
}

bool QueryServer::lookup_cached(const Request& rq, std::uint64_t epoch,
                                std::uint64_t* answer) const {
  if (!opt_.cache) return false;
  const auto ce = cache_.find(epoch);
  if (ce == cache_.end()) return false;
  const bool is_same = rq.kind == QueryKind::SameComponent;
  const auto& m = ce->second;
  const auto& cached = is_same ? m.same : m.size;
  const auto it = cached.find(cache_key(rq));
  if (it == cached.end()) return false;
  *answer = it->second;
  return true;
}

bool QueryServer::lookup_degraded(const Request& rq, std::uint64_t epoch,
                                  std::uint64_t* answer,
                                  std::uint64_t* from) const {
  // The ring keeps exactly one older epoch (kEpochRing == 2), so the
  // staleness of a Degraded answer is bounded by one publish.  The cache
  // map is pruned at ring eviction, so a hit implies the epoch is still
  // retained.
  if (epoch == 0) return false;
  if (!lookup_cached(rq, epoch - 1, answer)) return false;
  *from = epoch - 1;
  return true;
}

std::vector<std::int32_t> QueryServer::tenants_of(
    const Window& w, const std::vector<std::size_t>& members) {
  std::vector<std::int32_t> tenants;
  for (std::size_t i : members) {
    const std::int32_t t = w.reqs[i].req.tenant;
    if (std::find(tenants.begin(), tenants.end(), t) == tenants.end())
      tenants.push_back(t);
  }
  return tenants;
}

void QueryServer::breaker_result(const Window& w,
                                 const std::vector<std::size_t>& members,
                                 bool ok, double now_ns) {
  for (std::int32_t t : tenants_of(w, members)) {
    CircuitBreaker& cb = breakers_[static_cast<std::size_t>(t)];
    const bool was_closed = cb.state() == CircuitBreaker::State::Closed;
    if (ok) {
      if (cb.on_success()) {
        ++stats_.breaker_closes;
        --open_breakers_;
        note_event(ServeEventKind::BreakerClose, now_ns, t);
      }
    } else if (cb.on_failure(now_ns)) {
      ++stats_.breaker_trips;
      if (was_closed) ++open_breakers_;
      note_event(ServeEventKind::BreakerOpen, now_ns, t);
    }
  }
}

bool QueryServer::spend_retry_tokens(const Window& w,
                                     const std::vector<std::size_t>& members,
                                     double now_ns) {
  const std::vector<std::int32_t> tenants = tenants_of(w, members);
  // All-or-nothing: a retry serves the whole coalesced group, so every
  // member tenant must contribute a token.
  for (std::int32_t t : tenants) {
    if (budgets_[static_cast<std::size_t>(t)].available(now_ns) < 1.0) {
      ++stats_.retry_denied;
      return false;
    }
  }
  for (std::int32_t t : tenants)
    budgets_[static_cast<std::size_t>(t)].try_spend(now_ns);
  return true;
}

void QueryServer::poll_recovery(double now_ns, double* service_ns) {
  const int shrinks = dg_.runtime().topo().shrinks;
  if (shrinks == seen_shrinks_) return;
  seen_shrinks_ = shrinks;
  // A node was permanently lost and the topology shrank: republish the
  // current epoch on the survivor topology (refreshing the ring slot and
  // the buddy mirrors) before the next flush, charging the cost like any
  // other backend work.
  double spent = 0.0;
  try {
    const stream::BatchStats st = dg_.republish();
    spent = st.total_modeled_ns();
  } catch (const fault::FaultError&) {
    // Even the recovery publish can hit the fault plan; charge what was
    // burned and let the next flush's retry loop carry on.
    spent = dg_.runtime().modeled_time_ns();
  }
  *service_ns += spent;
  stats_.recovery_ns += spent;
  ++stats_.recoveries;
  note_event(ServeEventKind::Recovery, now_ns + spent, -1);
}

stream::BatchStats QueryServer::publish(
    double at_ns, std::span<const graph::EdgeUpdate> ops) {
  if (finished_) throw std::logic_error("QueryServer: publish after finish");
  drain(at_ns);
  const stream::BatchStats st = dg_.apply_batch(ops);
  server_free_ns_ =
      std::max(server_free_ns_, at_ns) + st.total_modeled_ns();
  stats_.publish_ns += st.total_modeled_ns();
  ++stats_.publishes;
  invalidate_evicted();
  // apply_batch recovers from a shrink internally (publish_recover), so
  // fold any loss it absorbed into the seen baseline rather than
  // republishing a second time.
  seen_shrinks_ = dg_.runtime().topo().shrinks;
  if (opt_.resilience.enabled) update_mode(server_free_ns_);
  return st;
}

void QueryServer::invalidate_evicted() {
  std::size_t dropped = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (!dg_.has_epoch(it->first)) {
      dropped += it->second.entries();
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.cache_invalidated += dropped;
  if (dropped > 0) ++stats_.invalidation_events;
}

ServeStats QueryServer::finish() {
  if (!finished_) {
    finished_ = true;
    drain(std::numeric_limits<double>::infinity());
    assert(!open_ && queue_.empty());

    std::vector<double> all;
    all.reserve(stats_.completed);
    for (int t = 0; t < tenants_; ++t) {
      auto& v = lat_[static_cast<std::size_t>(t)];
      std::sort(v.begin(), v.end());
      TenantStats& ts = stats_.tenants[static_cast<std::size_t>(t)];
      ts.p50_ns = percentile(v, 50.0);
      ts.p95_ns = percentile(v, 95.0);
      ts.p99_ns = percentile(v, 99.0);
      ts.mean_ns = mean(v);
      all.insert(all.end(), v.begin(), v.end());
    }
    std::sort(all.begin(), all.end());
    stats_.p50_ns = percentile(all, 50.0);
    stats_.p95_ns = percentile(all, 95.0);
    stats_.p99_ns = percentile(all, 99.0);
    stats_.mean_ns = mean(all);

    double qsum = 0.0;
    std::size_t qn = 0;
    for (const Outcome& o : outcomes_) {
      if (o.status != Status::Ok) continue;
      qsum += o.queue_ns();
      ++qn;
    }
    stats_.mean_queue_ns = qn > 0 ? qsum / static_cast<double>(qn) : 0.0;

    if (stats_.offered == 0) stats_.first_arrival_ns = 0.0;
    stats_.makespan_ns =
        std::max(0.0, stats_.last_done_ns - stats_.first_arrival_ns);
    stats_.throughput_rps =
        stats_.makespan_ns > 0.0
            ? static_cast<double>(stats_.completed) / stats_.makespan_ns *
                  1e9
            : 0.0;
  }
  return stats_;
}

}  // namespace pgraph::serve
