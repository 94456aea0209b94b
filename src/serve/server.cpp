#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::serve {

namespace {

// Every per-kind branch of the server: the cache key, the QueryBatch
// column a request goes into, and the QueryResult column its answer comes
// back in.

/// A request's cache key: its vertex pair, or its vertex for a size query.
std::uint64_t cache_key(const Request& rq) {
  return rq.kind == QueryKind::SameComponent ? graph::pair_key(rq.u, rq.v)
                                             : rq.u;
}

std::size_t kind_index(QueryKind k) { return static_cast<std::size_t>(k); }

/// Append rq's query to `qb`; returns its position in its kind's column.
std::size_t push_query(stream::QueryBatch& qb, const Request& rq) {
  if (rq.kind == QueryKind::SameComponent) {
    qb.same_component.push_back({rq.u, rq.v});
    return qb.same_component.size() - 1;
  }
  qb.component_size.push_back(rq.u);
  return qb.component_size.size() - 1;
}

/// The answer at position `pos` of `kind`'s column of `res`.
std::uint64_t answer_at(const stream::QueryResult& res, QueryKind kind,
                        std::size_t pos) {
  return kind == QueryKind::SameComponent ? res.same[pos] : res.size[pos];
}

std::size_t queries_in(const stream::QueryBatch& qb) {
  return qb.same_component.size() + qb.component_size.size();
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
      if (brown && lookup_cached(r, o.epoch, &o.answer)) {
        o.status = Status::Ok;
        ++stats_.cache_hits;
        ++stats_.brownout_cache_ok;
        return settle_on_arrival(o, r.tenant);
      }
      if (ro.brownout && serve_degraded(r, o))
        return settle_on_arrival(o, r.tenant);
      if (!pass) {
        o.status = Status::Shed;
        o.shed_reason = ShedReason::BreakerOpen;
        return settle_on_arrival(o, r.tenant);
      }
      // Brownout but the breaker admits and nothing is cached: fall
      // through to normal admission so the request still gets a fresh
      // answer.
    }
  }

  if (inflight_[t] >= opt_.max_queue) {
    o.status = Status::Shed;
    o.shed_reason = ShedReason::QueueFull;
    return settle_on_arrival(o, r.tenant);
  }

  const std::size_t idx = outcomes_.size();
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
        settle(o, p.req.tenant);
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

    // One batch entry per key neither in this window nor in the store;
    // sched maps each such key to its position in its kind's column.
    stream::QueryBatch qb;
    qb.epoch = epoch;
    qb.scope = "serve.flush";
    std::array<std::unordered_map<std::uint64_t, std::size_t>, kQueryKinds>
        sched;
    for (std::size_t i : members) {
      const Request& rq = w.reqs[i].req;
      const std::size_t k = kind_index(rq.kind);
      const std::uint64_t key = cache_key(rq);
      if (sched[k].contains(key)) {
        ++stats_.coalesced;  // deduped against this window
        continue;
      }
      if (store.by_kind[k].contains(key)) {
        ++stats_.cache_hits;  // answered by an earlier flush on this epoch
        continue;
      }
      if (opt_.cache) ++stats_.cache_misses;
      sched[k].emplace(key, push_query(qb, rq));
    }

    bool ok = true;
    if (queries_in(qb) > 0) {
      for (;;) {
        try {
          const stream::QueryResult res = dg_.query(qb);
          service_ns += res.costs.modeled_ns;
          stats_.agg_ns += res.agg_ns;
          stats_.keys_sent += queries_in(qb);
          ++stats_.epoch_batches;
          for (std::size_t k = 0; k < kQueryKinds; ++k)
            for (const auto& [key, pos] : sched[k])
              store.by_kind[k][key] =
                  answer_at(res, static_cast<QueryKind>(k), pos);
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

    // Every key is in the store once the batch returned.  If the backend
    // gave up on this group, members whose key an earlier flush cached
    // still get exact answers, the previous epoch's cache serves the rest
    // Degraded, and only the remainder is shed (fast-fail, counted against
    // the breaker).
    for (std::size_t i : members) {
      const Request& rq = w.reqs[i].req;
      Outcome& o = outcomes_[w.reqs[i].idx];
      if (store.find(rq, &o.answer)) {
        o.status = Status::Ok;
      } else if (!(ro.brownout && serve_degraded(rq, o))) {
        assert(!ok);
        o.status = Status::Shed;
        o.shed_reason = ShedReason::BreakerOpen;
      }
    }
    if (ro.enabled) breaker_result(w, members, ok, start_ns + service_ns);

    if (ok && verify) {
      // Measurement-only cross-check: re-ask the runtime directly, one
      // entry per request (no dedup, no cache), and compare bit patterns.
      // Costs of the reference run are deliberately NOT charged to the
      // server's clock.
      stream::QueryBatch direct;
      direct.epoch = epoch;
      direct.scope = "serve.verify";
      std::vector<std::size_t> pos;
      for (std::size_t i : members)
        pos.push_back(push_query(direct, w.reqs[i].req));
      try {
        const stream::QueryResult ref = dg_.query(direct);
        for (std::size_t k = 0; k < members.size(); ++k) {
          const Pending& p = w.reqs[members[k]];
          if (outcomes_[p.idx].answer != answer_at(ref, p.req.kind, pos[k]))
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
    settle(o, p.req.tenant);
    if (o.status == Status::Ok && ro.enabled && p.req.deadline_ns > 0.0 &&
        done_ns > p.req.arrive_ns + p.req.deadline_ns)
      ++stats_.deadline_misses;
  }
  // The makespan runs to the end of every flush, whatever its members'
  // outcomes (the deadline sheds above never entered it).
  stats_.last_done_ns = std::max(stats_.last_done_ns, done_ns);
  if (ro.enabled) update_mode(done_ns);
}

void QueryServer::settle(const Outcome& o, std::int32_t tenant) {
  const auto t = static_cast<std::size_t>(tenant);
  TenantStats& ts = stats_.tenants[t];
  switch (o.status) {
    case Status::Ok:
      ++ts.completed;
      ++stats_.completed;
      lat_[t].push_back(o.latency_ns());
      break;
    case Status::Degraded:
      ++ts.degraded;
      ++stats_.degraded;
      break;
    case Status::StaleEpoch:
      ++ts.stale;
      ++stats_.stale;
      break;
    case Status::Shed:
      ++ts.shed;
      ++stats_.shed;
      switch (o.shed_reason) {
        case ShedReason::QueueFull: ++stats_.shed_queue_full; break;
        case ShedReason::BreakerOpen: ++stats_.shed_breaker_open; break;
        case ShedReason::DeadlineExpired: ++stats_.shed_deadline; break;
        case ShedReason::None: assert(!"shed without a reason"); break;
      }
      break;
    case Status::Pending:
      assert(!"settling an unfinished request");
      break;
  }
  if (o.status == Status::Ok || o.status == Status::Degraded)
    stats_.last_done_ns = std::max(stats_.last_done_ns, o.done_ns);
}

std::size_t QueryServer::settle_on_arrival(Outcome& o, std::int32_t tenant) {
  o.start_ns = o.done_ns = o.arrive_ns;
  settle(o, tenant);
  outcomes_.push_back(o);
  return outcomes_.size() - 1;
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

bool QueryServer::EpochCache::find(const Request& rq,
                                   std::uint64_t* answer) const {
  const auto& cached = by_kind[kind_index(rq.kind)];
  const auto it = cached.find(cache_key(rq));
  if (it == cached.end()) return false;
  *answer = it->second;
  return true;
}

bool QueryServer::lookup_cached(const Request& rq, std::uint64_t epoch,
                                std::uint64_t* answer) const {
  if (!opt_.cache) return false;
  const auto ce = cache_.find(epoch);
  return ce != cache_.end() && ce->second.find(rq, answer);
}

bool QueryServer::serve_degraded(const Request& rq, Outcome& o) const {
  // The ring keeps exactly one older epoch (kEpochRing == 2), so the
  // staleness of a Degraded answer is bounded by one publish.  The cache
  // map is pruned at ring eviction, so a hit implies the epoch is still
  // retained.
  if (o.epoch == 0 || !lookup_cached(rq, o.epoch - 1, &o.answer))
    return false;
  o.status = Status::Degraded;
  --o.epoch;
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
