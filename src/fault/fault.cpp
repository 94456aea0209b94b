#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

namespace pgraph::fault {

namespace {

/// Per-fault-kind hash streams, so e.g. the drop draw of a message never
/// correlates with its duplicate draw.
enum Stream : std::uint64_t {
  kStreamDrop = 0x11,
  kStreamDup = 0x22,
  kStreamDelay = 0x33,
  kStreamCorrupt = 0x44,
  kStreamStraggle = 0x55,
  kStreamOutage = 0x66,
  kStreamLoss = 0x77,
  kStreamMemFlip = 0x88,
};

/// True iff kFaultCounterFields names each FaultCounters field once, under
/// its own key (every field is a uint64_t, so rows = fields).
constexpr bool counter_table_complete() {
  constexpr std::size_t n = std::size(kFaultCounterFields);
  if (n * sizeof(std::uint64_t) != sizeof(FaultCounters)) return false;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (kFaultCounterFields[i].member == kFaultCounterFields[j].member ||
          kFaultCounterFields[i].key == kFaultCounterFields[j].key)
        return false;
  return true;
}
static_assert(counter_table_complete(),
              "list every FaultCounters field once in kFaultCounterFields");

/// `v` as an `Int`, or throw: `v` must be integral and fit the type.
/// Checked before the cast, because converting an out-of-range double to
/// an integer type is undefined.
template <class Int>
Int integral(const std::string& key, double v) {
  const double lo = static_cast<double>(std::numeric_limits<Int>::min());
  // One past the maximum: 2^31 for int, 2^64 for uint64_t (both exact).
  const double end = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  if (v != std::trunc(v) || v < lo || v >= end)
    throw std::invalid_argument("faults: " + key +
                                " must be an integer that fits its field");
  return static_cast<Int>(v);
}

}  // namespace

std::uint64_t checksum_words(const void* p, std::size_t bytes) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  std::uint64_t sum = 0x3c79ac492ba7b653ull;
  std::size_t i = 0;
  std::uint64_t w = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::memcpy(&w, b + i, 8);
    sum = mix64(sum ^ mix64(w + i));
  }
  if (i < bytes) {
    w = 0;
    std::memcpy(&w, b + i, bytes - i);
    sum = mix64(sum ^ mix64(w + i));
  }
  return sum;
}

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::MsgDrop: return "msg-drop";
    case FaultKind::MsgDuplicate: return "msg-duplicate";
    case FaultKind::MsgDelay: return "msg-delay";
    case FaultKind::Corruption: return "corruption";
    case FaultKind::Straggler: return "straggler";
    case FaultKind::Outage: return "outage";
    case FaultKind::RetryExhausted: return "retry-exhausted";
    case FaultKind::PermanentLoss: return "permanent-loss";
    case FaultKind::MemoryCorrupt: return "memory-corrupt";
  }
  return "?";
}

double FaultConfig::backoff_ns_for(int attempt) const {
  double ns = retry_backoff_ns;
  for (int i = 0; i < attempt && ns < backoff_cap_ns; ++i) ns *= 2.0;
  return std::min(ns, backoff_cap_ns);
}

FaultConfig FaultConfig::parse(const std::string& spec, std::uint64_t seed) {
  FaultConfig cfg;
  cfg.seed = seed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("faults: expected key=value, got '" + item +
                                  "'");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    double v = 0.0;
    try {
      std::size_t used = 0;
      v = std::stod(val, &used);
      if (used != val.size()) throw std::invalid_argument(val);
    } catch (const std::exception&) {
      throw std::invalid_argument("faults: bad value for '" + key + "': '" +
                                  val + "'");
    }
    if (!std::isfinite(v))
      throw std::invalid_argument("faults: '" + key + "' must be finite");
    const auto prob = [&](double& out) {
      if (v < 0.0 || v > 1.0)
        throw std::invalid_argument("faults: probabilities must be in [0,1]");
      out = v;
    };
    // A negative duration would run the modeled clocks backwards, and the
    // retry waits are tallied as integer ns in a uint64_t counter.
    const auto duration = [&](double& out) {
      if (v < 0.0 || v >= 0x1p64)
        throw std::invalid_argument("faults: " + key +
                                    " must be in [0, 2^64)");
      out = v;
    };
    const auto flag = [&](bool& out) {
      if (v != 0.0 && v != 1.0)
        throw std::invalid_argument("faults: " + key + " must be 0 or 1");
      out = v != 0.0;
    };
    if (key == "drop") prob(cfg.drop_p);
    else if (key == "dup") prob(cfg.dup_p);
    else if (key == "delay") prob(cfg.delay_p);
    else if (key == "delay_ns") duration(cfg.delay_ns);
    else if (key == "corrupt") prob(cfg.corrupt_p);
    else if (key == "straggle") prob(cfg.straggle_p);
    else if (key == "straggle_ns") duration(cfg.straggle_ns);
    else if (key == "outage_every") {
      cfg.outage_every = integral<std::uint64_t>(key, v);
      // Period 1 leaves no room for a window shorter than its period.
      if (cfg.outage_every == 1)
        throw std::invalid_argument("faults: outage_every must be 0 or >= 2");
    }
    else if (key == "outage_k") cfg.outage_k = integral<int>(key, v);
    else if (key == "loss_at") cfg.loss_at = integral<std::uint64_t>(key, v);
    else if (key == "loss_node") {
      cfg.loss_node = integral<int>(key, v);
      if (cfg.loss_node < -1)
        throw std::invalid_argument("faults: loss_node must be >= -1");
    }
    else if (key == "mem_flip_at")
      cfg.mem_flip_at = integral<std::uint64_t>(key, v);
    else if (key == "mem_flips") {
      cfg.mem_flips = integral<int>(key, v);
      if (cfg.mem_flips < 0)
        throw std::invalid_argument("faults: mem_flips must be >= 0");
    }
    else if (key == "mem_flip_mirror") flag(cfg.mem_flip_mirror);
    else if (key == "retries") cfg.max_retries = integral<int>(key, v);
    else if (key == "timeout_ns") duration(cfg.ack_timeout_ns);
    else if (key == "backoff_ns") duration(cfg.retry_backoff_ns);
    else if (key == "cap_ns") duration(cfg.backoff_cap_ns);
    else if (key == "arm") flag(cfg.start_armed);
    else
      throw std::invalid_argument("faults: unknown key '" + key + "'");
  }
  if (cfg.outage_every > 0) {
    // A window must be shorter than its period or the node never recovers.
    const std::uint64_t longest = std::min<std::uint64_t>(
        cfg.outage_every - 1, std::numeric_limits<int>::max());
    cfg.outage_k =
        std::clamp<int>(cfg.outage_k, 1, static_cast<int>(longest));
  }
  if (cfg.loss_at == 0 && cfg.loss_node >= 0)
    throw std::invalid_argument(
        "faults: loss_node requires loss_at > 0");
  if (cfg.mem_flip_at == 0 && cfg.mem_flip_mirror)
    throw std::invalid_argument(
        "faults: mem_flip_mirror requires mem_flip_at > 0");
  cfg.max_retries = std::max(cfg.max_retries, 0);
  return cfg;
}

void FaultConfig::validate_topology(int nodes) const {
  if (outage_every > 0 && nodes < 2)
    throw std::invalid_argument(
        "faults: outage_* plans need at least 2 nodes (got " +
        std::to_string(nodes) + "); a 1-node outage can never recover");
  if (loss_at > 0 && nodes < 2)
    throw std::invalid_argument(
        "faults: loss_* plans need at least 2 nodes (got " +
        std::to_string(nodes) + "); there is no buddy to fail over to");
  if (loss_node >= nodes)
    throw std::invalid_argument(
        "faults: loss_node=" + std::to_string(loss_node) +
        " does not exist on " + std::to_string(nodes) + " node(s)");
}

std::uint64_t FaultInjector::draw(std::uint64_t stream, std::uint64_t a,
                                  std::uint64_t b, std::uint64_t c) const {
  std::uint64_t h = mix64(cfg_.seed ^ (stream << 56));
  h = mix64(h ^ a);
  h = mix64(h ^ b);
  h = mix64(h ^ c);
  return h;
}

int FaultInjector::down_node(int nodes, std::uint64_t epoch) const {
  if (!armed() || cfg_.outage_every == 0 || nodes <= 1) return -1;
  const std::uint64_t j = epoch / cfg_.outage_every;
  if (j == 0) return -1;  // warm-up period: no outage before one full cycle
  if (epoch % cfg_.outage_every >= static_cast<std::uint64_t>(cfg_.outage_k))
    return -1;
  return static_cast<int>(draw(kStreamOutage, j, 0, 0) %
                          static_cast<std::uint64_t>(nodes));
}

bool FaultInjector::outage_active(std::uint64_t epoch) const {
  if (!armed() || cfg_.outage_every == 0) return false;
  if (epoch / cfg_.outage_every == 0) return false;
  return epoch % cfg_.outage_every <
         static_cast<std::uint64_t>(cfg_.outage_k);
}

bool FaultInjector::outage_ends_at(std::uint64_t epoch) const {
  return outage_active(epoch) && !outage_active(epoch + 1);
}

int FaultInjector::perm_lost_node(int nodes, std::uint64_t epoch) const {
  if (!armed() || cfg_.loss_at == 0 || nodes <= 1 || epoch < cfg_.loss_at)
    return -1;
  if (cfg_.loss_node >= 0) return cfg_.loss_node % nodes;
  // Drawn once from the plan (keyed on loss_at, not epoch): the same node
  // is lost at every epoch >= loss_at.
  return static_cast<int>(draw(kStreamLoss, cfg_.loss_at, 0, 0) %
                          static_cast<std::uint64_t>(nodes));
}

std::uint64_t FaultInjector::mem_flip_word(std::uint64_t epoch, int k,
                                           int salt) const {
  return draw(kStreamMemFlip, epoch, static_cast<std::uint64_t>(k),
              static_cast<std::uint64_t>(salt));
}

void FaultInjector::apply_exchange(
    machine::ExchangePlan& plan, const std::vector<std::int32_t>& thread_node,
    int nodes, std::uint64_t epoch, int attempt, ExchangeFaults& out) {
  out.retry.clear();
  out.outage_drops = 0;
  if (!armed() || !cfg_.network_faults()) return;
  const int down = down_node(nodes, epoch);
  const int lost = perm_lost_node(nodes, epoch);
  const std::uint64_t att = static_cast<std::uint64_t>(attempt);
  // Mark message k of thread thr dropped (its sender still occupies the
  // NIC) and queue a clean copy of it for retransmission.
  const auto drop_and_retry = [&](std::size_t thr, std::size_t k,
                                  machine::ExchangeMsg m, Counter c) {
    m.dropped = true;
    plan[thr][k] = m;
    count(c);
    m.dropped = false;
    m.extra_delay_ns = 0.0;
    out.retry.emplace_back(thr, m);
  };
  for (std::size_t thr = 0; thr < plan.size(); ++thr) {
    auto& lst = plan[thr];
    const int src = thr < thread_node.size() ? thread_node[thr] : 0;
    const std::size_t base_n = lst.size();
    for (std::size_t k = 0; k < base_n; ++k) {
      machine::ExchangeMsg m = lst[k];
      const std::uint64_t actor = (static_cast<std::uint64_t>(thr) << 32) | k;
      if (lost >= 0 && (src == lost || m.dst_node == lost)) {
        // Unlike outage drops, loss drops ARE retried: the sender cannot
        // know the peer is gone for good, so it burns the full ack-timeout
        // + backoff ladder before the runtime declares the node lost and
        // shrinks (Runtime::on_barrier).
        drop_and_retry(thr, k, m, &FaultCounters::loss_drops);
        continue;
      }
      if (down >= 0 && (src == down || m.dst_node == down)) {
        m.dropped = true;
        lst[k] = m;
        ++out.outage_drops;
        count(&FaultCounters::outage_drops);
        continue;
      }
      if (cfg_.drop_p > 0.0 &&
          unit(draw(kStreamDrop, epoch, att, actor)) < cfg_.drop_p) {
        drop_and_retry(thr, k, m, &FaultCounters::drops);
        continue;
      }
      if (cfg_.delay_p > 0.0 &&
          unit(draw(kStreamDelay, epoch, att, actor)) < cfg_.delay_p) {
        m.extra_delay_ns += cfg_.delay_ns;
        count(&FaultCounters::delays);
      }
      lst[k] = m;
      if (cfg_.dup_p > 0.0 &&
          unit(draw(kStreamDup, epoch, att, actor)) < cfg_.dup_p) {
        // The duplicate burns send and receive NIC time; the payload is
        // idempotent (same shared-memory data), so nothing else changes.
        lst.push_back(m);
        count(&FaultCounters::duplicates);
      }
    }
  }
}

double FaultInjector::straggler_delay_ns(std::uint64_t epoch, int thread) {
  if (!armed() || cfg_.straggle_p <= 0.0) return 0.0;
  const std::uint64_t h =
      draw(kStreamStraggle, epoch, static_cast<std::uint64_t>(thread), 0);
  if (unit(h) >= cfg_.straggle_p) return 0.0;
  count(&FaultCounters::straggles);
  // 0.5x .. 1.5x of the configured magnitude, deterministically jittered.
  return cfg_.straggle_ns * (0.5 + unit(mix64(h)));
}

int FaultInjector::corrupt(void* buf, std::size_t bytes, std::uint64_t epoch,
                           int thread, int tag) {
  if (!armed() || cfg_.corrupt_p <= 0.0 || bytes < 8) return 0;
  const std::uint64_t h =
      draw(kStreamCorrupt, epoch,
           (static_cast<std::uint64_t>(thread) << 8) |
               static_cast<std::uint64_t>(tag & 0xff),
           bytes);
  if (unit(h) >= cfg_.corrupt_p) return 0;
  const std::size_t word = mix64(h ^ 0x5bd1e995u) % (bytes / 8);
  unsigned char* addr = static_cast<unsigned char*>(buf) + word * 8;
  std::uint64_t orig = 0;
  std::memcpy(&orig, addr, 8);
  // A nonzero mask guarantees the value (and the checksum) changes.
  const std::uint64_t flipped = orig ^ (mix64(h ^ 0xabcdULL) | 1ull);
  std::memcpy(addr, &flipped, 8);
  {
    std::lock_guard<std::mutex> lock(corrupt_mu_);
    corrupt_events_.push_back({addr, orig});
  }
  count(&FaultCounters::corruptions);
  return 1;
}

int FaultInjector::repair(void* buf, std::size_t bytes) {
  unsigned char* lo = static_cast<unsigned char*>(buf);
  unsigned char* hi = lo + bytes;
  int restored = 0;
  std::lock_guard<std::mutex> lock(corrupt_mu_);
  for (std::size_t i = 0; i < corrupt_events_.size();) {
    CorruptEvent& e = corrupt_events_[i];
    if (e.addr >= lo && e.addr < hi) {
      std::memcpy(e.addr, &e.original, 8);
      e = corrupt_events_.back();
      corrupt_events_.pop_back();
      ++restored;
    } else {
      ++i;
    }
  }
  if (restored > 0)
    count(&FaultCounters::repairs, static_cast<std::uint64_t>(restored));
  return restored;
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  for (const FaultCounterField& f : kFaultCounterFields)
    c.*f.member = count_of(f.member);
  return c;
}

void FaultInjector::reset_counters() {
  for (const FaultCounterField& f : kFaultCounterFields)
    slot(f.member).store(0);
  std::lock_guard<std::mutex> lock(corrupt_mu_);
  corrupt_events_.clear();
}

}  // namespace pgraph::fault
