#include "analysis/conformance.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace pgraph::analysis {

namespace {

// Stored-violation cap: a divergent loop can trip once per barrier for
// thousands of barriers; keep the first kMaxStored diagnostics and count
// the rest.
constexpr std::size_t kMaxStored = 256;
// Per-thread cells are preallocated so hook paths never resize shared
// storage while SPMD threads are running.
constexpr std::size_t kMaxThreads = 1024;
// Recent-call-history ring length per thread (survives epochs, so a
// divergence diagnostic can show what each thread did leading up to it).
constexpr std::size_t kHistory = 8;

struct SeqEntry {
  std::uint32_t site = 0;
  std::uint64_t arg_sig = 0;
};

struct alignas(64) ThreadCell {
  // Plain (non-atomic) on purpose: each cell is written only by its own
  // SPMD thread between barriers and read/reset only inside the barrier
  // completion step (or host-side begin_run), which the runtime's barrier
  // (or run()'s hand-off to the worker threads) orders against both sides.
  std::vector<SeqEntry> seq;  ///< this epoch's collective fingerprint
  std::array<std::uint32_t, kHistory> hist{};
  std::size_t hist_len = 0;
  std::size_t hist_pos = 0;
  std::uint8_t barrier_kind = 0;  ///< 0 none, 1 plain, 2 exchange
  machine::PhaseStats ledger;     ///< mirror of every charge, same order
};

struct Site {
  CollOp op = CollOp::GetD;
  std::string tag;
};

struct VerifierState {
  std::mutex mu;  // guards stored, sites
  std::vector<ConformanceViolation> stored;
  std::atomic<std::size_t> total{0};
  std::vector<Site> sites;
  std::array<ThreadCell, kMaxThreads> cells{};
};

VerifierState& state() {
  static VerifierState s;
  return s;
}

const char* barrier_kind_name(std::uint8_t k) {
  switch (k) {
    case 1:
      return "barrier";
    case 2:
      return "exchange-barrier";
    default:
      return "none";
  }
}

}  // namespace

const char* to_string(CollOp op) {
  switch (op) {
    case CollOp::GetD:
      return "getd";
    case CollOp::SetD:
      return "setd";
    case CollOp::SetDMin:
      return "setd_min";
    case CollOp::SetDAdd:
      return "setd_add";
    case CollOp::Replicate:
      return "replicate";
  }
  return "?";
}

const char* to_string(ConformanceClass c) {
  switch (c) {
    case ConformanceClass::SequenceDivergence:
      return "sequence-divergence";
    case ConformanceClass::ArgumentMismatch:
      return "argument-mismatch";
    case ConformanceClass::LedgerImbalance:
      return "ledger-imbalance";
  }
  return "?";
}

ConformanceVerifier::ConformanceVerifier() = default;

ConformanceVerifier& ConformanceVerifier::instance() {
  static ConformanceVerifier v;
  return v;
}

void ConformanceVerifier::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  // A mid-life toggle desynchronizes the ledger mirror from the actual
  // stats; invalidate it until the next begin_run re-baselines.
  ledger_active_.store(false, std::memory_order_relaxed);
}

std::uint32_t ConformanceVerifier::site_id(CollOp op, const char* tag) {
  auto& s = state();
  const std::string t = tag != nullptr ? tag : "";
  std::lock_guard<std::mutex> lk(s.mu);
  for (std::size_t i = 0; i < s.sites.size(); ++i)
    if (s.sites[i].op == op && s.sites[i].tag == t)
      return static_cast<std::uint32_t>(i);
  s.sites.push_back(Site{op, t});
  return static_cast<std::uint32_t>(s.sites.size() - 1);
}

std::string ConformanceVerifier::site_name(std::uint32_t id) const {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (id >= s.sites.size()) return "site#" + std::to_string(id);
  const Site& site = s.sites[id];
  return site.tag.empty() ? std::string(to_string(site.op))
                          : std::string(to_string(site.op)) + "@" + site.tag;
}

void ConformanceVerifier::note_collective(int thread, std::uint32_t site,
                                          std::uint64_t arg_sig) {
  if (!enabled()) return;
  const auto t = static_cast<std::size_t>(thread);
  if (t >= kMaxThreads) return;
  ThreadCell& c = state().cells[t];
  c.seq.push_back(SeqEntry{site, arg_sig});
  c.hist[c.hist_pos] = site;
  c.hist_pos = (c.hist_pos + 1) % kHistory;
  c.hist_len = std::min(c.hist_len + 1, kHistory);
}

void ConformanceVerifier::note_barrier(int thread, bool exchange) {
  if (!enabled()) return;
  const auto t = static_cast<std::size_t>(thread);
  if (t >= kMaxThreads) return;
  state().cells[t].barrier_kind = exchange ? 2 : 1;
}

void ConformanceVerifier::ledger_charge(int thread, machine::Cat c,
                                        double ns) {
  if (!enabled()) return;
  const auto t = static_cast<std::size_t>(thread);
  if (t >= kMaxThreads) return;
  state().cells[t].ledger.add(c, ns);
}

namespace {

/// "getd@phase1 <- setd <- getd@phase0" — most recent first.
std::string history_string(const ConformanceVerifier& v,
                           const ThreadCell& c) {
  if (c.hist_len == 0) return "(none)";
  std::string out;
  for (std::size_t k = 0; k < c.hist_len; ++k) {
    // hist_pos points at the slot the *next* entry will take; walk back.
    const std::size_t slot = (c.hist_pos + kHistory - 1 - k) % kHistory;
    if (k != 0) out += " <- ";
    out += v.site_name(c.hist[slot]);
  }
  return out;
}

}  // namespace

void ConformanceVerifier::end_epoch(std::uint64_t epoch, int nthreads) {
  if (!enabled()) return;
  auto& s = state();
  const std::size_t n =
      std::min<std::size_t>(static_cast<std::size_t>(nthreads), kMaxThreads);
  if (n == 0) return;
  const ThreadCell& ref = s.cells[0];
  for (std::size_t t = 1; t < n; ++t) {
    const ThreadCell& c = s.cells[t];
    // First divergent position in the epoch's fingerprint.
    const std::size_t common = std::min(ref.seq.size(), c.seq.size());
    std::size_t p = 0;
    while (p < common && ref.seq[p].site == c.seq[p].site &&
           ref.seq[p].arg_sig == c.seq[p].arg_sig)
      ++p;
    if (p < common && ref.seq[p].site != c.seq[p].site) {
      ConformanceViolation v;
      v.cls = ConformanceClass::SequenceDivergence;
      v.thread = static_cast<int>(t);
      v.other_thread = 0;
      v.epoch = epoch;
      v.position = p;
      v.site = site_name(c.seq[p].site);
      v.detail = std::string("sequence-divergence: collective call ") +
                 std::to_string(p) + " of barrier epoch " +
                 std::to_string(epoch) + " diverges — thread " +
                 std::to_string(t) + " issued " + v.site + " while thread 0 " +
                 "issued " + site_name(ref.seq[p].site) +
                 "; recent calls of thread " + std::to_string(t) + ": " +
                 history_string(*this, c) + "; of thread 0: " +
                 history_string(*this, ref);
      report(std::move(v));
    } else if (p < common) {
      ConformanceViolation v;
      v.cls = ConformanceClass::ArgumentMismatch;
      v.thread = static_cast<int>(t);
      v.other_thread = 0;
      v.epoch = epoch;
      v.position = p;
      v.site = site_name(c.seq[p].site);
      v.detail = std::string("argument-mismatch: collective call ") +
                 std::to_string(p) + " (" + v.site + ") of barrier epoch " +
                 std::to_string(epoch) +
                 " has conflicting arguments — thread " + std::to_string(t) +
                 " signature " + std::to_string(c.seq[p].arg_sig) +
                 " vs thread 0 signature " +
                 std::to_string(ref.seq[p].arg_sig) +
                 " (target array, element width, combine rule or "
                 "virtual-block geometry differ)";
      report(std::move(v));
    } else if (ref.seq.size() != c.seq.size()) {
      const bool longer = c.seq.size() > ref.seq.size();
      const ThreadCell& l = longer ? c : ref;
      ConformanceViolation v;
      v.cls = ConformanceClass::SequenceDivergence;
      v.thread = static_cast<int>(t);
      v.other_thread = 0;
      v.epoch = epoch;
      v.position = common;
      v.site = site_name(l.seq[common].site);
      v.detail = std::string("sequence-divergence: thread ") +
                 std::to_string(t) + " issued " + std::to_string(c.seq.size()) +
                 " collective(s) in barrier epoch " + std::to_string(epoch) +
                 " but thread 0 issued " + std::to_string(ref.seq.size()) +
                 "; first unmatched call is " + v.site +
                 "; recent calls of thread " + std::to_string(t) + ": " +
                 history_string(*this, c) + "; of thread 0: " +
                 history_string(*this, ref);
      report(std::move(v));
    } else if (ref.barrier_kind != c.barrier_kind) {
      ConformanceViolation v;
      v.cls = ConformanceClass::SequenceDivergence;
      v.thread = static_cast<int>(t);
      v.other_thread = 0;
      v.epoch = epoch;
      v.position = common;
      v.site = barrier_kind_name(c.barrier_kind);
      v.detail = std::string("sequence-divergence: thread ") +
                 std::to_string(t) + " closed barrier epoch " +
                 std::to_string(epoch) + " with " +
                 barrier_kind_name(c.barrier_kind) + " while thread 0 used " +
                 barrier_kind_name(ref.barrier_kind);
      report(std::move(v));
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    s.cells[t].seq.clear();
    s.cells[t].barrier_kind = 0;
  }
}

void ConformanceVerifier::check_ledger(std::uint64_t epoch, int nthreads,
                                       const machine::PhaseStats* const*
                                           actual) {
  if (!enabled() || !ledger_active_.load(std::memory_order_relaxed)) return;
  auto& s = state();
  const std::size_t n =
      std::min<std::size_t>(static_cast<std::size_t>(nthreads), kMaxThreads);
  for (std::size_t t = 0; t < n; ++t) {
    ThreadCell& c = s.cells[t];
    const machine::PhaseStats& a = *actual[t];
    int bad = -1;
    for (std::size_t k = 0; k < machine::kNumCats; ++k) {
      const auto cat = static_cast<machine::Cat>(k);
      // Exact comparison on purpose: the ledger mirrors every add in the
      // same order from the same baseline, so any difference means a
      // charge bypassed the mirror (or was double-applied).
      if (c.ledger.get(cat) != a.get(cat)) {
        bad = static_cast<int>(k);
        break;
      }
    }
    if (bad < 0) continue;
    const auto cat = static_cast<machine::Cat>(bad);
    char buf[96];
    std::snprintf(buf, sizeof buf, "ledger %.17g ns vs stats %.17g ns",
                  c.ledger.get(cat), a.get(cat));
    ConformanceViolation v;
    v.cls = ConformanceClass::LedgerImbalance;
    v.thread = static_cast<int>(t);
    v.epoch = epoch;
    v.detail = std::string("ledger-imbalance: thread ") + std::to_string(t) +
               " category " + std::string(machine::cat_name(cat)) + " — " +
               buf + " at barrier epoch " + std::to_string(epoch) +
               " (a cost was charged outside the double-entry ledger, or "
               "charged twice)";
    // Resync so one bypassed charge yields one diagnostic, not one per
    // subsequent barrier.
    c.ledger = a;
    report(std::move(v));
  }
}

void ConformanceVerifier::begin_run(int nthreads,
                                    const machine::PhaseStats* baseline) {
  if (!enabled()) {
    ledger_active_.store(false, std::memory_order_relaxed);
    return;
  }
  auto& s = state();
  const std::size_t n =
      std::min<std::size_t>(static_cast<std::size_t>(nthreads), kMaxThreads);
  // Clear every cell, not just [0, n): a previous (larger) runtime must
  // not leak fingerprints or ledger state into this run.
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    ThreadCell& c = s.cells[t];
    c.seq.clear();
    c.barrier_kind = 0;
    c.ledger.reset();
  }
  for (std::size_t t = 0; t < n; ++t) s.cells[t].ledger = baseline[t];
  ledger_active_.store(true, std::memory_order_relaxed);
}

std::size_t ConformanceVerifier::violation_count() const {
  return state().total.load(std::memory_order_relaxed);
}

std::vector<ConformanceViolation> ConformanceVerifier::violations() const {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.stored;
}

void ConformanceVerifier::clear_violations() {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.stored.clear();
  s.total.store(0, std::memory_order_relaxed);
}

void ConformanceVerifier::report(ConformanceViolation v) {
  auto& s = state();
  s.total.fetch_add(1, std::memory_order_relaxed);
  if (abort_on_violation()) {
    std::fprintf(stderr, "[pgraph conformance verifier] %s\n",
                 v.detail.c_str());
    std::abort();
  }
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.stored.size() < kMaxStored) s.stored.push_back(std::move(v));
}

}  // namespace pgraph::analysis
