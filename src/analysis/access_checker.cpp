#include "analysis/access_checker.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace pgraph::analysis {

namespace {

constexpr std::uint32_t kNoEpoch = 0xffffffffu;
// Stored-violation cap: a racing loop can trip thousands of times; keep
// the first kMaxStored diagnostics and count the rest.
constexpr std::size_t kMaxStored = 256;
// Per-thread cost tallies are preallocated so hook paths never resize
// shared storage while SPMD threads are running.
constexpr std::size_t kMaxThreads = 1024;

struct alignas(64) CostCell {
  // Plain (non-atomic) on purpose: each cell is written only by its own
  // SPMD thread between barriers and read/reset only inside the barrier
  // completion step, which the runtime's barrier orders against both
  // sides (arrivals are an acq_rel countdown; parked fibers resume only
  // after an acquire of the generation word the completer releases).
  std::uint64_t moved = 0;
  std::uint64_t charged = 0;
};

struct CheckerState {
  std::mutex mu;  // guards violations_ and next_array_id
  std::vector<Violation> stored;
  std::atomic<std::size_t> total{0};
  std::atomic<std::uint32_t> next_array_id{0};
  std::array<CostCell, kMaxThreads> cost{};
};

CheckerState& state() {
  static CheckerState s;
  return s;
}

}  // namespace

const char* to_string(ViolationClass c) {
  switch (c) {
    case ViolationClass::PhaseRace:
      return "phase-race";
    case ViolationClass::Affinity:
      return "affinity-violation";
    case ViolationClass::CostMismatch:
      return "cost-mismatch";
  }
  return "?";
}

const char* to_string(AccessKind k) {
  switch (k) {
    case AccessKind::Read:
      return "read";
    case AccessKind::Write:
      return "write";
    case AccessKind::CombineMin:
      return "combine-min";
    case AccessKind::CombineOverwrite:
      return "combine-overwrite";
    case AccessKind::CombineAdd:
      return "combine-add";
  }
  return "?";
}

/// Shadow of one GlobalArray: per element, the last write (epoch, thread,
/// kind) and the last read (epoch, thread), consulted on every
/// instrumented access to detect same-epoch conflicts.  Lock striping
/// keeps concurrent hooks cheap; state is only ever compared within one
/// epoch, so stale entries from earlier epochs are simply overwritten.
class ArrayShadow {
 public:
  ArrayShadow(std::uint32_t id, std::size_t n, std::size_t elem_bytes)
      : id_(id), elem_bytes_(elem_bytes), elems_(n) {}

  std::string name() const {
    return "array#" + std::to_string(id_) + "(n=" +
           std::to_string(elems_.size()) + ")";
  }
  std::size_t elem_bytes() const { return elem_bytes_; }

 private:
  friend class AccessChecker;

  struct ElemState {
    std::uint32_t w_epoch = kNoEpoch;
    std::int32_t w_thread = -1;
    AccessKind w_kind = AccessKind::Write;
    std::uint32_t r_epoch = kNoEpoch;
    std::int32_t r_thread = -1;
  };

  static constexpr std::size_t kStripes = 64;
  std::mutex& stripe(std::size_t i) { return stripes_[i % kStripes]; }

  std::uint32_t id_;
  std::size_t elem_bytes_;
  std::vector<ElemState> elems_;
  std::array<std::mutex, kStripes> stripes_;
  std::atomic<int> crcw_depth_{0};
  std::atomic<AccessKind> crcw_kind_{AccessKind::CombineOverwrite};
};

AccessChecker::AccessChecker() = default;

AccessChecker& AccessChecker::instance() {
  static AccessChecker c;
  return c;
}

std::shared_ptr<ArrayShadow> AccessChecker::register_array(
    std::size_t n, std::size_t elem_bytes) {
  if (!enabled()) return nullptr;
  auto& s = state();
  const std::uint32_t id =
      s.next_array_id.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<ArrayShadow>(id, n, elem_bytes);
}

void AccessChecker::begin_crcw(ArrayShadow* a, AccessKind combine_kind) {
  if (a == nullptr) return;
  a->crcw_kind_.store(combine_kind, std::memory_order_relaxed);
  a->crcw_depth_.fetch_add(1, std::memory_order_relaxed);
}

void AccessChecker::end_crcw(ArrayShadow* a) {
  if (a == nullptr) return;
  a->crcw_depth_.fetch_sub(1, std::memory_order_relaxed);
}

void AccessChecker::record_access(ArrayShadow* a, std::size_t i, AccessKind k,
                                  int thread, std::uint64_t epoch64) {
  if (a == nullptr || !enabled()) return;
  const auto epoch = static_cast<std::uint32_t>(epoch64);

  // Plain writes inside a declared CRCW window follow the window's rule.
  if (k == AccessKind::Write &&
      a->crcw_depth_.load(std::memory_order_relaxed) > 0) {
    k = a->crcw_kind_.load(std::memory_order_relaxed);
  }

  const char* conflict = nullptr;
  int other = -1;
  AccessKind other_kind = AccessKind::Write;
  {
    std::lock_guard<std::mutex> lk(a->stripe(i));
    ArrayShadow::ElemState& e = a->elems_[i];
    if (k == AccessKind::Read) {
      // A read conflicts with a same-epoch plain or arbitrary-CRCW write
      // by another thread; reads racing a monotone min are the declared
      // benign pattern of the paper's PRAM-style phases.
      if (e.w_epoch == epoch && e.w_thread != thread &&
          e.w_kind != AccessKind::CombineMin) {
        conflict = "read of element written this epoch";
        other = e.w_thread;
        other_kind = e.w_kind;
      }
      e.r_epoch = epoch;
      e.r_thread = thread;
    } else {
      if (e.r_epoch == epoch && e.r_thread != thread &&
          k != AccessKind::CombineMin) {
        conflict = "write to element read this epoch";
        other = e.r_thread;
        other_kind = AccessKind::Read;
      } else if (e.w_epoch == epoch && e.w_thread != thread &&
                 !(k == e.w_kind && k != AccessKind::Write)) {
        // Concurrent writes are legal only under one shared combine rule.
        conflict = "conflicting writes to element";
        other = e.w_thread;
        other_kind = e.w_kind;
      }
      e.w_epoch = epoch;
      e.w_thread = thread;
      e.w_kind = k;
    }
  }
  if (conflict == nullptr) return;

  Violation v;
  v.cls = ViolationClass::PhaseRace;
  v.array = a->name();
  v.index = i;
  v.thread = thread;
  v.other_thread = other;
  v.epoch = epoch64;
  v.detail = std::string("phase-race: ") + conflict + " — " + v.array +
             "[" + std::to_string(i) + "], thread " + std::to_string(thread) +
             " (" + to_string(k) + ") vs thread " + std::to_string(other) +
             " (" + to_string(other_kind) + "), barrier epoch " +
             std::to_string(epoch64);
  report(std::move(v));
}

void AccessChecker::record_affinity(ArrayShadow* a, std::size_t index,
                                    int thread, int caller_node,
                                    int owner_node, std::uint64_t epoch,
                                    const char* what) {
  if (!enabled()) return;
  Violation v;
  v.cls = ViolationClass::Affinity;
  v.array = a != nullptr ? a->name() : std::string("array");
  v.index = index;
  v.thread = thread;
  v.other_thread = -1;
  v.epoch = epoch;
  v.detail = std::string("affinity-violation: ") + what + " — " + v.array +
             "[" + std::to_string(index) + "] has affinity to node " +
             std::to_string(owner_node) + " but thread " +
             std::to_string(thread) + " on node " +
             std::to_string(caller_node) +
             " dereferences it directly (UB in real UPC), barrier epoch " +
             std::to_string(epoch);
  report(std::move(v));
}

void AccessChecker::add_moved(int thread, std::size_t bytes) {
  if (!enabled()) return;
  const auto t = static_cast<std::size_t>(thread);
  if (t >= kMaxThreads) return;
  state().cost[t].moved += bytes;
}

void AccessChecker::add_charged(int thread, std::size_t bytes) {
  if (!enabled()) return;
  const auto t = static_cast<std::size_t>(thread);
  if (t >= kMaxThreads) return;
  state().cost[t].charged += bytes;
}

void AccessChecker::end_epoch(std::uint64_t epoch, int nthreads) {
  if (!enabled()) return;
  auto& s = state();
  const std::size_t n =
      std::min<std::size_t>(static_cast<std::size_t>(nthreads), kMaxThreads);
  for (std::size_t t = 0; t < n; ++t) {
    CostCell& c = s.cost[t];
    if (c.moved > c.charged) {
      Violation v;
      v.cls = ViolationClass::CostMismatch;
      v.index = static_cast<std::size_t>(c.moved - c.charged);
      v.thread = static_cast<int>(t);
      v.epoch = epoch;
      v.detail = "cost-mismatch: thread " + std::to_string(t) + " moved " +
                 std::to_string(c.moved) + " bytes but charged only " +
                 std::to_string(c.charged) +
                 " to its cost clock in barrier epoch " +
                 std::to_string(epoch) +
                 " (simulated time diverges from data motion)";
      c.moved = 0;
      c.charged = 0;
      report(std::move(v));
    } else {
      c.moved = 0;
      c.charged = 0;
    }
  }
}

std::size_t AccessChecker::violation_count() const {
  return state().total.load(std::memory_order_relaxed);
}

std::vector<Violation> AccessChecker::violations() const {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.stored;
}

void AccessChecker::clear_violations() {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.stored.clear();
  s.total.store(0, std::memory_order_relaxed);
  for (auto& c : s.cost) {
    c.moved = 0;
    c.charged = 0;
  }
}

void AccessChecker::report(Violation v) {
  auto& s = state();
  s.total.fetch_add(1, std::memory_order_relaxed);
  if (abort_on_violation()) {
    std::fprintf(stderr, "[pgraph access checker] %s\n", v.detail.c_str());
    std::abort();
  }
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.stored.size() < kMaxStored) s.stored.push_back(std::move(v));
}

}  // namespace pgraph::analysis
