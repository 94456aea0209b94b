#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/phase_stats.hpp"

namespace pgraph::analysis {

/// The collective operations the conformance verifier fingerprints.  Each
/// call site is interned as (op, source tag) — see
/// ConformanceVerifier::site_id — so a divergence diagnostic can name the
/// exact call, not just the op kind.
enum class CollOp : std::uint8_t {
  GetD,
  SetD,
  SetDMin,
  SetDAdd,
  Replicate,  ///< buddy-replication pass (pgas::replicate_to_buddy)
};

const char* to_string(CollOp op);

/// The three violation classes of the SPMD conformance discipline (see
/// docs/ANALYSIS.md).  The discipline is the paper's execution model: every
/// thread runs the same collective script with the same arguments, and
/// every modeled nanosecond is charged exactly once.
enum class ConformanceClass : std::uint8_t {
  SequenceDivergence,  ///< threads issued different collectives/barriers
  ArgumentMismatch,    ///< same collective, conflicting arguments
  LedgerImbalance,     ///< per-thread charges != PhaseStats barrier totals
};

const char* to_string(ConformanceClass c);

/// One detected conformance violation.  `position` is the index of the
/// first divergent call within the epoch's fingerprint (SequenceDivergence
/// / ArgumentMismatch) and unused for LedgerImbalance.
struct ConformanceViolation {
  ConformanceClass cls = ConformanceClass::SequenceDivergence;
  int thread = -1;        ///< diverging thread
  int other_thread = -1;  ///< reference thread it is compared against
  std::uint64_t epoch = 0;
  std::size_t position = 0;
  std::string site;    ///< name of the divergent site ("" for ledger)
  std::string detail;  ///< formatted one-line diagnostic
};

/// Process-wide SPMD conformance verifier the simulated PGAS runtime
/// reports into when built with PGRAPH_CHECK_ACCESS (the `check` preset,
/// alongside the access checker).  Zero-cost when the macro is off: no
/// hook survives compilation.
///
/// What it checks, per barrier epoch:
///  1. Collective-sequence fingerprints: the ordered list of (site,
///     argument signature) entries each thread accumulated since the last
///     barrier must be identical across threads, and all threads must have
///     closed the epoch with the same barrier kind.  A mismatch names the
///     first divergent call, both threads, and their recent call history.
///  2. Argument conformance: at each matching site, the argument signature
///     (target array, element width, combine rule, virtual-block geometry,
///     option bits) must agree — catching "thread 7 hooked a different
///     array" bugs that otherwise surface as silent wrong answers.
///  3. Cost-conservation ledger: a per-thread shadow PhaseStats mirrors
///     every individual charge (ThreadCtx::charge plus the runtime's
///     barrier-side straggle/alignment charges, which covers fault retries
///     and replication traffic too); at each barrier the mirror must equal
///     the thread's cumulative PhaseStats bit-for-bit, per category.
///
/// Thread safety: per-thread hooks (note_collective, note_barrier,
/// ledger_charge) touch only the calling thread's cell and are ordered
/// against the cross-checks by the runtime's barrier; begin_run and the
/// end_epoch checks run with no SPMD threads live / all threads parked.
class ConformanceVerifier {
 public:
  static ConformanceVerifier& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on);

  /// When true (the default), the first violation prints its diagnostic to
  /// stderr and aborts the process — the check build's way of turning a
  /// silent model bug into a hard test failure.  Tests that inject
  /// violations turn this off and inspect violations() instead.
  bool abort_on_violation() const {
    return abort_on_violation_.load(std::memory_order_relaxed);
  }
  void set_abort_on_violation(bool on) {
    abort_on_violation_.store(on, std::memory_order_relaxed);
  }

  /// Intern a collective call site.  `tag` is a stable label (string
  /// literal or CollectiveOptions::site); the same (op, tag) pair always
  /// returns the same id, so fingerprints compare across threads by id.
  std::uint32_t site_id(CollOp op, const char* tag);
  /// Human-readable name of an interned site ("setd@contract" or "getd").
  std::string site_name(std::uint32_t id) const;

  /// --- per-thread hooks (SPMD threads, own cell only) -------------------
  /// Append one collective call to `thread`'s fingerprint for this epoch.
  void note_collective(int thread, std::uint32_t site, std::uint64_t arg_sig);
  /// Record the barrier kind `thread` is closing this epoch with (plain or
  /// exchange).  Called immediately before the barrier arrival.
  void note_barrier(int thread, bool exchange);
  /// Mirror one cost charge into `thread`'s ledger.
  void ledger_charge(int thread, machine::Cat c, double ns);

  /// --- barrier completion step (all SPMD threads parked) ----------------
  /// Cross-check all threads' fingerprints and barrier kinds against
  /// thread 0's, then clear them for the next epoch.
  void end_epoch(std::uint64_t epoch, int nthreads);
  /// Compare each thread's ledger against its actual cumulative PhaseStats
  /// (`actual[t]`), exact per-category equality.  A mismatched ledger is
  /// resynced to the actual stats after reporting, so one bug yields one
  /// diagnostic instead of one per subsequent barrier.
  void check_ledger(std::uint64_t epoch, int nthreads,
                    const machine::PhaseStats* const* actual);

  /// --- run lifecycle ----------------------------------------------------
  /// Called by Runtime::run before starting SPMD threads: re-baseline each
  /// thread's ledger from the runtime's saved cumulative stats (a ThreadCtx
  /// starts from those) and clear any stale fingerprints.  This is what
  /// keeps consecutively attached runtimes from leaking verifier state
  /// into each other's rows.
  void begin_run(int nthreads, const machine::PhaseStats* baseline);

  /// --- reporting --------------------------------------------------------
  /// Total violations detected since the last clear (including ones beyond
  /// the stored-detail cap).
  std::size_t violation_count() const;
  std::vector<ConformanceViolation> violations() const;
  void clear_violations();

 private:
  ConformanceVerifier();
  void report(ConformanceViolation v);

  std::atomic<bool> enabled_{true};
  std::atomic<bool> abort_on_violation_{true};
  /// True while the ledger mirror is known to be in sync with the actual
  /// stats (set by begin_run when enabled; cleared by set_enabled so a
  /// mid-life enable cannot compare a stale mirror).
  std::atomic<bool> ledger_active_{false};
};

}  // namespace pgraph::analysis
