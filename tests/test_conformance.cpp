// The SPMD conformance verifier (src/analysis/conformance): injected
// violations — divergent collective sequences, mismatched arguments or
// combine rules, an unbalanced cost ledger — must each be flagged with a
// diagnostic naming the divergent site and the threads involved, while
// disciplined collective code must pass with zero violations.  The
// determinism-digest tests run in every build (the digest is not gated on
// PGRAPH_CHECK_ACCESS).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/access_checker.hpp"
#include "analysis/conformance.hpp"
#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"
#include "trace/tracer.hpp"

namespace an = pgraph::analysis;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace c = pgraph::coll;

namespace {

/// One disciplined SetD pass: thread t writes the indices congruent to
/// t mod s.  Used both as the clean workload and as the carrier the
/// injected violations piggyback on.
void clean_setd(pg::ThreadCtx& ctx, pg::GlobalArray<std::uint64_t>& d,
                c::CollectiveContext& cc, const c::CollectiveOptions& opt) {
  const std::size_t n = d.size();
  const auto s = static_cast<std::size_t>(ctx.nthreads());
  std::vector<std::uint64_t> idx, val;
  for (std::size_t i = static_cast<std::size_t>(ctx.id()); i < n; i += s) {
    idx.push_back(i);
    val.push_back(i * 7 + 1);
  }
  c::CollWorkspace<std::uint64_t> ws;
  c::setd(ctx, d, idx, std::span<const std::uint64_t>(val), opt, cc, ws);
}

}  // namespace

// --- determinism digests (available in every build) ----------------------

TEST(DeterminismDigest, OffByDefaultAndRecordsNothing) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  EXPECT_FALSE(rt.digest_enabled());
  pgraph::trace::SuperstepTracer tr;
  tr.attach(rt);
  pg::GlobalArray<std::uint64_t> d(rt, 64);
  c::CollectiveContext cc(rt);
  rt.run([&](pg::ThreadCtx& ctx) {
    clean_setd(ctx, d, cc, c::CollectiveOptions::base());
  });
  for (const auto& st : tr.supersteps()) EXPECT_FALSE(st.has_digest);
  EXPECT_TRUE(tr.take_row_digests().empty());
}

namespace {

/// Run the standard small workload with digests on and return the
/// per-superstep digest sequence.  `bump` perturbs one committed element
/// before the run, modeling a nondeterminism bug.
std::vector<std::uint64_t> digest_run(std::uint64_t bump) {
  pg::Runtime rt(pg::Topology::cluster(2, 2), m::CostParams::hps_cluster());
  rt.set_digest_enabled(true);
  pgraph::trace::SuperstepTracer tr;
  tr.attach(rt);
  pg::GlobalArray<std::uint64_t> d(rt, 256);
  for (std::size_t i = 0; i < d.size(); ++i) d.raw(i) = i;
  d.raw(17) += bump;
  c::CollectiveContext cc(rt);
  rt.run([&](pg::ThreadCtx& ctx) {
    clean_setd(ctx, d, cc, c::CollectiveOptions::base());
    ctx.barrier();
    clean_setd(ctx, d, cc, c::CollectiveOptions::optimized(2));
  });
  return tr.take_row_digests();
}

}  // namespace

TEST(DeterminismDigest, IdenticalRunsProduceIdenticalSequences) {
  const auto a = digest_run(0);
  const auto b = digest_run(0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(DeterminismDigest, DivergentStateBisectsToFirstDifferingSuperstep) {
  const auto good = digest_run(0);
  const auto bad = digest_run(1);  // one element off before superstep 0
  ASSERT_EQ(good.size(), bad.size());
  std::size_t first = good.size();
  for (std::size_t i = 0; i < good.size(); ++i)
    if (good[i] != bad[i]) {
      first = i;
      break;
    }
  // The perturbed element was committed before the first barrier, so the
  // divergence must surface at superstep 0 — and the perturbed element is
  // overwritten by the SetD pass, so later digests re-converge; the digest
  // stream is what pins the divergence to its superstep.
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(good.back(), bad.back());
}

TEST(DeterminismDigest, IndexKeyedSoPermutedValuesDiffer) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d(rt, 8);
  for (std::size_t i = 0; i < 8; ++i) d.raw(i) = i;
  const std::uint64_t before = d.replica().digest();
  d.raw(3) = 4;
  d.raw(4) = 3;  // same multiset of values, different placement
  EXPECT_NE(d.replica().digest(), before);
}

// --- conformance verifier (check builds only) -----------------------------

#ifdef PGRAPH_CHECK_ACCESS

namespace {

const an::ConformanceViolation* find_class(
    const std::vector<an::ConformanceViolation>& vs, an::ConformanceClass c) {
  for (const auto& v : vs)
    if (v.cls == c) return &v;
  return nullptr;
}

}  // namespace

class ConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& cv = an::ConformanceVerifier::instance();
    cv.set_enabled(true);
    cv.set_abort_on_violation(false);
    cv.clear_violations();
    // The injected workloads are conformance bugs, not access-discipline
    // bugs, but keep the access checker from aborting the process if an
    // injection trips it too.
    an::AccessChecker::instance().set_abort_on_violation(false);
  }
  void TearDown() override {
    auto& cv = an::ConformanceVerifier::instance();
    cv.clear_violations();
    cv.set_abort_on_violation(true);
    auto& ck = an::AccessChecker::instance();
    ck.clear_violations();
    ck.set_abort_on_violation(true);
  }
};

TEST_F(ConformanceTest, CleanCollectiveRunHasZeroViolations) {
  pg::Runtime rt(pg::Topology::cluster(2, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d(rt, 300);
  c::CollectiveContext cc(rt);
  rt.run([&](pg::ThreadCtx& ctx) {
    clean_setd(ctx, d, cc, c::CollectiveOptions::base());
    ctx.barrier();
    clean_setd(ctx, d, cc, c::CollectiveOptions::optimized(2));
  });
  EXPECT_EQ(an::ConformanceVerifier::instance().violation_count(), 0u);
}

TEST_F(ConformanceTest, DivergentSiteTagIsFlaggedWithBothSitesNamed) {
  pg::Runtime rt(pg::Topology::cluster(1, 4), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d(rt, 128);
  c::CollectiveContext cc(rt);
  rt.run([&](pg::ThreadCtx& ctx) {
    // Injected violation: thread 2 reaches a lexically different SetD call
    // than everyone else (same array, same shape — only the site differs).
    c::CollectiveOptions opt;
    opt.site = ctx.id() == 2 ? "relabel.b" : "relabel.a";
    clean_setd(ctx, d, cc, opt);
  });
  auto& cv = an::ConformanceVerifier::instance();
  ASSERT_GT(cv.violation_count(), 0u);
  const auto vs = cv.violations();
  const auto* v = find_class(vs, an::ConformanceClass::SequenceDivergence);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->thread, 2);
  EXPECT_EQ(v->other_thread, 0);
  EXPECT_EQ(v->position, 0u);
  EXPECT_NE(v->detail.find("relabel.a"), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("relabel.b"), std::string::npos) << v->detail;
}

TEST_F(ConformanceTest, MismatchedCombineRuleIsFlagged) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d(rt, 64);
  for (std::size_t i = 0; i < d.size(); ++i) d.raw(i) = UINT64_MAX;
  c::CollectiveContext cc(rt);
  const auto opt = c::CollectiveOptions::base();
  rt.run([&](pg::ThreadCtx& ctx) {
    // Injected violation: thread 1 resolves concurrent writes with Min
    // while thread 0 overwrites — a different collective at the same spot.
    std::vector<std::uint64_t> idx{static_cast<std::uint64_t>(ctx.id())};
    std::vector<std::uint64_t> val{7};
    c::CollWorkspace<std::uint64_t> ws;
    if (ctx.id() == 1)
      c::setd_min(ctx, d, idx, std::span<const std::uint64_t>(val), opt, cc,
                  ws);
    else
      c::setd(ctx, d, idx, std::span<const std::uint64_t>(val), opt, cc, ws);
  });
  auto& cv = an::ConformanceVerifier::instance();
  const auto vs = cv.violations();
  const auto* v = find_class(vs, an::ConformanceClass::SequenceDivergence);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("setd_min"), std::string::npos) << v->detail;
}

TEST_F(ConformanceTest, DifferentTargetArraysAreAnArgumentMismatch) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  // Same size, so both threads agree on shape; only the array identity
  // (uid) differs — the classic "thread 1 captured the wrong array" bug.
  pg::GlobalArray<std::uint64_t> a(rt, 64);
  pg::GlobalArray<std::uint64_t> b(rt, 64);
  c::CollectiveContext cc(rt);
  const auto opt = c::CollectiveOptions::base();
  rt.run([&](pg::ThreadCtx& ctx) {
    std::vector<std::uint64_t> idx{static_cast<std::uint64_t>(ctx.id())};
    std::vector<std::uint64_t> val{9};
    c::CollWorkspace<std::uint64_t> ws;
    c::setd(ctx, ctx.id() == 1 ? b : a, idx,
            std::span<const std::uint64_t>(val), opt, cc, ws);
  });
  auto& cv = an::ConformanceVerifier::instance();
  const auto vs = cv.violations();
  const auto* v = find_class(vs, an::ConformanceClass::ArgumentMismatch);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->thread, 1);
  EXPECT_EQ(v->position, 0u);
}

TEST_F(ConformanceTest, UnmirroredChargeImbalancesTheLedger) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  rt.run([&](pg::ThreadCtx& ctx) {
    // Injected violation: thread 1 adds straight to its PhaseStats without
    // going through ThreadCtx::charge — the signature of a cost hook that
    // forgot its ledger entry (a missed charge elsewhere looks the same).
    if (ctx.id() == 1) ctx.stats().add(m::Cat::Work, 1000.0);
    ctx.barrier();
  });
  auto& cv = an::ConformanceVerifier::instance();
  const auto vs = cv.violations();
  const auto* v = find_class(vs, an::ConformanceClass::LedgerImbalance);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->thread, 1);
  EXPECT_NE(v->detail.find("Work"), std::string::npos) << v->detail;
}

TEST_F(ConformanceTest, DoubleChargedMirrorImbalancesTheLedger) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  rt.run([&](pg::ThreadCtx& ctx) {
    // Injected violation, other direction: the mirror hears a charge the
    // runtime never made (a double-counted hook).
    if (ctx.id() == 0)
      an::ConformanceVerifier::instance().ledger_charge(0, m::Cat::Comm,
                                                        42.0);
    ctx.barrier();
  });
  auto& cv = an::ConformanceVerifier::instance();
  const auto vs = cv.violations();
  const auto* v = find_class(vs, an::ConformanceClass::LedgerImbalance);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->thread, 0);
  EXPECT_NE(v->detail.find("Comm"), std::string::npos) << v->detail;
}

TEST_F(ConformanceTest, LedgerResyncsAfterOneDiagnostic) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  rt.run([&](pg::ThreadCtx& ctx) {
    if (ctx.id() == 0)
      an::ConformanceVerifier::instance().ledger_charge(0, m::Cat::Comm, 1.0);
    ctx.barrier();  // one imbalance reported here, then the mirror resyncs
    ctx.barrier();
    ctx.barrier();
  });
  EXPECT_EQ(an::ConformanceVerifier::instance().violation_count(), 1u);
}

TEST_F(ConformanceTest, CountersResetAcrossConsecutivelyAttachedRuntimes) {
  // Runtime 1: four threads, a deliberate divergence, work on the clocks.
  {
    pg::Runtime rt(pg::Topology::cluster(2, 2), m::CostParams::hps_cluster());
    pg::GlobalArray<std::uint64_t> d(rt, 64);
    c::CollectiveContext cc(rt);
    rt.run([&](pg::ThreadCtx& ctx) {
      c::CollectiveOptions opt;
      opt.site = ctx.id() == 3 ? "stale.b" : "stale.a";
      clean_setd(ctx, d, cc, opt);
      ctx.compute(100, m::Cat::Work);
    });
    EXPECT_GT(an::ConformanceVerifier::instance().violation_count(), 0u);
  }
  an::ConformanceVerifier::instance().clear_violations();

  // Runtime 2: fewer threads, clean workload.  Stale fingerprints from
  // threads 2..3 and the dead runtime's ledger baselines must not leak
  // into this run's epochs (begin_run re-baselines every cell).
  pg::Runtime rt2(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d2(rt2, 64);
  c::CollectiveContext cc2(rt2);
  rt2.run([&](pg::ThreadCtx& ctx) {
    clean_setd(ctx, d2, cc2, c::CollectiveOptions::base());
  });
  EXPECT_EQ(an::ConformanceVerifier::instance().violation_count(), 0u);

  // Same runtime again after reset_costs: the ledger must re-baseline from
  // the zeroed stats, not compare against the pre-reset mirror.
  rt2.reset_costs();
  rt2.run([&](pg::ThreadCtx& ctx) {
    clean_setd(ctx, d2, cc2, c::CollectiveOptions::optimized(2));
  });
  EXPECT_EQ(an::ConformanceVerifier::instance().violation_count(), 0u);
}

TEST_F(ConformanceTest, GetDIsFingerprintedToo) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d(rt, 64);
  for (std::size_t i = 0; i < d.size(); ++i) d.raw(i) = i;
  c::CollectiveContext cc(rt);
  const auto opt = c::CollectiveOptions::base();
  rt.run([&](pg::ThreadCtx& ctx) {
    // Each thread targets its own block: the serve loop must never read a
    // reply/value slot its peer's *different* collective never published.
    std::vector<std::uint64_t> idx{ctx.id() == 1 ? d.block_begin(1) : 0};
    std::vector<std::uint64_t> out(1);
    std::vector<std::uint64_t> val{1};
    c::CollWorkspace<std::uint64_t> ws;
    // Injected violation: thread 1 runs a GetD where thread 0 runs a SetD.
    // Both have the same barrier structure, so the run completes and the
    // divergence is caught at the epoch check rather than by a hang.
    if (ctx.id() == 1)
      c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws);
    else
      c::setd(ctx, d, idx, std::span<const std::uint64_t>(val), opt, cc, ws);
  });
  auto& cv = an::ConformanceVerifier::instance();
  const auto vs = cv.violations();
  const auto* v = find_class(vs, an::ConformanceClass::SequenceDivergence);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("getd"), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("setd"), std::string::npos) << v->detail;
}

TEST_F(ConformanceTest, DisabledVerifierStoresNothing) {
  an::ConformanceVerifier::instance().set_enabled(false);
  pg::Runtime rt(pg::Topology::cluster(1, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d(rt, 64);
  c::CollectiveContext cc(rt);
  rt.run([&](pg::ThreadCtx& ctx) {
    c::CollectiveOptions opt;
    opt.site = ctx.id() == 1 ? "x" : "y";  // would be a divergence
    clean_setd(ctx, d, cc, opt);
  });
  EXPECT_EQ(an::ConformanceVerifier::instance().violation_count(), 0u);
  an::ConformanceVerifier::instance().set_enabled(true);
}

#else  // !PGRAPH_CHECK_ACCESS

TEST(Conformance, SkippedWithoutCheckAccessBuild) {
  GTEST_SKIP() << "conformance verifier requires PGRAPH_CHECK_ACCESS "
                  "(configure with --preset check)";
}

#endif  // PGRAPH_CHECK_ACCESS
