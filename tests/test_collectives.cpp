// GetD / SetD / SetDMin (Algorithm 2) — semantics across topologies and
// optimization configurations, plus the cost-shape properties the paper's
// optimizations rely on.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "graph/rng.hpp"
#include "pgas/global_array.hpp"

namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace c = pgraph::coll;
using pgraph::graph::Xoshiro256;

namespace {

struct Config {
  int nodes, threads;
  c::CollectiveOptions opt;
  const char* name;
};

std::ostream& operator<<(std::ostream& os, const Config& c) {
  return os << c.name << "(" << c.nodes << "x" << c.threads << ")";
}

std::vector<Config> configs() {
  std::vector<Config> out;
  const auto base = c::CollectiveOptions::base();
  const auto optd = c::CollectiveOptions::optimized(4);
  c::CollectiveOptions circ_only;
  circ_only.circular = true;
  c::CollectiveOptions off_only;
  off_only.offload = true;
  c::CollectiveOptions tp;
  tp.tprime = 6;
  auto hier = c::CollectiveOptions::optimized();
  hier.hierarchical = true;
  for (const auto& [nodes, threads] :
       {std::pair{1, 1}, {1, 4}, {2, 2}, {4, 2}}) {
    out.push_back({nodes, threads, base, "base"});
    out.push_back({nodes, threads, optd, "optimized"});
  }
  out.push_back({2, 3, circ_only, "circular-only"});
  out.push_back({2, 3, off_only, "offload-only"});
  out.push_back({2, 3, tp, "tprime-only"});
  out.push_back({2, 3, hier, "hierarchical"});
  out.push_back({4, 4, hier, "hierarchical-4x4"});
  out.push_back({1, 4, hier, "hierarchical-1node"});
  return out;
}

}  // namespace

class CollectivesP : public ::testing::TestWithParam<Config> {};

TEST_P(CollectivesP, GetDReturnsRequestedValues) {
  const Config cfg = GetParam();
  pg::Runtime rt(pg::Topology::cluster(cfg.nodes, cfg.threads),
                 m::CostParams::hps_cluster());
  const std::size_t n = 701;  // awkward size
  pg::GlobalArray<std::uint64_t> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = 1000 + i * 3;
  d.raw(0) = 0;  // offload contract: D[0] == 0
  c::CollectiveContext cc(rt);

  rt.run([&](pg::ThreadCtx& ctx) {
    Xoshiro256 rng(100 + ctx.id());
    const std::size_t mreq = 97 + 13 * static_cast<std::size_t>(ctx.id());
    std::vector<std::uint64_t> idx(mreq);
    for (auto& x : idx) x = rng.next_below(n);
    idx[0] = 0;  // make sure the offload path triggers
    std::vector<std::uint64_t> out(mreq);
    // One request column, run twice: under `id` the second call reuses the
    // kept keys.
    c::CollWorkspace<std::uint64_t> ws(/*keep_keys=*/true);
    for (int rep = 0; rep < 2; ++rep) {
      c::getd(ctx, d, idx, std::span<std::uint64_t>(out), cfg.opt, cc, ws,
              c::KnownElement{0, 0});
      // Verify against the closed form D was filled with — dereferencing
      // d.raw(idx[i]) here would itself be an affinity violation.
      for (std::size_t i = 0; i < mreq; ++i)
        ASSERT_EQ(out[i], idx[i] == 0 ? 0 : 1000 + idx[i] * 3)
            << "rep " << rep << " req " << i;
    }
  });
}

TEST_P(CollectivesP, SetDWritesAllValues) {
  const Config cfg = GetParam();
  pg::Runtime rt(pg::Topology::cluster(cfg.nodes, cfg.threads),
                 m::CostParams::hps_cluster());
  const std::size_t n = 512;
  const int s = rt.topo().total_threads();
  pg::GlobalArray<std::uint64_t> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = UINT64_MAX;
  c::CollectiveContext cc(rt);

  // Disjoint targets: thread t writes indices congruent to t mod s.
  rt.run([&](pg::ThreadCtx& ctx) {
    std::vector<std::uint64_t> idx, val;
    for (std::size_t i = static_cast<std::size_t>(ctx.id()); i < n;
         i += static_cast<std::size_t>(s)) {
      idx.push_back(i);
      val.push_back(i * 7 + 1);
    }
    c::CollWorkspace<std::uint64_t> ws;
    c::setd(ctx, d, idx, std::span<const std::uint64_t>(val), cfg.opt, cc,
            ws);
    ctx.barrier();
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(d.raw(i), i * 7 + 1);
}

TEST_P(CollectivesP, SetDArbitraryPicksOneOfTheProposals) {
  const Config cfg = GetParam();
  pg::Runtime rt(pg::Topology::cluster(cfg.nodes, cfg.threads),
                 m::CostParams::hps_cluster());
  const std::size_t n = 64;
  pg::GlobalArray<std::uint64_t> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = 0;
  c::CollectiveContext cc(rt);

  // Every thread writes its id+1 to every cell: result must be one of them.
  rt.run([&](pg::ThreadCtx& ctx) {
    std::vector<std::uint64_t> idx(n), val(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::fill(val.begin(), val.end(),
              static_cast<std::uint64_t>(ctx.id()) + 1);
    c::CollWorkspace<std::uint64_t> ws;
    c::setd(ctx, d, idx, std::span<const std::uint64_t>(val), cfg.opt, cc,
            ws);
    ctx.barrier();
  });
  const std::uint64_t s = static_cast<std::uint64_t>(
      rt.topo().total_threads());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(d.raw(i), 1u);
    EXPECT_LE(d.raw(i), s);
  }
}

TEST_P(CollectivesP, SetDMinKeepsTheMinimum) {
  const Config cfg = GetParam();
  pg::Runtime rt(pg::Topology::cluster(cfg.nodes, cfg.threads),
                 m::CostParams::hps_cluster());
  const std::size_t n = 128;
  pg::GlobalArray<std::uint64_t> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = UINT64_MAX;
  c::CollectiveContext cc(rt);

  rt.run([&](pg::ThreadCtx& ctx) {
    // Thread t proposes (i * 100 + t) for every i; min over t is i*100.
    std::vector<std::uint64_t> idx(n), val(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = i;
      val[i] = i * 100 + static_cast<std::uint64_t>(ctx.id());
    }
    c::CollWorkspace<std::uint64_t> ws;
    c::setd_min(ctx, d, idx, std::span<const std::uint64_t>(val), cfg.opt,
                cc, ws);
    ctx.barrier();
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(d.raw(i), i * 100);
}

namespace {
struct Rec {
  std::uint64_t key = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t info = 0;
  friend bool operator<(const Rec& a, const Rec& b) { return a.key < b.key; }
};
}  // namespace

TEST_P(CollectivesP, SetDMinTwoWordRecords) {
  const Config cfg = GetParam();
  pg::Runtime rt(pg::Topology::cluster(cfg.nodes, cfg.threads),
                 m::CostParams::hps_cluster());
  const std::size_t n = 40;
  pg::GlobalArray<Rec> d(rt, n);
  c::CollectiveContext cc(rt);

  rt.run([&](pg::ThreadCtx& ctx) {
    std::vector<std::uint64_t> idx(n);
    std::vector<Rec> val(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = i;
      const std::uint64_t k = (static_cast<std::uint64_t>(ctx.id()) + i) %
                              static_cast<std::uint64_t>(ctx.nthreads());
      val[i] = {k, 1000 + k};  // info rides along with the winning key
    }
    c::CollWorkspace<Rec> ws;
    c::setd_min(ctx, d, idx, std::span<const Rec>(val), cfg.opt, cc, ws);
    ctx.barrier();
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(d.raw(i).key, 0u);
    EXPECT_EQ(d.raw(i).info, 1000u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CollectivesP, ::testing::ValuesIn(configs()));

// --- the `id` key rule ------------------------------------------------------
// A default workspace is scratch: every call computes, and charges, the keys
// of its own requests.  Only a workspace built with keep_keys reuses them
// across calls, for the one request column it serves.

namespace {

/// 400 elements on a 2x2 cluster: thread t owns [100t, 100t + 100).
struct KeysFixture {
  static constexpr std::size_t n = 400;
  pg::Runtime rt{pg::Topology::cluster(2, 2), m::CostParams::hps_cluster()};
  pg::GlobalArray<std::uint64_t> d{rt, n};
  c::CollectiveContext cc{rt};
  std::vector<int> bad = std::vector<int>(4, 0);

  KeysFixture() {
    for (std::size_t i = 0; i < n; ++i) d.raw(i) = 1000 + i * 3;
  }

  /// GetD `idx` on `ws`, flag a wrong answer, and return the call's Work
  /// (the key charge: the collectives charge nothing else to Work).
  double getd(pg::ThreadCtx& ctx, const std::vector<std::uint64_t>& idx,
              const c::CollectiveOptions& opt,
              c::CollWorkspace<std::uint64_t>& ws) {
    std::vector<std::uint64_t> out(idx.size());
    const double work = ctx.stats().get(m::Cat::Work);
    c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws);
    for (std::size_t k = 0; k < idx.size(); ++k)
      if (out[k] != 1000 + idx[k] * 3)
        bad[static_cast<std::size_t>(ctx.id())] = 1;
    return ctx.stats().get(m::Cat::Work) - work;
  }

  double key_ns(std::size_t keys, std::size_t ops) const {
    return rt.mem().compute_ns(keys * ops);
  }
};

}  // namespace

TEST(CollectivesKeys, ScratchWorkspaceServesChangedRequests) {
  for (const bool other_owners : {false, true}) {
    KeysFixture f;
    const auto opt = c::CollectiveOptions::optimized(4);
    std::vector<std::vector<double>> work(4);
    f.rt.run([&](pg::ThreadCtx& ctx) {
      const auto t = static_cast<std::uint64_t>(ctx.id());
      std::vector<std::uint64_t> first(8), second(8);
      for (std::uint64_t k = 0; k < 8; ++k) {
        first[k] = 100 * t + k;
        // (a) other indices of the same owner; (b) the other three owners.
        second[k] = other_owners ? 100 * ((t + 1 + k % 3) % 4) + 10 + k
                                 : 100 * t + 50 + k;
      }
      c::CollWorkspace<std::uint64_t> ws;
      auto& w = work[static_cast<std::size_t>(t)];
      w.push_back(f.getd(ctx, first, opt, ws));
      w.push_back(f.getd(ctx, second, opt, ws));
    });
    SCOPED_TRACE(other_owners ? "other owners" : "same owners");
    EXPECT_EQ(f.bad, std::vector<int>(4, 0));
    const double want = f.key_ns(8, c::kDirectKeyOps);
    for (const auto& w : work) EXPECT_EQ(w, std::vector<double>({want, want}));
  }
}

TEST(CollectivesKeys, KeptColumnChargesKeysOnce) {
  KeysFixture f;
  std::vector<std::vector<double>> work(4);
  f.rt.run([&](pg::ThreadCtx& ctx) {
    const auto t = static_cast<std::uint64_t>(ctx.id());
    std::vector<std::uint64_t> idx(8);
    for (std::uint64_t k = 0; k < idx.size(); ++k)
      idx[k] = (37 * (8 * t + k) + 11) % KeysFixture::n;  // every owner
    auto& w = work[static_cast<std::size_t>(t)];
    const auto opt = c::CollectiveOptions::optimized(4);
    c::CollWorkspace<std::uint64_t> ws(/*keep_keys=*/true);
    w.push_back(f.getd(ctx, idx, opt, ws));
    w.push_back(f.getd(ctx, idx, opt, ws));
    ws.invalidate_keys();
    w.push_back(f.getd(ctx, idx, opt, ws));
    w.push_back(f.getd(ctx, idx, opt, ws));
    idx.push_back(idx.front());  // the column grows: its keys are stale
    w.push_back(f.getd(ctx, idx, opt, ws));
    w.push_back(f.getd(ctx, idx, opt, ws));
    // Without `id` every call computes its keys with the intrinsic.
    c::CollWorkspace<std::uint64_t> ws_base(/*keep_keys=*/true);
    w.push_back(f.getd(ctx, idx, c::CollectiveOptions::base(), ws_base));
    w.push_back(f.getd(ctx, idx, c::CollectiveOptions::base(), ws_base));
  });
  EXPECT_EQ(f.bad, std::vector<int>(4, 0));
  const double id8 = f.key_ns(8, c::kDirectKeyOps);
  const double id9 = f.key_ns(9, c::kDirectKeyOps);
  const double base9 = f.key_ns(9, c::kIntrinsicKeyOps);
  const std::vector<double> want = {id8, 0, id8, 0, id9, 0, base9, base9};
  for (const auto& w : work) EXPECT_EQ(w, want);
}

TEST(CollectivesKeys, CheckBuildRejectsKeptKeysOfAnotherColumn) {
#ifndef PGRAPH_CHECK_ACCESS
  GTEST_SKIP() << "configure with -DPGRAPH_CHECK_ACCESS=ON (preset 'check') "
                  "to exercise the kept-key guard";
#else
  // A kept workspace handed another column of the same length would route
  // by the first column's keys; the check build recomputes them and throws.
  KeysFixture f;
  auto opt = c::CollectiveOptions::optimized(4);
  opt.site = "keys.guard";
  try {
    f.rt.run([&](pg::ThreadCtx& ctx) {
      const auto t = static_cast<std::uint64_t>(ctx.id());
      std::vector<std::uint64_t> idx(8);
      for (std::uint64_t k = 0; k < idx.size(); ++k) idx[k] = 100 * t + k;
      c::CollWorkspace<std::uint64_t> ws(/*keep_keys=*/true);
      f.getd(ctx, idx, opt, ws);
      for (std::uint64_t k = 0; k < idx.size(); ++k)
        idx[k] = 100 * ((t + 1) % 4) + k;
      f.getd(ctx, idx, opt, ws);
    });
    FAIL() << "a kept workspace served another column by stale keys";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("keys.guard"), std::string::npos)
        << e.what();
  }
#endif
}

// --- cost-shape properties -------------------------------------------------

TEST(CollectiveCosts, CoalescedGetDBeatsFineGrainedGets) {
  const pg::Topology topo = pg::Topology::cluster(4, 2);
  const std::size_t n = 4096, mreq = 4096;

  pg::Runtime rt1(topo, m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d1(rt1, n);
  c::CollectiveContext cc(rt1);
  rt1.run([&](pg::ThreadCtx& ctx) {
    Xoshiro256 rng(5 + ctx.id());
    std::vector<std::uint64_t> idx(mreq), out(mreq);
    for (auto& x : idx) x = rng.next_below(n);
    c::CollWorkspace<std::uint64_t> ws;
    c::getd(ctx, d1, idx, std::span<std::uint64_t>(out),
            c::CollectiveOptions::base(), cc, ws);
  });

  pg::Runtime rt2(topo, m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> d2(rt2, n);
  rt2.run([&](pg::ThreadCtx& ctx) {
    Xoshiro256 rng(5 + ctx.id());
    for (std::size_t i = 0; i < mreq; ++i) d2.get(ctx, rng.next_below(n));
    ctx.barrier();
  });

  // Communication coalescing: order(s) of magnitude fewer messages and a
  // large modeled-time gap (Figure 3 shows ~70x for full CC).
  EXPECT_LT(rt1.net().total_messages(), rt2.net().total_messages() / 20);
  EXPECT_LT(rt1.modeled_time_ns(), rt2.modeled_time_ns() / 5);
}

TEST(CollectiveCosts, CircularReducesExchangeTime) {
  const pg::Topology topo = pg::Topology::cluster(8, 1);
  const std::size_t n = 1 << 15, mreq = 1 << 15;
  const auto run_with = [&](bool circular) {
    pg::Runtime rt(topo, m::CostParams::hps_cluster());
    pg::GlobalArray<std::uint64_t> d(rt, n);
    c::CollectiveContext cc(rt);
    c::CollectiveOptions opt;
    opt.circular = circular;
    rt.run([&](pg::ThreadCtx& ctx) {
      Xoshiro256 rng(9 + ctx.id());
      std::vector<std::uint64_t> idx(mreq), out(mreq);
      for (auto& x : idx) x = rng.next_below(n);
      c::CollWorkspace<std::uint64_t> ws;
      for (int rep = 0; rep < 3; ++rep)
        c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws);
    });
    return rt.critical_stats().get(m::Cat::Comm);
  };
  const double ident = run_with(false);
  const double circ = run_with(true);
  EXPECT_GT(ident, 1.2 * circ);
}

TEST(CollectiveCosts, OffloadDropsHotspotTraffic) {
  const pg::Topology topo = pg::Topology::cluster(4, 1);
  const std::size_t n = 1 << 12, mreq = 1 << 14;
  const auto msgs_with = [&](bool offload) {
    pg::Runtime rt(topo, m::CostParams::hps_cluster());
    pg::GlobalArray<std::uint64_t> d(rt, n);
    d.raw(0) = 0;
    c::CollectiveContext cc(rt);
    c::CollectiveOptions opt;
    opt.offload = offload;
    rt.run([&](pg::ThreadCtx& ctx) {
      // 90% of requests hit index 0 — the pointer-jumping hotspot.
      Xoshiro256 rng(3 + ctx.id());
      std::vector<std::uint64_t> idx(mreq), out(mreq);
      for (auto& x : idx)
        x = rng.next_below(10) == 0 ? rng.next_below(n) : 0;
      c::CollWorkspace<std::uint64_t> ws;
      c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws,
              c::KnownElement{0, 0});
      // D is all zeros; checking via d.raw(idx[i]) in here would be an
      // affinity violation.
      for (std::size_t i = 0; i < mreq; ++i) ASSERT_EQ(out[i], 0u);
    });
    return rt.net().total_bytes();
  };
  EXPECT_LT(msgs_with(true), msgs_with(false) / 2);
}

TEST(CollectiveCosts, TprimeReducesOwnerGatherCopyTime) {
  // Larger t' shrinks the owner's gather working set (Copy category) —
  // the Figure 4 mechanism.
  const pg::Topology topo = pg::Topology::single_node(2);
  const std::size_t n = 1 << 20, mreq = 1 << 18;
  const auto copy_with = [&](int tprime) {
    m::CostParams p = m::CostParams::hps_cluster();
    p.cache_bytes = 1 << 16;
    pg::Runtime rt(topo, p);
    pg::GlobalArray<std::uint64_t> d(rt, n);
    c::CollectiveContext cc(rt);
    c::CollectiveOptions opt;
    opt.tprime = tprime;
    rt.run([&](pg::ThreadCtx& ctx) {
      Xoshiro256 rng(13 + ctx.id());
      std::vector<std::uint64_t> idx(mreq), out(mreq);
      for (auto& x : idx) x = rng.next_below(n);
      c::CollWorkspace<std::uint64_t> ws;
      c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws);
    });
    return rt.critical_stats().get(m::Cat::Copy);
  };
  EXPECT_GT(copy_with(1), 1.5 * copy_with(64));
}

// GetD's output-blocked permute: with t' > 1 and an output larger than the
// modeled cache, the host scatters replies directly while the charges price
// the paper machine's blocked permute (eq. 5).  The values must come back in
// request order, and every category's critical modeled ns and the network
// counters are pinned exactly, so a charge the branch drops or reorders
// fails here.  After an intended model change, replace the rows with the
// ones the failure messages print.
TEST(CollectiveCosts, GetDBlockedPermuteValuesAndChargesExact) {
  struct Row {
    std::array<double, m::kNumCats> cat_ns;
    std::uint64_t messages, bytes, fine_messages;
  };
  const auto row_text = [](const Row& r) {
    std::string s = "{{";
    for (std::size_t i = 0; i < r.cat_ns.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", r.cat_ns[i]);
      s += buf;
    }
    return s + "}, " + std::to_string(r.messages) + ", " +
           std::to_string(r.bytes) + ", " + std::to_string(r.fine_messages) +
           "}";
  };
  const std::size_t n = 1 << 14;
  const auto run_with = [&](bool known) {
    m::CostParams p = m::CostParams::hps_cluster();
    // 2^14 words over 8 threads: 16 KiB blocks, so the automatic t' = 4,
    // and ~2,048 requests (16 KiB of output) per thread exceed the cache.
    p.cache_bytes = 4096;
    pg::Runtime rt(pg::Topology::cluster(4, 2), p);
    pg::GlobalArray<std::uint64_t> d(rt, n);
    for (std::size_t i = 0; i < n; ++i) d.raw(i) = 1000 + i * 3;
    d.raw(0) = 0;  // offload contract: D[0] == 0
    c::CollectiveContext cc(rt);
    std::vector<std::size_t> bad(8, 0);
    rt.run([&](pg::ThreadCtx& ctx) {
      Xoshiro256 rng(700 + ctx.id());
      const std::size_t mreq = 2048 + 8 * static_cast<std::size_t>(ctx.id());
      std::vector<std::uint64_t> idx(mreq), out(mreq, ~0ull);
      for (auto& x : idx) {
        const std::uint64_t r = rng.next_below(8);
        // One in eight asks for index 0, one in eight for one of 64 hot
        // indices (duplicates within and across threads), the rest spread.
        x = r == 0 ? 0 : r == 1 ? rng.next_below(64) * 97 : rng.next_below(n);
      }
      c::CollWorkspace<std::uint64_t> ws;
      c::getd(ctx, d, idx, std::span<std::uint64_t>(out),
              c::CollectiveOptions::optimized(), cc, ws,
              known ? std::optional(c::KnownElement{0, 0}) : std::nullopt);
      // Closed form of the fill: d.raw(idx[i]) in here would be an
      // affinity violation.
      for (std::size_t i = 0; i < mreq; ++i)
        if (out[i] != (idx[i] == 0 ? 0 : 1000 + idx[i] * 3))
          ++bad[static_cast<std::size_t>(ctx.id())];
    });
    EXPECT_EQ(bad, std::vector<std::size_t>(8, 0)) << "known=" << known;
    Row r{};
    const m::PhaseStats crit = rt.critical_stats();
    for (std::size_t i = 0; i < m::kNumCats; ++i)
      r.cat_ns[i] = crit.get(static_cast<m::Cat>(i));
    r.messages = rt.net().total_messages();
    r.bytes = rt.net().total_bytes();
    r.fine_messages = rt.net().fine_messages();
    return r;
  };
  // Cat order: Comm, Sort, Copy, Irregular, Setup, Work, Scrub.
  const Row want[] = {  // with KnownElement{0, 0}, then without
      {{65418, 13236, 50659, 21105, 12650, 6312, 0}, 192, 178384, 96},
      {{94652, 13236, 65373, 23866, 12650, 6312, 0}, 192, 203584, 96},
  };
  for (const bool known : {true, false}) {
    const Row got = run_with(known);
    const Row& w = want[known ? 0 : 1];
    SCOPED_TRACE("known=" + std::to_string(known) + " -> " + row_text(got));
    for (std::size_t i = 0; i < m::kNumCats; ++i)
      EXPECT_EQ(got.cat_ns[i], w.cat_ns[i]) << m::kCatNames[i];
    EXPECT_EQ(got.messages, w.messages);
    EXPECT_EQ(got.bytes, w.bytes);
    EXPECT_EQ(got.fine_messages, w.fine_messages);
  }
}


TEST(CollectiveCosts, HierarchicalEliminatesTheFineMessageBurst) {
  // Section VI's future-work proposal: the SMatrix/PMatrix all-to-all
  // involves only p processes instead of s = p*t threads.
  const pg::Topology topo = pg::Topology::cluster(4, 4);
  const std::size_t n = 1 << 12, mreq = 1 << 12;
  const auto run_with = [&](bool hierarchical) {
    pg::Runtime rt(topo, m::CostParams::hps_cluster());
    pg::GlobalArray<std::uint64_t> d(rt, n);
    c::CollectiveContext cc(rt);
    auto opt = c::CollectiveOptions::optimized();
    opt.hierarchical = hierarchical;
    rt.run([&](pg::ThreadCtx& ctx) {
      Xoshiro256 rng(3 + ctx.id());
      std::vector<std::uint64_t> idx(mreq), out(mreq);
      for (auto& x : idx) x = rng.next_below(n);
      c::CollWorkspace<std::uint64_t> ws;
      c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws);
      // D is all zeros; d.raw(idx[i]) in here would be an affinity
      // violation.
      for (std::size_t i = 0; i < mreq; ++i) ASSERT_EQ(out[i], 0u);
    });
    return rt.net().fine_messages();
  };
  const auto flat = run_with(false);
  const auto hier = run_with(true);
  // Flat: ~2 * s^2 fine puts; hierarchical: none at all (the tiles travel
  // as coalesced messages).
  EXPECT_GT(flat, 200u);
  EXPECT_EQ(hier, 0u);
}

// --- degenerate batches ----------------------------------------------------
// Threads with an empty request vector must not charge exchange setup or
// emit zero-length messages once the counts matrix is already zero (the
// steady state of a stream that stopped touching a partition), and a
// nonzero -> zero transition must still publish the zero counts so owners
// never re-serve a stale batch.

#include "core/par_common.hpp"

namespace {

namespace core_ns = pgraph::core;

core_ns::RunCosts empty_setd_round(pg::Runtime& rt,
                                   pg::GlobalArray<std::uint64_t>& d,
                                   c::CollectiveContext& cc,
                                   const c::CollectiveOptions& opt) {
  rt.reset_costs();
  rt.run([&](pg::ThreadCtx& ctx) {
    const std::vector<std::uint64_t> idx;
    const std::vector<std::uint64_t> val;
    c::CollWorkspace<std::uint64_t> ws;
    c::setd_add(ctx, d, idx, std::span<const std::uint64_t>(val), opt, cc,
                ws);
  });
  return core_ns::collect_costs(rt, 0.0);
}

}  // namespace

TEST(CollectivesDegenerate, EmptyBatchesSkipExchangeAndNeverReapply) {
  for (const bool hier : {false, true}) {
    auto opt = c::CollectiveOptions::optimized(2);
    opt.hierarchical = hier;
    pg::Runtime rt(pg::Topology::cluster(4, 2),
                   m::CostParams::hps_cluster());
    pg::GlobalArray<std::uint64_t> d(rt, 512);
    c::CollectiveContext cc(rt);

    const auto busy_round = [&] {
      rt.run([&](pg::ThreadCtx& ctx) {
        const std::uint64_t me = static_cast<std::uint64_t>(ctx.id());
        const std::vector<std::uint64_t> idx = {me * 7, 300 + me};
        const std::vector<std::uint64_t> val = {1, 1};
        c::CollWorkspace<std::uint64_t> ws;
        c::setd_add(ctx, d, idx, std::span<const std::uint64_t>(val), opt,
                    cc, ws);
      });
    };
    const auto snapshot = [&] {
      const auto sp = d.raw_all();
      return std::vector<std::uint64_t>(sp.begin(), sp.end());
    };

    busy_round();
    const auto want = snapshot();

    // Transition round (counts nonzero -> zero): with a combining-add
    // payload, serving the stale batch would double every touched slot.
    const auto trans = empty_setd_round(rt, d, cc, opt);
    EXPECT_EQ(snapshot(), want) << "stale counts re-served (hier=" << hier
                                << ")";

    // Steady-state round (zero -> zero): the setup writes and the
    // zero-length exchange disappear entirely.
    const auto steady = empty_setd_round(rt, d, cc, opt);
    EXPECT_EQ(snapshot(), want);
    EXPECT_EQ(steady.messages, 0u) << "hier=" << hier;
    EXPECT_EQ(steady.fine_messages, 0u) << "hier=" << hier;
    EXPECT_LT(steady.modeled_ns, trans.modeled_ns) << "hier=" << hier;

    // Waking up again after the skip must go through the full path.
    busy_round();
    auto doubled = want;
    rt.run([&](pg::ThreadCtx&) {});  // no-op; values checked host-side
    for (std::size_t i = 0; i < doubled.size(); ++i)
      doubled[i] = 2 * want[i];
    EXPECT_EQ(snapshot(), doubled) << "hier=" << hier;
  }
}

TEST(CollectivesDegenerate, EmptyGetDSteadyStateIsMessageFree) {
  pg::Runtime rt(pg::Topology::cluster(4, 2), m::CostParams::hps_cluster());
  const std::size_t n = 256;
  pg::GlobalArray<std::uint64_t> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = 10 * i;
  d.raw(0) = 0;
  c::CollectiveContext cc(rt);
  const auto opt = c::CollectiveOptions::optimized(2);

  std::vector<int> bad(8, 0);
  const auto round = [&](bool empty) {
    rt.reset_costs();
    rt.run([&](pg::ThreadCtx& ctx) {
      const std::uint64_t me = static_cast<std::uint64_t>(ctx.id());
      std::vector<std::uint64_t> idx;
      if (!empty) idx = {me * 13 % n, (me * 31 + 5) % n};
      std::vector<std::uint64_t> out(idx.size());
      c::CollWorkspace<std::uint64_t> ws;
      c::getd(ctx, d, idx, std::span<std::uint64_t>(out), opt, cc, ws);
      for (std::size_t k = 0; k < idx.size(); ++k)
        if (out[k] != 10 * idx[k])
          bad[static_cast<std::size_t>(ctx.id())] = 1;
    });
    return core_ns::collect_costs(rt, 0.0);
  };

  round(false);
  round(true);  // transition: zero counts land
  const auto steady = round(true);
  EXPECT_EQ(steady.messages, 0u);
  EXPECT_EQ(steady.fine_messages, 0u);
  round(false);  // wake up again: values must still be served fresh
  EXPECT_EQ(bad, std::vector<int>(8, 0));
}
