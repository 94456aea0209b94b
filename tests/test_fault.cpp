// Deterministic fault injection and the recovery machinery it exercises:
// retry/backoff in the exchange phase, checksum-validate-retransmit in the
// collectives, and checkpoint/restart in the kernels on core::RecoveryLoop
// (cc_coalesced, sv_coalesced, mst_pgas, bfs_pgas, Wyllie list ranking and
// the BCC pipeline built on them).  The FaultChaos tests are the
// acceptance gate of docs/ROBUSTNESS.md: under a seeded fault plan the
// algorithms must produce bit-identical results to a fault-free run, at a
// (bounded) higher modeled cost.
//
// PGRAPH_CHAOS_SEED selects the fault seed (default 1); the chaos stage of
// scripts/run_checks.sh sweeps seeds 1..3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "core/bcc.hpp"
#include "core/bfs_pgas.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "core/list_ranking.hpp"
#include "core/mst_pgas.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "machine/cost_params.hpp"
#include "pgas/global_array.hpp"
#include "pgas/replica.hpp"
#include "pgas/runtime.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/json.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace coll = pgraph::coll;
namespace flt = pgraph::fault;
namespace tr = pgraph::trace;

namespace {

std::uint64_t chaos_seed() {
  const char* s = std::getenv("PGRAPH_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1;
}

pg::Runtime make_rt() {
  return pg::Runtime(pg::Topology::cluster(4, 2),
                     m::CostParams::hps_cluster());
}

/// One exchange superstep: every thread sends one message to the next node.
void cross_node_round(pg::ThreadCtx& ctx, std::size_t bytes) {
  const int tpn = ctx.topo().threads_per_node;
  const int dst_node = (ctx.node() + 1) % ctx.nnodes();
  ctx.post_exchange_msg(dst_node * tpn, bytes);
  ctx.exchange_barrier();
}

}  // namespace

// --- config / primitives -------------------------------------------------

TEST(FaultConfig, ParseLandsValues) {
  const auto c = flt::FaultConfig::parse(
      "drop=0.25,dup=0.125,delay=0.5,delay_ns=777,corrupt=0.1,"
      "straggle=0.2,straggle_ns=999,outage_every=40,outage_k=3,"
      "retries=4,timeout_ns=1000,backoff_ns=500,cap_ns=8000",
      9);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_DOUBLE_EQ(c.drop_p, 0.25);
  EXPECT_DOUBLE_EQ(c.dup_p, 0.125);
  EXPECT_DOUBLE_EQ(c.delay_p, 0.5);
  EXPECT_DOUBLE_EQ(c.delay_ns, 777.0);
  EXPECT_DOUBLE_EQ(c.corrupt_p, 0.1);
  EXPECT_DOUBLE_EQ(c.straggle_p, 0.2);
  EXPECT_DOUBLE_EQ(c.straggle_ns, 999.0);
  EXPECT_EQ(c.outage_every, 40u);
  EXPECT_EQ(c.outage_k, 3);
  EXPECT_EQ(c.max_retries, 4);
  EXPECT_DOUBLE_EQ(c.ack_timeout_ns, 1000.0);
  EXPECT_DOUBLE_EQ(c.retry_backoff_ns, 500.0);
  EXPECT_DOUBLE_EQ(c.backoff_cap_ns, 8000.0);
  EXPECT_TRUE(c.any_faults());
}

TEST(FaultConfig, RejectsUnknownAndMalformed) {
  EXPECT_THROW(flt::FaultConfig::parse("nope=1", 1), std::invalid_argument);
  EXPECT_THROW(flt::FaultConfig::parse("drop=zzz", 1),
               std::invalid_argument);
  EXPECT_THROW(flt::FaultConfig::parse("drop=1.5", 1),
               std::invalid_argument);
}

TEST(FaultConfig, EmptySpecIsAllZero) {
  const auto c = flt::FaultConfig::parse("", 3);
  EXPECT_FALSE(c.any_faults());
  EXPECT_FALSE(c.network_faults());
  EXPECT_FALSE(c.corruption_enabled());
}

TEST(FaultConfig, BackoffIsExponentialAndCapped) {
  auto c = flt::FaultConfig::parse("drop=0.1", 1);
  c.retry_backoff_ns = 100.0;
  c.backoff_cap_ns = 350.0;
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(0), 100.0);
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(1), 200.0);
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(2), 350.0);  // capped
  EXPECT_DOUBLE_EQ(c.backoff_ns_for(10), 350.0);
}

// --- FaultConfig::parse under hostile input -------------------------------
//
// `--faults` is input from outside the program: every value must either be
// rejected with std::invalid_argument or land in a config that meets the
// invariants documented on FaultConfig::parse.  Under the ubsan preset
// (which includes float-cast-overflow) a narrowing cast of an out-of-range
// value fails these tests too.

namespace {

/// The first documented parse invariant `c` breaks, or "" if none.
std::string config_violation(const flt::FaultConfig& c) {
  for (const double p :
       {c.drop_p, c.dup_p, c.delay_p, c.corrupt_p, c.straggle_p})
    if (!(p >= 0.0 && p <= 1.0)) return "probability outside [0,1]";
  for (const double d : {c.delay_ns, c.straggle_ns, c.ack_timeout_ns,
                         c.retry_backoff_ns, c.backoff_cap_ns})
    if (!(d >= 0.0 && d < 0x1p64)) return "duration outside [0, 2^64)";
  if (c.outage_every == 1) return "outage_every == 1";
  if (c.outage_every > 0 &&
      (c.outage_k < 1 ||
       static_cast<std::uint64_t>(c.outage_k) >= c.outage_every))
    return "outage_k outside [1, outage_every)";
  if (c.loss_node < -1) return "loss_node < -1";
  if (c.loss_node >= 0 && c.loss_at == 0) return "loss_node without loss_at";
  if (c.mem_flips < 0) return "mem_flips < 0";
  if (c.mem_flip_mirror && c.mem_flip_at == 0)
    return "mem_flip_mirror without mem_flip_at";
  if (c.max_retries < 0) return "max_retries < 0";
  return "";
}

}  // namespace

TEST(FaultConfigFuzz, RejectsValuesItCannotHonour) {
  struct Case {
    const char* what;
    const char* spec;
  };
  const Case bad[] = {
      {"NaN passes the [0,1] check", "drop=nan"},
      {"NaN passes the [0,1] check", "corrupt=nan"},
      {"negative duration runs clocks backwards", "delay_ns=-1e9"},
      {"negative duration runs clocks backwards", "straggle_ns=-1e9"},
      {"negative duration runs clocks backwards", "timeout_ns=-5e4"},
      {"non-finite duration", "backoff_ns=inf"},
      {"non-finite duration", "cap_ns=nan"},
      {"duration beyond the uint64 wait counter", "timeout_ns=1e30"},
      {"negative to unsigned cast is undefined", "outage_every=-3"},
      {"negative to unsigned cast is undefined", "loss_at=-1"},
      {"INT_MIN silently disables flips", "mem_flips=1e10"},
      {"out-of-range retries became 0", "retries=1e10"},
      {"NaN retries became 0", "retries=nan"},
      {"fractional epoch truncated", "loss_at=2.5"},
      {"loss_node below -1", "loss_node=-7"},
      {"loss_node below -1", "loss_at=5,loss_node=-7"},
      {"period 1 clamps outage_k into [1, 0]", "outage_every=1"},
  };
  for (const Case& c : bad) {
    SCOPED_TRACE(std::string(c.what) + ": " + c.spec);
    EXPECT_THROW(flt::FaultConfig::parse(c.spec, 1), std::invalid_argument);
  }
}

TEST(FaultConfigFuzz, ClampsOutageKAndRetriesIntoRange) {
  // outage_k lands in [1, outage_every - 1] even when the period does not
  // fit an int, and negative retries mean none.
  EXPECT_EQ(flt::FaultConfig::parse("outage_every=3,outage_k=9", 1).outage_k,
            2);
  EXPECT_EQ(flt::FaultConfig::parse("outage_every=3,outage_k=-5", 1).outage_k,
            1);
  EXPECT_EQ(flt::FaultConfig::parse("outage_every=4294967296", 1).outage_k,
            2);
  EXPECT_EQ(flt::FaultConfig::parse("retries=-3", 1).max_retries, 0);
}

TEST(FaultConfigFuzz, SeededMutationsThrowOrMeetInvariants) {
  // Valid plans from the tests, run_checks.sh and EXPERIMENTS.md.
  const std::vector<std::string> valid = {
      "outage_every=40,outage_k=2",
      "loss_at=24",
      "corrupt=0.5",
      "drop=0.05,dup=0.03,delay=0.1,straggle=0.05",
      "mem_flip_at=12,mem_flips=1",
      "drop=0.25,dup=0.125,delay=0.5,delay_ns=777,corrupt=0.1,straggle=0.2,"
      "straggle_ns=999,outage_every=40,outage_k=3,retries=4,timeout_ns=1000,"
      "backoff_ns=500,cap_ns=8000",
      "loss_at=9,loss_node=2,mem_flip_at=5,mem_flips=32,mem_flip_mirror=1",
      "drop=0.12,retries=3,arm=0",
      "drop=0.02,corrupt=0.01,straggle=0.05",
      "drop=0",
  };
  const char* const splices[] = {"nan",  "inf", "-1", "1.5", "1e30",
                                 "18446744073709551616", "-inf", "0",
                                 "1",    "2",   "4294967296", "2147483648"};
  std::mt19937_64 rng(20241017);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Replace the value of one key=value item with a spliced token.
  const auto splice = [&](std::string s) {
    std::vector<std::size_t> eqs;
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s[i] == '=') eqs.push_back(i);
    if (eqs.empty()) return s;
    const std::size_t eq = eqs[pick(eqs.size())];
    std::size_t end = s.find(',', eq);
    if (end == std::string::npos) end = s.size();
    return s.substr(0, eq + 1) + splices[pick(std::size(splices))] +
           s.substr(end);
  };
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string spec = valid[pick(valid.size())];
    const int ops = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < ops; ++k) {
      switch (pick(4)) {
        case 0:
          spec = splice(spec);
          break;
        case 1:  // flip one byte
          if (!spec.empty())
            spec[pick(spec.size())] = static_cast<char>(pick(256));
          break;
        case 2:  // truncate
          spec.resize(pick(spec.size() + 1));
          break;
        default:  // repeat a key, maybe with a spliced value
          spec += "," + (pick(2) ? valid[pick(valid.size())]
                                 : splice(valid[pick(valid.size())]));
          break;
      }
    }
    flt::FaultConfig cfg;
    try {
      cfg = flt::FaultConfig::parse(spec, 5);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_EQ(config_violation(cfg), "") << "spec '" << spec << "'";
    EXPECT_EQ(cfg.seed, 5u);
  }
  // Both outcomes are exercised, so neither branch is vacuous.
  EXPECT_GT(accepted, 400u);
  EXPECT_GT(rejected, 400u);
}

TEST(FaultInjector, DrawsAreDeterministic) {
  const auto cfg = flt::FaultConfig::parse("drop=0.3,dup=0.2,delay=0.2", 5);
  const std::vector<std::int32_t> nodes = {0, 1};
  const auto run_once = [&] {
    flt::FaultInjector inj(cfg);
    m::ExchangePlan plan(2);
    for (int k = 0; k < 32; ++k) plan[0].push_back({1, 100.0});
    inj.apply_exchange(plan, nodes, 2, /*epoch=*/7, /*attempt=*/0);
    return plan;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a[0].size(), b[0].size());  // identical duplicates
  for (std::size_t k = 0; k < a[0].size(); ++k) {
    EXPECT_EQ(a[0][k].dropped, b[0][k].dropped) << k;
    EXPECT_DOUBLE_EQ(a[0][k].extra_delay_ns, b[0][k].extra_delay_ns) << k;
  }
}

TEST(FaultInjector, ChecksumDetectsFlipAndRepairRestores) {
  std::vector<std::uint64_t> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i * 0x9e37ull;
  const std::vector<std::uint64_t> orig = buf;
  const std::uint64_t sum = flt::checksum_words(buf.data(), buf.size() * 8);

  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0", 11));
  ASSERT_EQ(inj.corrupt(buf.data(), buf.size() * 8, /*epoch=*/3,
                        /*thread=*/0, /*tag=*/0),
            1);
  EXPECT_NE(flt::checksum_words(buf.data(), buf.size() * 8), sum);
  EXPECT_NE(buf, orig);
  EXPECT_EQ(inj.repair(buf.data(), buf.size() * 8), 1);
  EXPECT_EQ(buf, orig);
  EXPECT_EQ(flt::checksum_words(buf.data(), buf.size() * 8), sum);
  EXPECT_EQ(inj.counters().corruptions, 1u);
  EXPECT_EQ(inj.counters().repairs, 1u);
}

TEST(FaultInjector, ChecksumCoversTrailingPartialWord) {
  unsigned char buf[13];
  std::memset(buf, 0x5a, sizeof buf);
  const std::uint64_t sum = flt::checksum_words(buf, sizeof buf);
  buf[12] ^= 1;  // inside the zero-padded tail word
  EXPECT_NE(flt::checksum_words(buf, sizeof buf), sum);
}

TEST(FaultInjector, OutageScheduleArithmetic) {
  flt::FaultInjector inj(flt::FaultConfig::parse("outage_every=10", 2));
  ASSERT_EQ(inj.config().outage_k, 2);
  // Window j=0 is warm-up: no outages before epoch outage_every.
  for (std::uint64_t e = 0; e < 10; ++e) {
    EXPECT_FALSE(inj.outage_active(e)) << e;
    EXPECT_EQ(inj.down_node(4, e), -1) << e;
  }
  // Window j=1 covers epochs [10, 12): one deterministic down node.
  EXPECT_TRUE(inj.outage_active(10));
  EXPECT_TRUE(inj.outage_active(11));
  EXPECT_FALSE(inj.outage_active(12));
  const int down = inj.down_node(4, 10);
  ASSERT_GE(down, 0);
  EXPECT_LT(down, 4);
  EXPECT_EQ(inj.down_node(4, 11), down);
  EXPECT_FALSE(inj.outage_ends_at(10));
  EXPECT_TRUE(inj.outage_ends_at(11));
  EXPECT_FALSE(inj.outage_ends_at(12));
}

// --- runtime integration -------------------------------------------------

TEST(FaultRuntime, RetryChargesModeledTime) {
  const std::size_t kBytes = 4096;
  const int kRounds = 20;
  double clean_ns = 0.0;
  {
    pg::Runtime rt = make_rt();
    rt.run([&](pg::ThreadCtx& ctx) {
      for (int r = 0; r < kRounds; ++r) cross_node_round(ctx, kBytes);
    });
    clean_ns = rt.modeled_time_ns();
  }
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=0.4", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  rt.run([&](pg::ThreadCtx& ctx) {
    for (int r = 0; r < kRounds; ++r) cross_node_round(ctx, kBytes);
  });
  // 160 message draws at p=0.4: losses are certain for any seed that
  // draws at least one drop, and each loss costs timeout + backoff.
  EXPECT_GT(inj.counters().drops, 0u);
  EXPECT_GT(inj.counters().retransmits, 0u);
  EXPECT_GT(inj.counters().retry_wait_ns, 0u);
  EXPECT_GT(rt.modeled_time_ns(), clean_ns);
}

TEST(FaultRuntime, ExhaustionThrowsFaultErrorCollectively) {
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=1.0,retries=3", 1));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  bool threw = false;
  try {
    rt.run([&](pg::ThreadCtx& ctx) { cross_node_round(ctx, 1024); });
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::RetryExhausted);
  }
  EXPECT_TRUE(threw);
  // The runtime must remain usable: detach faults and run clean.
  rt.set_fault_injector(nullptr);
  rt.run([&](pg::ThreadCtx& ctx) { cross_node_round(ctx, 1024); });
  EXPECT_GT(rt.modeled_time_ns(), 0.0);
}

TEST(FaultRuntime, StragglerPerturbsClocks) {
  const auto work = [](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 10; ++r) {
      ctx.compute(1000, m::Cat::Work);
      ctx.barrier();
    }
  };
  double clean_ns = 0.0;
  {
    pg::Runtime rt = make_rt();
    rt.run(work);
    clean_ns = rt.modeled_time_ns();
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("straggle=1.0,straggle_ns=50000", 1));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  rt.run(work);
  EXPECT_GT(inj.counters().straggles, 0u);
  // Every barrier straggles every thread by >= straggle_ns/2.
  EXPECT_GT(rt.modeled_time_ns(), clean_ns + 10 * 25000.0);
}

TEST(FaultRuntime, ZeroFaultInjectorIsFree) {
  const auto work = [](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 6; ++r) {
      ctx.compute(500, m::Cat::Work);
      cross_node_round(ctx, 2048);
    }
  };
  double clean_ns = 0.0;
  {
    pg::Runtime rt = make_rt();
    rt.run(work);
    clean_ns = rt.modeled_time_ns();
  }
  flt::FaultInjector inj(flt::FaultConfig::parse("", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  rt.run(work);
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), clean_ns);
}

// --- chaos: end-to-end algorithms under faults ---------------------------

TEST(FaultChaos, CcBitIdenticalUnderNetworkFaults) {
  const auto el = g::random_graph(256, 1024, 7);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(flt::FaultConfig::parse(
      "drop=0.05,dup=0.03,delay=0.1,straggle=0.05", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  EXPECT_EQ(chaotic.num_components, clean.num_components);
  EXPECT_GT(inj.counters().retransmits, 0u);
  // Bounded recovery: every drop is retransmitted at most max_retries
  // times, and in practice far fewer.
  EXPECT_LE(inj.counters().retransmits,
            inj.counters().drops *
                static_cast<std::uint64_t>(inj.config().max_retries));
  EXPECT_GE(chaotic.costs.modeled_ns, clean.costs.modeled_ns);
}

TEST(FaultChaos, CcCorruptionDetectedRepairedBitIdentical) {
  const auto el = g::random_graph(256, 1024, 8);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("corrupt=0.5", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  const auto c = inj.counters();
  EXPECT_GT(c.corruptions, 0u);
  EXPECT_GT(c.detected, 0u);
  EXPECT_EQ(c.repairs, c.corruptions);  // every flip repaired before use
  EXPECT_GT(chaotic.costs.modeled_ns, clean.costs.modeled_ns);
}

TEST(FaultChaos, CcOutageRollsBackAndMatches) {
  const auto el = g::random_graph(256, 1024, 9);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("outage_every=40,outage_k=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  const auto c = inj.counters();
  EXPECT_GT(c.checkpoints, 0u);
  EXPECT_GT(c.outage_events, 0u);
  EXPECT_GT(c.rollbacks, 0u);
  EXPECT_GE(chaotic.iterations, clean.iterations);
}

TEST(FaultChaos, SvOutageRollsBackAndMatches) {
  const auto el = g::random_graph(256, 1024, 9);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::sv_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("outage_every=40,outage_k=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::sv_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  const auto c = inj.counters();
  EXPECT_GT(c.checkpoints, 0u);
  EXPECT_GT(c.outage_events, 0u);
  EXPECT_GT(c.rollbacks, 0u);
  EXPECT_GE(chaotic.iterations, clean.iterations);
}

TEST(FaultChaos, MstWeightAndEdgesIdenticalUnderFaults) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 10), 11);
  core::ParMstResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::mst_pgas(rt, el, {});
  }
  flt::FaultInjector inj(flt::FaultConfig::parse(
      "drop=0.05,delay=0.1,corrupt=0.25,straggle=0.05", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  auto chaotic = core::mst_pgas(rt, el, {});
  EXPECT_EQ(chaotic.total_weight, clean.total_weight);
  auto ce = chaotic.edges;
  auto ke = clean.edges;
  std::sort(ce.begin(), ce.end());
  std::sort(ke.begin(), ke.end());
  EXPECT_EQ(ce, ke);
  EXPECT_GT(inj.counters().retransmits + inj.counters().repairs, 0u);
}

TEST(FaultChaos, MstOutageRollsBackAndMatches) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 12), 13);
  core::ParMstResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::mst_pgas(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("outage_every=40,outage_k=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  auto chaotic = core::mst_pgas(rt, el, {});
  EXPECT_EQ(chaotic.total_weight, clean.total_weight);
  auto ce = chaotic.edges;
  auto ke = clean.edges;
  std::sort(ce.begin(), ce.end());
  std::sort(ke.begin(), ke.end());
  EXPECT_EQ(ce, ke);
  EXPECT_GT(inj.counters().checkpoints, 0u);
  EXPECT_GT(inj.counters().rollbacks, 0u);
}

// --- permanent node loss: config, shrink, and degraded-mode recovery -----

TEST(FaultConfig, ParseLossKeys) {
  const auto c = flt::FaultConfig::parse("loss_at=24,loss_node=2", 3);
  EXPECT_EQ(c.loss_at, 24u);
  EXPECT_EQ(c.loss_node, 2);
  EXPECT_TRUE(c.loss_enabled());
  EXPECT_TRUE(c.network_faults());
  EXPECT_TRUE(c.any_faults());
  // A pinned victim without a loss epoch is a meaningless plan.
  EXPECT_THROW(flt::FaultConfig::parse("loss_node=2", 3),
               std::invalid_argument);
  // loss_at=0 keeps the whole subsystem disabled.
  EXPECT_FALSE(flt::FaultConfig::parse("loss_at=0", 3).loss_enabled());
}

TEST(FaultConfig, ValidateTopologyRejectsImpossiblePlans) {
  const auto loss = flt::FaultConfig::parse("loss_at=8", 1);
  EXPECT_THROW(loss.validate_topology(1), std::invalid_argument);
  EXPECT_NO_THROW(loss.validate_topology(2));
  const auto outage = flt::FaultConfig::parse("outage_every=10", 1);
  EXPECT_THROW(outage.validate_topology(1), std::invalid_argument);
  EXPECT_NO_THROW(outage.validate_topology(2));
  const auto pinned = flt::FaultConfig::parse("loss_at=8,loss_node=7", 1);
  EXPECT_THROW(pinned.validate_topology(4), std::invalid_argument);
  EXPECT_NO_THROW(pinned.validate_topology(8));
  // Plans without node-grained faults run anywhere, including 1 node.
  EXPECT_NO_THROW(flt::FaultConfig::parse("corrupt=0.5", 1)
                      .validate_topology(1));
}

TEST(FaultRuntime, AttachRejectsPlanTheTopologyCannotHonour) {
  pg::Runtime rt(pg::Topology::cluster(1, 4), m::CostParams::hps_cluster());
  flt::FaultInjector loss(flt::FaultConfig::parse("loss_at=8", 1));
  EXPECT_THROW(rt.set_fault_injector(&loss), std::invalid_argument);
  flt::FaultInjector outage(flt::FaultConfig::parse("outage_every=10", 1));
  EXPECT_THROW(rt.set_fault_injector(&outage), std::invalid_argument);
  // The rejected attach must leave the runtime clean and usable.
  rt.run([](pg::ThreadCtx& ctx) { ctx.barrier(); });
  EXPECT_GT(rt.modeled_time_ns(), 0.0);
}

TEST(FaultRuntime, AttachResetsCountersPerRuntime) {
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=0.4", chaos_seed()));
  pg::Runtime rt1 = make_rt();
  rt1.set_fault_injector(&inj);
  rt1.run([&](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 20; ++r) cross_node_round(ctx, 4096);
  });
  EXPECT_GT(inj.counters().drops, 0u);
  // Attaching the same injector to a fresh runtime starts counters from
  // zero, so per-row bench deltas cannot double-count the previous run.
  pg::Runtime rt2 = make_rt();
  rt2.set_fault_injector(&inj);
  EXPECT_EQ(inj.counters().drops, 0u);
  EXPECT_EQ(inj.counters().retransmits, 0u);
  EXPECT_EQ(inj.counters().retry_wait_ns, 0u);
}

TEST(FaultRuntime, ReplicaMirrorRoundTrip) {
  pg::Runtime rt(pg::Topology::cluster(2, 2), m::CostParams::hps_cluster());
  pg::GlobalArray<std::uint64_t> arr(rt, 64);
  std::vector<int> bad(4, 0);
  rt.run([&](pg::ThreadCtx& ctx) {
    const int me = ctx.id();
    auto blk = arr.local_span(me);
    for (std::size_t i = 0; i < blk.size(); ++i)
      blk[i] = 1000 + i + static_cast<std::size_t>(me) * 100;
    arr.replica().snapshot(me);
    for (auto& v : blk) v = 0;  // "lose" the partition
    arr.replica().restore(me);
    for (std::size_t i = 0; i < blk.size(); ++i)
      if (blk[i] != 1000 + i + static_cast<std::size_t>(me) * 100)
        bad[static_cast<std::size_t>(me)] = 1;
    ctx.barrier();
  });
  EXPECT_EQ(bad, std::vector<int>(4, 0));
}

TEST(FaultRuntime, LossShrinksOntoBuddyAndStaysUsable) {
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=4,loss_node=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> arr(rt, 256);
  bool threw = false;
  try {
    rt.run([&](pg::ThreadCtx& ctx) {
      const int me = ctx.id();
      auto blk = arr.local_span(me);
      for (std::size_t i = 0; i < blk.size(); ++i) blk[i] = i;
      ctx.barrier();
      pg::replicate_to_buddy(ctx);
      for (int r = 0; r < 10; ++r) cross_node_round(ctx, 1024);
    });
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::PermanentLoss);
  }
  ASSERT_TRUE(threw);
  // Node 2 is gone; its predecessor (node 1) adopted threads 4 and 5.
  EXPECT_EQ(rt.topo().live_node_count(), 3);
  EXPECT_FALSE(rt.topo().node_alive(2));
  EXPECT_EQ(rt.topo().node_of(4), 1);
  EXPECT_EQ(rt.topo().node_of(5), 1);
  const auto c = inj.counters();
  EXPECT_EQ(c.loss_events, 1u);
  EXPECT_GT(c.loss_drops, 0u);
  EXPECT_GE(c.replications, 1u);
  EXPECT_GT(c.replica_bytes, 0u);
  // Promotion restored the two dead-hosted 32-element blocks (256 B each).
  EXPECT_EQ(c.promoted_bytes, 512u);
  // The shrunk runtime keeps working (messages reroute to the buddy).
  rt.run([&](pg::ThreadCtx& ctx) {
    for (int r = 0; r < 4; ++r) cross_node_round(ctx, 1024);
  });
  EXPECT_GT(rt.modeled_time_ns(), 0.0);
  EXPECT_EQ(inj.counters().loss_events, 1u);  // no second shrink
}

TEST(FaultChaos, CcLossBitIdenticalAfterShrink) {
  const auto el = g::random_graph(256, 1024, 15);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=24", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  EXPECT_EQ(chaotic.num_components, clean.num_components);
  const auto c = inj.counters();
  EXPECT_EQ(c.loss_events, 1u);
  EXPECT_GT(c.loss_drops, 0u);
  EXPECT_GE(c.replications, 1u);
  EXPECT_GT(c.replica_bytes, 0u);
  EXPECT_GT(c.promoted_bytes, 0u);
  EXPECT_GE(c.rollbacks, 1u);
  EXPECT_EQ(rt.topo().live_node_count(), 3);
  // Degraded mode is not free: timeouts, the replication traffic and the
  // re-run supersteps all land on the modeled clock.
  EXPECT_GT(chaotic.costs.modeled_ns, clean.costs.modeled_ns);
}

TEST(FaultChaos, SvLossBitIdenticalAfterShrink) {
  const auto el = g::random_graph(256, 1024, 15);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::sv_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=24", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto chaotic = core::sv_coalesced(rt, el, {});
  EXPECT_EQ(chaotic.labels, clean.labels);
  EXPECT_EQ(chaotic.num_components, clean.num_components);
  const auto c = inj.counters();
  EXPECT_EQ(c.loss_events, 1u);
  EXPECT_GE(c.replications, 1u);
  EXPECT_GE(c.rollbacks, 1u);
  EXPECT_EQ(rt.topo().live_node_count(), 3);
}

TEST(FaultChaos, MstLossBitIdenticalAfterShrink) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 16), 17);
  core::ParMstResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::mst_pgas(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=24", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  auto chaotic = core::mst_pgas(rt, el, {});
  EXPECT_EQ(chaotic.total_weight, clean.total_weight);
  auto ce = chaotic.edges;
  auto ke = clean.edges;
  std::sort(ce.begin(), ce.end());
  std::sort(ke.begin(), ke.end());
  EXPECT_EQ(ce, ke);
  const auto c = inj.counters();
  EXPECT_EQ(c.loss_events, 1u);
  EXPECT_GE(c.rollbacks, 1u);
  EXPECT_GE(c.replications, 1u);
  EXPECT_EQ(rt.topo().live_node_count(), 3);
}

// --- late loss: the skip cache after a shrink ------------------------------
//
// A shrink restores smatrix/pmatrix rows from checkpoint-time mirrors, so
// a requester's skip cache no longer describes them: skipping an "already
// zero" entry leaves a stale count for the adopted owner to serve out of
// the requester's current (smaller) buffers.  The loss tests above shrink
// early, before any restored row differed from what the cache said; the
// kernel plans below, found by a sweep over loss_at and loss_node on this
// fixture, crashed or returned a wrong MST weight while callers had to
// invalidate the cache by hand.

TEST(FaultRuntime, SkipCacheSurvivesShrink) {
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=20,loss_node=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> arr(rt, 256);
  for (std::size_t i = 0; i < 256; ++i) arr.raw(i) = 1000 + i;
  coll::CollectiveContext ccx(rt);
  const auto copt = coll::CollectiveOptions::optimized();
  // Thread 0 reads owner 4's block (node 2), every thread's row is
  // mirrored, and thread 0's count for owner 4 drops to zero.
  std::vector<std::uint64_t> owner4(32);
  for (std::size_t i = 0; i < owner4.size(); ++i) owner4[i] = 128 + i;
  std::uint64_t dropped_at = 0;
  bool threw = false;
  try {
    rt.run([&](pg::ThreadCtx& ctx) {
      coll::CollWorkspace<std::uint64_t> ws;
      std::vector<std::uint64_t> idx, out;
      if (ctx.id() == 0) idx = owner4;
      out.resize(idx.size());
      coll::getd(ctx, arr, idx, std::span<std::uint64_t>(out), copt, ccx, ws);
      pg::replicate_to_buddy(ctx);
      coll::getd(ctx, arr, {}, std::span<std::uint64_t>(), copt, ccx, ws);
      if (ctx.id() == 0) dropped_at = ctx.epoch();
      for (int r = 0; r < 64; ++r) cross_node_round(ctx, 64);
    });
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::PermanentLoss);
  }
  ASSERT_TRUE(threw);
  ASSERT_LT(dropped_at, 20u);  // the zero was published before the loss
  ASSERT_EQ(rt.topo().node_of(4), 1);
  // The shrink restored owner 4's row with thread 0's count of 32.  A GetD
  // from a fresh workspace that requests nothing must republish the zero
  // before owner 4 serves; the next real read sees the promoted block.
  std::vector<std::uint64_t> got(owner4.size());
  rt.run([&](pg::ThreadCtx& ctx) {
    coll::CollWorkspace<std::uint64_t> fresh;
    coll::getd(ctx, arr, {}, std::span<std::uint64_t>(), copt, ccx, fresh);
    std::vector<std::uint64_t> idx;
    if (ctx.id() == 0) idx = owner4;
    std::vector<std::uint64_t> out(idx.size());
    coll::getd(ctx, arr, idx, std::span<std::uint64_t>(out), copt, ccx, fresh);
    if (ctx.id() == 0) got = out;
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], 1000 + owner4[i]) << i;
}

namespace {

enum class LateKernel { Cc, CcHierarchical, Sv, Mst, Bfs, Wyllie };

const char* late_kernel_name(LateKernel k) {
  switch (k) {
    case LateKernel::Cc: return "cc";
    case LateKernel::CcHierarchical: return "cc hierarchical";
    case LateKernel::Sv: return "sv";
    case LateKernel::Mst: return "mst";
    case LateKernel::Bfs: return "bfs";
    case LateKernel::Wyllie: return "wyllie";
  }
  return "?";
}

/// CC/SV labels, the one-element MST weight (weights seeded 7), BFS
/// distances from vertex 0 or the Wyllie ranks of a random list over el.n
/// (seed 5), of `k` on `el` on a fresh 4x2 runtime under the fault plan
/// `faults` ("" runs fault-free).  `shrank` reports whether the runtime
/// lost a node, `counters` the injector's counters.
std::vector<std::uint64_t> late_loss_answer(
    LateKernel k, const g::EdgeList& el, const std::string& faults,
    bool* shrank = nullptr, flt::FaultCounters* counters = nullptr) {
  flt::FaultInjector inj(flt::FaultConfig::parse(faults, chaos_seed()));
  pg::Runtime rt = make_rt();
  if (!faults.empty()) rt.set_fault_injector(&inj);
  std::vector<std::uint64_t> out;
  if (k == LateKernel::Mst) {
    out = {core::mst_pgas(rt, g::with_random_weights(el, 7), {}).total_weight};
  } else if (k == LateKernel::Bfs) {
    out = core::bfs_pgas(rt, el, 0).dist;
  } else if (k == LateKernel::Wyllie) {
    out = core::list_ranking_pgas(rt, core::make_random_list(el.n, 5)).ranks;
  } else if (k == LateKernel::Sv) {
    out = core::sv_coalesced(rt, el, {}).labels;
  } else {
    core::CcOptions o;
    o.coll.hierarchical = k == LateKernel::CcHierarchical;
    out = core::cc_coalesced(rt, el, o).labels;
  }
  if (shrank != nullptr) *shrank = rt.topo().shrinks > 0;
  if (counters != nullptr) *counters = inj.counters();
  return out;
}

void expect_late_loss_matches(LateKernel k, const g::EdgeList& el,
                              const std::string& plan) {
  bool shrank = false;
  EXPECT_EQ(late_loss_answer(k, el, plan, &shrank),
            late_loss_answer(k, el, ""))
      << late_kernel_name(k) << " under " << plan;
  EXPECT_TRUE(shrank) << late_kernel_name(k) << " under " << plan;
}

}  // namespace

TEST(FaultChaos, LateLossCcMatchesFaultFree) {
  expect_late_loss_matches(LateKernel::Cc, g::rmat_graph(256, 1024, 3),
                           "loss_at=48,loss_node=0");
}

TEST(FaultChaos, LateLossSvMatchesFaultFree) {
  expect_late_loss_matches(LateKernel::Sv, g::path_graph(300),
                           "loss_at=264,loss_node=0");
}

TEST(FaultChaos, LateLossMstMatchesFaultFree) {
  const auto el = g::path_graph(300);
  expect_late_loss_matches(LateKernel::Mst, el, "loss_at=60,loss_node=2");
  // This one returned a wrong total weight instead of crashing.
  expect_late_loss_matches(LateKernel::Mst, el, "loss_at=114,loss_node=2");
}

TEST(FaultChaos, LateLossSweepMatchesFaultFree) {
  // A coarse diagonal of the sweep: loss_at 6, 27, ..., 384 with the lost
  // node rotating, for every checkpointing kernel on both graphs.
  const g::EdgeList graphs[] = {g::path_graph(300),
                                g::rmat_graph(256, 1024, 3)};
  int shrinks = 0;
  for (const g::EdgeList& el : graphs) {
    for (const LateKernel k :
         {LateKernel::Cc, LateKernel::CcHierarchical, LateKernel::Sv,
          LateKernel::Mst, LateKernel::Bfs, LateKernel::Wyllie}) {
      const auto clean = late_loss_answer(k, el, "");
      for (int i = 0; 6 + 21 * i <= 399; ++i) {
        const std::string plan = "loss_at=" + std::to_string(6 + 21 * i) +
                                 ",loss_node=" + std::to_string(i % 4);
        bool shrank = false;
        EXPECT_EQ(late_loss_answer(k, el, plan, &shrank), clean)
            << late_kernel_name(k) << " on n=" << el.n << " under " << plan;
        shrinks += shrank;
      }
    }
  }
  EXPECT_GT(shrinks, 0);
}

TEST(FaultChaos, BfsAndWyllieOutageRollBackAndMatch) {
  // A path keeps BFS running for 300 levels, so outage windows close
  // mid-run; both kernels roll back to their last checkpoint and re-run.
  const auto el = g::path_graph(300);
  for (const LateKernel k : {LateKernel::Bfs, LateKernel::Wyllie}) {
    flt::FaultCounters c;
    EXPECT_EQ(late_loss_answer(k, el, "outage_every=40,outage_k=2", nullptr,
                               &c),
              late_loss_answer(k, el, ""))
        << late_kernel_name(k);
    EXPECT_GT(c.checkpoints, 0u) << late_kernel_name(k);
    EXPECT_GT(c.outage_events, 0u) << late_kernel_name(k);
    EXPECT_GT(c.rollbacks, 0u) << late_kernel_name(k);
  }
}

TEST(FaultChaos, BfsAndWyllieLossBitIdenticalAfterShrink) {
  const auto el = g::random_graph(256, 1024, 15);
  expect_late_loss_matches(LateKernel::Bfs, el, "loss_at=24");
  expect_late_loss_matches(LateKernel::Wyllie, el, "loss_at=24");
}

TEST(FaultChaos, BccLossMatchesFaultFree) {
  // bcc_pgas runs a spanning tree, two Wyllie rankings and cc_coalesced;
  // a node loss in any of them rolls back inside that phase.
  const auto el = g::random_graph(200, 600, 21);
  core::BccResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::bcc_pgas(rt, el);
  }
  int shrinks = 0;
  for (int loss_at = 6; loss_at <= 397; loss_at += 23) {
    const std::string plan = "loss_at=" + std::to_string(loss_at) +
                             ",loss_node=" + std::to_string(loss_at % 4);
    flt::FaultInjector inj(flt::FaultConfig::parse(plan, chaos_seed()));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&inj);
    EXPECT_TRUE(core::same_blocks(core::bcc_pgas(rt, el), clean)) << plan;
    shrinks += rt.topo().shrinks > 0;
  }
  EXPECT_GT(shrinks, 0);
}

TEST(FaultChaos, ZeroLossPlanLeavesCcModeledTimeUnchanged) {
  const auto el = g::random_graph(200, 800, 18);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=0", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto attached = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(attached.labels, clean.labels);
  EXPECT_DOUBLE_EQ(attached.costs.modeled_ns, clean.costs.modeled_ns);
  EXPECT_EQ(inj.counters().loss_drops, 0u);
  EXPECT_EQ(inj.counters().replications, 0u);
  EXPECT_EQ(inj.counters().checkpoints, 0u);
}

// --- collective exhaustion leaves the runtime reusable -------------------
//
// One thread on one node with corrupt=1.0 and retries=0: the first
// checksum mismatch exhausts immediately (the per-thread throw cannot
// deadlock a 1-thread barrier), and the runtime must afterwards produce a
// clean run bit-identical to one that was never faulted.

namespace {

pg::Runtime make_rt1() {
  return pg::Runtime(pg::Topology::cluster(1, 1),
                     m::CostParams::hps_cluster());
}

}  // namespace

TEST(FaultRecovery, GetdExhaustionLeavesRuntimeReusable) {
  const std::size_t n = 64;
  std::vector<std::uint64_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = (i * 7) % n;
  const coll::CollectiveOptions copt{};
  const auto fill_and_getd = [&](pg::Runtime& rt,
                                 pg::GlobalArray<std::uint64_t>& D,
                                 coll::CollectiveContext& ccx,
                                 std::vector<std::uint64_t>& out) {
    rt.run([&](pg::ThreadCtx& ctx) {
      auto blk = D.local_span(0);
      for (std::size_t i = 0; i < n; ++i) blk[i] = i * 3 + 1;
      ctx.barrier();
      coll::CollWorkspace<std::uint64_t> ws;
      coll::getd(ctx, D, idx, std::span<std::uint64_t>(out), copt, ccx, ws);
    });
  };

  std::vector<std::uint64_t> ref_out(n);
  double ref_ns = 0.0;
  {
    pg::Runtime rt = make_rt1();
    pg::GlobalArray<std::uint64_t> D(rt, n);
    coll::CollectiveContext ccx(rt);
    fill_and_getd(rt, D, ccx, ref_out);
    ref_ns = rt.modeled_time_ns();
  }

  pg::Runtime rt = make_rt1();
  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0,retries=0", 1));
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> D(rt, n);
  coll::CollectiveContext ccx(rt);
  std::vector<std::uint64_t> out(n);
  bool threw = false;
  try {
    fill_and_getd(rt, D, ccx, out);
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::Corruption);
  }
  ASSERT_TRUE(threw);
  rt.set_fault_injector(nullptr);
  rt.reset_costs();
  fill_and_getd(rt, D, ccx, out);
  EXPECT_EQ(out, ref_out);
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), ref_ns);
}

TEST(FaultRecovery, SetdExhaustionLeavesRuntimeReusable) {
  const std::size_t n = 64;
  std::vector<std::uint64_t> gi(n);
  std::vector<std::uint64_t> gv(n);
  for (std::size_t i = 0; i < n; ++i) {
    gi[i] = (i * 5) % n;
    gv[i] = i + 7;
  }
  const coll::CollectiveOptions copt{};
  const auto fill_and_setd = [&](pg::Runtime& rt,
                                 pg::GlobalArray<std::uint64_t>& D,
                                 coll::CollectiveContext& ccx) {
    rt.run([&](pg::ThreadCtx& ctx) {
      auto blk = D.local_span(0);
      for (std::size_t i = 0; i < n; ++i) blk[i] = i;
      ctx.barrier();
      coll::CollWorkspace<std::uint64_t> ws;
      coll::setd(ctx, D, gi, std::span<const std::uint64_t>(gv), copt, ccx,
                 ws);
    });
  };

  std::vector<std::uint64_t> ref_labels;
  double ref_ns = 0.0;
  {
    pg::Runtime rt = make_rt1();
    pg::GlobalArray<std::uint64_t> D(rt, n);
    coll::CollectiveContext ccx(rt);
    fill_and_setd(rt, D, ccx);
    ref_labels.assign(D.raw_all().begin(), D.raw_all().end());
    ref_ns = rt.modeled_time_ns();
  }

  pg::Runtime rt = make_rt1();
  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0,retries=0", 1));
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> D(rt, n);
  coll::CollectiveContext ccx(rt);
  bool threw = false;
  try {
    fill_and_setd(rt, D, ccx);
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::Corruption);
  }
  ASSERT_TRUE(threw);
  rt.set_fault_injector(nullptr);
  rt.reset_costs();
  fill_and_setd(rt, D, ccx);
  EXPECT_TRUE(std::equal(ref_labels.begin(), ref_labels.end(),
                         D.raw_all().begin()));
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), ref_ns);
}

TEST(FaultRecovery, SetdMinExhaustionLeavesRuntimeReusable) {
  const std::size_t n = 64;
  std::vector<std::uint64_t> gi(n);
  std::vector<std::uint64_t> gv(n);
  for (std::size_t i = 0; i < n; ++i) {
    gi[i] = (i * 3) % n;
    gv[i] = (i * 11) % 50;
  }
  const coll::CollectiveOptions copt{};
  const auto fill_and_setd_min = [&](pg::Runtime& rt,
                                     pg::GlobalArray<std::uint64_t>& D,
                                     coll::CollectiveContext& ccx) {
    rt.run([&](pg::ThreadCtx& ctx) {
      auto blk = D.local_span(0);
      for (std::size_t i = 0; i < n; ++i) blk[i] = 1000;
      ctx.barrier();
      coll::CollWorkspace<std::uint64_t> ws;
      coll::setd_min(ctx, D, gi, std::span<const std::uint64_t>(gv), copt,
                     ccx, ws);
    });
  };

  std::vector<std::uint64_t> ref_labels;
  double ref_ns = 0.0;
  {
    pg::Runtime rt = make_rt1();
    pg::GlobalArray<std::uint64_t> D(rt, n);
    coll::CollectiveContext ccx(rt);
    fill_and_setd_min(rt, D, ccx);
    ref_labels.assign(D.raw_all().begin(), D.raw_all().end());
    ref_ns = rt.modeled_time_ns();
  }

  pg::Runtime rt = make_rt1();
  flt::FaultInjector inj(flt::FaultConfig::parse("corrupt=1.0,retries=0", 1));
  rt.set_fault_injector(&inj);
  pg::GlobalArray<std::uint64_t> D(rt, n);
  coll::CollectiveContext ccx(rt);
  bool threw = false;
  try {
    fill_and_setd_min(rt, D, ccx);
  } catch (const flt::FaultError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), flt::FaultKind::Corruption);
  }
  ASSERT_TRUE(threw);
  rt.set_fault_injector(nullptr);
  rt.reset_costs();
  fill_and_setd_min(rt, D, ccx);
  EXPECT_TRUE(std::equal(ref_labels.begin(), ref_labels.end(),
                         D.raw_all().begin()));
  EXPECT_DOUBLE_EQ(rt.modeled_time_ns(), ref_ns);
}

TEST(FaultChaos, ZeroFaultPlanLeavesCcModeledTimeUnchanged) {
  const auto el = g::random_graph(200, 800, 14);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(flt::FaultConfig::parse("drop=0", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto attached = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(attached.labels, clean.labels);
  EXPECT_DOUBLE_EQ(attached.costs.modeled_ns, clean.costs.modeled_ns);
  EXPECT_EQ(inj.counters().drops, 0u);
  EXPECT_EQ(inj.counters().checkpoints, 0u);
}

// --- serving-phase arming (`arm=0|1`) ------------------------------------

TEST(FaultConfig, ArmKeyParsesAndValidates) {
  EXPECT_TRUE(flt::FaultConfig::parse("drop=0.1,arm=1", 1).start_armed);
  EXPECT_FALSE(flt::FaultConfig::parse("drop=0.1,arm=0", 1).start_armed);
  EXPECT_TRUE(flt::FaultConfig::parse("drop=0.1", 1).start_armed);
  EXPECT_THROW(flt::FaultConfig::parse("arm=2", 1), std::invalid_argument);
}

TEST(FaultChaos, DisarmedPlanIsANoOpUntilArmed) {
  // Disarmed, a hostile plan behaves like an empty one — bit-identical
  // labels and modeled time, zero counters.  Re-arming the same injector
  // mid-process makes the (purely hash-keyed) draws fire.
  const auto el = g::random_graph(200, 800, 23);
  core::ParCCResult clean;
  {
    pg::Runtime rt = make_rt();
    clean = core::cc_coalesced(rt, el, {});
  }
  flt::FaultInjector inj(
      flt::FaultConfig::parse("drop=0.3,retries=24,arm=0", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  const auto disarmed = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(disarmed.labels, clean.labels);
  EXPECT_DOUBLE_EQ(disarmed.costs.modeled_ns, clean.costs.modeled_ns);
  EXPECT_EQ(inj.counters().drops, 0u);

  inj.set_armed(true);
  const auto armed = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(armed.labels, clean.labels);  // retransmits keep it correct
  EXPECT_GT(inj.counters().drops, 0u);
  EXPECT_GT(armed.costs.modeled_ns, clean.costs.modeled_ns);

  inj.set_armed(false);
  const std::uint64_t drops = inj.counters().drops;
  const auto rearmed_off = core::cc_coalesced(rt, el, {});
  EXPECT_EQ(rearmed_off.labels, clean.labels);
  EXPECT_EQ(inj.counters().drops, drops);  // disarmed again: no new draws
}

// --- golden recovery trajectories -----------------------------------------
//
// The chaos tests above check answers and inequalities; these pin the
// exact trajectory of cc_coalesced and mst_pgas under one plan per
// recovery path: every modeled nanosecond, barrier, message and byte,
// every fault counter, and the final state digest.  The fault seed is
// fixed at 1 (PGRAPH_CHAOS_SEED is ignored), so a refactor of the
// recovery loop or the exchange collectives that moves a single charge
// fails here.  After an intended model change, replace the rows with the
// ones the failure messages print.

namespace {

struct GoldenRow {
  double modeled_ns;
  std::uint64_t barriers, messages, bytes, digest;
  std::vector<std::uint64_t> counters;  // FaultCounters, declaration order
};

std::vector<std::uint64_t> counter_values(const flt::FaultCounters& c) {
  static_assert(sizeof(flt::FaultCounters) == 23 * sizeof(std::uint64_t),
                "list a new FaultCounters field here");
  return {c.drops,          c.duplicates,    c.delays,
          c.outage_drops,   c.retransmits,   c.corruptions,
          c.detected,       c.repairs,       c.straggles,
          c.outage_events,  c.rollbacks,     c.checkpoints,
          c.retry_wait_ns,  c.loss_drops,    c.loss_events,
          c.replications,   c.replica_bytes, c.promoted_bytes,
          c.mem_flips,      c.scrub_passes,  c.scrub_detected,
          c.scrub_heals,    c.scrub_events};
}

std::string golden_text(const GoldenRow& r) {
  char head[160];
  std::snprintf(head, sizeof head, "{%.17g, %llu, %llu, %llu, 0x%016llxull, {",
                r.modeled_ns, static_cast<unsigned long long>(r.barriers),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.bytes),
                static_cast<unsigned long long>(r.digest));
  std::string s = head;
  for (std::size_t i = 0; i < r.counters.size(); ++i)
    s += (i ? ", " : "") + std::to_string(r.counters[i]);
  return s + "}}";
}

/// The recovery paths: outage rollback, permanent loss with shrink,
/// payload corruption, network chaos, and an at-rest flip under scrubbing.
struct GoldenPlan {
  const char* spec;
  int scrub_interval;
};
constexpr GoldenPlan kGoldenPlans[] = {
    {"outage_every=40,outage_k=2", 0},
    {"loss_at=24", 0},
    {"corrupt=0.5", 0},
    {"drop=0.05,dup=0.03,delay=0.1,straggle=0.05", 0},
    {"mem_flip_at=12,mem_flips=1", 1},
};

template <class Kernel>
GoldenRow run_golden(const GoldenPlan& plan, Kernel kernel) {
  flt::FaultInjector inj(flt::FaultConfig::parse(plan.spec, /*seed=*/1));
  pg::Runtime rt = make_rt();
  rt.set_fault_injector(&inj);
  rt.set_digest_enabled(true);
  const core::RunCosts c = kernel(rt, plan.scrub_interval);
  return {c.modeled_ns, c.barriers, c.messages, c.bytes,
          rt.last_state_digest(), counter_values(inj.counters())};
}

void expect_golden(const GoldenPlan& plan, const GoldenRow& got,
                   const GoldenRow& want) {
  SCOPED_TRACE(std::string(plan.spec) + " -> " + golden_text(got));
  EXPECT_EQ(got.modeled_ns, want.modeled_ns);
  EXPECT_EQ(got.barriers, want.barriers);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.counters, want.counters);
}

}  // namespace

TEST(FaultGolden, CcTrajectoriesExact) {
  const auto el = g::random_graph(256, 1024, 21);
  const GoldenRow want[] = {
      {1395205.125, 115, 3134, 227632, 0xe6f689f4edd45f68ull,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {1672304.78125, 104, 2735, 210824, 0xe6f689f4edd45f68ull,
       {0, 0, 0, 0, 84, 0, 0, 0, 0, 0, 1, 4, 308000, 98, 1, 4, 12288, 768, 0,
        0, 0, 0, 0}},
      {1075135.0625, 73, 2108, 164456, 0xe6f689f4edd45f68ull,
       {0, 0, 0, 0, 66, 68, 66, 68, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0}},
      {2791114.7275077337, 73, 2087, 152680, 0xe6f689f4edd45f68ull,
       {45, 23, 86, 0, 45, 0, 0, 0, 28, 0, 0, 0, 224000, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0}},
      {1376040.0625, 125, 2949, 225144, 0xe6f689f4edd45f68ull,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 0, 0, 0, 4, 12288, 0, 1, 5, 1, 1,
        1}},
  };
  ASSERT_EQ(std::size(want), std::size(kGoldenPlans));
  for (std::size_t i = 0; i < std::size(kGoldenPlans); ++i) {
    const GoldenRow got =
        run_golden(kGoldenPlans[i], [&](pg::Runtime& rt, int scrub) {
          core::CcOptions o;
          o.scrub_interval = scrub;
          return core::cc_coalesced(rt, el, o).costs;
        });
    expect_golden(kGoldenPlans[i], got, want[i]);
  }
}

TEST(FaultGolden, MstTrajectoriesExact) {
  const auto el =
      g::with_random_weights(g::random_graph(256, 1024, 22), 23);
  const GoldenRow want[] = {
      {2360874.625, 168, 6501, 524344, 0xff734407b14024d3ull,
       {0, 0, 0, 28, 0, 0, 0, 0, 0, 4, 3, 3, 8000, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0}},
      {2030405.875, 116, 4435, 374768, 0xff734407b14024d3ull,
       {0, 0, 0, 0, 204, 0, 0, 0, 0, 0, 1, 4, 308000, 238, 1, 4, 28672, 1792,
        0, 0, 0, 0, 0}},
      {1439846.125, 85, 3565, 321968, 0xff734407b14024d3ull,
       {0, 0, 0, 0, 84, 86, 84, 86, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0}},
      {3594572.4955255059, 85, 3559, 285248, 0xff734407b14024d3ull,
       {78, 46, 164, 0, 78, 0, 0, 0, 30, 0, 0, 0, 360000, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0}},
      {1681686.875, 137, 4758, 402592, 0xff734407b14024d3ull,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 0, 0, 0, 4, 28672, 0, 1, 5, 1, 1,
        1}},
  };
  ASSERT_EQ(std::size(want), std::size(kGoldenPlans));
  for (std::size_t i = 0; i < std::size(kGoldenPlans); ++i) {
    const GoldenRow got =
        run_golden(kGoldenPlans[i], [&](pg::Runtime& rt, int scrub) {
          core::MstOptions o;
          o.scrub_interval = scrub;
          return core::mst_pgas(rt, el, o).costs;
        });
    expect_golden(kGoldenPlans[i], got, want[i]);
  }
}

// --- the counter table ------------------------------------------------------

TEST(FaultCounterTable, KeysAreTheBenchExtrasInOrder) {
  // The keys and order bench JSON rows have always carried; committed
  // baselines are compared key by key.
  const std::vector<std::string> want = {
      "fault_drops",         "fault_dups",          "fault_delays",
      "fault_outage_drops",  "fault_retransmits",   "fault_corruptions",
      "fault_detected",      "fault_repairs",       "fault_straggles",
      "fault_outages",       "fault_rollbacks",     "fault_checkpoints",
      "fault_retry_wait_ns", "fault_loss_drops",    "fault_shrinks",
      "fault_replications",  "fault_replica_bytes", "fault_promoted_bytes",
      "fault_mem_flips",     "scrub_passes",        "scrub_detected",
      "scrub_heals",         "scrub_events"};
  std::vector<std::string> got;
  for (const flt::FaultCounterField& f : flt::kFaultCounterFields)
    got.emplace_back(f.key);
  EXPECT_EQ(got, want);
}

TEST(FaultCounterTable, EachRowCountsItsOwnField) {
  flt::FaultInjector inj(flt::FaultConfig{});
  for (const flt::FaultCounterField& f : flt::kFaultCounterFields)
    inj.count(f.member);
  // Read back by field name, independently of the table.
  EXPECT_EQ(counter_values(inj.counters()),
            std::vector<std::uint64_t>(23, 1));
  EXPECT_EQ(inj.recovery_events(), 3u);

  const flt::FaultCounters before = inj.counters();
  inj.count(&flt::FaultCounters::retry_wait_ns, 4000);
  std::vector<std::uint64_t> want(23, 0);
  want[12] = 4000;  // retry_wait_ns
  EXPECT_EQ(counter_values(inj.counters() - before), want);

  inj.reset_counters();
  EXPECT_EQ(counter_values(inj.counters()),
            std::vector<std::uint64_t>(23, 0));
}

// --- per-superstep deltas through the Chrome trace -----------------------

TEST(FaultTrace, VerdictArgsSumToInjectorTotals) {
  const auto el = g::random_graph(256, 1024, 21);
  // The last plan is FaultGolden's at-rest flip under scrubbing.
  for (const GoldenPlan plan : {GoldenPlan{"drop=0.05,loss_at=24", 0},
                                GoldenPlan{"corrupt=0.5", 0},
                                GoldenPlan{"loss_at=24,retries=0", 0},
                                GoldenPlan{"mem_flip_at=12,mem_flips=1", 1}}) {
    SCOPED_TRACE(plan.spec);
    flt::FaultInjector inj(flt::FaultConfig::parse(plan.spec, /*seed=*/1));
    pg::Runtime rt = make_rt();
    rt.set_fault_injector(&inj);
    tr::SuperstepTracer tracer;
    tracer.attach(rt);
    core::CcOptions o;
    o.scrub_interval = plan.scrub_interval;
    core::cc_coalesced(rt, el, o);

    std::ostringstream os;
    tracer.write_chrome_trace(os);
    tr::json::Value doc;
    std::string err;
    ASSERT_TRUE(tr::json::parse(os.str(), doc, &err)) << err;
    const char* const keys[] = {
        "fault_drops",       "fault_retransmits", "fault_corruptions",
        "fault_rollbacks",   "fault_wait_ns",     "fault_loss_drops",
        "fault_shrinks",     "fault_mem_flips",   "fault_scrub_detected",
        "fault_scrub_heals", "fault_scrub_events"};
    std::vector<double> sum(std::size(keys), 0.0);
    std::uint64_t shrink_instants = 0;
    for (const auto& e : doc["traceEvents"].items()) {
      if (static_cast<std::int64_t>(e["tid"].as_number(-1)) != tr::kVerdictTid)
        continue;
      const std::string& ph = e["ph"].as_string();
      if (ph == "i" && e["name"].as_string().rfind("node-loss shrink", 0) == 0)
        ++shrink_instants;
      if (ph != "X") continue;
      for (std::size_t k = 0; k < std::size(keys); ++k)
        sum[k] += e["args"][keys[k]].as_number(0.0);
    }
    const flt::FaultCounters c = inj.counters();
    const std::vector<double> want = {
        static_cast<double>(c.drops + c.outage_drops),
        static_cast<double>(c.retransmits),
        static_cast<double>(c.corruptions),
        static_cast<double>(c.rollbacks),
        static_cast<double>(c.retry_wait_ns),
        static_cast<double>(c.loss_drops),
        static_cast<double>(c.loss_events),
        static_cast<double>(c.mem_flips),
        static_cast<double>(c.scrub_detected),
        static_cast<double>(c.scrub_heals),
        static_cast<double>(c.scrub_events)};
    EXPECT_EQ(sum, want);
    EXPECT_EQ(shrink_instants, c.loss_events);
    // Each plan really moved its counters.
    if (inj.config().mem_flips_enabled()) {
      EXPECT_GT(c.mem_flips, 0u);
      EXPECT_GT(c.scrub_detected, 0u);
    } else if (inj.config().max_retries > 0) {
      EXPECT_GT(c.retransmits, 0u);
      EXPECT_GT(c.drops + c.corruptions, 0u);
    } else {
      // Loss drops exhaust retries=0 at once: their supersteps' only
      // fault activity is the ack-timeout wait.
      EXPECT_GT(c.retry_wait_ns, 0u);
    }
    EXPECT_EQ(c.loss_events, inj.config().loss_enabled() ? 1u : 0u);
  }
}
