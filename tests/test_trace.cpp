// Superstep tracing and bottleneck attribution: forced-winner workloads
// for each of the four barrier terms, chrome-trace export well-formedness
// (category totals must match PhaseStats), BENCH JSON round-trip, CRCW
// window tagging, and tracer/runtime lifetime edge cases.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "collectives/setd.hpp"
#include "core/cc_coalesced.hpp"
#include "graph/rng.hpp"
#include "partition/partitioning.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"
#include "trace/bench_json.hpp"
#include "trace/json.hpp"
#include "trace/tracer.hpp"

namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace tr = pgraph::trace;
namespace c = pgraph::coll;
namespace g = pgraph::graph;
namespace core = pgraph::core;
namespace part = pgraph::partition;

namespace {

/// Cheap, quiet network so the term under test dominates by construction.
m::CostParams quiet_params() {
  m::CostParams p = m::CostParams::hps_cluster();
  p.net_latency_ns = 1.0;
  p.net_overhead_ns = 1.0;
  p.net_small_msg_sw_ns = 1.0;
  p.nic_small_msg_svc_ns = 1.0;
  p.barrier_base_ns = 1.0;
  p.barrier_per_thread_ns = 0.0;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Forced winners: one synthetic workload per barrier term.
// ---------------------------------------------------------------------------

TEST(BarrierVerdict, ComputeBoundSuperstepIsWonByThreads) {
  pg::Runtime rt(pg::Topology::cluster(2, 2), quiet_params());
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    if (ctx.id() == 0) ctx.charge(m::Cat::Work, 5e6);
    ctx.barrier();
  });
  ASSERT_EQ(tracer.supersteps().size(), 3u);  // initial sync, ours, final
  const auto& v = tracer.supersteps()[1].verdict;
  EXPECT_EQ(v.winner, pg::BarrierVerdict::Winner::Threads);
  EXPECT_STREQ(pg::winner_name(v.winner), "threads");
  // The initial sync barrier already advanced every clock by its (tiny)
  // barrier cost, so the charge lands on top of that.
  EXPECT_NEAR(v.t_threads, 5e6, 100.0);
  EXPECT_GE(v.t_final, v.t_threads);
  EXPECT_FALSE(v.had_exchange);
}

TEST(BarrierVerdict, FineMessageBurstIsWonByNic) {
  m::CostParams p = quiet_params();
  p.nic_small_msg_svc_ns = 1e5;  // NIC message rate is the bottleneck
  pg::Runtime rt(pg::Topology::cluster(2, 2), p);
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    // Everyone hammers node 1 with fine-grained puts; the senders' own
    // clocks only pay the (tiny) software overhead.
    if (ctx.node() == 0)
      for (int i = 0; i < 50; ++i) ctx.remote_put_cost(2, 8);
    ctx.barrier();
  });
  const auto& v = tracer.supersteps()[1].verdict;
  EXPECT_EQ(v.winner, pg::BarrierVerdict::Winner::Nic);
  EXPECT_STREQ(pg::winner_name(v.winner), "nic");
  EXPECT_GT(v.t_nic, v.t_threads);
  // The traced record carries the per-node NIC drain (the NIC is occupied
  // on both sides of each message).
  const auto& nodes = tracer.supersteps()[1].nodes;
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_GT(nodes[1].nic.service_ns, 0.0);
  EXPECT_EQ(nodes[1].nic.msgs, 100u);
}

TEST(BarrierVerdict, DramTrafficIsWonByBus) {
  m::CostParams p = quiet_params();
  p.mem_bus_inv_bw_ns_per_byte = 50.0;  // absurdly slow shared bus
  pg::Runtime rt(pg::Topology::cluster(1, 2), p);
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    ctx.mem_seq(1 << 16, m::Cat::Copy);  // streams through the node bus
    ctx.barrier();
  });
  const auto& v = tracer.supersteps()[1].verdict;
  EXPECT_EQ(v.winner, pg::BarrierVerdict::Winner::Bus);
  EXPECT_STREQ(pg::winner_name(v.winner), "bus");
  EXPECT_GT(v.t_bus, v.t_threads);
  EXPECT_GT(tracer.supersteps()[1].nodes[0].bus_busy_ns, 0.0);
}

TEST(BarrierVerdict, ExchangePhaseIsWonByExchange) {
  m::CostParams p = quiet_params();
  p.net_inv_bw_ns_per_byte = 10.0;  // slow wire: the bulk phase dominates
  pg::Runtime rt(pg::Topology::cluster(2, 1), p);
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    ctx.post_exchange_msg(1 - ctx.id(), 1 << 20);
    ctx.exchange_barrier();
  });
  const auto& v = tracer.supersteps()[1].verdict;
  EXPECT_EQ(v.winner, pg::BarrierVerdict::Winner::Exchange);
  EXPECT_STREQ(pg::winner_name(v.winner), "exchange");
  EXPECT_TRUE(v.had_exchange);
  EXPECT_GT(v.exchange_ns, 0.0);
  EXPECT_GT(v.t_exchange, v.t_threads);
}

TEST(BarrierVerdict, MaintainedWithTracingOff) {
  // Satellite: the winner is recorded at every barrier even without any
  // sink, and is readable from SPMD code right after the barrier returns.
  pg::Runtime rt(pg::Topology::cluster(1, 2), quiet_params());
  ASSERT_FALSE(rt.tracing());
  pg::BarrierVerdict seen{};
  rt.run([&](pg::ThreadCtx& ctx) {
    if (ctx.id() == 1) ctx.charge(m::Cat::Sort, 3e6);
    ctx.barrier();
    if (ctx.id() == 0) seen = ctx.runtime().last_barrier_verdict();
    ctx.barrier();
  });
  EXPECT_EQ(seen.winner, pg::BarrierVerdict::Winner::Threads);
  EXPECT_NEAR(seen.t_threads, 3e6, 100.0);
  EXPECT_GE(seen.t_final, seen.t_start);
  // After run() the verdict describes the final alignment barrier.
  EXPECT_EQ(rt.last_barrier_verdict().winner,
            pg::BarrierVerdict::Winner::Threads);
}

TEST(BarrierVerdict, NonExchangeSuperstepCannotLoseToStaleExchange) {
  // An exchange superstep followed by a plain one: the second verdict must
  // not blame the (finished) exchange.
  pg::Runtime rt(pg::Topology::cluster(2, 1), quiet_params());
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    ctx.post_exchange_msg(1 - ctx.id(), 1 << 14);
    ctx.exchange_barrier();
    ctx.charge(m::Cat::Work, 1e5);
    ctx.barrier();
  });
  ASSERT_EQ(tracer.supersteps().size(), 4u);
  const auto& plain = tracer.supersteps()[2].verdict;
  EXPECT_FALSE(plain.had_exchange);
  EXPECT_DOUBLE_EQ(plain.t_exchange, plain.t_start);
  EXPECT_EQ(plain.winner, pg::BarrierVerdict::Winner::Threads);
}

// ---------------------------------------------------------------------------
// Attribution accounting.
// ---------------------------------------------------------------------------

TEST(Attribution, CountsAndTimesAccumulatePerWinner) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), quiet_params());
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    ctx.charge(m::Cat::Work, 1e6);
    ctx.barrier();
    ctx.charge(m::Cat::Work, 2e6);
    ctx.barrier();
  });
  const tr::Attribution row = tracer.take_row_attribution();
  EXPECT_EQ(row.supersteps, 4u);  // 2 explicit + run()'s 2 implicit
  const auto w = static_cast<std::size_t>(pg::BarrierVerdict::Winner::Threads);
  EXPECT_EQ(row.count[w], 4u);
  EXPECT_GE(row.time_ns[w], 3e6);
  EXPECT_DOUBLE_EQ(row.total_ns(), row.time_ns[w]);
  EXPECT_EQ(row.dominant(), pg::BarrierVerdict::Winner::Threads);
  // take_row_attribution resets the row accumulator but not the total.
  EXPECT_EQ(tracer.take_row_attribution().supersteps, 0u);
  EXPECT_EQ(tracer.total_attribution().supersteps, 4u);
}

// ---------------------------------------------------------------------------
// Chrome trace export: well-formed JSON whose per-category slice totals
// match the runtime's PhaseStats aggregates.
// ---------------------------------------------------------------------------

TEST(ChromeTrace, WellFormedAndCategoryTotalsMatchPhaseStats) {
  pg::Runtime rt(pg::Topology::cluster(2, 2), quiet_params());
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    ctx.charge(m::Cat::Work, 1e5 * (1 + ctx.id()));
    ctx.mem_seq(1 << 12, m::Cat::Copy);
    ctx.barrier();
    ctx.charge(m::Cat::Sort, 7e4);
    if (ctx.node() == 0) ctx.remote_put_cost(2, 8);
    ctx.barrier();
  });

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tr::json::Value doc;
  std::string err;
  ASSERT_TRUE(tr::json::parse(os.str(), doc, &err)) << err;
  ASSERT_TRUE(doc.is_object());
  const auto& events = doc["traceEvents"];
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 0u);

  // Sum the duration of every category slice (even tids are the
  // per-thread category tracks; "(stall)" filler is not a category).
  std::array<double, m::kNumCats> sum_us{};
  for (const auto& e : events.items()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_TRUE(e["ph"].is_string());
    const std::string& ph = e["ph"].as_string();
    if (ph != "X") continue;
    const auto tid = static_cast<std::int64_t>(e["tid"].as_number(-1));
    if (tid < 0 || tid >= 1000000 || tid % 2 != 0) continue;
    const std::string& name = e["name"].as_string();
    for (std::size_t cat = 0; cat < m::kNumCats; ++cat)
      if (name == m::kCatNames[cat]) {
        EXPECT_GE(e["dur"].as_number(), 0.0);
        sum_us[cat] += e["dur"].as_number();
      }
  }
  const m::PhaseStats total = rt.total_stats();
  for (std::size_t cat = 0; cat < m::kNumCats; ++cat) {
    const double want_us = total.get(static_cast<m::Cat>(cat)) * 1e-3;
    EXPECT_NEAR(sum_us[cat], want_us, 1e-6 + 1e-9 * want_us)
        << "category " << m::kCatNames[cat];
  }
}

TEST(ChromeTrace, VerdictTrackAndFileExport) {
  pg::Runtime rt(pg::Topology::cluster(1, 2), quiet_params());
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  rt.run([](pg::ThreadCtx& ctx) {
    ctx.charge(m::Cat::Work, 1e6);
    ctx.barrier();
  });
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tr::json::Value doc;
  ASSERT_TRUE(tr::json::parse(os.str(), doc, nullptr));
  // One slice per superstep on the verdict track, named by the winner.
  std::size_t verdict_slices = 0;
  for (const auto& e : doc["traceEvents"].items()) {
    if (e["ph"].as_string() != "X") continue;
    if (static_cast<std::int64_t>(e["tid"].as_number()) != 1000000) continue;
    ++verdict_slices;
    EXPECT_EQ(e["name"].as_string(), "threads");
    ASSERT_TRUE(e["args"].is_object());
    EXPECT_TRUE(e["args"].has("t_threads_ns"));
  }
  EXPECT_EQ(verdict_slices, tracer.supersteps().size());
}

// ---------------------------------------------------------------------------
// BENCH JSON round-trip through the in-repo parser.
// ---------------------------------------------------------------------------

TEST(BenchJson, RoundTripPreservesSchemaRowsAndAttribution) {
  tr::BenchReport rep;
  rep.bench = "fig05_opt_breakdown_random";
  rep.preset = "hps";
  rep.set_param("n", 5242);
  rep.set_param("nodes", 16);
  rep.set_param("n", 5242);  // idempotent update, not a duplicate

  tr::BenchRow row;
  row.label = "base, \"quoted\"";
  row.modeled_ns = 4.25e7;
  row.wall_ms = 1.5;
  row.messages = 123;
  row.fine_messages = 45;
  row.bytes = 1 << 20;
  row.barriers = 17;
  row.extra.emplace_back("vs_smp", 3.75);
  m::PhaseStats st;
  st.add(m::Cat::Comm, 1000.0);
  st.add(m::Cat::Sort, 250.0);
  row.set_breakdown(st);
  tr::Attribution attr;
  pg::BarrierVerdict v{};
  v.t_start = 0.0;
  v.t_final = 500.0;
  v.winner = pg::BarrierVerdict::Winner::Exchange;
  attr.add(v);
  row.attribution = attr;
  rep.rows.push_back(row);
  rep.attribution = attr;

  std::ostringstream os;
  rep.write(os);
  tr::json::Value doc;
  std::string err;
  ASSERT_TRUE(tr::json::parse(os.str(), doc, &err)) << err;

  EXPECT_EQ(doc["schema"].as_string(), tr::kBenchSchemaName);
  EXPECT_EQ(static_cast<int>(doc["version"].as_number()),
            tr::kBenchSchemaVersion);
  EXPECT_EQ(doc["bench"].as_string(), "fig05_opt_breakdown_random");
  EXPECT_EQ(doc["preset"].as_string(), "hps");
  EXPECT_DOUBLE_EQ(doc["params"]["n"].as_number(), 5242.0);
  EXPECT_DOUBLE_EQ(doc["params"]["nodes"].as_number(), 16.0);

  ASSERT_EQ(doc["rows"].size(), 1u);
  const auto& r = doc["rows"].items()[0];
  EXPECT_EQ(r["label"].as_string(), "base, \"quoted\"");
  EXPECT_DOUBLE_EQ(r["modeled_ns"].as_number(), 4.25e7);
  EXPECT_DOUBLE_EQ(r["wall_ms"].as_number(), 1.5);
  EXPECT_DOUBLE_EQ(r["messages"].as_number(), 123.0);
  EXPECT_DOUBLE_EQ(r["fine_messages"].as_number(), 45.0);
  EXPECT_DOUBLE_EQ(r["bytes"].as_number(), static_cast<double>(1 << 20));
  EXPECT_DOUBLE_EQ(r["barriers"].as_number(), 17.0);
  EXPECT_DOUBLE_EQ(r["breakdown_ns"]["Comm"].as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(r["breakdown_ns"]["Sort"].as_number(), 250.0);
  EXPECT_DOUBLE_EQ(r["extra"]["vs_smp"].as_number(), 3.75);

  const auto& ra = r["attribution"];
  ASSERT_TRUE(ra.is_object());
  EXPECT_DOUBLE_EQ(ra["supersteps"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(ra["count"]["exchange"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(ra["time_ns"]["exchange"].as_number(), 500.0);
  EXPECT_EQ(ra["dominant"].as_string(), "exchange");
  EXPECT_EQ(doc["attribution"]["dominant"].as_string(), "exchange");
}

TEST(Json, NumberFormattingIsPlainJson) {
  EXPECT_EQ(tr::json::number(0.0), "0");
  EXPECT_EQ(tr::json::number(std::nan("")), "0");
  EXPECT_EQ(tr::json::number(std::numeric_limits<double>::infinity()), "0");
  tr::json::Value v;
  ASSERT_TRUE(tr::json::parse(tr::json::number(4.25e7), v, nullptr));
  EXPECT_DOUBLE_EQ(v.as_number(), 4.25e7);
  EXPECT_EQ(tr::json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_FALSE(tr::json::parse("{\"a\":}", v, nullptr));
}

// ---------------------------------------------------------------------------
// CRCW window tagging (collectives -> trace, every build).
// ---------------------------------------------------------------------------

TEST(CrcwTagging, SetdMinWindowsAppearInTrace) {
  pg::Runtime rt(pg::Topology::cluster(2, 2), quiet_params());
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  const std::size_t n = 64;
  pg::GlobalArray<std::uint64_t> d(rt, n);
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = UINT64_MAX;
  c::CollectiveContext cc(rt);
  rt.run([&](pg::ThreadCtx& ctx) {
    std::vector<std::uint64_t> idx(n), val(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = i;
      val[i] = i * 10 + static_cast<std::uint64_t>(ctx.id());
    }
    c::CollWorkspace<std::uint64_t> ws;
    c::setd_min(ctx, d, idx, std::span<const std::uint64_t>(val),
                c::CollectiveOptions::optimized(4), cc, ws);
    ctx.barrier();
  });
  const auto crcw = tracer.all_crcw();
  ASSERT_FALSE(crcw.empty());
  std::size_t begins = 0, ends = 0;
  for (const auto& e : crcw) {
    EXPECT_STREQ(e.label, "crcw.min");
    (e.begin ? begins : ends)++;
  }
  EXPECT_EQ(begins, ends);
  // And the chrome export carries them as instant events.
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tr::json::Value doc;
  ASSERT_TRUE(tr::json::parse(os.str(), doc, nullptr));
  bool found = false;
  for (const auto& e : doc["traceEvents"].items()) {
    if (e["ph"].as_string() == "i" &&
        e["name"].as_string().rfind("crcw.min", 0) == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // The collectives also report modeled-time phase scopes.
  const auto scopes = tracer.all_scopes();
  bool saw_group = false;
  for (const auto& s : scopes) {
    EXPECT_LE(s.t0_ns, s.t1_ns);
    if (std::string_view(s.name) == "setd.group") saw_group = true;
  }
  EXPECT_TRUE(saw_group);
}

// ---------------------------------------------------------------------------
// Lifetime: segments concatenate; runtimes may die before the tracer.
// ---------------------------------------------------------------------------

TEST(Tracer, SegmentsFromConsecutiveRuntimesConcatenate) {
  tr::SuperstepTracer tracer;
  double first_end = 0.0;
  {
    pg::Runtime rt(pg::Topology::cluster(1, 2), quiet_params());
    tracer.attach(rt);
    rt.run([](pg::ThreadCtx& ctx) {
      ctx.charge(m::Cat::Work, 1e6);
      ctx.barrier();
    });
    first_end = tracer.end_ns();
    EXPECT_GE(first_end, 1e6);
  }  // runtime destroyed while attached: on_runtime_gone() must fire
  pg::Runtime rt2(pg::Topology::cluster(2, 1), quiet_params());
  tracer.attach(rt2);
  rt2.run([](pg::ThreadCtx& ctx) {
    ctx.charge(m::Cat::Work, 1e5);
    ctx.barrier();
  });
  ASSERT_EQ(tracer.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(tracer.segments()[0].offset_ns, 0.0);
  EXPECT_DOUBLE_EQ(tracer.segments()[1].offset_ns, first_end);
  EXPECT_GT(tracer.end_ns(), first_end);
  // All second-segment supersteps live after the first segment's end.
  for (const auto& s : tracer.supersteps()) {
    if (s.segment == 1) {
      EXPECT_GE(s.verdict.t_start + 1e-9, first_end);
    }
  }
  tracer.detach();  // idempotent / safe
  tracer.detach();
}

TEST(Tracer, RowAttributionDoesNotDependOnEarlierRows) {
  // part01's input (bench/part01_skew_scaling.cpp at its defaults): a
  // power-law graph with its hubs at low ids, CC on the 4x2 cluster with
  // the cache scaled to 4 KiB, one row per partition scheme.
  g::EdgeList el;
  el.n = 3000;
  g::Xoshiro256 rng(1);
  while (el.edges.size() < 4 * el.n) {
    const double x = rng.next_double();
    const auto u = static_cast<g::VertexId>(
        static_cast<double>(el.n) * x * x * x * x);
    const g::VertexId v = rng.next_below(el.n);
    if (u != v && u < el.n) el.edges.push_back({u, v});
  }
  m::CostParams params = m::CostParams::hps_cluster();
  params.cache_bytes = 4096;
  const auto row = [&](tr::SuperstepTracer& tracer, const char* scheme) {
    part::PartitionSpec spec;
    EXPECT_EQ(part::PartitionSpec::parse(scheme, spec), "");
    pg::Runtime rt(pg::Topology::cluster(4, 2), params);
    rt.set_partition_spec(spec);
    tracer.attach(rt);
    core::cc_coalesced(rt, el, core::CcOptions::optimized());
    tracer.detach();
    return tracer.take_row_attribution();
  };

  tr::SuperstepTracer first;
  const tr::Attribution want = row(first, "cyclic");
  tr::SuperstepTracer second;
  row(second, "block");
  const tr::Attribution got = row(second, "cyclic");
  EXPECT_EQ(got.supersteps, want.supersteps);
  EXPECT_EQ(got.count, want.count);
  for (std::size_t w = 0; w < pg::kNumBarrierWinners; ++w)
    EXPECT_EQ(got.time_ns[w], want.time_ns[w]) << "winner " << w;
  // The shifted timeline still concatenates for the Chrome export.
  EXPECT_GT(second.supersteps().back().verdict.t_final,
            first.supersteps().back().verdict.t_final);
}

TEST(Tracer, NoteInstantExportsDedicatedTrackOnlyWhenPresent) {
  const auto run_and_dump = [](bool annotate) {
    pg::Runtime rt(pg::Topology::cluster(1, 2), quiet_params());
    tr::SuperstepTracer tracer;
    tracer.attach(rt);
    rt.run([](pg::ThreadCtx& ctx) {
      ctx.charge(m::Cat::Work, 1e5);
      ctx.barrier();
    });
    if (annotate) {
      tracer.note_instant("serve.breaker_open t0", 2e6);
      tracer.note_instant("serve.brownout_enter", 3e6);
    }
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    return os.str();
  };

  const std::string with = run_and_dump(true);
  const std::string without = run_and_dump(false);

  // Annotation-free traces carry no trace of the pseudo-process: output
  // stays byte-identical to a run that never had the feature.
  EXPECT_EQ(without.find("mode transitions"), std::string::npos);
  EXPECT_NE(with, without);

  tr::json::Value doc;
  std::string err;
  ASSERT_TRUE(tr::json::parse(with, doc, &err)) << err;
  const auto& events = doc["traceEvents"];
  ASSERT_TRUE(events.is_array());
  int instants = 0;
  for (const auto& e : events.items()) {
    if (!e.is_object() || !e["ph"].is_string()) continue;
    if (e["ph"].as_string() != "i") continue;
    ++instants;
    const std::string& name = e["name"].as_string();
    EXPECT_TRUE(name == "serve.breaker_open t0" ||
                name == "serve.brownout_enter")
        << name;
    if (name == "serve.breaker_open t0") {
      EXPECT_DOUBLE_EQ(e["ts"].as_number(), 2e6 / 1e3);  // us on the track
    }
  }
  EXPECT_EQ(instants, 2);
}

// ---------------------------------------------------------------------------
// trace::json reads documents the way scripts/bench_diff.py's json does.
// ---------------------------------------------------------------------------

namespace {

/// parse()'s message for `text`, or "accepted".
std::string json_error(std::string_view text) {
  tr::json::Value v;
  std::string err;
  return tr::json::parse(text, v, &err) ? "accepted" : err;
}

/// A document's one string value.
std::string json_string(const std::string& text) {
  tr::json::Value v;
  std::string err;
  EXPECT_TRUE(tr::json::parse(text, v, &err)) << err;
  EXPECT_TRUE(v.is_string());
  return v.as_string();
}

/// A bench JSON and a Chrome trace as the exporters write them, from a
/// small traced run (scopes, a CRCW window, an instant with escapes).
std::vector<std::string> exporter_documents() {
  pg::Runtime rt(pg::Topology::cluster(2, 2), quiet_params());
  tr::SuperstepTracer tracer;
  tracer.attach(rt);
  pg::GlobalArray<std::uint64_t> d(rt, 16);
  c::CollectiveContext cc(rt);
  rt.run([&](pg::ThreadCtx& ctx) {
    pg::TraceScope ts(ctx, "fuzz.step");
    ctx.charge(m::Cat::Work, 1e4 * (1 + ctx.id()));
    ctx.barrier();
    c::CollWorkspace<std::uint64_t> ws;
    std::vector<std::uint64_t> idx{static_cast<std::uint64_t>(ctx.id()) * 3};
    std::vector<std::uint64_t> val{7};
    c::setd_min(ctx, d, idx, std::span<const std::uint64_t>(val),
                c::CollectiveOptions::optimized(), cc, ws);
  });
  tracer.note_instant("serve.\"mode\"\tenter\x01", 1e3);
  std::ostringstream trace;
  tracer.write_chrome_trace(trace);

  tr::BenchReport rep;
  rep.bench = "fuzz";
  rep.preset = "quiet";
  rep.set_param("n", 16);
  tr::BenchRow row;
  row.label = "row, \"quoted\"\\";
  row.modeled_ns = rt.modeled_time_ns();
  row.wall_ms = 0.125;
  row.messages = rt.net().total_messages();
  row.barriers = rt.barriers_executed();
  row.set_breakdown(rt.critical_stats());
  row.extra.emplace_back("ratio", 1.0 / 3.0);
  row.attribution = tracer.take_row_attribution();
  row.digests = {0, 1ULL << 63};
  rep.rows.push_back(row);
  rep.attribution = row.attribution;
  std::ostringstream bench;
  rep.write(bench);
  return {bench.str(), trace.str()};
}

}  // namespace

TEST(JsonFuzz, DeepNestingIsCappedWithItsOffset) {
  // 50,000 nested arrays (a 50 KB input) overflowed the recursive
  // parser's stack.
  EXPECT_EQ(json_error(std::string(50000, '[')),
            "nesting deeper than 64 at offset 64");
  EXPECT_EQ(json_error(std::string(64, '[') + std::string(64, ']')),
            "accepted");
  std::string objects;
  for (int k = 0; k < 65; ++k) objects += "{\"k\":";
  objects += "0" + std::string(65, '}');
  EXPECT_EQ(json_error(objects), "nesting deeper than 64 at offset 320");
}

TEST(JsonFuzz, NumbersFollowRfc8259) {
  // Python's json refuses each of these.
  EXPECT_EQ(json_error("+1"), "expected number at offset 0");
  EXPECT_EQ(json_error(".5"), "expected number at offset 0");
  EXPECT_EQ(json_error("1."), "expected fraction digit at offset 2");
  EXPECT_EQ(json_error("01"), "trailing characters at offset 1");
  EXPECT_EQ(json_error("1e"), "expected exponent digit at offset 2");
  EXPECT_EQ(json_error("[1e+]"), "expected exponent digit at offset 4");
  EXPECT_EQ(json_error("[-]"), "expected number at offset 2");
  EXPECT_EQ(json_error("-01"), "trailing characters at offset 2");
  EXPECT_EQ(json_error("1.e3"), "expected fraction digit at offset 2");
  EXPECT_EQ(json_error("0x10"), "trailing characters at offset 1");
  EXPECT_EQ(json_error("[NaN]"), "expected number at offset 1");
  EXPECT_EQ(json_error("-Infinity"), "expected number at offset 1");
  const std::pair<const char*, double> ok[] = {
      {"0", 0.0},       {"-0", -0.0},     {"7", 7.0},
      {"10", 10.0},     {"-12.25", -12.25}, {"0.5", 0.5},
      {"1E+2", 100.0},  {"1.5e-3", 1.5e-3}, {"2e0", 2.0}};
  for (const auto& [text, want] : ok) {
    tr::json::Value v;
    ASSERT_TRUE(tr::json::parse(text, v, nullptr)) << text;
    EXPECT_EQ(v.as_number(), want) << text;
    EXPECT_EQ(std::signbit(v.as_number()), std::signbit(want)) << text;
  }
}

TEST(JsonFuzz, RawControlCharactersInStringsAreRejected) {
  for (int ch = 0; ch < 0x20; ++ch) {
    std::string doc = "[\"ab";
    doc += static_cast<char>(ch);
    doc += "\"]";
    EXPECT_EQ(json_error(doc), "control character in string at offset 4")
        << "byte " << ch;
  }
  // Escaped, they read back as the bytes.
  EXPECT_EQ(json_string("\"\\u0000\\u001f\\t\""), std::string("\0\x1f\t", 3));
  EXPECT_EQ(json_string("\"\x7f\""), "\x7f");
}

TEST(JsonFuzz, RepeatedKeyKeepsItsLastValue) {
  tr::json::Value v;
  std::string err;
  ASSERT_TRUE(tr::json::parse(R"({"a":1,"b":2,"a":{"c":3}})", v, &err))
      << err;
  EXPECT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v["a"]["c"].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v["b"].as_number(), 2.0);
}

TEST(JsonFuzz, OnlyRfc8259WhitespaceSeparatesTokens) {
  EXPECT_EQ(json_error("\v1"), "expected number at offset 0");
  EXPECT_EQ(json_error("[1,\f2]"), "expected number at offset 3");
  EXPECT_EQ(json_error("1\v"), "trailing characters at offset 1");
  EXPECT_EQ(json_error(" \t\n\r[ \t\n\r1 \t\n\r, {}] \t\n\r"), "accepted");
}

TEST(JsonFuzz, StringsAreStrictUtf8) {
  for (const std::string ok :
       {"\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x98\x80", "\xEF\xBF\xBF",
        "\xF4\x8F\xBF\xBF", "\xED\x9F\xBF"})
    EXPECT_EQ(json_string("\"" + ok + "\""), ok);
  // What a strict decoder refuses: stray continuations, overlong forms,
  // encoded surrogates, code points past U+10FFFF and cut sequences.
  const std::vector<std::string> bad = {
      "\x80",         "\xBF",         "\xC0\xAF",
      "\xC1\xBF",     "\xE0\x80\xAF", "\xED\xA0\x80",
      "\xF0\x80\x80\xAF", "\xF4\x90\x80\x80", "\xF5\x80\x80\x80",
      "\xFF",         "\xC3",         "\xE2\x82",
      std::string("\xC3") + "A"};
  for (const std::string& b : bad)
    EXPECT_EQ(json_error("[\"a" + b + "\"]"),
              "invalid UTF-8 in string at offset 3");
}

TEST(JsonFuzz, SurrogatePairEscapesDecodeToOneCodePoint) {
  EXPECT_EQ(json_string("\"\\ud83d\\ude00\""), "\xF0\x9F\x98\x80");
  // A lone surrogate is kept, as Python keeps it.
  EXPECT_EQ(json_string("\"\\ud800x\""), "\xED\xA0\x80x");
  EXPECT_EQ(json_string("\"\\ud800\\ud800\\udc00\""),
            "\xED\xA0\x80\xF0\x90\x80\x80");
  EXPECT_EQ(json_error("\"\\ud800\\uzzzz\""), "bad \\u digit at offset 9");
}

TEST(JsonFuzz, SeededMutationsParseOrNameAnOffset) {
  const std::vector<std::string> docs = exporter_documents();
  for (const std::string& doc : docs) ASSERT_EQ(json_error(doc), "accepted");
  const std::string splices[] = {"[", "{", "\"", "\\u", "+",
                                 ".", "e", std::string(1, '\0')};
  g::Xoshiro256 rng(20261020);
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = docs[static_cast<std::size_t>(iter) % docs.size()];
    const auto ops = 1 + rng.next_below(3);
    for (std::uint64_t k = 0; k < ops; ++k) {
      switch (rng.next_below(3)) {
        case 0:  // truncate
          text.resize(rng.next_below(text.size() + 1));
          break;
        case 1:  // flip one bit of one byte
          if (!text.empty())
            text[rng.next_below(text.size())] ^=
                static_cast<char>(1u << rng.next_below(8));
          break;
        default:  // splice a token in anywhere
          text.insert(rng.next_below(text.size() + 1),
                      splices[rng.next_below(std::size(splices))]);
      }
    }
    const std::string err = json_error(text);
    if (err == "accepted") {
      ++accepted;
      continue;
    }
    ++rejected;
    // "<what> at offset <n>", n inside the input.
    const std::size_t at = err.rfind(" at offset ");
    ASSERT_NE(at, std::string::npos) << err;
    const std::string n = err.substr(at + 11);
    ASSERT_FALSE(n.empty()) << err;
    ASSERT_EQ(n.find_first_not_of("0123456789"), std::string::npos) << err;
    EXPECT_LE(std::stoull(n), text.size()) << err;
  }
  // Both outcomes are exercised, so neither branch is vacuous.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}
