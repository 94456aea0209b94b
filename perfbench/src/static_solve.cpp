// cc_uniform and mst_rmat: repeated whole-graph solves on one runtime.
// An op is one cc_coalesced or mst_pgas call; every answer is checked
// against the sequential oracle outside the timed region.
#include <cstdio>
#include <iostream>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "core/cc_coalesced.hpp"
#include "core/cc_seq.hpp"
#include "core/mst_pgas.hpp"
#include "core/mst_seq.hpp"
#include "graph/generators.hpp"
#include "ops.hpp"
#include "probes.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace core = pgraph::core;
namespace graph = pgraph::graph;
namespace pgas = pgraph::pgas;

struct Shape {
  std::size_t n;
  std::size_t m;
  int nodes;
  int tpn;
  /// Graphs per run, generated from the seed.  Iteration counts vary from
  /// graph to graph, so one graph's modeled time would swing with the
  /// seed; a summary over several barely does.  The p90 per op sits in
  /// the costliest graphs' solves, so it needs the most graphs: with 8,
  /// whether one of them needs 8 CC iterations instead of 4-5 moved it by
  /// 15% between seeds.
  std::size_t graphs;
  /// How the modeled metrics summarize the graphs.  CC iteration counts
  /// are mostly equal with rare long outliers, so the median; Boruvka
  /// round counts split between two values, where the median flips from
  /// one to the other and the mean is steadier.
  bool modeled_mean;
};
// cc_uniform: fig07's best point at this scale.  mst_rmat: 16 x 2.
constexpr Shape kCc{1u << 17, 4u << 17, 16, 4, 16, false};
constexpr Shape kMst{1u << 16, 4u << 16, 16, 2, 16, true};
constexpr int kSetups = 5;

struct Inputs {
  graph::EdgeList el;    ///< CC only
  graph::WEdgeList wel;  ///< MST only
};

Inputs generate(bool mst, const Shape& sh, std::uint64_t seed) {
  Inputs in;
  if (mst) {
    graph::RmatParams rp;
    rp.dedupe = true;
    graph::EdgeList el;
    {
      Span sp("graph.rmat_graph");
      el = graph::rmat_graph(sh.n, sh.m, seed, rp);
    }
    Span sp("graph.with_random_weights");
    in.wel = graph::with_random_weights(el, seed);
  } else {
    Span sp("graph.random_graph");
    in.el = graph::random_graph(sh.n, sh.m, seed);
  }
  return in;
}

/// One solve reduced to what the benchmark checks and reports.
struct Solved {
  std::vector<std::uint64_t> labels;  ///< CC
  std::uint64_t weight = 0;           ///< MST
  int iterations = 0;
  core::RunCosts costs;
};

Solved solve(pgas::Runtime& rt, const Inputs& in, bool mst) {
  Solved o;
  if (mst) {
    Span sp("core.mst_pgas");
    core::ParMstResult r =
        core::mst_pgas(rt, in.wel, core::MstOptions::optimized());
    o.weight = r.total_weight;
    o.iterations = r.iterations;
    o.costs = r.costs;
  } else {
    Span sp("core.cc_coalesced");
    core::ParCCResult r =
        core::cc_coalesced(rt, in.el, core::CcOptions::optimized());
    o.labels = std::move(r.labels);
    o.iterations = r.iterations;
    o.costs = r.costs;
  }
  return o;
}

/// Modeled-clock values that must repeat bit for bit across ops and runs.
std::string fingerprint(const Solved& o) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "modeled_ns=%.17g iterations=%d messages=%llu "
                "fine_messages=%llu bytes=%llu barriers=%llu",
                o.costs.modeled_ns, o.iterations,
                static_cast<unsigned long long>(o.costs.messages),
                static_cast<unsigned long long>(o.costs.fine_messages),
                static_cast<unsigned long long>(o.costs.bytes),
                static_cast<unsigned long long>(o.costs.barriers));
  return buf;
}

}  // namespace

Report run_static_solve(const Args& a, bool mst) {
  const Shape sh = mst ? kMst : kCc;
  Report rep;
  EndToEnd e2e;
  // The inputs are the benchmark's, made once and not part of set-up:
  // generation is DRAM-bound hash-set inserts, whose time followed the
  // host's memory load three times as much as the solves did.
  std::vector<Inputs> in;
  const auto g0 = Clock::now();
  for (std::uint64_t g = 0; g < sh.graphs; ++g)
    in.push_back(generate(mst, sh, a.seed * sh.graphs + g));
  const double gen_ms =
      ms_between(g0, Clock::now()) / static_cast<double>(sh.graphs);
  std::unique_ptr<pgas::Runtime> rt;
  // Set-up, repeated: the median is reported.  Tear-down of the previous
  // round is not timed.
  for (int k = 0; k < kSetups; ++k) {
    rt.reset();
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    {
      Span sp("pgas.Runtime");
      rt = std::make_unique<pgas::Runtime>(
          pgas::Topology::cluster(sh.nodes, sh.tpn), params_for(sh.n));
    }
    solve(*rt, in[0], mst);  // warm-up op
    e2e.setup_s.push_back((process_cpu_ms() - cpu0) / 1e3);
    e2e.setup_wall_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  const graph::EdgeList edges0 = mst ? in[0].wel.unweighted() : in[0].el;
  std::cout << sh.graphs << " graphs: n=" << edges0.n << " m=" << edges0.m()
            << ", " << sh.nodes << " nodes x " << sh.tpn << " threads\n";

  // The oracle, outside every timed region.
  std::vector<std::vector<std::uint64_t>> ref_labels(sh.graphs);
  std::vector<std::uint64_t> ref_weight(sh.graphs);
  for (std::size_t g = 0; g < sh.graphs; ++g) {
    if (mst) {
      Span sp("core.mst_kruskal");
      ref_weight[g] = core::mst_kruskal(in[g].wel).total_weight;
    } else {
      Span sp("core.cc_dsu");
      ref_labels[g] = core::cc_dsu(in[g].el).labels;
    }
  }

  if (a.trace) run_layer_probes(*rt, sh.n, edges0.edges, rep);

  OpLog log;
  std::vector<std::string> fps(sh.graphs);
  std::vector<Solved> first(sh.graphs);  ///< costs of each graph's first solve
  std::uint64_t ok = 0;
  const auto start = Clock::now();
  for (int op = 0; ms_between(start, Clock::now()) < a.seconds * 1e3; ++op) {
    const bool traced = a.trace && op % 2 == 1;
    const std::size_t g = static_cast<std::size_t>(op) % sh.graphs;
    ++rep.attempted;
    Solved o;
    try {
      run_op(*rt, op, traced, log, [&] { o = solve(*rt, in[g], mst); });
    } catch (const std::exception& ex) {
      ++rep.failed;
      std::cerr << "op " << op << " threw: " << ex.what() << "\n";
      continue;
    }
    bool right = false;
    if (mst) {
      right = o.weight == ref_weight[g];
    } else {
      Span sp("core.same_partition");
      right = core::same_partition(o.labels, ref_labels[g]);
    }
    if (!right) {
      ++rep.failed;
      rep.fail("op " + std::to_string(op) + ": answer differs from the " +
               (mst ? "Kruskal weight" : "DSU partition"));
      continue;
    }
    const std::string fp = fingerprint(o);
    if (fps[g].empty()) {
      fps[g] = fp;
      o.labels.clear();
      first[g] = std::move(o);
    } else if (fp != fps[g]) {
      rep.fail("modeled-clock fingerprint of graph " + std::to_string(g) +
               " changed at op " + std::to_string(op) + ": " + fp + " vs " +
               fps[g]);
    }
    if (!traced) ++ok;
  }
  std::vector<double> modeled_ns;
  for (std::size_t g = 0; g < sh.graphs; ++g) {
    if (fps[g].empty()) continue;  // the run ended before reaching it
    std::cout << "fingerprint graph " << g << ": " << fps[g] << "\n";
    modeled_ns.push_back(first[g].costs.modeled_ns);
  }
  if (a.trace) {
    // Determinism digests of two more solves, outside the timed ops.
    const auto digest = [&] {
      return digest_of(*rt, [&] { solve(*rt, in[0], mst); });
    };
    const std::uint64_t d = digest();
    if (digest() != d) rep.fail("state digest differs between two solves");
    print_digest(d);
  }

  // Every op of one graph has the same modeled time, so the modeled
  // metrics summarize the run's graphs.
  const double modeled =
      sh.modeled_mean
          ? std::accumulate(modeled_ns.begin(), modeled_ns.end(), 0.0) /
                static_cast<double>(std::max<std::size_t>(1, modeled_ns.size()))
          : median(modeled_ns);
  if (!a.trace) {
    e2e.op_cpu_ms = log.untraced_cpu_ms;
    e2e.op_wall_ms = log.untraced_ms;
    e2e.answers = static_cast<double>(ok);
    e2e.modeled_ms = modeled / 1e6;
    e2e.modeled_latency_p50_us = modeled / 1e3;
    e2e.modeled_latency_p99_us = modeled / 1e3;
    e2e.modeled_rps = modeled > 0 ? 1e9 / modeled : 0.0;
    add_end_to_end(rep, e2e);
    return rep;
  }

  // Exact counts of the first graph's solve.
  const Solved& f = first[0];
  rep.add("graph.generate_ms", gen_ms, "ms");
  add_op_log_metrics(rep, log);
  rep.add("core.solve_ms",
          median(Spans::get().op_durations_us(mst ? "core.mst_pgas"
                                                  : "core.cc_coalesced")) /
              1e3,
          "ms");
  rep.add("core.iterations", f.iterations, "count");
  rep.add("core.messages", static_cast<double>(f.costs.messages), "count");
  rep.add("core.fine_messages", static_cast<double>(f.costs.fine_messages),
          "count");
  rep.add("core.bytes", static_cast<double>(f.costs.bytes), "bytes");
  add_phase_metrics(rep, f.costs.breakdown);
  return rep;
}

}  // namespace perfbench
