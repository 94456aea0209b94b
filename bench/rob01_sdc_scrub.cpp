// ROB-01: silent-data-corruption defense — availability vs scrub interval
// (docs/ROBUSTNESS.md, "At-rest integrity").
//
// Every row runs cc_coalesced on the same graph.  The clean rows sweep the
// scrub interval to price the defense (overhead% vs the scrub-off run);
// the flip rows replay a matrix of seeded single-bit memory faults
// (mem_flip_at epochs spread across the run) against each interval and
// score AVAILABILITY: the fraction of faulted runs that converge to the
// bit-exact fault-free labels.  Runs that fail loudly (MemoryCorrupt with
// no checkpoint to roll back to) are unavailable but *defended*; the one
// outcome the defense must never produce is a silent escape — a run that
// completes, publishes wrong labels, and passes the certifying verifier.
//
// Scrub-off runs are not a flip target: only arrays opted into integrity
// tracking are resident in the injector's flip space, so the scrub-off row
// prices the baseline instead of demonstrating undefended corruption.
//
// Acceptance (exit 1 on failure):
//  - zero silent escapes anywhere in the matrix;
//  - zero-flip invariance: an attached-but-disabled flip plan leaves the
//    scrub-off modeled time bit-identical;
//  - every clean scrubbed row reproduces the scrub-off labels at a
//    strictly higher modeled cost;
//  - at the default configuration, the interval-1 flip row is fully
//    available (every probed flip epoch detects, heals or rolls back, and
//    converges bit-identically) with at least one scrub detection.
//
// The committed baseline lives at scripts/baselines/BENCH_rob01_sdc.json
// (regenerate: build/bench/rob01_sdc_scrub --seed 21 --json <path>).
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/cc_coalesced.hpp"
#include "fault/fault.hpp"
#include "graph/certify.hpp"
#include "graph/generators.hpp"

using namespace pgraph;
using namespace pgraph::bench;

namespace {

/// Flip epochs for the fault matrix: early / mid / late barrier indices of
/// the default run, all past the first scrub pass's baseline (flips before
/// it are sealed into the baseline and can only fail loudly).
constexpr std::uint64_t kFlipEpochs[] = {8, 12, 16, 24, 40};

}  // namespace

int run(int argc, char** argv) {
  const BenchArgs a = BenchArgs::parse(argc, argv, {.robust = true, .partition = true});
  const int nodes = a.nodes > 0 ? a.nodes : 4;
  const int threads = a.threads > 0 ? a.threads : 2;
  // Default matches the epoch-probed configuration (see kFlipEpochs); the
  // committed baseline pins --seed 21 on top.
  const std::uint64_t n = a.n ? a.n : 256;
  const std::uint64_t m = a.m ? a.m : 4 * n;
  const int mem_flips = a.mem_flips >= 0 ? a.mem_flips : 1;
  const bool certify = a.certify != 0;
  const std::vector<int> intervals =
      a.scrub_interval > 0 ? std::vector<int>{a.scrub_interval}
                           : std::vector<int>{1, 2, 4};
  preamble(a, "ROB-01",
           "SDC defense: availability and overhead vs scrub interval",
           "seeded bit flips into resident partitions are detected by the "
           "digest scrubber and healed or rolled back to a bit-identical "
           "answer; tighter scrub intervals buy availability with modeled "
           "scrub bandwidth");

  const pgas::Topology topo = pgas::Topology::cluster(nodes, threads);
  Report rep(a, "rob01_sdc_scrub");
  rep.set_param("n", static_cast<double>(n));
  rep.set_param("m", static_cast<double>(m));
  rep.set_param("nodes", nodes);
  rep.set_param("threads", threads);
  rep.set_param("seed", static_cast<double>(a.seed));
  rep.set_param("mem_flips", mem_flips);
  rep.set_param("certify", certify ? 1 : 0);

  const auto el = graph::random_graph(n, m, a.seed);
  int rc = 0;

  // --- scrub-off baseline ------------------------------------------------
  core::ParCCResult clean;
  {
    pgas::Runtime rt(topo, params_for(n));
    apply_partition(rt, a, &el);
    rep.attach(rt);
    clean = core::cc_coalesced(rt, el, {});
    rep.row("cc scrub-off clean", clean.costs);
  }
  const double t0 = clean.costs.modeled_ns;

  // --- zero-flip invariance ---------------------------------------------
  {
    fault::FaultInjector inj(
        fault::FaultConfig::parse("mem_flip_at=0", a.fault_seed));
    pgas::Runtime rt(topo, params_for(n));
    apply_partition(rt, a, &el);
    rep.attach(rt);
    rt.set_fault_injector(&inj);
    const auto r = core::cc_coalesced(rt, el, {});
    const bool same =
        r.labels == clean.labels && r.costs.modeled_ns == t0;
    rep.row("cc scrub-off zero-flip plan", r.costs,
            {{"bit_identical", same ? 1.0 : 0.0}});
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: zero-flip plan perturbed the scrub-off run\n");
      rc = 1;
    }
  }

  Table t({"config", "modeled", "overhead%", "avail", "det", "heal",
           "loud", "escapes"});
  t.add_row({"scrub-off clean", Table::eng(t0), "-", "-", "-", "-", "-",
             "-"});

  for (const int k : intervals) {
    core::CcOptions sopt;
    sopt.scrub_interval = k;

    // Clean scrubbed row: the price of the defense.
    double tk = 0.0;
    {
      pgas::Runtime rt(topo, params_for(n));
      apply_partition(rt, a, &el);
      rep.attach(rt);
      const auto r = core::cc_coalesced(rt, el, sopt);
      tk = r.costs.modeled_ns;
      const double overhead = (tk - t0) / t0 * 100.0;
      rep.row("cc scrub-" + std::to_string(k) + " clean", r.costs,
              {{"scrub_overhead_pct", overhead}});
      t.add_row({"scrub-" + std::to_string(k) + " clean", Table::eng(tk),
                 Table::num(overhead, 2), "-", "-", "-", "-", "-"});
      if (r.labels != clean.labels || !(tk > t0)) {
        std::fprintf(stderr,
                     "FAIL: scrub-%d clean run not label-identical or "
                     "not costlier than scrub-off\n",
                     k);
        rc = 1;
      }
    }

    // Flip matrix: one run per probed epoch under this interval.
    std::uint64_t available = 0, detected = 0, healed = 0, loud = 0,
                  escapes = 0, flips_total = 0, rollbacks = 0;
    double flip_ns_sum = 0.0;
    std::size_t runs = 0;
    for (const std::uint64_t e : kFlipEpochs) {
      ++runs;
      fault::FaultInjector inj(fault::FaultConfig::parse(
          "mem_flip_at=" + std::to_string(e) +
              ",mem_flips=" + std::to_string(mem_flips),
          a.fault_seed));
      pgas::Runtime rt(topo, params_for(n));
      apply_partition(rt, a, &el);
      rep.attach(rt);
      rt.set_fault_injector(&inj);
      bool survived = true;
      core::ParCCResult r;
      try {
        r = core::cc_coalesced(rt, el, sopt);
      } catch (const fault::FaultError&) {
        // Loud failure: corruption with no valid checkpoint/mirror.  The
        // run is lost but nothing wrong was ever published.
        survived = false;
      }
      flip_ns_sum += rt.modeled_time_ns();
      const auto c = inj.counters();
      flips_total += c.mem_flips;
      rollbacks += c.rollbacks;
      if (c.scrub_detected > 0) ++detected;
      if (c.scrub_heals > 0) ++healed;
      if (!survived) {
        ++loud;
        continue;
      }
      const bool identical = r.labels == clean.labels;
      if (identical) ++available;
      if (certify) {
        // Full-edge certification (samples=0): the last line of defense.
        // A wrong labelling that PASSES it escaped the whole chain.
        const auto cert = graph::certify_cc(el, r.labels,
                                            r.num_components, a.seed, 0);
        if (!identical && cert.ok) ++escapes;
      }
    }
    const double avail =
        runs > 0 ? static_cast<double>(available) / runs : 1.0;
    rep.row("cc scrub-" + std::to_string(k) + " flips",
            runs > 0 ? flip_ns_sum / runs : 0.0,
            {{"availability", avail},
             {"scrub_runs", static_cast<double>(runs)},
             {"scrub_detected_runs", static_cast<double>(detected)},
             {"scrub_healed_runs", static_cast<double>(healed)},
             {"scrub_loud_failures", static_cast<double>(loud)},
             {"scrub_rollbacks", static_cast<double>(rollbacks)},
             {"certify_escapes", static_cast<double>(escapes)},
             {"fault_mem_flips", static_cast<double>(flips_total)}});
    t.add_row({"scrub-" + std::to_string(k) + " flips",
               Table::eng(runs > 0 ? flip_ns_sum / runs : 0.0),
               Table::num((flip_ns_sum / runs - t0) / t0 * 100.0, 2),
               Table::num(avail, 2), std::to_string(detected),
               std::to_string(healed), std::to_string(loud),
               std::to_string(escapes)});

    if (escapes > 0) {
      std::fprintf(stderr,
                   "FAIL: %llu silent escape(s) at scrub interval %d — "
                   "wrong labels passed full certification\n",
                   static_cast<unsigned long long>(escapes), k);
      rc = 1;
    }
    if (flips_total == 0) {
      std::fprintf(stderr,
                   "FAIL: flip matrix landed no flips at interval %d\n", k);
      rc = 1;
    }
    if (k == 1 && (avail < 1.0 || detected == 0)) {
      std::fprintf(stderr,
                   "FAIL: interval-1 availability %.2f (want 1.0 with at "
                   "least one detection)\n",
                   avail);
      rc = 1;
    }
  }

  emit(a, t);
  const int frc = rep.finish();
  return rc != 0 ? rc : frc;
}

int main(int argc, char** argv) { return bench_main(run, argc, argv); }
