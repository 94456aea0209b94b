// Figure 6: the same optimization breakdown as Figure 5, on the paper's
// hybrid (scale-free core + random fill) graph.
//
// Paper: same accumulative impact as Figure 5; the highly connected hubs
// create no load-balance or hotspot problems because work is partitioned
// by edges and each pair of threads exchanges at most one message per
// collective.
#define PGRAPH_BREAKDOWN_NO_MAIN
#include "fig05_opt_breakdown_random.cpp"

int main(int argc, char** argv) {
  return bench_main(run_breakdown, argc, argv, "Figure 6", "hybrid");
}
