// Figure 8: as Figure 7, on the denser random graph (m/n = 10).
// Paper: best speedup 3x over CC-SMP and ~10-11x over sequential at t=8.
#define PGRAPH_CC_SCALING_NO_MAIN
#include "fig07_cc_scaling_mn4.cpp"

int main(int argc, char** argv) {
  return bench_main(run_cc_scaling, argc, argv, "Figure 8 (m/n = 10)", 10);
}
