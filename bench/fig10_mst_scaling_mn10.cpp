// Figure 10: as Figure 9, on the denser random graph (m/n = 10).
// Paper: best speedup 10.2x at t=8.
#define PGRAPH_MST_SCALING_NO_MAIN
#include "fig09_mst_scaling_mn4.cpp"

int main(int argc, char** argv) {
  return bench_main(run_mst_scaling, argc, argv, "Figure 10 (m/n = 10)", 10);
}
