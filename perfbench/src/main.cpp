// Repository benchmark binary (built and run by run.py):
//
//   perfbench --workload cc_uniform|mst_rmat|serve_mixed --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Prints context lines, then one JSON object as its last line: the verdict
// of the output checks, op counts, and the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1).  See README.md.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"
#include "spans.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

/// Why timings from this build must not be reported; empty if they may.
std::string unfit_build() {
#if !defined(NDEBUG)
  return "assertions are on (Debug build)";
#elif defined(PGRAPH_CHECK_ACCESS)
  return "the PGRAPH_CHECK_ACCESS checker is compiled in";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is compiled in";
#else
  return "";
#endif
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--spans") a.spans_path = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void print_result(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  if (const std::string why = unfit_build(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report timings: %s\n",
                 why.c_str());
    return 3;
  }
  std::cout << "perfbench: optimized, no checker, no sanitizer\n";
  perfbench::Spans::get().set_enabled(a.trace);

  Report rep;
  try {
    if (a.workload == "cc_uniform")
      rep = perfbench::run_static_solve(a, false);
    else if (a.workload == "mst_rmat")
      rep = perfbench::run_static_solve(a, true);
    else if (a.workload == "serve_mixed")
      rep = perfbench::run_serve_mixed(a);
    else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& ex) {
    // Outside any op: set-up, oracle or probes failed.
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
  for (perfbench::Metric& m : rep.metrics)
    if (!std::isfinite(m.value)) {
      rep.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  if (a.trace && !a.spans_path.empty() &&
      !perfbench::Spans::get().write_csv(a.spans_path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_path.c_str());
  std::cout << std::flush;
  print_result(rep);
  return 0;
}
