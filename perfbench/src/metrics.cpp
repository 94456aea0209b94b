// Metric assembly shared by the workloads.
#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <numeric>

#include "common.hpp"
#include "ops.hpp"
#include "spans.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  correct = false;
  std::cerr << "CHECK FAILED: " << why << "\n";
}

void print_digest(std::uint64_t digest) {
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(digest));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_end_to_end(Report& rep, const EndToEnd& e) {
  const double cpu_s =
      std::accumulate(e.op_cpu_ms.begin(), e.op_cpu_ms.end(), 0.0) / 1e3;
  const double wall_s =
      std::accumulate(e.op_wall_ms.begin(), e.op_wall_ms.end(), 0.0) / 1e3;
  const double attempted = static_cast<double>(rep.attempted);
  rep.add("setup_s", median(e.setup_s), "s");
  rep.add("op_cpu_ms.p50", quantile(e.op_cpu_ms, 0.5), "ms");
  rep.add("op_cpu_ms.p90", quantile(e.op_cpu_ms, 0.9), "ms");
  rep.add("cpu_qps", cpu_s > 0 ? e.answers / cpu_s : 0.0, "answers/cpu-s");
  rep.add("modeled_ms", e.modeled_ms, "ms");
  rep.add("modeled_latency_us.p50", e.modeled_latency_p50_us, "us");
  rep.add("modeled_latency_us.p99", e.modeled_latency_p99_us, "us");
  rep.add("modeled_rps", e.modeled_rps, "req/modeled-s");
  rep.add("ok_frac",
          attempted > 0 ? (attempted - static_cast<double>(rep.failed)) /
                              attempted
                        : 0.0,
          "ratio");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::cout << "timed ops: " << e.op_cpu_ms.size() << " (p90 has "
            << e.op_cpu_ms.size() / 10 << " samples beyond it), set-ups: "
            << e.setup_s.size() << ", answers: " << e.answers << "\n"
            << "fail_frac: " << rep.failed << " / " << rep.attempted
            << " attempted\n";
  // Wall time follows neighbour load on a shared host, so it is context
  // here, not a metric.
  std::printf("wall: op_ms p50=%.3f p90=%.3f, answers/wall-s=%.1f, "
              "setup_s=%.3f\n",
              quantile(e.op_wall_ms, 0.5), quantile(e.op_wall_ms, 0.9),
              wall_s > 0 ? e.answers / wall_s : 0.0, median(e.setup_wall_s));
}

void add_phase_metrics(Report& rep, const pgraph::machine::PhaseStats& ps) {
  using pgraph::machine::Cat;
  const std::pair<const char*, Cat> cats[] = {
      {"core.modeled_comm_ms", Cat::Comm},
      {"core.modeled_sort_ms", Cat::Sort},
      {"core.modeled_copy_ms", Cat::Copy},
      {"core.modeled_irregular_ms", Cat::Irregular},
      {"core.modeled_setup_ms", Cat::Setup},
      {"core.modeled_work_ms", Cat::Work}};
  for (const auto& [name, c] : cats) rep.add(name, ps.get(c) / 1e6, "ms");
}

void add_op_log_metrics(Report& rep, const OpLog& log) {
  const double total =
      std::accumulate(log.verdict_ns.begin(), log.verdict_ns.end(), 0.0);
  const char* names[] = {"machine.verdict_threads_frac",
                         "machine.verdict_nic_frac",
                         "machine.verdict_bus_frac",
                         "machine.verdict_exchange_frac"};
  for (std::size_t w = 0; w < log.verdict_ns.size(); ++w)
    rep.add(names[w], total > 0 ? log.verdict_ns[w] / total : 0.0, "ratio");
  rep.add("pgas.barriers_per_op", median(log.barriers), "count");
  const double untraced = median(log.untraced_cpu_ms);
  rep.add("trace.overhead_frac",
          untraced > 0 ? median(log.traced_cpu_ms) / untraced : 0.0, "ratio");

  // Self time of the layers the ops call, per traced op.
  const auto per_op = Spans::get().self_ms_by_layer(/*ops_only=*/true);
  const double traced = static_cast<double>(log.traced_cpu_ms.size());
  for (const char* layer : {"core", "serve", "trace"}) {
    const auto it = per_op.find(layer);
    rep.add(std::string(layer) + ".self_ms",
            it != per_op.end() && traced > 0 ? it->second / traced : 0.0,
            "ms");
  }
  std::cout << "self time by layer over the whole traced run "
               "(set-up, probes, oracle and ops):\n";
  for (const auto& [layer, ms] : Spans::get().self_ms_by_layer(false))
    std::printf("  %-8s %12.3f ms\n", layer.c_str(), ms);
  std::cout << "traced ops: " << log.traced_cpu_ms.size()
            << ", untraced ops: " << log.untraced_cpu_ms.size() << "\n";
}

}  // namespace perfbench
