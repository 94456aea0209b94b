#pragma once

#include <cstdint>
#include <string>

namespace pgraph::harness {

/// What the bench binary can actually do with the flags it accepts.
/// Batch benches leave `stream` false, so streaming flags are rejected at
/// parse time with a clear message instead of being silently ignored.
struct BenchCaps {
  bool stream = false;  ///< bench understands --stream / --batch-size / --query-mix
  bool serve = false;   ///< bench understands --sessions / --arrival-rate /
                        ///< --skew / --batch-window-ns
  bool robust = false;  ///< bench understands --scrub-interval / --certify /
                        ///< --mem-flips (at-rest integrity knobs)
  bool partition = false;  ///< bench routes its shared arrays through the
                           ///< runtime distribution policy (--partition)
};

/// Common CLI flags for bench binaries, so every figure can be re-run at
/// paper scale on a big machine (`--scale`) while defaulting to sizes that
/// finish in seconds inside CI.
///
///   --n <vertices>    --m <edges>   --nodes <p>   --threads <t>
///   --tprime <t'>     --seed <s>    --scale <f>   (multiplies n and m)
///                     (--nodes/--threads/--tprime >= 0, 0 = bench default;
///                      --scale finite and > 0)
///   --csv             (emit CSV instead of aligned tables)
///   --json <path>     (write a machine-readable BENCH_*.json report)
///   --trace <path>    (write a Chrome/Perfetto trace.json of the run)
///   --faults <spec>   (fault-injection plan, e.g. "drop=0.01,corrupt=0.005";
///                      see fault::FaultConfig::parse and docs/ROBUSTNESS.md)
///   --fault-seed <s>  (seed of the deterministic fault plan; default 1)
///   --digest          (record a determinism digest of the committed
///                      GlobalArray state at every barrier; digests land in
///                      the --json report and --trace output so two runs
///                      can be bisected to the first diverging superstep)
///
/// Streaming benches (BenchCaps::stream) additionally accept:
///   --stream            (drive the dynamic-graph update/query loop)
///   --batch-size <ops>  (updates per ingested batch; requires --stream,
///                        must be > 0)
///   --query-mix <f>     (queries issued per update, in [0, 1]; requires
///                        --stream)
///
/// Serving benches (BenchCaps::serve) additionally accept:
///   --sessions <k>          (concurrent tenant sessions; must be > 0)
///   --arrival-rate <rps>    (aggregate arrival rate, requests per modeled
///                            second; must be > 0)
///   --skew <s>              (Zipf exponent of key popularity, >= 0;
///                            0 = uniform)
///   --batch-window-ns <ns>  (coalescing window on the modeled clock,
///                            >= 0; 0 = flush per request)
///   --deadline-ns <ns>      (mean per-request deadline on the modeled
///                            clock; must be finite and > 0)
///   --retry-budget <tok>    (per-tenant retry token-bucket capacity;
///                            must be finite and >= 0; 0 = never retry)
///   --brownout <0|1>        (serve stale answers from the previous epoch
///                            under breaker/queue pressure)
///
/// Robustness benches (BenchCaps::robust) additionally accept:
///   --scrub-interval <k>  (scrub resident partitions every k loop trips;
///                          must be >= 0; 0 = off)
///   --certify <0|1>       (run certifying output verifiers / epoch
///                          re-digests after the kernel)
///   --mem-flips <n>       (bit flips injected by the bench's fault plan;
///                          must be >= 0; 0 = no injection)
///
/// Partition-aware benches (BenchCaps::partition) additionally accept:
///   --partition <scheme>  (vertex distribution policy for the kernel's
///                          shared arrays: block | cyclic |
///                          block_cyclic:<chunk> | degree;
///                          see docs/PARTITIONING.md)
///
/// Every numeric value must be the whole token, fit its field (unsigned
/// fields take no sign) and, for fractional flags, be finite.
struct BenchArgs {
  std::uint64_t n = 0;  ///< 0 = bench default
  std::uint64_t m = 0;
  int nodes = 0;
  int threads = 0;
  int tprime = 0;
  std::uint64_t seed = 42;
  double scale = 1.0;
  bool csv = false;
  std::string json_path;   ///< empty = no JSON report
  std::string trace_path;  ///< empty = no trace
  std::string faults;      ///< empty = no fault injection
  std::uint64_t fault_seed = 1;
  bool digest = false;     ///< record per-superstep determinism digests
  bool stream = false;          ///< drive the streaming loop
  std::uint64_t batch_size = 0; ///< 0 = bench default (flag must be > 0)
  double query_mix = 0.0;       ///< queries per update, in [0, 1]
  int sessions = 0;             ///< 0 = bench default (flag must be > 0)
  double arrival_rate = 0.0;    ///< 0 = bench default (flag must be > 0)
  double skew = -1.0;           ///< < 0 = bench default (flag must be >= 0)
  double batch_window_ns = -1.0;///< < 0 = bench default (flag must be >= 0)
  double deadline_ns = 0.0;     ///< 0 = bench default (flag must be > 0)
  double retry_budget = -1.0;   ///< < 0 = bench default (flag must be >= 0)
  int brownout = -1;            ///< -1 = bench default (flag must be 0 or 1)
  int scrub_interval = -1;      ///< -1 = bench default (flag must be >= 0)
  int certify = -1;             ///< -1 = bench default (flag must be 0 or 1)
  int mem_flips = -1;           ///< -1 = bench default (flag must be >= 0)
  std::string partition;        ///< empty = block (validated at parse time)

  /// Parse into `out`.  Returns an empty string on success and the error
  /// message (flag included) on failure; `out` is unspecified on failure.
  /// Exits(0) only for --help.
  static std::string try_parse(int argc, char** argv, BenchArgs& out,
                               const BenchCaps& caps = {});

  /// try_parse that prints the error to stderr and exits(2) on failure.
  static BenchArgs parse(int argc, char** argv, const BenchCaps& caps = {});

  /// base * scale, saturating: a huge --scale must not overflow the cast.
  std::uint64_t scaled(std::uint64_t base) const {
    const double v = static_cast<double>(base) * scale;
    return v < 0x1p64 ? static_cast<std::uint64_t>(v) : UINT64_MAX;
  }
};

}  // namespace pgraph::harness
