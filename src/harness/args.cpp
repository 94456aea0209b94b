#include "harness/args.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <type_traits>
#include <variant>

#include "fault/fault.hpp"
#include "partition/partitioning.hpp"

namespace pgraph::harness {

namespace {

/// The bench capability a flag needs (BenchCaps); Any: every bench.
enum class Cap { Any, Stream, Serve, Robust, Partition };
/// Accepted values of a numeric flag (None: whatever fits the field).
enum class Range { None, NonNeg, Pos, Unit };

struct Flag {
  const char* name;
  Cap cap;
  std::variant<bool*, std::string*, std::uint64_t*, int*, double*> dst;
  Range range = Range::None;
  const char* rule = "";  ///< the range's "must be ..." error text
  bool seen = false;
};

bool granted(Cap c, const BenchCaps& caps) {
  switch (c) {
    case Cap::Stream: return caps.stream;
    case Cap::Serve: return caps.serve;
    case Cap::Robust: return caps.robust;
    case Cap::Partition: return caps.partition;
    default: return true;
  }
}

/// Phrased as positive accept conditions, so a NaN (which compares false
/// against everything) could never slip through.
bool in_range(double v, Range r) {
  switch (r) {
    case Range::NonNeg: return v >= 0.0;
    case Range::Pos: return v > 0.0;
    case Range::Unit: return v >= 0.0 && v <= 1.0;
    default: return true;
  }
}

/// The one checked parse of every numeric flag: the whole token must be a
/// number of the field's type (unsigned types take no sign), the value must
/// fit the field before anything is stored, and doubles must be finite.
template <class T>
bool parse_number(const char* s, T& out) {
  T v{};
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end) return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

/// What parse_number<T> accepts, for its error message.
template <class T>
constexpr const char* kExpected =
    std::is_floating_point_v<T> ? "a finite number"
    : std::is_signed_v<T>       ? "an integer in int range"
                                : "an unsigned 64-bit integer";

}  // namespace

std::string BenchArgs::try_parse(int argc, char** argv, BenchArgs& out,
                                 const BenchCaps& caps) {
  BenchArgs a;
  const char* const kDefault = "must be >= 0 (0 = bench default)";
  Flag flags[] = {
      {"--n", Cap::Any, &a.n},
      {"--m", Cap::Any, &a.m},
      {"--nodes", Cap::Any, &a.nodes, Range::NonNeg, kDefault},
      {"--threads", Cap::Any, &a.threads, Range::NonNeg, kDefault},
      {"--tprime", Cap::Any, &a.tprime, Range::NonNeg, kDefault},
      {"--seed", Cap::Any, &a.seed},
      {"--scale", Cap::Any, &a.scale, Range::Pos, "must be finite and > 0"},
      {"--csv", Cap::Any, &a.csv},
      {"--json", Cap::Any, &a.json_path},
      {"--trace", Cap::Any, &a.trace_path},
      {"--faults", Cap::Any, &a.faults},
      {"--fault-seed", Cap::Any, &a.fault_seed},
      {"--digest", Cap::Any, &a.digest},
      {"--stream", Cap::Stream, &a.stream},
      {"--batch-size", Cap::Stream, &a.batch_size, Range::Pos,
       "must be > 0 (a batch has to carry updates)"},
      {"--query-mix", Cap::Stream, &a.query_mix, Range::Unit,
       "must be in [0, 1]"},
      {"--sessions", Cap::Serve, &a.sessions, Range::Pos,
       "must be > 0 (someone has to issue queries)"},
      {"--arrival-rate", Cap::Serve, &a.arrival_rate, Range::Pos,
       "must be finite and > 0 (requests per modeled second)"},
      {"--skew", Cap::Serve, &a.skew, Range::NonNeg,
       "must be finite and >= 0 (Zipf exponent; 0 = uniform)"},
      {"--batch-window-ns", Cap::Serve, &a.batch_window_ns, Range::NonNeg,
       "must be finite and >= 0 (0 = flush per request)"},
      {"--deadline-ns", Cap::Serve, &a.deadline_ns, Range::Pos,
       "must be finite and > 0 (mean request deadline)"},
      {"--retry-budget", Cap::Serve, &a.retry_budget, Range::NonNeg,
       "must be finite and >= 0 (0 = never retry)"},
      {"--brownout", Cap::Serve, &a.brownout, Range::Unit, "must be 0 or 1"},
      {"--scrub-interval", Cap::Robust, &a.scrub_interval, Range::NonNeg,
       "must be >= 0 (0 = off)"},
      {"--certify", Cap::Robust, &a.certify, Range::Unit, "must be 0 or 1"},
      {"--mem-flips", Cap::Robust, &a.mem_flips, Range::NonNeg,
       "must be >= 0 (0 = no injection)"},
      {"--partition", Cap::Partition, &a.partition},
  };
  const auto find = [&](const char* name) -> Flag* {
    for (Flag& f : flags)
      if (std::strcmp(f.name, name) == 0) return &f;
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "flags: --n N --m M --nodes P --threads T --tprime T' "
          "--seed S --scale F --csv --json PATH --trace PATH "
          "--faults SPEC --fault-seed S --digest%s%s%s%s\n",
          caps.stream ? " --stream --batch-size OPS --query-mix F" : "",
          caps.serve ? " --sessions K --arrival-rate RPS --skew S"
                       " --batch-window-ns NS --deadline-ns NS"
                       " --retry-budget TOK --brownout 0|1"
                     : "",
          caps.robust ? " --scrub-interval K --certify 0|1 --mem-flips N"
                      : "",
          caps.partition
              ? " --partition block|cyclic|block_cyclic:K|degree"
              : "");
      std::exit(0);
    }
    Flag* f = find(argv[i]);
    if (f == nullptr)
      return std::string("unknown flag ") + argv[i] + " (try --help)";
    // Reject flags the bench cannot honour instead of silently ignoring
    // them.
    const std::string name = f->name;
    if (!granted(f->cap, caps))
      return name + " is not supported by this bench";
    f->seen = true;
    std::string err;
    std::visit(
        [&](auto* dst) {
          using T = std::remove_pointer_t<decltype(dst)>;
          if constexpr (std::is_same_v<T, bool>) {
            *dst = true;
          } else if (i + 1 >= argc) {
            err = "missing value for " + name;
          } else if constexpr (std::is_same_v<T, std::string>) {
            *dst = argv[++i];
          } else if (!parse_number(argv[++i], *dst)) {
            err = "invalid value '" + std::string(argv[i]) + "' for " + name +
                  " (expected " + kExpected<T> + ")";
          } else if (!in_range(static_cast<double>(*dst), f->range)) {
            err = name + " " + f->rule;
          }
        },
        f->dst);
    if (!err.empty()) return err;
  }
  if (find("--batch-size")->seen && !a.stream)
    return "--batch-size requires --stream";
  if (find("--query-mix")->seen && !a.stream)
    return "--query-mix requires --stream";

  // Partition flag: validate the scheme spelling eagerly (unknown schemes,
  // zero/fractional/NaN chunks all fail here, not mid-run).
  if (find("--partition")->seen) {
    partition::PartitionSpec spec;
    const std::string perr = partition::PartitionSpec::parse(a.partition, spec);
    if (!perr.empty()) return "invalid --partition: " + perr;
  }

  // Fail fast on a bad fault plan: parse the spec now, and when the node
  // count is known at the command line, reject plans that the topology
  // cannot honour (outages and permanent loss need a second node) before
  // the bench builds its graph.
  if (!a.faults.empty()) {
    try {
      const fault::FaultConfig cfg =
          fault::FaultConfig::parse(a.faults, a.fault_seed);
      if (a.nodes > 0) cfg.validate_topology(a.nodes);
    } catch (const std::exception& e) {
      return std::string("invalid --faults spec: ") + e.what();
    }
  }
  out = a;
  return {};
}

BenchArgs BenchArgs::parse(int argc, char** argv, const BenchCaps& caps) {
  BenchArgs a;
  const std::string err = try_parse(argc, argv, a, caps);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
  return a;
}

}  // namespace pgraph::harness
