// Table/CSV reporters and the bench CLI parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/args.hpp"
#include "harness/table.hpp"

namespace h = pgraph::harness;

TEST(Table, AlignedOutput) {
  h::Table t({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_row({"yyyy", "22"});
  std::stringstream ss;
  t.print(ss);
  const std::string out = ss.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("| a    | long-header | "), std::string::npos);
  EXPECT_NE(out.find("| yyyy | 22          | "), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  h::Table t({"a", "b", "c"});
  t.add_row({"1"});
  std::stringstream ss;
  t.print_csv(ss);
  EXPECT_EQ(ss.str(), "a,b,c\n1,,\n");
}

TEST(Table, CsvQuotesSpecialCells) {
  // RFC 4180: cells with commas, quotes or newlines are quoted, embedded
  // quotes doubled.  Bench row labels like "base, +offload" hit this.
  h::Table t({"label", "plain"});
  t.add_row({"base, +offload", "1"});
  t.add_row({"say \"hi\"", "2"});
  t.add_row({"two\nlines", "3"});
  std::stringstream ss;
  t.print_csv(ss);
  EXPECT_EQ(ss.str(),
            "label,plain\n"
            "\"base, +offload\",1\n"
            "\"say \"\"hi\"\"\",2\n"
            "\"two\nlines\",3\n");
}

TEST(Table, CsvQuotesHeaderCellsToo) {
  h::Table t({"a,b", "c"});
  t.add_row({"x", "y"});
  std::stringstream ss;
  t.print_csv(ss);
  EXPECT_EQ(ss.str(), "\"a,b\",c\nx,y\n");
}

TEST(Table, EngineeringUnits) {
  EXPECT_EQ(h::Table::eng(12.0), "12 ns");
  EXPECT_EQ(h::Table::eng(1500.0), "1.500 us");
  EXPECT_EQ(h::Table::eng(2.5e6), "2.500 ms");
  EXPECT_EQ(h::Table::eng(3.25e9), "3.250 s");
}

TEST(Table, NumPrecision) {
  EXPECT_EQ(h::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(h::Table::num(2.0, 0), "2");
}

TEST(BenchArgs, ParsesAllFlags) {
  const char* argv[] = {"prog", "--n",     "1000", "--m",      "4000",
                        "--nodes", "8",    "--threads", "2",
                        "--tprime", "16",  "--seed",    "7",
                        "--scale",  "2.5", "--csv"};
  const auto a =
      h::BenchArgs::parse(static_cast<int>(std::size(argv)),
                          const_cast<char**>(argv));
  EXPECT_EQ(a.n, 1000u);
  EXPECT_EQ(a.m, 4000u);
  EXPECT_EQ(a.nodes, 8);
  EXPECT_EQ(a.threads, 2);
  EXPECT_EQ(a.tprime, 16);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_DOUBLE_EQ(a.scale, 2.5);
  EXPECT_TRUE(a.csv);
  EXPECT_EQ(a.scaled(100), 250u);
}

TEST(BenchArgs, Defaults) {
  const char* argv[] = {"prog"};
  const auto a = h::BenchArgs::parse(1, const_cast<char**>(argv));
  EXPECT_EQ(a.n, 0u);
  EXPECT_EQ(a.nodes, 0);
  EXPECT_DOUBLE_EQ(a.scale, 1.0);
  EXPECT_FALSE(a.csv);
  EXPECT_EQ(a.scaled(64), 64u);
}

namespace {

/// try_parse against an argv literal; returns the error string ("" = ok).
template <std::size_t N>
std::string tparse(const char* (&argv)[N], h::BenchArgs& out,
                   h::BenchCaps caps = {}) {
  return h::BenchArgs::try_parse(static_cast<int>(N),
                                 const_cast<char**>(argv), out, caps);
}

}  // namespace

TEST(BenchArgsStream, AcceptedWithCapability) {
  const char* argv[] = {"prog",         "--stream", "--batch-size", "128",
                        "--query-mix",  "0.25"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.stream = true}), "");
  EXPECT_TRUE(a.stream);
  EXPECT_EQ(a.batch_size, 128u);
  EXPECT_DOUBLE_EQ(a.query_mix, 0.25);
}

TEST(BenchArgsStream, RejectedOnBatchBenches) {
  // A bench without the streaming capability must refuse the flags with a
  // clear message instead of silently ignoring them.
  const char* s1[] = {"prog", "--stream"};
  const char* s2[] = {"prog", "--batch-size", "64"};
  const char* s3[] = {"prog", "--query-mix", "0.5"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a).find("--stream"), std::string::npos);
  EXPECT_NE(tparse(s2, a).find("--batch-size"), std::string::npos);
  EXPECT_NE(tparse(s3, a).find("--query-mix"), std::string::npos);
}

TEST(BenchArgsStream, StreamFlagsRequireStream) {
  const char* s1[] = {"prog", "--batch-size", "64"};
  const char* s2[] = {"prog", "--query-mix", "0.5"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a, {.stream = true}).find("requires --stream"),
            std::string::npos);
  EXPECT_NE(tparse(s2, a, {.stream = true}).find("requires --stream"),
            std::string::npos);
}

TEST(BenchArgsStream, BatchSizeZeroAndBadMixRejected) {
  const char* s1[] = {"prog", "--stream", "--batch-size", "0"};
  const char* s2[] = {"prog", "--stream", "--query-mix", "1.5"};
  const char* s3[] = {"prog", "--stream", "--query-mix", "-0.1"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a, {.stream = true}).find("--batch-size"),
            std::string::npos);
  EXPECT_NE(tparse(s2, a, {.stream = true}).find("--query-mix"),
            std::string::npos);
  EXPECT_NE(tparse(s3, a, {.stream = true}).find("--query-mix"),
            std::string::npos);
}

TEST(BenchArgsStream, TryParseReportsUnknownFlagWithoutExit) {
  const char* argv[] = {"prog", "--bogus"};
  h::BenchArgs a;
  const std::string err = tparse(argv, a);
  EXPECT_NE(err.find("--bogus"), std::string::npos);
  const char* ok[] = {"prog", "--n", "10"};
  EXPECT_EQ(tparse(ok, a), "");
  EXPECT_EQ(a.n, 10u);
}

TEST(BenchArgsServe, AcceptedWithCapability) {
  const char* argv[] = {"prog",   "--sessions",        "8",
                        "--arrival-rate", "250000",    "--skew",
                        "1.2",    "--batch-window-ns", "4000"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.serve = true}), "");
  EXPECT_EQ(a.sessions, 8);
  EXPECT_DOUBLE_EQ(a.arrival_rate, 250000.0);
  EXPECT_DOUBLE_EQ(a.skew, 1.2);
  EXPECT_DOUBLE_EQ(a.batch_window_ns, 4000.0);
}

TEST(BenchArgsServe, DefaultsMeanBenchChooses) {
  const char* argv[] = {"prog", "--n", "100"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.serve = true}), "");
  EXPECT_EQ(a.sessions, 0);
  EXPECT_DOUBLE_EQ(a.arrival_rate, 0.0);
  EXPECT_LT(a.skew, 0.0);
  EXPECT_LT(a.batch_window_ns, 0.0);
}

TEST(BenchArgsServe, RejectedOnNonServingBenches) {
  // A bench without the serving capability must refuse the flags with a
  // clear message instead of silently ignoring them.
  const char* s1[] = {"prog", "--sessions", "4"};
  const char* s2[] = {"prog", "--arrival-rate", "1e6"};
  const char* s3[] = {"prog", "--skew", "0.8"};
  const char* s4[] = {"prog", "--batch-window-ns", "2000"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a).find("--sessions"), std::string::npos);
  EXPECT_NE(tparse(s2, a).find("--arrival-rate"), std::string::npos);
  EXPECT_NE(tparse(s3, a).find("--skew"), std::string::npos);
  EXPECT_NE(tparse(s4, a).find("--batch-window-ns"), std::string::npos);
  // Stream capability alone does not grant the serving flags.
  EXPECT_NE(tparse(s1, a, {.stream = true}).find("not supported"),
            std::string::npos);
}

TEST(BenchArgsServe, OutOfRangeValuesRejected) {
  const char* s1[] = {"prog", "--sessions", "0"};
  const char* s2[] = {"prog", "--arrival-rate", "0"};
  const char* s3[] = {"prog", "--skew", "-0.5"};
  const char* s4[] = {"prog", "--batch-window-ns", "-1"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a, {.serve = true}).find("--sessions"),
            std::string::npos);
  EXPECT_NE(tparse(s2, a, {.serve = true}).find("--arrival-rate"),
            std::string::npos);
  EXPECT_NE(tparse(s3, a, {.serve = true}).find("--skew"),
            std::string::npos);
  EXPECT_NE(tparse(s4, a, {.serve = true}).find("--batch-window-ns"),
            std::string::npos);
}

TEST(BenchArgsResilience, AcceptedWithCapability) {
  const char* argv[] = {"prog",           "--deadline-ns", "250000",
                        "--retry-budget", "3",             "--brownout",
                        "1"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.serve = true}), "");
  EXPECT_DOUBLE_EQ(a.deadline_ns, 250000.0);
  EXPECT_DOUBLE_EQ(a.retry_budget, 3.0);
  EXPECT_EQ(a.brownout, 1);
}

TEST(BenchArgsResilience, DefaultsMeanBenchChooses) {
  const char* argv[] = {"prog", "--n", "100"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.serve = true}), "");
  EXPECT_DOUBLE_EQ(a.deadline_ns, 0.0);
  EXPECT_LT(a.retry_budget, 0.0);
  EXPECT_EQ(a.brownout, -1);
}

TEST(BenchArgsResilience, RejectedOnNonServingBenches) {
  const char* s1[] = {"prog", "--deadline-ns", "250000"};
  const char* s2[] = {"prog", "--retry-budget", "3"};
  const char* s3[] = {"prog", "--brownout", "1"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a).find("--deadline-ns"), std::string::npos);
  EXPECT_NE(tparse(s2, a).find("--retry-budget"), std::string::npos);
  EXPECT_NE(tparse(s3, a).find("--brownout"), std::string::npos);
}

TEST(BenchArgsResilience, OutOfRangeValuesRejected) {
  const char* s1[] = {"prog", "--deadline-ns", "0"};
  const char* s2[] = {"prog", "--deadline-ns", "-5"};
  const char* s3[] = {"prog", "--retry-budget", "-1"};
  const char* s4[] = {"prog", "--brownout", "2"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a, {.serve = true}).find("--deadline-ns"),
            std::string::npos);
  EXPECT_NE(tparse(s2, a, {.serve = true}).find("--deadline-ns"),
            std::string::npos);
  EXPECT_NE(tparse(s3, a, {.serve = true}).find("--retry-budget"),
            std::string::npos);
  EXPECT_NE(tparse(s4, a, {.serve = true}).find("--brownout"),
            std::string::npos);
}

TEST(BenchArgsResilience, NanAndInfRejectedEverywhere) {
  // NaN compares false against everything, so naive `x < 0` range checks
  // silently accept it; the parser phrases acceptance positively.  Same
  // for infinities, which would otherwise flow into horizon arithmetic.
  const char* s1[] = {"prog", "--arrival-rate", "nan"};
  const char* s2[] = {"prog", "--skew", "nan"};
  const char* s3[] = {"prog", "--batch-window-ns", "inf"};
  const char* s4[] = {"prog", "--deadline-ns", "nan"};
  const char* s5[] = {"prog", "--retry-budget", "inf"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a, {.serve = true}).find("--arrival-rate"),
            std::string::npos);
  EXPECT_NE(tparse(s2, a, {.serve = true}).find("--skew"),
            std::string::npos);
  EXPECT_NE(tparse(s3, a, {.serve = true}).find("--batch-window-ns"),
            std::string::npos);
  EXPECT_NE(tparse(s4, a, {.serve = true}).find("--deadline-ns"),
            std::string::npos);
  EXPECT_NE(tparse(s5, a, {.serve = true}).find("--retry-budget"),
            std::string::npos);
}

TEST(BenchArgsRobust, AcceptedWithCapability) {
  const char* argv[] = {"prog",      "--scrub-interval", "4",
                        "--certify", "1",                "--mem-flips",
                        "3"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.robust = true}), "");
  EXPECT_EQ(a.scrub_interval, 4);
  EXPECT_EQ(a.certify, 1);
  EXPECT_EQ(a.mem_flips, 3);
}

TEST(BenchArgsRobust, DefaultsMeanBenchChooses) {
  const char* argv[] = {"prog", "--n", "64"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.robust = true}), "");
  EXPECT_EQ(a.scrub_interval, -1);
  EXPECT_EQ(a.certify, -1);
  EXPECT_EQ(a.mem_flips, -1);
}

TEST(BenchArgsRobust, RejectedOnNonRobustBenches) {
  // Same policy as the streaming/serving flags: refuse loudly, with the
  // offending flag in the message, instead of silently ignoring it.
  const char* s1[] = {"prog", "--scrub-interval", "2"};
  const char* s2[] = {"prog", "--certify", "1"};
  const char* s3[] = {"prog", "--mem-flips", "1"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a).find("--scrub-interval"), std::string::npos);
  EXPECT_NE(tparse(s2, a).find("--certify"), std::string::npos);
  EXPECT_NE(tparse(s3, a).find("--mem-flips"), std::string::npos);
}

TEST(BenchArgsRobust, OutOfRangeValuesRejected) {
  const char* s1[] = {"prog", "--scrub-interval", "-1"};
  const char* s2[] = {"prog", "--certify", "2"};
  const char* s3[] = {"prog", "--certify", "-1"};
  const char* s4[] = {"prog", "--mem-flips", "-5"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a, {.robust = true}).find("--scrub-interval"),
            std::string::npos);
  EXPECT_NE(tparse(s2, a, {.robust = true}).find("--certify"),
            std::string::npos);
  EXPECT_NE(tparse(s3, a, {.robust = true}).find("--certify"),
            std::string::npos);
  EXPECT_NE(tparse(s4, a, {.robust = true}).find("--mem-flips"),
            std::string::npos);
}

TEST(BenchArgsRobust, ZeroMeansOffAndIsAccepted) {
  // 0 is the documented "off" value for all three knobs, distinct from
  // the -1 bench-default sentinel.
  const char* argv[] = {"prog",      "--scrub-interval", "0",
                        "--certify", "0",                "--mem-flips",
                        "0"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.robust = true}), "");
  EXPECT_EQ(a.scrub_interval, 0);
  EXPECT_EQ(a.certify, 0);
  EXPECT_EQ(a.mem_flips, 0);
}

TEST(BenchArgsPartition, AcceptedWithCapability) {
  for (const char* scheme :
       {"block", "cyclic", "block_cyclic:16", "degree"}) {
    const char* argv[] = {"prog", "--partition", scheme};
    h::BenchArgs a;
    ASSERT_EQ(tparse(argv, a, {.partition = true}), "") << scheme;
    EXPECT_EQ(a.partition, scheme);
  }
}

TEST(BenchArgsPartition, DefaultMeansBlock) {
  const char* argv[] = {"prog", "--n", "64"};
  h::BenchArgs a;
  ASSERT_EQ(tparse(argv, a, {.partition = true}), "");
  EXPECT_TRUE(a.partition.empty());
}

TEST(BenchArgsPartition, RejectedOnBlockOnlyBenches) {
  // Benches whose arrays are hard-wired to the block layout refuse the
  // flag loudly instead of silently running under the wrong assumption.
  const char* s1[] = {"prog", "--partition", "cyclic"};
  h::BenchArgs a;
  EXPECT_NE(tparse(s1, a).find("--partition"), std::string::npos);
  // Other capabilities do not grant it.
  EXPECT_NE(tparse(s1, a, {.stream = true}).find("--partition"),
            std::string::npos);
  EXPECT_NE(tparse(s1, a, {.robust = true}).find("--partition"),
            std::string::npos);
}

TEST(BenchArgsPartition, BadSchemesRejectedAtParseTime) {
  // Unknown schemes and zero / negative / fractional / NaN chunks fail in
  // try_parse, not mid-run; NaN must not slip through a comparison (the
  // accept condition is phrased positively).
  for (const char* bad :
       {"zigzag", "block_cyclic", "block_cyclic:", "block_cyclic:0",
        "block_cyclic:-4", "block_cyclic:1.5", "block_cyclic:nan",
        "block_cyclic:inf"}) {
    const char* argv[] = {"prog", "--partition", bad};
    h::BenchArgs a;
    EXPECT_NE(tparse(argv, a, {.partition = true}).find("--partition"),
              std::string::npos)
        << "'" << bad << "' was accepted";
  }
}

// --- numeric flag parsing: every value goes through one checked parse ----

namespace {

const h::BenchCaps kAllCaps{
    .stream = true, .serve = true, .robust = true, .partition = true};

/// try_parse over argv tokens (argv[0] prepended); "" = accepted.
std::string vparse(std::vector<std::string> toks, h::BenchArgs& out,
                   h::BenchCaps caps = kAllCaps) {
  toks.insert(toks.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& t : toks) argv.push_back(t.data());
  return h::BenchArgs::try_parse(static_cast<int>(argv.size()), argv.data(),
                                 out, caps);
}

/// An unchecked parse (atoi, strtoull, atof) stores a value for these
/// tokens; the checked one must return an error that names `flag`.
void expect_rejected(std::vector<std::string> toks, const std::string& flag) {
  h::BenchArgs a;
  const std::string err = vparse(std::move(toks), a);
  EXPECT_NE(err.find(flag), std::string::npos) << "error: '" << err << "'";
}

}  // namespace

TEST(BenchArgsFuzz, NodesWithTrailingGarbage) {
  expect_rejected({"--nodes", "4x"}, "--nodes");  // atoi: 4
}

TEST(BenchArgsFuzz, ThreadsNotANumber) {
  expect_rejected({"--threads", "abc"}, "--threads");  // atoi: 0
}

TEST(BenchArgsFuzz, SessionsFraction) {
  expect_rejected({"--sessions", "2.5"}, "--sessions");  // atoi: 2
}

TEST(BenchArgsFuzz, SeedInExponentForm) {
  expect_rejected({"--seed", "1e3"}, "--seed");  // strtoull: 1
}

TEST(BenchArgsFuzz, CertifyNan) {
  expect_rejected({"--certify", "nan"}, "--certify");  // atoi: 0
}

TEST(BenchArgsFuzz, QueryMixWithTrailingGarbage) {
  expect_rejected({"--stream", "--query-mix", "0.5abc"}, "--query-mix");
}

TEST(BenchArgsFuzz, FaultSeedEmpty) {
  expect_rejected({"--fault-seed", ""}, "--fault-seed");  // strtoull: 0
}

TEST(BenchArgsFuzz, UnsignedNegative) {
  expect_rejected({"--n", "-1"}, "--n");  // strtoull: 2^64 - 1
}

TEST(BenchArgsFuzz, UnsignedOverflow) {
  // strtoull: 2^64 - 1
  expect_rejected({"--m", "18446744073709551616"}, "--m");
}

TEST(BenchArgsFuzz, IntOverflowWrapped) {
  expect_rejected({"--mem-flips", "4294967297"}, "--mem-flips");  // atoi: 1
  expect_rejected({"--scrub-interval", "99999999999"}, "--scrub-interval");
}

TEST(BenchArgsFuzz, NegativeTopology) {
  expect_rejected({"--nodes", "-2"}, "--nodes");
  expect_rejected({"--tprime", "-3"}, "--tprime");
}

TEST(BenchArgsFuzz, ScaleNotFinitePositive) {
  // scaled() casts base * scale to an integer: undefined for NaN and
  // negatives.
  for (const char* bad : {"nan", "-1", "0", "inf"}) {
    SCOPED_TRACE(bad);
    expect_rejected({"--scale", bad}, "--scale");
  }
}

TEST(BenchArgsFuzz, SeededMutationsErrorOrMeetRanges) {
  // Valid flag sets from run_checks.sh, EXPERIMENTS.md and the tests.
  const std::vector<std::vector<std::string>> valid = {
      {"--n", "2048", "--m", "8192", "--nodes", "4", "--threads", "4",
       "--seed", "1", "--json", "out.json", "--trace", "trace.json"},
      {"--n", "2000", "--m", "8000", "--nodes", "4", "--threads", "2",
       "--stream", "--batch-size", "200", "--query-mix", "0.25", "--digest"},
      {"--n", "1500", "--nodes", "4", "--threads", "2", "--seed", "1",
       "--sessions", "4", "--scale", "0.5", "--arrival-rate", "2.5e5",
       "--skew", "0.8", "--batch-window-ns", "2000"},
      {"--deadline-ns", "250000", "--retry-budget", "3", "--brownout", "1",
       "--faults", "drop=0", "--fault-seed", "3", "--csv"},
      {"--seed", "21", "--scrub-interval", "4", "--certify", "1",
       "--mem-flips", "3", "--faults", "mem_flip_at=12", "--partition",
       "block_cyclic:4"},
      {"--tprime", "16", "--scale", "2.5", "--partition", "degree"},
  };
  const char* const splices[] = {"nan", "inf", "-1", "1.5", "1e30",
                                 "18446744073709551616", "4x", ""};
  std::mt19937_64 rng(20261018);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::string> toks = valid[pick(valid.size())];
    const int ops = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < ops; ++k) {
      switch (pick(3)) {
        case 0:  // splice a bad token over any token, flags included
          toks[pick(toks.size())] = splices[pick(std::size(splices))];
          break;
        case 1: {  // truncate a token
          std::string& t = toks[pick(toks.size())];
          t.resize(pick(t.size() + 1));
          break;
        }
        default: {  // repeat one flag (and its value) of a valid set
          const auto& src = valid[pick(valid.size())];
          std::size_t at = pick(src.size());
          while (at > 0 && src[at].rfind("--", 0) != 0) --at;
          toks.push_back(src[at]);
          if (at + 1 < src.size() && src[at + 1].rfind("--", 0) != 0)
            toks.push_back(src[at + 1]);
          break;
        }
      }
    }
    // Truncation cannot spell --help or -h (which exit), but make sure.
    if (std::find(toks.begin(), toks.end(), "-h") != toks.end() ||
        std::find(toks.begin(), toks.end(), "--help") != toks.end())
      continue;
    std::string shown;
    for (const std::string& t : toks) shown += " '" + t + "'";
    SCOPED_TRACE(shown);
    h::BenchArgs a;
    const std::string err = vparse(toks, a);
    if (!err.empty()) {
      ++rejected;
      // Every error names the flag at fault (an unknown one included).
      bool named = err.rfind("unknown flag ", 0) == 0;
      for (const std::string& t : toks)
        if (t.rfind("--", 0) == 0 && t.size() > 2 &&
            err.find(t) != std::string::npos)
          named = true;
      EXPECT_TRUE(named) << "error names no flag: " << err;
      continue;
    }
    ++accepted;
    // Accepted: every field within its documented range (sentinels
    // included), and scaled() defined for any base.
    EXPECT_GE(a.nodes, 0);
    EXPECT_GE(a.threads, 0);
    EXPECT_GE(a.tprime, 0);
    EXPECT_TRUE(std::isfinite(a.scale) && a.scale > 0.0);
    (void)a.scaled(std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(a.query_mix >= 0.0 && a.query_mix <= 1.0);
    EXPECT_GE(a.sessions, 0);
    EXPECT_TRUE(std::isfinite(a.arrival_rate) && a.arrival_rate >= 0.0);
    EXPECT_TRUE(a.skew == -1.0 || (std::isfinite(a.skew) && a.skew >= 0.0));
    EXPECT_TRUE(a.batch_window_ns == -1.0 ||
                (std::isfinite(a.batch_window_ns) && a.batch_window_ns >= 0.0));
    EXPECT_TRUE(std::isfinite(a.deadline_ns) && a.deadline_ns >= 0.0);
    EXPECT_TRUE(a.retry_budget == -1.0 ||
                (std::isfinite(a.retry_budget) && a.retry_budget >= 0.0));
    EXPECT_TRUE(a.brownout >= -1 && a.brownout <= 1);
    EXPECT_GE(a.scrub_interval, -1);
    EXPECT_TRUE(a.certify >= -1 && a.certify <= 1);
    EXPECT_GE(a.mem_flips, -1);
    if (a.batch_size > 0 || a.query_mix > 0.0) {
      EXPECT_TRUE(a.stream);
    }
  }
  // The mix exercises both outcomes.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}
