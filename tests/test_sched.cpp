// Algorithm 1 (recursive access scheduling), counting sort, virtual-thread
// decomposition and its reciprocal division — plus the cache-simulator
// proof that scheduling reduces misses (the core claim of Section IV).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <vector>

#include "graph/rng.hpp"
#include "machine/cache_sim.hpp"
#include "sched/access_sched.hpp"
#include "sched/count_sort.hpp"
#include "sched/fast_div.hpp"
#include "sched/virtual_threads.hpp"

namespace s = pgraph::sched;
namespace m = pgraph::machine;
using pgraph::graph::Xoshiro256;
using pgraph::partition::Partitioning;

TEST(CountSort, StableAndRanked) {
  const std::vector<std::uint64_t> in = {5, 1, 4, 1, 3, 5, 0};
  std::vector<std::uint64_t> sorted(in.size());
  std::vector<std::uint32_t> rank(in.size());
  std::vector<std::size_t> off;
  s::count_sort<std::uint64_t>(
      in, [](std::uint64_t x) { return static_cast<std::size_t>(x); }, 6,
      sorted, rank, off);
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{0, 1, 1, 3, 4, 5, 5}));
  // Stability: the two 1s keep input order (positions 1 then 3), the two
  // 5s keep order (0 then 5).
  EXPECT_EQ(rank[1], 1u);
  EXPECT_EQ(rank[2], 3u);
  EXPECT_EQ(rank[5], 0u);
  EXPECT_EQ(rank[6], 5u);
  // Bucket offsets partition the output.
  EXPECT_EQ(off, (std::vector<std::size_t>{0, 1, 3, 3, 4, 5, 7}));
  // Permute phase reconstructs the original order.
  std::vector<std::uint64_t> rebuilt(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) rebuilt[rank[j]] = sorted[j];
  EXPECT_EQ(rebuilt, in);
}

TEST(CountSort, EmptyInput) {
  std::vector<std::uint64_t> in, sorted;
  std::vector<std::uint32_t> rank;
  std::vector<std::size_t> off;
  s::count_sort<std::uint64_t>(
      in, [](std::uint64_t x) { return static_cast<std::size_t>(x); }, 4,
      sorted, rank, off);
  EXPECT_EQ(off, (std::vector<std::size_t>{0, 0, 0, 0, 0}));
}

namespace {
std::vector<std::uint64_t> make_d(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> d(n);
  Xoshiro256 rng(seed);
  for (auto& x : d) x = rng.next();
  return d;
}
std::vector<std::uint64_t> make_r(std::size_t m, std::size_t n,
                                  std::uint64_t seed) {
  std::vector<std::uint64_t> r(m);
  Xoshiro256 rng(seed);
  for (auto& x : r) x = rng.next_below(n);
  return r;
}
}  // namespace

struct GatherCase {
  std::size_t n, mreq;
  std::vector<std::size_t> ws;
};

// Names the case in the test id, e.g. "n=1000,mreq=5000,W={8,8}" (gtest
// otherwise prints the struct's bytes, heap pointers included).
std::ostream& operator<<(std::ostream& os, const GatherCase& c) {
  os << "n=" << c.n << ",mreq=" << c.mreq << ",W={";
  for (std::size_t i = 0; i < c.ws.size(); ++i) os << (i ? "," : "") << c.ws[i];
  return os << "}";
}

class ScheduledGatherP : public ::testing::TestWithParam<GatherCase> {};

TEST_P(ScheduledGatherP, MatchesDirectGather) {
  const auto& c = GetParam();
  const auto d = make_d(c.n, 1);
  const auto r = make_r(c.mreq, c.n, 2);
  std::vector<std::uint64_t> expect(c.mreq), got(c.mreq, 0);
  s::direct_gather(d, r, expect);
  s::scheduled_gather(d, r, got, c.ws);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduledGatherP,
    ::testing::Values(
        GatherCase{1, 10, {4}},                 // single-element D
        GatherCase{100, 0, {4}},                // no requests
        GatherCase{100, 1000, {}},              // no scheduling (degenerate)
        GatherCase{1000, 5000, {1}},            // W=1 degenerates
        GatherCase{1000, 5000, {8}},            // one level
        GatherCase{1000, 5000, {8, 8}},         // two levels
        GatherCase{1000, 5000, {4, 4, 4}},      // three levels (paper max)
        GatherCase{1000, 5000, {1000}},         // W = n (full sort)
        GatherCase{777, 3333, {13}},            // non-dividing W
        GatherCase{65536, 100000, {16, 16}}));  // larger instance

TEST(ScheduledScatter, MatchesDirectScatterLastWriterWins) {
  const std::size_t n = 512, mreq = 4096;
  const auto r = make_r(mreq, n, 3);
  const auto v = make_d(mreq, 4);
  std::vector<std::uint64_t> d1(n, 0), d2(n, 0);
  // Direct last-writer-wins.
  for (std::size_t i = 0; i < mreq; ++i) d1[r[i]] = v[i];
  const std::vector<std::size_t> ws = {8, 4};
  s::scheduled_scatter(d2, r, v, ws);
  EXPECT_EQ(d1, d2);
}

TEST(ScheduledGather, ChargesLessAccessTimeThanDirectOnLargeD) {
  // Analytic model: blocking reduces the access-phase working set.
  m::CostParams p = m::CostParams::hps_cluster();
  p.cache_bytes = 1 << 14;  // small cache to make the effect visible
  m::MemoryModel mm(p);
  const std::size_t n = 1 << 16, mreq = 1 << 18;
  const auto d = make_d(n, 5);
  const auto r = make_r(mreq, n, 6);
  std::vector<std::uint64_t> out(mreq);
  s::SchedCost direct, sched;
  s::direct_gather(d, r, out, &mm, &direct);
  const std::vector<std::size_t> ws = {64};
  s::scheduled_gather(d, r, out, ws, &mm, &sched);
  EXPECT_LT(sched.access_ns, 0.5 * direct.access_ns);
}

TEST(ScheduledGather, TraceThroughCacheSimShowsFewerMisses) {
  // The real (not analytic) validation: replay both access traces through
  // the cache simulator.  Scheduling must cut misses in the access phase.
  const std::size_t n = 1 << 16;    // 512 KiB of D (uint64)
  const std::size_t mreq = 1 << 18;
  const auto d = make_d(n, 7);
  const auto r = make_r(mreq, n, 8);
  std::vector<std::uint64_t> out(mreq);

  s::AccessTrace direct_trace, sched_trace;
  s::direct_gather(d, r, out, nullptr, nullptr, &direct_trace);
  const std::vector<std::size_t> ws = {64, 8};
  s::scheduled_gather(d, r, out, ws, nullptr, nullptr, &sched_trace);
  ASSERT_EQ(direct_trace.size(), sched_trace.size());

  const auto misses = [](const s::AccessTrace& t) {
    m::CacheSim sim(1 << 15, 64, 8);  // 32 KiB
    for (const std::uint64_t idx : t) sim.access(idx * 8);
    return sim.misses();
  };
  const auto md = misses(direct_trace);
  const auto ms = misses(sched_trace);
  EXPECT_LT(ms, md / 4) << "scheduled misses " << ms << " vs direct " << md;
}

TEST(VBlocks, KeysAndOwners) {
  const Partitioning part = Partitioning::block(100, 4);
  const s::VBlocks vb(part, 3);  // blk = 25, sub = 9
  EXPECT_EQ(vb.blk, 25u);
  EXPECT_EQ(vb.sub_blk, 9u);
  EXPECT_EQ(vb.nbuckets(), 12u);
  EXPECT_EQ(vb.owner(0), 0);
  EXPECT_EQ(vb.owner(24), 0);
  EXPECT_EQ(vb.owner(25), 1);
  EXPECT_EQ(vb.owner(99), 3);
  EXPECT_EQ(vb.vkey(0), 0u);
  EXPECT_EQ(vb.vkey(9), 1u);
  EXPECT_EQ(vb.vkey(18), 2u);
  EXPECT_EQ(vb.vkey(24), 2u);  // clamped to last sub-block
  EXPECT_EQ(vb.vkey(25), 3u);  // thread 1, sub 0
  EXPECT_EQ(vb.first_bucket(2), 6u);
}

TEST(VBlocks, KeysAreMonotoneInIndex) {
  const Partitioning part = Partitioning::block(1000, 7);
  const s::VBlocks vb(part, 5);
  std::size_t prev = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::size_t k = vb.vkey(i);
    EXPECT_GE(k, prev);
    EXPECT_LT(k, vb.nbuckets());
    prev = k;
  }
}

TEST(VBlocks, TprimeOneMatchesOwner) {
  const Partitioning part = Partitioning::block(997, 8);
  const s::VBlocks vb(part, 1);
  for (std::uint64_t i = 0; i < 997; ++i)
    EXPECT_EQ(vb.vkey(i), static_cast<std::size_t>(vb.owner(i)));
}

namespace {

/// The block-layout owner and virtual key of element i, by plain division
/// (the formulas VBlocks evaluates with FastDiv).
struct PlainVBlocks {
  PlainVBlocks(std::uint64_t n, int s, int tprime) : s(s), tprime(tprime) {
    const auto su = static_cast<std::uint64_t>(s);
    const auto tu = static_cast<std::uint64_t>(tprime);
    blk = std::max<std::uint64_t>(1, (n + su - 1) / su);
    sub = std::max<std::uint64_t>(1, (blk + tu - 1) / tu);
  }
  int owner(std::uint64_t i) const {
    return static_cast<int>(
        std::min<std::uint64_t>(i / blk, static_cast<std::uint64_t>(s - 1)));
  }
  std::uint64_t vkey(std::uint64_t i) const {
    const auto t = static_cast<std::uint64_t>(owner(i));
    const std::uint64_t within = i - t * blk;
    return t * static_cast<std::uint64_t>(tprime) +
           std::min<std::uint64_t>(within / sub,
                                   static_cast<std::uint64_t>(tprime - 1));
  }
  int s;
  int tprime;
  std::uint64_t blk;
  std::uint64_t sub;
};

}  // namespace

TEST(FastDiv, MatchesDivisionOnEdgeCases) {
  constexpr std::uint64_t k32 = 1ull << 32;
  const std::uint64_t divisors[] = {1, 2, 3, 7, 1ull << 31, k32 - 1, k32,
                                    1ull << 40};
  for (const std::uint64_t d : divisors) {
    const s::FastDiv fd(d);
    const std::uint64_t xs[] = {0, d - 1, d, d + 1, k32 - 1, k32, ~0ull};
    for (const std::uint64_t x : xs)
      EXPECT_EQ(fd.div(x), x / d) << x << " / " << d;
  }
}

TEST(FastDiv, MatchesDivisionOnRandomPairs) {
  // Divisors and dividends of every bit length; seven in eight of each
  // are below 2^32, so most pairs take the multiply path.
  Xoshiro256 rng(20101);
  const auto draw = [&rng] {
    const std::uint64_t shift =
        rng.next_below(8) == 0 ? rng.next_below(64) : 32 + rng.next_below(32);
    return rng.next() >> shift;
  };
  std::uint64_t mismatches = 0;
  for (int k = 0; k < 1'000'000; ++k) {
    const std::uint64_t d = std::max<std::uint64_t>(1, draw());
    const std::uint64_t x = draw();
    if (s::FastDiv(d).div(x) != x / d) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(VBlocks, OwnerAndKeyMatchPlainDivision) {
  constexpr std::uint64_t k32 = 1ull << 32;
  Xoshiro256 rng(7);
  const std::uint64_t sizes[] = {0,    1,         7,          100,
                                 997,  1ull << 20, 3 * k32 + 5};
  for (const std::uint64_t n : sizes)
    for (const int threads : {1, 2, 7, 64})
      for (const int tprime : {1, 3, 8, 1000}) {
        const Partitioning part = Partitioning::block(n, threads);
        const s::VBlocks vb(part, tprime);
        const PlainVBlocks plain(n, threads, tprime);
        ASSERT_EQ(vb.blk, plain.blk);
        ASSERT_EQ(vb.sub_blk, plain.sub);
        // Around every block and sub-block edge, past the end, and wild
        // (corruption-sized) indices that the clamps must absorb.
        std::vector<std::uint64_t> idx = {n,       n + 1,      k32 - 1, k32,
                                          k32 + 1, 1ull << 40, ~0ull};
        for (int t = 0; t <= threads; ++t) {
          const std::uint64_t b = static_cast<std::uint64_t>(t) * plain.blk;
          for (std::uint64_t u = 0; u <= static_cast<std::uint64_t>(tprime);
               u += std::max<std::uint64_t>(1, tprime / 4)) {
            const std::uint64_t e = b + u * plain.sub;
            idx.insert(idx.end(), {e, e + 1, e == 0 ? 0 : e - 1});
          }
        }
        for (int r = 0; r < 200; ++r)
          idx.push_back(n == 0 ? rng.next() : rng.next_below(n));
        for (const std::uint64_t i : idx) {
          ASSERT_EQ(vb.owner(i), plain.owner(i))
              << "n=" << n << " s=" << threads << " t'=" << tprime
              << " i=" << i;
          ASSERT_EQ(vb.vkey(i), plain.vkey(i))
              << "n=" << n << " s=" << threads << " t'=" << tprime
              << " i=" << i;
        }
      }
}
