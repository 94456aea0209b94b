// The Partitioning contract (docs/PARTITIONING.md): owner_of / local_of /
// global_of form a bijection on [0, n) for every scheme, storage slots are
// a permutation of the global indices, owner_of clamps wild inputs, and
// degree specs only bind to arrays of exactly n_hint elements.  The chaos
// tests are the partition counterpart of FaultChaos: buddy replication +
// permanent node loss must stay bit-identical under CYCLIC and the
// degree-aware cut, across fault seeds 1..3 — owners are THREAD ids, so
// every scheme composes with the post-shrink thread->node remap for free.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/cc_coalesced.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "machine/cost_params.hpp"
#include "partition/partitioning.hpp"
#include "pgas/runtime.hpp"

namespace g = pgraph::graph;
namespace pg = pgraph::pgas;
namespace m = pgraph::machine;
namespace core = pgraph::core;
namespace flt = pgraph::fault;
namespace part = pgraph::partition;

namespace {

/// Deterministic pseudo-degrees with a hub at vertex 0 (the skew the
/// degree-aware cut exists for).
std::vector<std::uint32_t> fake_degrees(std::size_t n) {
  std::vector<std::uint32_t> d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = i == 0 ? static_cast<std::uint32_t>(4 * n)
                  : static_cast<std::uint32_t>(1 + (i * 7) % 5);
  return d;
}

/// Every scheme instantiated for one (n, s) pair.
std::vector<part::Partitioning> all_schemes(std::size_t n, int s) {
  return {part::Partitioning::block(n, s), part::Partitioning::cyclic(n, s),
          part::Partitioning::block_cyclic(n, s, 1),
          part::Partitioning::block_cyclic(n, s, 3),
          part::Partitioning::block_cyclic(n, s, 16),
          part::Partitioning::degree_aware(n, s, fake_degrees(n))};
}

void expect_bijection(const part::Partitioning& p) {
  const std::size_t n = p.size();
  const int s = p.num_threads();
  SCOPED_TRACE(p.describe() + " n=" + std::to_string(n) +
               " s=" + std::to_string(s));
  // local sizes tile n, and part_begin is their prefix sum.
  std::size_t total = 0;
  for (int t = 0; t < s; ++t) {
    EXPECT_EQ(p.part_begin(t), total);
    total += p.local_size(t);
    EXPECT_LE(p.local_size(t), p.max_local_size());
  }
  EXPECT_EQ(total, n);
  // Round-trip both ways and slot permutation.
  std::vector<char> slot_seen(n, 0);
  for (std::uint64_t gidx = 0; gidx < n; ++gidx) {
    const int t = p.owner_of(gidx);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, s);
    const std::uint64_t l = p.local_of(gidx);
    ASSERT_LT(l, p.local_size(t));
    EXPECT_EQ(p.global_of(t, l), gidx);
    const std::size_t slot = p.slot_of(gidx);
    ASSERT_LT(slot, n);
    EXPECT_EQ(slot_seen[slot], 0) << "slot " << slot << " hit twice";
    slot_seen[slot] = 1;
    if (p.is_identity()) {
      EXPECT_EQ(slot, gidx);
    }
  }
  // Inverse direction: every (t, l) maps back.
  for (int t = 0; t < s; ++t)
    for (std::uint64_t l = 0; l < p.local_size(t); ++l) {
      const std::uint64_t gidx = p.global_of(t, l);
      ASSERT_LT(gidx, n);
      EXPECT_EQ(p.owner_of(gidx), t);
      EXPECT_EQ(p.local_of(gidx), l);
    }
}

std::uint64_t chaos_seed() {
  const char* s = std::getenv("PGRAPH_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1;
}

pg::Runtime make_rt() {
  return pg::Runtime(pg::Topology::cluster(4, 2),
                     m::CostParams::hps_cluster());
}

}  // namespace

// --- bijection property --------------------------------------------------

TEST(Partitioning, BijectionAcrossOddSizesAndThreadCounts) {
  // Odd n (not multiples of s), n < s, n == 0/1, and the 1-thread cluster.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{7}, std::size_t{97},
                              std::size_t{256}, std::size_t{1000}})
    for (const int s : {1, 2, 3, 7, 8})
      for (const auto& p : all_schemes(n, s)) expect_bijection(p);
}

TEST(Partitioning, OwnerClampsWildIndices) {
  // owner_of is total: corruption-derived wild indices still land on a
  // valid thread (the caller's local_size bounds check rejects them).
  for (const auto& p : all_schemes(97, 7))
    for (const std::uint64_t w :
         {std::uint64_t{97}, std::uint64_t{1000}, ~std::uint64_t{0} / 2}) {
      EXPECT_GE(p.owner_of(w), 0) << p.describe();
      EXPECT_LT(p.owner_of(w), 7) << p.describe();
    }
}

TEST(Partitioning, BlockIsTheHistoricalLayout) {
  // Bit-compatibility anchor: ceil(n/s) blocks, identity storage.
  const auto p = part::Partitioning::block(10, 4);
  EXPECT_TRUE(p.is_block());
  EXPECT_TRUE(p.is_identity());
  EXPECT_EQ(p.max_local_size(), 3u);
  EXPECT_EQ(p.owner_of(0), 0);
  EXPECT_EQ(p.owner_of(2), 0);
  EXPECT_EQ(p.owner_of(3), 1);
  EXPECT_EQ(p.owner_of(9), 3);
  EXPECT_EQ(p.local_size(3), 1u);  // trailing short block
}

TEST(Partitioning, DegreeCutsSplitTheHub) {
  // With one vertex holding ~4n weight, the block cut would give thread 0
  // the hub plus a full 1/s of the vertices; the degree cut must hand
  // thread 0 a strictly smaller range.
  const std::size_t n = 1000;
  const int s = 4;
  const auto deg = fake_degrees(n);
  const auto p = part::Partitioning::degree_aware(n, s, deg);
  EXPECT_TRUE(p.is_identity());  // contiguous ranges
  EXPECT_LT(p.local_size(0), n / static_cast<std::size_t>(s));
}

// --- spec parsing and gating ---------------------------------------------

TEST(PartitionSpec, ParseRoundTripsAndRejectsGarbage) {
  part::PartitionSpec sp;
  for (const char* ok : {"block", "cyclic", "block_cyclic:16", "degree"}) {
    EXPECT_EQ(part::PartitionSpec::parse(ok, sp), "") << ok;
    EXPECT_EQ(sp.describe(), ok);
  }
  for (const char* bad :
       {"", "foo", "block_cyclic", "block_cyclic:", "block_cyclic:0",
        "block_cyclic:-4", "block_cyclic:nan", "block_cyclic:1.5",
        "block_cyclic:x", "cyclic:4"})
    EXPECT_NE(part::PartitionSpec::parse(bad, sp), "") << "'" << bad << "'";
}

// --- spec parser fuzzing ---------------------------------------------------
//
// `block_cyclic:<k>` takes k as one whole unsigned decimal token in
// [1, 1e9], like every numeric bench flag.

namespace {

const std::string kChunkError =
    "block_cyclic chunk must be an integer in [1, 1e9], got '";

/// True iff `t` is non-empty decimal digits with a value in [1, 1e9].
bool decimal_chunk(const std::string& t, std::size_t* value) {
  if (t.empty()) return false;
  for (const char c : t)
    if (c < '0' || c > '9') return false;
  const std::size_t nz = t.find_first_not_of('0');
  if (nz == std::string::npos || t.size() - nz > 10) return false;
  *value = std::stoull(t.substr(nz));
  return *value >= 1 && *value <= 1'000'000'000;
}

}  // namespace

TEST(PartitionSpecFuzz, RejectsChunkSpellingsThatAreNotDecimal) {
  struct Case {
    const char* what;
    const char* spec;
  };
  const Case bad[] = {
      {"leading space", "block_cyclic: 4"},
      {"leading tab", "block_cyclic:\t8"},
      {"trailing space", "block_cyclic:4 "},
      {"sign", "block_cyclic:+4"},
      {"hex read as 16", "block_cyclic:0x10"},
      {"hex float read as 8", "block_cyclic:0X1p3"},
      {"exponent", "block_cyclic:4e0"},
      {"exponent", "block_cyclic:1e9"},
      {"decimal point", "block_cyclic:4.0"},
  };
  for (const Case& c : bad) {
    SCOPED_TRACE(std::string(c.what) + ": '" + c.spec + "'");
    part::PartitionSpec sp;
    sp.chunk = 77;
    const std::string arg = std::string(c.spec).substr(13);
    EXPECT_EQ(part::PartitionSpec::parse(c.spec, sp), kChunkError + arg + "'");
    EXPECT_EQ(sp.describe(), "block");  // untouched
    EXPECT_EQ(sp.chunk, 77u);
  }
}

TEST(PartitionSpecFuzz, ChunkRangeIsOneToOneBillion) {
  part::PartitionSpec sp;
  for (const char* ok : {"block_cyclic:1", "block_cyclic:1000000000",
                         "block_cyclic:0016"}) {
    SCOPED_TRACE(ok);
    ASSERT_EQ(part::PartitionSpec::parse(ok, sp), "");
    EXPECT_EQ(sp.kind, part::PartitionKind::BlockCyclic);
  }
  EXPECT_EQ(sp.chunk, 16u);
  EXPECT_EQ(sp.describe(), "block_cyclic:16");
  for (const char* bad :
       {"block_cyclic:0", "block_cyclic:1000000001", "block_cyclic:-0",
        "block_cyclic:18446744073709551616", "block_cyclic:4294967296"})
    EXPECT_NE(part::PartitionSpec::parse(bad, sp), "") << bad;
}

TEST(PartitionSpecFuzz, SeededMutationsRejectOrRoundTrip) {
  // Every spec the benches, tests, scripts and docs pass to --partition.
  const std::vector<std::string> valid = {
      "block",          "cyclic",         "degree",
      "block_cyclic:16", "block_cyclic:8", "block_cyclic:4",
      "block_cyclic:1", "block_cyclic:1000000000"};
  const char* const splices[] = {"+",    " ",   "0x",  "e",
                                 ".",    "-",   "nan", "inf",
                                 "18446744073709551616", "1000000001",
                                 "\t",   "7"};
  std::mt19937_64 rng(20261019);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string spec = valid[pick(valid.size())];
    const int ops = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < ops; ++k) {
      switch (pick(4)) {
        case 0:  // splice a token in anywhere
          spec.insert(pick(spec.size() + 1), splices[pick(std::size(splices))]);
          break;
        case 1:  // replace the chunk (or what follows the scheme)
          spec = "block_cyclic:" + std::string(splices[pick(std::size(splices))]) +
                 (pick(2) ? "4" : "");
          break;
        case 2:  // truncate
          spec.resize(pick(spec.size() + 1));
          break;
        default:  // flip one byte
          if (!spec.empty())
            spec[pick(spec.size())] = static_cast<char>(pick(256));
          break;
      }
    }
    SCOPED_TRACE("spec '" + spec + "'");
    part::PartitionSpec sp;
    const std::string err = part::PartitionSpec::parse(spec, sp);
    if (!err.empty()) {
      ++rejected;
      continue;
    }
    ++accepted;
    if (sp.kind == part::PartitionKind::BlockCyclic) {
      std::size_t value = 0;
      ASSERT_EQ(spec.rfind("block_cyclic:", 0), 0u);
      EXPECT_TRUE(decimal_chunk(spec.substr(13), &value));
      EXPECT_EQ(sp.chunk, value);
    } else {
      EXPECT_TRUE(spec == "block" || spec == "cyclic" || spec == "degree");
    }
    part::PartitionSpec back;
    ASSERT_EQ(part::PartitionSpec::parse(sp.describe(), back), "");
    EXPECT_EQ(back.kind, sp.kind);
    EXPECT_EQ(back.chunk, sp.chunk);
  }
  // Both outcomes are exercised, so neither branch is vacuous.
  EXPECT_GT(accepted, 200u);
  EXPECT_GT(rejected, 1000u);
}

TEST(PartitionSpec, DegreeSpecBindsOnlyToMatchingSize) {
  part::PartitionSpec sp;
  ASSERT_EQ(part::PartitionSpec::parse("degree", sp), "");
  sp = sp.with_degrees(fake_degrees(100));
  EXPECT_EQ(sp.n_hint, 100u);
  // Matching size: the cut applies.
  EXPECT_EQ(part::Partitioning::make(sp, 100, 4).kind(),
            part::PartitionKind::Degree);
  // Any other size (auxiliary arrays): block fallback.
  EXPECT_TRUE(part::Partitioning::make(sp, 64, 4).is_block());
  EXPECT_TRUE(part::Partitioning::make(sp, 101, 4).is_block());
  // An unfilled degree spec never binds.
  part::PartitionSpec empty;
  ASSERT_EQ(part::PartitionSpec::parse("degree", empty), "");
  EXPECT_TRUE(part::Partitioning::make(empty, 100, 4).is_block());
}

// --- post-shrink composition ----------------------------------------------

TEST(Partitioning, OwnersSurviveNodeLossRemap) {
  // A permanent node loss shrinks the thread->node map, never the thread
  // ids, so the partitioning a runtime hands out is unchanged after the
  // shrink — the remap composes underneath owner_of.
  const std::size_t n = 97;
  part::PartitionSpec sp;
  ASSERT_EQ(part::PartitionSpec::parse("cyclic", sp), "");

  flt::FaultInjector inj(
      flt::FaultConfig::parse("loss_at=24,loss_node=2", chaos_seed()));
  pg::Runtime rt = make_rt();
  rt.set_partition_spec(sp);
  rt.set_fault_injector(&inj);
  const part::Partitioning before = rt.make_partitioning(n);

  const auto el = g::random_graph(n, 400, 15);
  (void)core::cc_coalesced(rt, el, {});  // drives the loss + promotion
  ASSERT_EQ(rt.topo().live_node_count(), 3);

  const part::Partitioning after = rt.make_partitioning(n);
  for (std::uint64_t gidx = 0; gidx < n; ++gidx) {
    EXPECT_EQ(after.owner_of(gidx), before.owner_of(gidx));
    EXPECT_EQ(after.local_of(gidx), before.local_of(gidx));
  }
}

// --- chaos: loss + replication under non-block schemes --------------------

TEST(PartitionChaos, CcLossBitIdenticalUnderCyclicAndDegree) {
  const std::size_t n = 256;
  const auto el = g::random_graph(n, 1024, 15);
  const auto deg = g::degree_histogram(el);

  // Reference labels from the default block layout, fault-free.
  core::ParCCResult block_clean;
  {
    pg::Runtime rt = make_rt();
    block_clean = core::cc_coalesced(rt, el, {});
  }

  for (const char* scheme : {"cyclic", "degree"}) {
    part::PartitionSpec sp;
    ASSERT_EQ(part::PartitionSpec::parse(scheme, sp), "");
    if (sp.kind == part::PartitionKind::Degree) sp = sp.with_degrees(deg);

    // Fault-free run under the scheme: labels must match block exactly
    // (the layout changes where bytes live, never what they say).
    core::ParCCResult clean;
    {
      pg::Runtime rt = make_rt();
      rt.set_partition_spec(sp);
      clean = core::cc_coalesced(rt, el, {});
    }
    EXPECT_EQ(clean.labels, block_clean.labels) << scheme;
    EXPECT_EQ(clean.num_components, block_clean.num_components) << scheme;

    // Buddy replication + permanent node loss across fault seeds 1..3.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(scheme) + " fault seed " +
                   std::to_string(seed));
      flt::FaultInjector inj(
          flt::FaultConfig::parse("loss_at=24", seed));
      pg::Runtime rt = make_rt();
      rt.set_partition_spec(sp);
      rt.set_fault_injector(&inj);
      const auto chaotic = core::cc_coalesced(rt, el, {});
      EXPECT_EQ(chaotic.labels, block_clean.labels);
      EXPECT_EQ(chaotic.num_components, block_clean.num_components);
      const auto c = inj.counters();
      EXPECT_EQ(c.loss_events, 1u);
      EXPECT_GE(c.replications, 1u);
      EXPECT_GT(c.replica_bytes, 0u);
      EXPECT_GT(c.promoted_bytes, 0u);
      EXPECT_EQ(rt.topo().live_node_count(), 3);
      EXPECT_GT(chaotic.costs.modeled_ns, clean.costs.modeled_ns);
    }
  }
}
