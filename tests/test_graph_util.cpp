// CSR, I/O, edge chunking.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/rng.hpp"

namespace g = pgraph::graph;

TEST(Csr, AdjacencyBothDirections) {
  g::EdgeList el;
  el.n = 4;
  el.edges = {{0, 1}, {1, 2}, {1, 3}};
  const g::Csr csr(el);
  EXPECT_EQ(csr.n(), 4u);
  EXPECT_EQ(csr.directed_edges(), 6u);
  EXPECT_EQ(csr.degree(1), 3u);
  EXPECT_EQ(csr.degree(0), 1u);
  const auto n1 = csr.neighbors(1);
  EXPECT_EQ(std::count(n1.begin(), n1.end(), 0u), 1);
  EXPECT_EQ(std::count(n1.begin(), n1.end(), 2u), 1);
  EXPECT_EQ(std::count(n1.begin(), n1.end(), 3u), 1);
}

TEST(Csr, WeightedParallelArrays) {
  g::WEdgeList el;
  el.n = 3;
  el.edges = {{0, 1, 10}, {1, 2, 20}};
  const g::Csr csr(el);
  const auto nb = csr.neighbors(1);
  const auto w = csr.weights(1);
  ASSERT_EQ(nb.size(), 2u);
  ASSERT_EQ(w.size(), 2u);
  for (std::size_t i = 0; i < nb.size(); ++i)
    EXPECT_EQ(w[i], nb[i] == 0 ? 10u : 20u);
}

TEST(Csr, UnweightedHasEmptyWeights) {
  const g::Csr csr(g::path_graph(5));
  EXPECT_TRUE(csr.weights(0).empty());
}

TEST(EdgeChunk, CoversExactlyOnce) {
  const auto el = g::random_graph(100, 333, 1);
  for (const int parts : {1, 2, 3, 7, 16, 333, 500}) {
    std::size_t total = 0;
    std::size_t prev_hi = 0;
    for (int p = 0; p < parts; ++p) {
      const auto [lo, hi] = g::even_chunk(el.m(), parts, p);
      EXPECT_EQ(lo, prev_hi);
      EXPECT_LE(hi - lo, el.m() / static_cast<std::size_t>(parts) + 1);
      total += hi - lo;
      prev_hi = hi;
    }
    EXPECT_EQ(total, el.m()) << parts;
    EXPECT_EQ(prev_hi, el.m());
  }
}

TEST(Io, DimacsRoundTripUnweighted) {
  const auto el = g::random_graph(50, 120, 2);
  std::stringstream ss;
  g::write_dimacs(ss, el);
  const auto back = g::read_dimacs(ss);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.edges, el.edges);
}

TEST(Io, DimacsRoundTripWeighted) {
  const auto el = g::with_random_weights(g::random_graph(50, 120, 3), 4);
  std::stringstream ss;
  g::write_dimacs(ss, el);
  const auto back = g::read_dimacs_weighted(ss);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.edges, el.edges);
}

TEST(Io, DimacsRejectsMalformed) {
  {
    std::stringstream ss("e 1 2\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);
  }
  {
    std::stringstream ss("p edge 3 1\ne 1 9\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);  // id out of range
  }
  {
    std::stringstream ss("p edge 3 2\ne 1 2\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);  // count mismatch
  }
  {
    std::stringstream ss("p edge 3 1\nx 1 2\n");
    EXPECT_THROW(g::read_dimacs(ss), std::runtime_error);  // unknown kind
  }
}

TEST(Io, BinaryRoundTrip) {
  const auto el = g::with_random_weights(g::random_graph(80, 200, 5), 6);
  const std::string path =
      (std::filesystem::temp_directory_path() / "pgraph_io_test.bin")
          .string();
  g::write_binary(path, el);
  const auto back = g::read_binary(path);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.edges, el.edges);
  std::filesystem::remove(path);
}

TEST(Io, BinaryRejectsBadFile) {
  EXPECT_THROW(g::read_binary("/nonexistent/nope.bin"), std::runtime_error);
}

// --- reader fuzz -------------------------------------------------------------
// The readers take their header's word for nothing: every malformed input
// throws std::runtime_error, and every accepted one matches its header's
// n and m with each endpoint below n.  The named cases are inputs that a
// reader trusting its header accepts, or answers with std::bad_alloc or
// std::length_error.

namespace {

// A per-process scratch file, so concurrent test runs do not collide.
std::string fuzz_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("pgraph_io_fuzz_" + std::to_string(::getpid()) + "_" + tag +
           ".bin"))
      .string();
}

std::string binary_image(std::uint64_t n, std::uint64_t m,
                         const std::vector<g::WEdge>& edges) {
  const std::uint64_t magic = 0x5047524148303031ULL;  // "PGRAH001"
  std::string img(reinterpret_cast<const char*>(&magic), sizeof magic);
  img.append(reinterpret_cast<const char*>(&n), sizeof n);
  img.append(reinterpret_cast<const char*>(&m), sizeof m);
  img.append(reinterpret_cast<const char*>(edges.data()),
             edges.size() * sizeof(g::WEdge));
  return img;
}

g::WEdgeList read_image(const std::string& img, const std::string& path) {
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(img.data(), static_cast<std::streamsize>(img.size()));
  }
  return g::read_binary(path);
}

template <class Fn>
void expect_runtime_error(Fn fn, const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()), "") << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw a non-runtime_error: " << e.what();
  }
}

template <class EL>
bool endpoints_below_n(const EL& el) {
  for (const auto& e : el.edges)
    if (e.u >= el.n || e.v >= el.n) return false;
  return true;
}

}  // namespace

TEST(GraphIoFuzz, BinaryEndpointBeyondN) {
  const std::string path = fuzz_path("endpoint");
  expect_runtime_error(
      [&] { read_image(binary_image(4, 1, {{7, 9, 1}}), path); },
      "n = 4, edge (7, 9)");
  std::filesystem::remove(path);
}

TEST(GraphIoFuzz, BinaryCountBeyondFileSize) {
  const std::string path = fuzz_path("count40");
  expect_runtime_error(
      [&] { read_image(binary_image(4, std::uint64_t{1} << 40, {}), path); },
      "2^40 edges, no edge bytes");
  std::filesystem::remove(path);
}

TEST(GraphIoFuzz, BinaryCountOverflowsTheRecordSize) {
  const std::string path = fuzz_path("count62");
  expect_runtime_error(
      [&] { read_image(binary_image(4, std::uint64_t{1} << 62, {}), path); },
      "2^62 edges");
  std::filesystem::remove(path);
}

TEST(GraphIoFuzz, DimacsHugeHeaderCount) {
  std::stringstream ss("p edge 4 1000000000000\ne 1 2\n");
  expect_runtime_error([&] { g::read_dimacs(ss); }, "m = 10^12");
}

TEST(GraphIoFuzz, DimacsHeaderCountTwoToThe64MinusOne) {
  std::stringstream ss("p edge 4 18446744073709551615\ne 1 2\n");
  expect_runtime_error([&] { g::read_dimacs(ss); }, "m = 2^64 - 1");
}

TEST(GraphIoFuzz, DimacsTrailingJunk) {
  std::stringstream ss("p edge 4 1\ne 1 2 junk\n");
  expect_runtime_error([&] { g::read_dimacs(ss); }, "e 1 2 junk");
}

TEST(GraphIoFuzz, DimacsFractionalId) {
  std::stringstream ss("p edge 4 1\ne 1 2.5\n");
  expect_runtime_error([&] { g::read_dimacs(ss); }, "e 1 2.5");
}

TEST(GraphIoFuzz, DimacsNegativeWeight) {
  std::stringstream ss("p sp 4 1\ne 1 2 -5\n");
  expect_runtime_error([&] { g::read_dimacs_weighted(ss); }, "e 1 2 -5");
}

TEST(GraphIoFuzz, DimacsSecondProblemLine) {
  // A second header would reset n under the edges read before it.
  std::stringstream ss("p edge 10 1\ne 9 9\np edge 2 1\n");
  expect_runtime_error([&] { g::read_dimacs(ss); }, "second problem line");
}

TEST(GraphIoFuzz, SeededDimacsMutationsThrowOrAreWellFormed) {
  std::vector<std::pair<std::string, bool>> valid;  // text, weighted
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto el = g::random_graph(5 + 9 * seed, 12 * seed, seed);
    std::stringstream u, w;
    g::write_dimacs(u, el);
    g::write_dimacs(w, g::with_random_weights(el, seed));
    valid.emplace_back(u.str(), false);
    valid.emplace_back(w.str(), true);
  }
  const char* const splices[] = {"-1",   "2.5",  "1e30", "18446744073709551616",
                                 "junk", "+3",   "0x10", "18446744073709551615",
                                 "0",    "007",  "",     "1000000000000"};
  const char flips[] = {'0', '9', '-', '.', 'e', ' ', '\n', 'x', '\0', '+'};
  g::Xoshiro256 rng(20261018);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  // Byte offsets of the whitespace-separated tokens of `s`.
  const auto tokens = [](const std::string& s) {
    std::vector<std::pair<std::size_t, std::size_t>> t;
    for (std::size_t i = 0; i < s.size();) {
      while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
      const std::size_t b = i;
      while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
      if (i > b) t.emplace_back(b, i - b);
    }
    return t;
  };
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    auto [text, weighted] = valid[pick(valid.size())];
    const int ops = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < ops && !text.empty(); ++k) {
      switch (pick(4)) {
        case 0:  // flip one byte
          text[pick(text.size())] = flips[pick(std::size(flips))];
          break;
        case 1:  // truncate
          text.resize(pick(text.size() + 1));
          break;
        case 2: {  // splice a token over any token
          const auto t = tokens(text);
          if (t.empty()) break;
          const auto [b, len] = t[pick(t.size())];
          text.replace(b, len, splices[pick(std::size(splices))]);
          break;
        }
        default: {  // overwrite the header's n or m
          const std::size_t p = text.find("\np ");
          if (p == std::string::npos) break;
          const auto t = tokens(text.substr(p + 1, text.find('\n', p + 1) - p));
          if (t.size() < 4) break;
          const auto [b, len] = t[2 + pick(2)];
          const char* const huge[] = {"1000000000000", "4611686018427387904",
                                      "18446744073709551615", "1"};
          text.replace(p + 1 + b, len, huge[pick(std::size(huge))]);
          break;
        }
      }
    }
    SCOPED_TRACE(::testing::Message() << "iter " << iter << ": " << text);
    std::stringstream ss(text);
    try {
      std::uint64_t n = 0, m = 0;
      bool ok = false;
      if (weighted) {
        const auto el = g::read_dimacs_weighted(ss);
        n = el.n, m = el.m(), ok = endpoints_below_n(el);
      } else {
        const auto el = g::read_dimacs(ss);
        n = el.n, m = el.m(), ok = endpoints_below_n(el);
      }
      ++accepted;
      EXPECT_TRUE(ok);
      // The header, read independently: "p <fmt> <n> <m>" on its own line.
      std::uint64_t hn = ~0ull, hm = ~0ull, edge_lines = 0;
      std::istringstream lines(text);
      for (std::string line; std::getline(lines, line);) {
        const auto t = tokens(line);
        if (t.empty() || line[0] == 'c') continue;
        const std::string kind = line.substr(t[0].first, t[0].second);
        if (kind == "e") ++edge_lines;
        if (kind == "p" && t.size() == 4) {
          hn = std::stoull(line.substr(t[2].first, t[2].second));
          hm = std::stoull(line.substr(t[3].first, t[3].second));
        }
      }
      EXPECT_EQ(n, hn);
      EXPECT_EQ(m, hm);
      EXPECT_EQ(m, edge_lines);
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw a non-runtime_error: " << e.what();
    }
  }
  // Both outcomes happen (the mutations are neither all fatal nor all inert).
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

TEST(GraphIoFuzz, SeededBinaryMutationsThrowOrAreWellFormed) {
  std::vector<std::string> valid;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto el =
        g::with_random_weights(g::random_graph(4 + 7 * seed, 9 * seed, seed),
                               seed);
    valid.push_back(binary_image(el.n, el.m(), el.edges));
  }
  valid.push_back(binary_image(0, 0, {}));
  const std::string path = fuzz_path("mutations");
  g::Xoshiro256 rng(20261019);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  const auto put = [](std::string& img, std::size_t at, std::uint64_t v) {
    if (at + sizeof v <= img.size()) std::memcpy(img.data() + at, &v, sizeof v);
  };
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string img = valid[pick(valid.size())];
    const int ops = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < ops; ++k) {
      switch (pick(6)) {
        case 0:  // flip one bit anywhere
          if (!img.empty())
            img[pick(img.size())] ^= static_cast<char>(1u << pick(8));
          break;
        case 1:  // truncate
          img.resize(pick(img.size() + 1));
          break;
        case 2: {  // a huge or off-by-one edge count
          std::uint64_t m = 0;
          if (img.size() >= 24) std::memcpy(&m, img.data() + 16, sizeof m);
          const std::uint64_t counts[] = {std::uint64_t{1} << 40,
                                          std::uint64_t{1} << 62, ~0ull,
                                          m + 1, m - 1, rng.next()};
          put(img, 16, counts[pick(std::size(counts))]);
          break;
        }
        case 3: {  // a vertex count that endpoints may exceed
          const std::uint64_t ns[] = {0, 1, pick(8), ~0ull};
          put(img, 8, ns[pick(std::size(ns))]);
          break;
        }
        case 4:  // trailing junk
          img.append(1 + pick(30), static_cast<char>(pick(256)));
          break;
        default: {  // an endpoint anywhere in [0, 2^64)
          if (img.size() <= 24) break;
          const std::size_t rec = (img.size() - 24) / sizeof(g::WEdge);
          if (rec == 0) break;
          put(img, 24 + pick(rec) * sizeof(g::WEdge) + 8 * pick(2),
              pick(2) ? rng.next() : pick(64));
          break;
        }
      }
    }
    SCOPED_TRACE(::testing::Message() << "iter " << iter);
    try {
      const auto el = read_image(img, path);
      ++accepted;
      std::uint64_t hn = 0, hm = 0;
      ASSERT_GE(img.size(), 24u);
      std::memcpy(&hn, img.data() + 8, sizeof hn);
      std::memcpy(&hm, img.data() + 16, sizeof hm);
      EXPECT_EQ(el.n, hn);
      EXPECT_EQ(el.m(), hm);
      EXPECT_TRUE(endpoints_below_n(el));
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw a non-runtime_error: " << e.what();
    }
  }
  std::filesystem::remove(path);
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}
