#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace pgraph::graph {

namespace {
constexpr std::uint64_t kBinMagic = 0x5047524148303031ULL;  // "PGRAH001"
}

void write_dimacs(std::ostream& os, const EdgeList& el) {
  os << "c pgas-graph edge list\n";
  os << "p edge " << el.n << ' ' << el.m() << '\n';
  for (const Edge& e : el.edges)
    os << "e " << (e.u + 1) << ' ' << (e.v + 1) << '\n';
}

void write_dimacs(std::ostream& os, const WEdgeList& el) {
  os << "c pgas-graph weighted edge list\n";
  os << "p sp " << el.n << ' ' << el.m() << '\n';
  for (const WEdge& e : el.edges)
    os << "e " << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.w << '\n';
}

namespace {

// A header's edge count is a claim until the edges arrive: reserve at most
// this many up front and let the vector grow past it.
constexpr std::uint64_t kMaxReserve = std::uint64_t{1} << 20;

[[noreturn]] void dimacs_error(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("dimacs line " + std::to_string(line_no) + ": " +
                           what);
}

// The whole token as an unsigned decimal: no sign, fraction or exponent,
// nothing left over, and a value below 2^64.
std::uint64_t parse_unsigned(const std::string& tok, std::size_t line_no,
                             const char* field) {
  std::uint64_t v = 0;
  const char* const end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc{} || ptr != end)
    dimacs_error(line_no, std::string("bad ") + field + " '" + tok +
                              "' (want an unsigned integer below 2^64)");
  return v;
}

template <class EL, bool Weighted>
EL read_dimacs_impl(std::istream& is) {
  EL el;
  std::string line;
  std::vector<std::string> tok;
  std::size_t line_no = 0;
  bool have_header = false;
  std::uint64_t expect_m = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    tok.assign(std::istream_iterator<std::string>(ls), {});
    const std::string kind = tok.empty() ? std::string() : tok[0];
    if (kind == "p") {
      if (have_header) dimacs_error(line_no, "second problem line");
      if (tok.size() != 4)
        dimacs_error(line_no, "problem line wants 'p <format> <n> <m>'");
      el.n = parse_unsigned(tok[2], line_no, "vertex count");
      expect_m = parse_unsigned(tok[3], line_no, "edge count");
      el.edges.reserve(std::min(expect_m, kMaxReserve));
      have_header = true;
    } else if (kind == "e") {
      if (!have_header) dimacs_error(line_no, "edge before the problem line");
      if (tok.size() != (Weighted ? 4u : 3u))
        dimacs_error(line_no, Weighted ? "edge line wants 'e <u> <v> <w>'"
                                       : "edge line wants 'e <u> <v>'");
      const std::uint64_t u = parse_unsigned(tok[1], line_no, "vertex id");
      const std::uint64_t v = parse_unsigned(tok[2], line_no, "vertex id");
      if (u == 0 || v == 0 || u > el.n || v > el.n)
        dimacs_error(line_no, "vertex id outside [1, " +
                                  std::to_string(el.n) + "]");
      if constexpr (Weighted) {
        el.edges.push_back(
            {u - 1, v - 1, parse_unsigned(tok[3], line_no, "weight")});
      } else {
        el.edges.push_back({u - 1, v - 1});
      }
    } else {
      dimacs_error(line_no, "unknown line kind '" + kind + "'");
    }
  }
  if (!have_header) throw std::runtime_error("dimacs: missing problem line");
  if (el.edges.size() != expect_m)
    throw std::runtime_error("dimacs: problem line says " +
                             std::to_string(expect_m) + " edges, found " +
                             std::to_string(el.edges.size()));
  return el;
}

}  // namespace

EdgeList read_dimacs(std::istream& is) {
  return read_dimacs_impl<EdgeList, false>(is);
}

WEdgeList read_dimacs_weighted(std::istream& is) {
  return read_dimacs_impl<WEdgeList, true>(is);
}

void write_binary(const std::string& path, const WEdgeList& el) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("write_binary: cannot open " + path);
  const std::uint64_t n = el.n, m = el.m();
  os.write(reinterpret_cast<const char*>(&kBinMagic), sizeof(kBinMagic));
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(&m), sizeof(m));
  os.write(reinterpret_cast<const char*>(el.edges.data()),
           static_cast<std::streamsize>(m * sizeof(WEdge)));
  if (!os) throw std::runtime_error("write_binary: write failed");
}

WEdgeList read_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("read_binary: cannot open " + path);
  std::uint64_t magic = 0, n = 0, m = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  is.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!is || magic != kBinMagic)
    throw std::runtime_error("read_binary: bad header in " + path);
  // Check the count against the bytes that follow before allocating.
  const std::streampos body = is.tellg();
  is.seekg(0, std::ios::end);
  const auto left = static_cast<std::uint64_t>(is.tellg() - body);
  is.seekg(body);
  if (!is || left % sizeof(WEdge) != 0 || m != left / sizeof(WEdge))
    throw std::runtime_error("read_binary: header says " + std::to_string(m) +
                             " edges but " + std::to_string(left) +
                             " bytes follow in " + path);
  WEdgeList el;
  el.n = n;
  el.edges.resize(m);
  is.read(reinterpret_cast<char*>(el.edges.data()),
          static_cast<std::streamsize>(m * sizeof(WEdge)));
  if (!is) throw std::runtime_error("read_binary: truncated file " + path);
  for (std::size_t k = 0; k < el.edges.size(); ++k)
    if (el.edges[k].u >= n || el.edges[k].v >= n)
      throw std::runtime_error("read_binary: edge " + std::to_string(k) +
                               " has an endpoint >= n = " + std::to_string(n) +
                               " in " + path);
  return el;
}

}  // namespace pgraph::graph
