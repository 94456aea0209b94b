#pragma once

#include <cstdint>

namespace pgraph::graph {

using VertexId = std::uint64_t;
using EdgeId = std::uint64_t;
using Weight = std::uint64_t;

/// Undirected edge; (u, v) and (v, u) denote the same edge.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Pack an unordered vertex pair into one word, the smaller id high: the
/// key of the generators' dedupe sets, the stream edge stores and the
/// serve cache.  Requires ids < 2^32.
inline std::uint64_t pair_key(VertexId u, VertexId v) {
  return u < v ? (u << 32) | v : (v << 32) | u;
}

/// Weighted undirected edge.
struct WEdge {
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 0;

  friend bool operator==(const WEdge&, const WEdge&) = default;
};

/// What a timestamped stream update does to the dynamic edge set.
enum class UpdateKind : std::uint8_t {
  Insert = 0,  ///< add edge {u, v}
  Erase = 1,   ///< remove edge {u, v} (must currently exist)
};

/// One timestamped update of a dynamic graph (src/stream/).  Timestamps
/// are strictly increasing within a stream, so a batch cut at any point
/// yields a well-defined materialized edge set.
struct EdgeUpdate {
  VertexId u = 0;
  VertexId v = 0;
  std::uint64_t ts = 0;
  UpdateKind kind = UpdateKind::Insert;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

}  // namespace pgraph::graph
