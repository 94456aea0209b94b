#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "collectives/context.hpp"
#include "graph/edge_list.hpp"
#include "pgas/runtime.hpp"

namespace pgraph::core {

/// Load the calling thread's chunk of `edges` as endpoint requests
/// (eu[k], ev[k]) = (u, v), charging one streamed read of the chunk.
inline void load_endpoints(pgas::ThreadCtx& ctx,
                           const std::vector<graph::Edge>& edges,
                           std::vector<std::uint64_t>& eu,
                           std::vector<std::uint64_t>& ev) {
  const auto chunk = graph::edge_chunk(edges, ctx.nthreads(), ctx.id());
  eu.resize(chunk.size());
  ev.resize(chunk.size());
  for (std::size_t k = 0; k < chunk.size(); ++k) {
    eu[k] = chunk[k].u;
    ev[k] = chunk[k].v;
  }
  ctx.mem_seq(chunk.size() * sizeof(graph::Edge), machine::Cat::Work);
}

/// "compact" (Section V): keep row k of every column iff `keep(k)`, in
/// order, and charge a streamed copy of the survivors (kept x columns x 8
/// bytes of Work).  The `id` key caches over those rows shrink with them
/// when every cache is valid and one key per row long; otherwise all are
/// invalidated.
template <class Keep>
void compact_requests(
    pgas::ThreadCtx& ctx, Keep&& keep,
    std::initializer_list<std::vector<std::uint64_t>*> columns,
    std::initializer_list<coll::KeyCache*> caches = {}) {
  assert(columns.size() > 0);
  const std::size_t rows = (*columns.begin())->size();
  bool keys_ok = true;
  for (const coll::KeyCache* c : caches)
    keys_ok = keys_ok && c->keys_valid && c->keys.size() == rows;

  std::size_t kept = 0;
  for (std::size_t k = 0; k < rows; ++k) {
    if (!keep(k)) continue;
    for (std::vector<std::uint64_t>* col : columns) (*col)[kept] = (*col)[k];
    if (keys_ok)
      for (coll::KeyCache* c : caches) c->keys[kept] = c->keys[k];
    ++kept;
  }
  for (std::vector<std::uint64_t>* col : columns) col->resize(kept);
  for (coll::KeyCache* c : caches) {
    if (keys_ok)
      c->keys.resize(kept);
    else
      c->invalidate_keys();
  }
  ctx.mem_seq(kept * columns.size() * sizeof(std::uint64_t),
              machine::Cat::Work);
}

}  // namespace pgraph::core
