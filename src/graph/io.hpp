#pragma once

#include <iosfwd>
#include <string>

#include "graph/edge_list.hpp"

namespace pgraph::graph {

/// DIMACS-like text format:
///   c <comment>
///   p edge <n> <m>          (or "p sp <n> <m>" for weighted)
///   e <u> <v> [<w>]         (1-based vertex ids, as in DIMACS)
/// Every field is a whole unsigned decimal below 2^64 (no sign, fraction
/// or exponent) and an edge line carries exactly its fields.  Throws
/// std::runtime_error, naming the line, on malformed input: a bad field,
/// an id outside [1, n], or an edge count other than the header's.
void write_dimacs(std::ostream& os, const EdgeList& el);
void write_dimacs(std::ostream& os, const WEdgeList& el);
EdgeList read_dimacs(std::istream& is);
WEdgeList read_dimacs_weighted(std::istream& is);

/// Compact binary format (magic + n + m + raw edge records), for caching
/// large generated graphs between bench runs.  read_binary throws
/// std::runtime_error unless exactly m records follow the header and every
/// endpoint is < n.
void write_binary(const std::string& path, const WEdgeList& el);
WEdgeList read_binary(const std::string& path);

}  // namespace pgraph::graph
