#include "partition/partitioning.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <system_error>

namespace pgraph::partition {

std::string PartitionSpec::parse(const std::string& text, PartitionSpec& out) {
  PartitionSpec s;
  if (text == "block") {
    s.kind = PartitionKind::Block;
  } else if (text == "cyclic") {
    s.kind = PartitionKind::Cyclic;
  } else if (text == "degree") {
    s.kind = PartitionKind::Degree;
  } else if (text.rfind("block_cyclic:", 0) == 0) {
    const std::string arg = text.substr(std::string("block_cyclic:").size());
    // The whole token must be decimal digits (from_chars takes no space,
    // sign, hex prefix, exponent or point for an unsigned integer).
    std::uint64_t v = 0;
    const char* end = arg.data() + arg.size();
    const auto [p, ec] = std::from_chars(arg.data(), end, v);
    if (ec != std::errc() || p != end || v < 1 || v > 1'000'000'000)
      return "block_cyclic chunk must be an integer in [1, 1e9], got '" +
             arg + "'";
    s.kind = PartitionKind::BlockCyclic;
    s.chunk = static_cast<std::size_t>(v);
  } else {
    return "unknown partition scheme '" + text +
           "' (want block|cyclic|block_cyclic:<k>|degree)";
  }
  out = s;
  return {};
}

std::string PartitionSpec::describe() const {
  switch (kind) {
    case PartitionKind::Block:
      return "block";
    case PartitionKind::Cyclic:
      return "cyclic";
    case PartitionKind::BlockCyclic:
      return "block_cyclic:" + std::to_string(chunk);
    case PartitionKind::Degree:
    default:
      return "degree";
  }
}

Partitioning::Partitioning(PartitionKind kind, std::size_t n, int nthreads,
                           std::size_t chunk)
    : kind_(kind), n_(n), s_(nthreads < 1 ? 1 : nthreads), chunk_(chunk) {
  assert(chunk >= 1);
  blk_ = (n_ + static_cast<std::size_t>(s_) - 1) /
         static_cast<std::size_t>(s_);
  if (blk_ == 0) blk_ = 1;
  // A 1-thread layout is the identity regardless of scheme; Block and
  // Degree are contiguous ranges, hence identity by construction.
  identity_ = s_ == 1 || kind_ == PartitionKind::Block ||
              kind_ == PartitionKind::Degree;
}

void Partitioning::finish_prefix() {
  const auto s = static_cast<std::size_t>(s_);
  begin_.assign(s + 1, 0);
  max_local_ = 0;
  for (std::size_t t = 0; t < s; ++t) {
    std::uint64_t sz = 0;
    switch (kind_) {
      case PartitionKind::Block: {
        const std::uint64_t b = std::min<std::uint64_t>(t * blk_, n_);
        const std::uint64_t e = std::min<std::uint64_t>((t + 1) * blk_, n_);
        sz = e - b;
        break;
      }
      case PartitionKind::Cyclic:
        sz = n_ / s + (t < n_ % s ? 1 : 0);
        break;
      case PartitionKind::BlockCyclic: {
        const std::uint64_t round = chunk_ * s;
        const std::uint64_t q = n_ / round, r = n_ % round;
        const std::uint64_t lo = std::min<std::uint64_t>(t * chunk_, r);
        const std::uint64_t hi = std::min<std::uint64_t>((t + 1) * chunk_, r);
        sz = q * chunk_ + (hi - lo);
        break;
      }
      case PartitionKind::Degree:
        sz = cuts_[t + 1] - cuts_[t];
        break;
    }
    begin_[t + 1] = begin_[t] + sz;
    max_local_ = std::max(max_local_, static_cast<std::size_t>(sz));
  }
  assert(begin_[s] == n_);
}

Partitioning Partitioning::block(std::size_t n, int nthreads) {
  Partitioning p(PartitionKind::Block, n, nthreads, 1);
  p.finish_prefix();
  return p;
}

Partitioning Partitioning::cyclic(std::size_t n, int nthreads) {
  Partitioning p(PartitionKind::Cyclic, n, nthreads, 1);
  p.finish_prefix();
  return p;
}

Partitioning Partitioning::block_cyclic(std::size_t n, int nthreads,
                                        std::size_t chunk) {
  Partitioning p(PartitionKind::BlockCyclic, n, nthreads,
                 chunk < 1 ? 1 : chunk);
  p.finish_prefix();
  return p;
}

Partitioning Partitioning::degree_aware(
    std::size_t n, int nthreads, const std::vector<std::uint32_t>& degrees) {
  assert(degrees.size() == n);
  Partitioning p(PartitionKind::Degree, n, nthreads, 1);
  const auto s = static_cast<std::size_t>(p.s_);
  p.cuts_.assign(s + 1, 0);
  // One-pass weighted cut: vertex i weighs deg(i) + 1 (the +1 keeps
  // zero-degree tails spread instead of lumping them on the last thread),
  // and cut t lands where the weight prefix first reaches t/s of the total.
  std::uint64_t total = 0;
  for (const std::uint32_t d : degrees) total += d + 1;
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (std::size_t t = 1; t < s; ++t) {
    const std::uint64_t target = (total * t + s / 2) / s;
    while (i < n && acc < target) acc += degrees[i] + 1, ++i;
    p.cuts_[t] = i;
  }
  p.cuts_[s] = n;
  p.finish_prefix();
  return p;
}

Partitioning Partitioning::make(const PartitionSpec& spec, std::size_t n,
                                int nthreads) {
  switch (spec.kind) {
    case PartitionKind::Cyclic:
      return cyclic(n, nthreads);
    case PartitionKind::BlockCyclic:
      return block_cyclic(n, nthreads, spec.chunk);
    case PartitionKind::Degree:
      // Degree cuts describe exactly n_hint vertices; every other array
      // shape (collective matrices, edge-sized scratch) stays Block.
      if (spec.n_hint == n && spec.degrees.size() == n && n > 0)
        return degree_aware(n, nthreads, spec.degrees);
      return block(n, nthreads);
    case PartitionKind::Block:
    default:
      return block(n, nthreads);
  }
}

std::string Partitioning::describe() const {
  switch (kind_) {
    case PartitionKind::Block:
      return "block";
    case PartitionKind::Cyclic:
      return "cyclic";
    case PartitionKind::BlockCyclic:
      return "block_cyclic:" + std::to_string(chunk_);
    case PartitionKind::Degree:
    default:
      return "degree";
  }
}

}  // namespace pgraph::partition
