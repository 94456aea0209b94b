#include "core/ears.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/euler_tour.hpp"

namespace pgraph::core {

namespace {

/// Binary-lifting LCA over the rooted forest (parent/depth from the Euler
/// metrics); a local O(n log n) helper for labeling the nontree edges.
class Lca {
 public:
  Lca(const std::vector<std::uint64_t>& parent,
      const std::vector<std::uint64_t>& depth)
      : depth_(depth) {
    const std::size_t n = parent.size();
    std::uint64_t maxd = 0;
    for (const auto d : depth) maxd = std::max(maxd, d);
    levels_ = maxd < 1 ? 1 : std::bit_width(maxd) + 1;
    up_.assign(levels_, parent);
    for (std::size_t k = 1; k < levels_; ++k)
      for (std::size_t v = 0; v < n; ++v)
        up_[k][v] = up_[k - 1][up_[k - 1][v]];
  }

  std::uint64_t lca(std::uint64_t x, std::uint64_t y) const {
    if (depth_[x] < depth_[y]) std::swap(x, y);
    std::uint64_t diff = depth_[x] - depth_[y];
    for (std::size_t k = 0; diff; ++k, diff >>= 1)
      if (diff & 1) x = up_[k][x];
    if (x == y) return x;
    for (std::size_t k = levels_; k-- > 0;) {
      if (up_[k][x] != up_[k][y]) {
        x = up_[k][x];
        y = up_[k][y];
      }
    }
    return up_[0][x];
  }

 private:
  const std::vector<std::uint64_t>& depth_;
  std::size_t levels_;
  std::vector<std::vector<std::uint64_t>> up_;
};

}  // namespace

EarResult ear_decomposition_pgas(pgas::Runtime& rt,
                                 const graph::EdgeList& el,
                                 const coll::CollectiveOptions& opt) {
  for (const auto& e : el.edges)
    if (e.u == e.v)
      throw std::invalid_argument(
          "ear_decomposition_pgas: self loops unsupported");
  if (el.n >= (1ull << 31))
    throw std::invalid_argument("ear_decomposition_pgas: n too large");

  EarResult r;
  r.ear.assign(el.m(), kBridge);
  if (el.m() == 0) return r;

  // --- distributed phases: spanning forest + Euler metrics, then global
  // preorder positions (per-component intervals, as in BCC). -------------
  const RootedForest f = rooted_spanning_forest(rt, el, opt);
  r.costs += f.costs;
  const TreeMetrics& tm = f.tm;
  const std::vector<std::uint64_t>& gp = f.gp;
  const std::vector<std::uint8_t>& is_tree = f.is_tree;

  // --- labels: (depth of LCA, serial) per nontree edge.  The serial keeps
  // labels unique; packing the LCA depth in the high bits makes the
  // subtree minimum select a *covering* edge whenever one exists (a
  // covering edge's LCA is strictly shallower than any non-covering
  // candidate's).
  const Lca lca(tm.parent, tm.depth);
  constexpr std::uint64_t kNone = ~0ull;
  std::vector<std::uint64_t> label(el.m(), kNone);
  for (std::size_t e = 0; e < el.m(); ++e) {
    if (is_tree[e]) continue;
    const std::uint64_t a = lca.lca(el.edges[e].u, el.edges[e].v);
    label[e] = (tm.depth[a] << 32) | e;
  }

  // --- per-vertex minimum incident nontree label, then subtree range-min.
  std::vector<std::uint64_t> amin(el.n, kNone);
  for (std::size_t e = 0; e < el.m(); ++e) {
    if (is_tree[e]) continue;
    for (const auto v : {el.edges[e].u, el.edges[e].v})
      amin[gp[v]] = std::min(amin[gp[v]], label[e]);
  }
  const SparseTable tmin(amin, /*take_min=*/true);

  // --- assignment.  A tree edge e^(v) = (parent(v), v) is covered iff the
  // minimal label in subtree(v) has its LCA strictly above v.
  for (std::size_t t = 0; t < f.tree.m(); ++t) {
    const std::uint64_t v = f.child(t);
    const std::uint64_t best =
        tmin.query(gp[v], gp[v] + tm.subtree_size[v] - 1);
    if (best != kNone && (best >> 32) < tm.depth[v])
      r.ear[f.tree_ids[t]] = best;
  }
  for (std::size_t e = 0; e < el.m(); ++e)
    if (!is_tree[e]) r.ear[e] = label[e];

  // --- dense, order-preserving ear ids; count bridges. --------------------
  std::vector<std::uint64_t> labels;
  labels.reserve(el.m());
  for (const auto x : r.ear)
    if (x != kBridge) labels.push_back(x);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  for (auto& x : r.ear) {
    if (x == kBridge) {
      ++r.num_bridges;
      continue;
    }
    x = static_cast<std::uint64_t>(
        std::lower_bound(labels.begin(), labels.end(), x) - labels.begin());
  }
  r.num_ears = labels.size();
  return r;
}

}  // namespace pgraph::core
