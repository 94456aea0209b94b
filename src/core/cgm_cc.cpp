#include "core/cgm_cc.hpp"

#include <unordered_map>

#include "core/cc_seq.hpp"
#include "core/dsu.hpp"
#include "pgas/coll.hpp"
#include "pgas/global_array.hpp"

namespace pgraph::core {

using machine::Cat;

namespace {

/// Union-find over a sparse vertex set (a chunk touches at most 2*|chunk|
/// distinct vertices, far fewer than n for large p).
class HashDsu {
 public:
  std::uint64_t find(std::uint64_t x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_.emplace(x, x);
      ++steps_;
      return x;
    }
    std::uint64_t root = x;
    for (;;) {
      const auto pit = parent_.find(root);
      if (pit->second == root) break;
      root = pit->second;
      ++steps_;
    }
    while (x != root) {  // full path compression
      const auto pit = parent_.find(x);
      x = pit->second;
      pit->second = root;
      ++steps_;
    }
    return root;
  }

  bool unite(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t ra = find(a), rb = find(b);
    if (ra == rb) return false;
    parent_[std::max(ra, rb)] = std::min(ra, rb);
    ++steps_;
    return true;
  }

  std::uint64_t steps() const { return steps_; }
  std::size_t size() const { return parent_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> parent_;
  std::uint64_t steps_ = 0;
};

}  // namespace

ParCCResult cgm_cc(pgas::Runtime& rt, const graph::EdgeList& el) {
  rt.reset_costs();

  const std::size_t n = el.n;
  const int s = rt.topo().total_threads();

  pgas::GlobalArray<std::uint64_t> d(rt, n);

  struct ForestView {
    const graph::Edge* data = nullptr;
    std::size_t count = 0;
  };
  std::vector<ForestView> views(static_cast<std::size_t>(s));

  rt.run([&](pgas::ThreadCtx& ctx) {
    const int me = ctx.id();

    // --- local contraction: spanning forest of my chunk.
    const auto chunk = graph::edge_chunk(el.edges, s, me);
    HashDsu dsu;
    std::vector<graph::Edge> forest;
    forest.reserve(chunk.size() / 4 + 16);
    for (const graph::Edge& e : chunk)
      if (dsu.unite(e.u, e.v)) forest.push_back(e);
    ctx.mem_seq(chunk.size() * sizeof(graph::Edge), Cat::Work);
    // Hash-map unions: random accesses over the touched-vertex set.
    ctx.mem_random(dsu.steps(), dsu.size() * 32, 16, Cat::Work);
    ctx.compute(chunk.size() * 8, Cat::Work);

    // --- binomial-tree merge: O(log p) rounds, one long message per pair.
    for (int stride = 1; stride < s; stride *= 2) {
      views[static_cast<std::size_t>(me)] = {forest.data(), forest.size()};
      ctx.barrier();
      const bool receiver = me % (2 * stride) == 0;
      const bool sender = me % (2 * stride) == stride;
      if (sender) {
        // One coalesced message with my whole forest (CGM: "all information
        // sent from a given processor to another... packed into one long
        // message").
        ctx.post_exchange_msg(me - stride,
                              forest.size() * sizeof(graph::Edge));
      } else if (receiver && me + stride < s) {
        const ForestView pv = views[static_cast<std::size_t>(me + stride)];
        for (std::size_t k = 0; k < pv.count; ++k)
          if (dsu.unite(pv.data[k].u, pv.data[k].v))
            forest.push_back(pv.data[k]);
        ctx.mem_seq(pv.count * sizeof(graph::Edge), Cat::Work);
        ctx.mem_random(pv.count * 3, dsu.size() * 32, 16, Cat::Work);
      }
      ctx.exchange_barrier();
      if (sender) forest.clear();
    }

    // --- sequential finish on thread 0: label all n vertices from the
    // merged forest (everyone else idles — the cost the paper criticizes).
    if (me == 0) {
      Dsu full(n);
      for (const graph::Edge& e : forest)
        full.unite(static_cast<std::size_t>(e.u),
                   static_cast<std::size_t>(e.v));
      const std::uint64_t steps0 = full.steps();
      std::vector<std::uint64_t> labels = full.labels();
      ctx.mem_random(steps0 + full.steps(), n * 8, 8, Cat::Work);
      // Scatter the result into the distributed array: one bulk put per
      // thread block (the broadcast round of the CGM algorithm).
      for (int t = 0; t < s; ++t) {
        const std::size_t lo = d.block_begin(t);
        const std::size_t cnt = d.local_size(t);
        if (cnt > 0) d.memput(ctx, lo, cnt, labels.data() + lo, Cat::Comm);
      }
    }
    ctx.barrier();
  });

  ParCCResult r;
  r.labels.assign(d.raw_all().begin(), d.raw_all().end());
  r.num_components = count_components(r.labels);
  r.iterations = 1;
  r.costs = collect_costs(rt);
  return r;
}

}  // namespace pgraph::core
