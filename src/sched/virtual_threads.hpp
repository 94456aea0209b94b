#pragma once

#include <cstddef>
#include <cstdint>

#include "partition/partitioning.hpp"
#include "sched/fast_div.hpp"

namespace pgraph::sched {

/// Virtual-thread block decomposition (Section IV): each of the s physical
/// threads simulates t' virtual threads, so the shared array D is viewed as
/// s * t' blocks and requests are grouped by *virtual* block.  The sub-block
/// size is chosen so a block fits in a target cache level; the owner of a
/// virtual block is the physical thread that owns the containing block.
///
/// Used as the counting-sort key inside the GetD/SetD/SetDMin collectives:
/// sorting requests by virtual key gives the owner temporal locality within
/// each sub-block during its gather/apply phase.
///
/// The owner map goes through the array's policy (docs/PARTITIONING.md),
/// except under the block layout, where the raw block arithmetic below is
/// the zero-overhead fast path (`part == nullptr`).  The constructor sets
/// every field; owner() and vkey() divide with FastDiv.
struct VBlocks {
  std::size_t n = 0;        ///< total elements in the shared array
  std::size_t blk = 1;      ///< largest per-thread partition (ceil(n/s)
                            ///< under the block layout)
  std::size_t sub_blk = 1;  ///< per-virtual-thread sub-block size
  int nthreads = 1;
  int tprime = 1;
  /// Non-null for non-block policies; must outlive this VBlocks (the
  /// GlobalArray owning the Partitioning outlives every collective call).
  const partition::Partitioning* part = nullptr;
  FastDiv blk_div{1};      ///< divides by blk
  FastDiv sub_blk_div{1};  ///< divides by sub_blk

  VBlocks(const partition::Partitioning& p, int tprime_)
      : n(p.size()), nthreads(p.num_threads()),
        tprime(tprime_ < 1 ? 1 : tprime_),
        part(p.is_block() ? nullptr : &p) {
    set_block(p.max_local_size());
  }

  std::size_t nbuckets() const {
    return static_cast<std::size_t>(nthreads) *
           static_cast<std::size_t>(tprime);
  }

  /// Physical owner thread of element i.
  int owner(std::uint64_t i) const {
    if (part != nullptr) return part->owner_of(i);
    // BLOCK fast path.  Clamp before narrowing: a corruption-derived index
    // can make the quotient overflow int (negative owner, wild vkey) if
    // cast first.
    const std::uint64_t t = blk_div.div(i);
    return t >= static_cast<std::uint64_t>(nthreads)
               ? nthreads - 1
               : static_cast<int>(t);
  }

  /// Virtual bucket of element i: owner * t' + sub-block within the block.
  std::size_t vkey(std::uint64_t i) const {
    const int t = owner(i);
    const std::uint64_t within =
        part != nullptr ? part->local_of(i)
                        : i - static_cast<std::uint64_t>(t) * blk;
    std::size_t sub = static_cast<std::size_t>(sub_blk_div.div(within));
    if (sub >= static_cast<std::size_t>(tprime))
      sub = static_cast<std::size_t>(tprime) - 1;
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(tprime) +
           sub;
  }

  /// First bucket belonging to physical thread t.
  std::size_t first_bucket(int t) const {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(tprime);
  }

 private:
  /// Set blk to the largest partition `b` (at least 1), and the sub-block
  /// size and both dividers from it.
  void set_block(std::size_t b) {
    blk = b == 0 ? 1 : b;
    sub_blk = (blk + static_cast<std::size_t>(tprime) - 1) /
              static_cast<std::size_t>(tprime);
    blk_div = FastDiv(blk);
    sub_blk_div = FastDiv(sub_blk);
  }
};

}  // namespace pgraph::sched
