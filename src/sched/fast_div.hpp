#pragma once

#include <cstdint>

namespace pgraph::sched {

/// Exact division by a divisor fixed at run time, as one 64x64 -> 128-bit
/// multiply instead of a hardware divide.
///
/// With M = ceil(2^64 / d), floor(M * x / 2^64) == floor(x / d) for every
/// x < 2^32 and 2 <= d < 2^32 (Lemire, Kaser and Kurz, "Faster remainder
/// by direct computation", 2019): writing M * d = 2^64 + e with
/// 0 <= e < d, the error term e * x / (d * 2^64) stays below 1/d.  The
/// collectives divide 32-bit record positions and block offsets by block,
/// sub-block and cache-line sizes in their per-record loops.  d == 1, any
/// d >= 2^32 and any x >= 2^32 (a corruption-derived wild index, say) take
/// the hardware divide, so the quotient is exact for every operand.
class FastDiv {
 public:
  FastDiv() = default;
  explicit FastDiv(std::uint64_t d)
      : d_(d), m_(d > 1 && d <= kMax32 ? ~std::uint64_t{0} / d + 1 : 0) {}

  /// x / d, rounded down.
  std::uint64_t div(std::uint64_t x) const {
    if (m_ != 0 && x <= kMax32) [[likely]] {
      __extension__ using U128 = unsigned __int128;
      return static_cast<std::uint64_t>((static_cast<U128>(m_) * x) >> 64);
    }
    return x / d_;
  }

 private:
  static constexpr std::uint64_t kMax32 = 0xffffffffu;

  std::uint64_t d_ = 1;
  /// ceil(2^64 / d), or 0 when every quotient takes the hardware divide.
  std::uint64_t m_ = 0;
};

}  // namespace pgraph::sched
