#include "mutation.hpp"

#include <gtest/gtest.h>

namespace certquic::test {

void check_mutants(bytes_view input, rng& r,
                   const std::function<bool(bytes_view)>& accepts) {
  for (std::size_t cut = 0; cut < input.size(); ++cut) {
    EXPECT_TRUE(accepts(input.first(cut))) << "cut at " << cut;
  }
  bytes flipped(input.begin(), input.end());
  for (std::size_t pos = 0; pos < flipped.size(); ++pos) {
    const auto mask = static_cast<std::uint8_t>(r.uniform(1, 255));
    flipped[pos] ^= mask;
    EXPECT_TRUE(accepts(flipped)) << "byte " << pos << " ^ " << int{mask};
    flipped[pos] ^= mask;
  }
  for (int round = 0; round < 16; ++round) {
    bytes extended(input.begin(), input.end());
    bytes garbage(static_cast<std::size_t>(r.uniform(1, 64)));
    r.fill(garbage);
    append(extended, garbage);
    EXPECT_TRUE(accepts(extended)) << "garbage round " << round;
  }
}

}  // namespace certquic::test
