// Property test of engine_internal::CompletionWindow (src/memctl/engine.h)
// against a std::multiset oracle.
//
// The window is driven the way ShardServer::Feed drives it: Push while it is
// not full, then ReplaceMin. After every operation its Min() and full() must
// match the oracle's smallest value and size. The inputs cover the shapes the
// sorted ring has to handle: strictly increasing completions (one queue on one
// data bus), increasing completions with refresh-like bumps of up to 350 ns
// (values that land out of order), and arbitrary values with many ties.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>

#include "src/base/rng.h"
#include "src/memctl/engine.h"

namespace siloz {
namespace {

using engine_internal::CompletionWindow;

constexpr uint32_t kCapacities[] = {1, 2, 15, 16, 17, 24, 64};

// Drives a window of `capacity` with `operations` values from `next` and
// checks it against the oracle after every operation.
void CheckAgainstOracle(uint32_t capacity, uint64_t operations,
                        const std::function<double()>& next) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
  CompletionWindow window(capacity);
  std::multiset<double> oracle;
  EXPECT_FALSE(window.full());
  for (uint64_t op = 0; op < operations; ++op) {
    const double value = next();
    if (oracle.size() >= capacity) {
      ASSERT_TRUE(window.full()) << "op " << op;
      oracle.erase(oracle.begin());
      window.ReplaceMin(value);
    } else {
      ASSERT_FALSE(window.full()) << "op " << op;
      window.Push(value);
    }
    oracle.insert(value);
    ASSERT_EQ(window.full(), oracle.size() >= capacity) << "op " << op;
    ASSERT_EQ(window.Min(), *oracle.begin()) << "op " << op << " after " << value;
  }
}

uint64_t Operations(uint32_t capacity) { return 8 * uint64_t{capacity} + 500; }

TEST(CompletionWindowTest, StrictlyIncreasingValues) {
  for (uint32_t capacity : kCapacities) {
    Rng rng(capacity);
    double t = 0.0;
    CheckAgainstOracle(capacity, Operations(capacity), [&] {
      t += 0.5 + static_cast<double>(rng.NextBelow(40));
      return t;
    });
  }
}

// One queue's burst completions increase; now and then a value carries a
// refresh latency tail of up to 350 ns and lands ahead of later ones.
TEST(CompletionWindowTest, IncreasingValuesWithBumps) {
  for (uint32_t capacity : kCapacities) {
    Rng rng(1000 + capacity);
    double t = 0.0;
    CheckAgainstOracle(capacity, Operations(capacity), [&] {
      t += 0.5 + static_cast<double>(rng.NextBelow(40));
      const bool bump = rng.NextBelow(4) == 0;
      return bump ? t + static_cast<double>(rng.NextInRange(1, 350)) : t;
    });
  }
}

// Values from a range of 16, so ties are common and the order is arbitrary.
TEST(CompletionWindowTest, ArbitraryValuesWithTies) {
  for (uint32_t capacity : kCapacities) {
    Rng rng(2000 + capacity);
    CheckAgainstOracle(capacity, Operations(capacity),
                       [&] { return static_cast<double>(rng.NextBelow(16)); });
  }
}

// A decreasing sequence is the worst case: every insert shifts every entry.
TEST(CompletionWindowTest, DecreasingValues) {
  for (uint32_t capacity : kCapacities) {
    double t = 1e6;
    CheckAgainstOracle(capacity, Operations(capacity), [&] { return t -= 1.0; });
  }
}

}  // namespace
}  // namespace siloz
