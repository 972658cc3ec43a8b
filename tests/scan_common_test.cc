// Unit tests for the shared pair-scan building blocks (core/scan_common.h):
// the RunIndexed worker-pool helper — including the threads == 0 clamp
// that used to underflow the unsigned pool reservation — and the result
// total orders the query engine sorts to.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/scan_common.h"

namespace vos::core::scan {
namespace {

/// Every index in [0, count) visited exactly once, for a given thread
/// request.
void ExpectFullSingleCoverage(unsigned threads, size_t count) {
  std::vector<std::atomic<uint32_t>> visits(count);
  for (auto& v : visits) v.store(0);
  RunIndexed(threads, count, [&](size_t i) {
    ASSERT_LT(i, count);
    visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(visits[i].load(), 1u)
        << "threads=" << threads << " count=" << count << " index=" << i;
  }
}

TEST(RunIndexedTest, ZeroThreadsClampsToOneInsteadOfUnderflowing) {
  // threads is unsigned: before the clamp, 0 made pool.reserve(threads-1)
  // request ~4e9 slots (bad_alloc / OOM) and the spawn loop degenerate.
  // A zero request must behave exactly like a single-threaded run.
  ExpectFullSingleCoverage(/*threads=*/0, /*count=*/257);
  ExpectFullSingleCoverage(/*threads=*/0, /*count=*/0);
}

TEST(RunIndexedTest, CoversAllIndicesForEveryThreadCount) {
  for (unsigned threads : {1u, 2u, 5u, 8u}) {
    ExpectFullSingleCoverage(threads, 1000);
    ExpectFullSingleCoverage(threads, 1);
    ExpectFullSingleCoverage(threads, 0);
  }
}

TEST(RunIndexedTest, MoreThreadsThanWorkStillCoversOnce) {
  ExpectFullSingleCoverage(/*threads=*/16, /*count=*/3);
}

TEST(ScanOrderTest, EntryAndPairOrdersAreStrictTotalOrders) {
  const Entry a{1, 0.0, 0.9};
  const Entry b{2, 0.0, 0.9};
  const Entry c{0, 0.0, 0.5};
  EXPECT_TRUE(EntryBefore(a, b));   // tie on Ĵ → user ascending
  EXPECT_FALSE(EntryBefore(b, a));
  EXPECT_TRUE(EntryBefore(a, c));   // Ĵ descending dominates
  EXPECT_FALSE(EntryBefore(a, a));  // irreflexive

  const Pair p{1, 2, 0.0, 0.8};
  const Pair q{1, 3, 0.0, 0.8};
  const Pair r{0, 9, 0.0, 0.9};
  EXPECT_TRUE(PairBefore(p, q));   // tie on Ĵ → (u, v) ascending
  EXPECT_TRUE(PairBefore(r, p));   // Ĵ descending dominates
  EXPECT_FALSE(PairBefore(p, p));  // irreflexive
}

}  // namespace
}  // namespace vos::core::scan
