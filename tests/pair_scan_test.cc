// Tests for the shared tiled pair-scan tier (core/pair_scan.h).
//
// The tier's contract: the tiled path is bit-identical to the scalar
// reference at its one call site, QueryPlanner::AllPairsAbove — over a
// plain VosSketch and over S-shard ShardedVosSketches — for every tile
// size (1 row, the adaptive default, whole-pass), thread count, shard
// count and prefilter setting. Tiles repartition the enumeration; they
// must never change a single bit of the output.
//
// Also covered: the window-pair counts (core/query_optimizer.h) against
// brute force, the adaptive tile-size bounds, and VosMethod::MakeIndex.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/query_optimizer.h"
#include "core/query_planner.h"
#include "core/scan_common.h"
#include "core/sharded_vos_sketch.h"
#include "core/vos_method.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Community stream with planted pairs: every 4-user group's first two
/// members share 75% of their items (J ≈ 0.6 planted hits in and across
/// shards), everyone else is disjoint; ~20% of inserts get a matching
/// delete so the dynamic path is exercised too.
std::vector<Element> CommunityStream(UserId users, size_t items_per_user,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    const bool clustered = u % 4 <= 1;
    const uint64_t base = clustered ? (u / 4) * uint64_t{100000}
                                    : 10000000 + u * uint64_t{100000};
    for (size_t i = 0; i < items_per_user; ++i) {
      const bool shared = clustered && i < items_per_user * 3 / 4;
      const ItemId item = static_cast<ItemId>(
          shared ? base + i : base + 50000 + (u % 4) * 10000 + i);
      elements.push_back({u, item, Action::kInsert});
      if (!shared && rng.NextBernoulli(0.2)) {
        elements.push_back({u, item, Action::kDelete});
        elements.push_back({u, item + 7000, Action::kInsert});
      }
    }
  }
  return elements;
}

VosConfig IndexConfig(uint32_t k = 512, uint64_t m = 1 << 16) {
  VosConfig config;
  config.k = k;
  config.m = m;
  config.seed = 29;
  return config;
}

ShardedVosConfig PlannerConfig(uint32_t shards) {
  ShardedVosConfig config;
  config.base = IndexConfig();
  config.base.seed = 31;
  config.num_shards = shards;
  return config;
}

void ExpectPairsIdentical(const std::vector<QueryPlanner::Pair>& got,
                          const std::vector<QueryPlanner::Pair>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, want[i].u) << context << " pair " << i;
    EXPECT_EQ(got[i].v, want[i].v) << context << " pair " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " pair " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " pair " << i;
  }
}

/// The acceptance matrix on the engine over a plain VosSketch: tile sizes
/// {1 row, tier default, whole-pass} × threads {1, 8} × prefilter
/// {on, off}, all bit-identical to the scalar reference.
TEST(PairScanTest, PlainSketchBitIdenticalAcrossTileSizesThreadsPrefilter) {
  const UserId users = 90;
  const std::vector<Element> elements = CommunityStream(users, 60, 3);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  std::vector<QueryPlanner::Pair> reference;
  {
    QueryPlanner probe(sketch);
    probe.Rebuild(candidates);
    reference = probe.AllPairsAboveReference(0.4);
  }
  ASSERT_FALSE(reference.empty()) << "stream must plant pairs above τ";

  for (const size_t tile_rows : {size_t{1}, size_t{0}, size_t{1} << 20}) {
    for (const unsigned threads : {1u, 8u}) {
      for (const bool prefilter : {true, false}) {
        QueryOptions options;
        options.tile_rows = tile_rows;
        options.num_threads = threads;
        options.prefilter = prefilter;
        QueryPlanner planner(sketch, {}, options);
        planner.Rebuild(candidates);
        ExpectPairsIdentical(planner.AllPairsAbove(0.4), reference,
                             "tile_rows=" + std::to_string(tile_rows) +
                                 " threads=" + std::to_string(threads) +
                                 " prefilter=" + std::to_string(prefilter));
      }
    }
  }
}

/// The acceptance matrix on the sharded engine: tile sizes {1 row,
/// default, whole-pass} × threads {1, 8} × S ∈ {1, 2, 4}, bit-identical
/// to the per-pair reference (same-shard AND cross-shard passes go
/// through the tier's triangle and rectangle tiles respectively).
TEST(PairScanTest, PlannerBitIdenticalAcrossTileSizesThreadsShards) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 5);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    std::vector<QueryPlanner::Pair> reference;
    {
      QueryPlanner probe(sketch);
      probe.Rebuild(candidates);
      reference = probe.AllPairsAboveReference(0.4);
    }
    ASSERT_FALSE(reference.empty()) << "shards=" << shards;

    for (const size_t tile_rows : {size_t{1}, size_t{0}, size_t{1} << 20}) {
      for (const unsigned threads : {1u, 8u}) {
        QueryOptions options;
        options.tile_rows = tile_rows;
        options.num_threads = threads;
        QueryPlanner planner(sketch, {}, options);
        planner.Rebuild(candidates);
        ExpectPairsIdentical(planner.AllPairsAbove(0.4), reference,
                             "shards=" + std::to_string(shards) +
                                 " tile_rows=" + std::to_string(tile_rows) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

// ------------------------------------------ work counts and tile sizes

size_t BruteTrianglePairs(const std::vector<uint32_t>& cards, double tau) {
  const double tau_frac = tau / (1.0 + tau);
  size_t pairs = 0;
  for (size_t p = 0; p < cards.size(); ++p) {
    for (size_t q = p + 1; q < cards.size(); ++q) {
      const double lo = std::min(cards[p], cards[q]);
      const double sum = static_cast<double>(cards[p]) + cards[q];
      if (!scan::CardinalityFail(lo, sum, tau_frac)) ++pairs;
    }
  }
  return pairs;
}

TEST(PairScanTest, WindowPairCountsMatchBruteForce) {
  Rng rng(47);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                         size_t{64}, size_t{257}}) {
    std::vector<uint32_t> cards(n);
    for (uint32_t& c : cards) c = static_cast<uint32_t>(rng.NextU64() % 500);
    std::sort(cards.begin(), cards.end());
    std::vector<uint32_t> other(n / 2 + (n > 0 ? 1 : 0));
    for (uint32_t& c : other) c = static_cast<uint32_t>(rng.NextU64() % 500);
    std::sort(other.begin(), other.end());

    for (const double tau : {0.1, 0.4, 0.9}) {
      EXPECT_EQ(optimizer::TriangleWindowPairs(cards.data(), n, tau, true),
                BruteTrianglePairs(cards, tau))
          << "n=" << n << " tau=" << tau;

      const double tau_frac = tau / (1.0 + tau);
      size_t rect = 0;
      for (const uint32_t a : cards) {
        for (const uint32_t b : other) {
          const double lo = std::min(a, b);
          if (!scan::CardinalityFail(lo, static_cast<double>(a) + b,
                                     tau_frac)) {
            ++rect;
          }
        }
      }
      EXPECT_EQ(optimizer::RectangleWindowPairs(cards.data(), n, other.data(),
                                                other.size(), tau, true),
                rect)
          << "n=" << n << " tau=" << tau;
    }
    // prefilter off = the full pair space.
    EXPECT_EQ(optimizer::TriangleWindowPairs(cards.data(), n, 0.4, false),
              n < 2 ? 0 : n * (n - 1) / 2);
    EXPECT_EQ(optimizer::RectangleWindowPairs(cards.data(), n, other.data(),
                                              other.size(), 0.4, false),
              n * other.size());
  }
}

TEST(PairScanTest, AdaptiveTileRowsBoundedAlignedMonotone) {
  size_t previous = std::numeric_limits<size_t>::max();
  for (const size_t words : {size_t{0}, size_t{1}, size_t{8}, size_t{25},
                             size_t{100}, size_t{1000}, size_t{100000}}) {
    const size_t tile = optimizer::AdaptiveTileRows(words);
    EXPECT_GE(tile, 64u) << "words=" << words;
    EXPECT_LE(tile, 2048u) << "words=" << words;
    EXPECT_EQ(tile % 8, 0u) << "words=" << words;
    EXPECT_EQ(tile, optimizer::AdaptiveTileRows(words))
        << "must be deterministic per process";
    if (words > 0) {
      EXPECT_LE(tile, previous) << "wider rows cannot grow the tile";
      previous = tile;
    }
  }
}

/// VosMethod::MakeIndex hands out the one query engine over the method's
/// sketch, snapshotted with the method's SetQueryThreads worker count and
/// never incremental (the method's own snapshot owns the dirty set).
TEST(PairScanTest, VosMethodMakeIndexFollowsQueryThreads) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 27);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  VosMethod method(IndexConfig(), users);
  for (const Element& e : elements) method.Update(e);
  method.SetQueryThreads(3);
  const auto engine = method.MakeIndex(candidates);
  EXPECT_EQ(engine->query_options().num_threads, 3u);
  // One snapshot: its builds get the engine's workers.
  EXPECT_EQ(engine->shard_index(0).query_options().num_threads, 3u);
  EXPECT_FALSE(engine->query_options().incremental);
  const auto pairs = engine->AllPairsAbove(0.4);
  ASSERT_FALSE(pairs.empty());
  ExpectPairsIdentical(pairs, engine->AllPairsAboveReference(0.4),
                       "MakeIndex engine");
}

}  // namespace
}  // namespace vos::core
