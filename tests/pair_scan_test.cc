// Tests for the shared tiled pair-scan tier (core/pair_scan.h).
//
// The tier's contract: the tiled path is bit-identical to the scalar
// references in both call sites — SimilarityIndex::AllPairsAbove and
// QueryPlanner::AllPairsAbove — for every tile size (1 row, the adaptive
// default, whole-pass), thread count, shard count and prefilter setting.
// Tiles repartition the enumeration; they must never change a single bit
// of the output.
//
// Also covered: the window-pair counts (core/query_optimizer.h) against
// brute force, the adaptive tile-size bounds, and the TopK warm-start
// (explicit seed and planner-held), which must be bit-identical to a
// cold start whether the seed is loose, exact, or over-tight (the
// over-pruned case must fall back to a cold rerun).

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
#include "core/similarity_index.h"
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

template <typename PairT>
void ExpectPairsIdentical(const std::vector<PairT>& got,
                          const std::vector<PairT>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, want[i].u) << context << " pair " << i;
    EXPECT_EQ(got[i].v, want[i].v) << context << " pair " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " pair " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " pair " << i;
  }
}

void ExpectEntriesIdentical(const std::vector<scan::Entry>& got,
                            const std::vector<scan::Entry>& want,
                            const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user, want[i].user) << context << " entry " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " entry " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " entry " << i;
  }
}

/// The acceptance matrix on the single global index: tile sizes
/// {1 row, tier default, whole-pass} × threads {1, 8} × prefilter
/// {on, off}, all bit-identical to the scalar reference.
TEST(PairScanTest, IndexBitIdenticalAcrossTileSizesThreadsPrefilter) {
  const UserId users = 90;
  const std::vector<Element> elements = CommunityStream(users, 60, 3);
  VosSketch sketch(IndexConfig(), users);
  for (const Element& e : elements) sketch.Update(e);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  std::vector<SimilarityIndex::Pair> reference;
  {
    SimilarityIndex probe(sketch);
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
        SimilarityIndex index(sketch, {}, options);
        index.Rebuild(candidates);
        ExpectPairsIdentical(index.AllPairsAbove(0.4), reference,
                             "tile_rows=" + std::to_string(tile_rows) +
                                 " threads=" + std::to_string(threads) +
                                 " prefilter=" + std::to_string(prefilter));
      }
    }
  }
}

/// The acceptance matrix on the planner: tile sizes {1 row, default,
/// whole-pass} × threads {1, 8} × S ∈ {1, 4}, bit-identical to the
/// per-pair EstimatePair reference (same-shard AND cross-shard passes go
/// through the tier's triangle and rectangle tiles respectively).
TEST(PairScanTest, PlannerBitIdenticalAcrossTileSizesThreadsShards) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 5);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const uint32_t shards : {1u, 4u}) {
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

/// The factory-knob path into the tier: VosMethod::MakeIndex must build
/// its snapshot with the method's QueryOptions, so a tile_rows configured
/// at construction governs the scan (and stays bit-identical).
TEST(PairScanTest, VosMethodMakeIndexHonorsTileRows) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 27);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryOptions tiled_options;
  tiled_options.tile_rows = 7;  // deliberately odd: many partial tiles
  VosMethod tiled_method(IndexConfig(), users, {}, tiled_options);
  VosMethod plain_method(IndexConfig(), users);
  for (const Element& e : elements) {
    tiled_method.Update(e);
    plain_method.Update(e);
  }

  const auto plain = plain_method.MakeIndex(candidates);
  const auto exact_pairs = plain->AllPairsAbove(0.4);
  ASSERT_FALSE(exact_pairs.empty());

  const auto tiled = tiled_method.MakeIndex(candidates);
  EXPECT_EQ(tiled->query_options().tile_rows, 7u);
  ExpectPairsIdentical(tiled->AllPairsAbove(0.4), exact_pairs,
                       "MakeIndex tile_rows=7");
}

// ------------------------------------------------- TopK warm start

/// Explicit warm seeds — loose, exact (the true k-th best), and
/// over-tight (forces the verified cold rerun) — must all return results
/// bit-identical to a cold start.
TEST(PairScanTest, TopKWarmThresholdIdenticalToColdStart) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 50, 23);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryPlanner cold(sketch);
  cold.Rebuild(candidates);
  const size_t k = 8;
  const UserId query = 0;
  const auto cold_result = cold.TopK(query, k);
  ASSERT_EQ(cold_result.size(), k);
  const double kth_best = cold_result.back().jaccard;

  for (const double seed : {0.01, kth_best, 0.99}) {
    for (const unsigned threads : {1u, 8u}) {
      QueryOptions options;
      options.topk_warm_threshold = seed;
      options.num_threads = threads;
      QueryPlanner warm(sketch, {}, options);
      warm.Rebuild(candidates);
      ExpectEntriesIdentical(warm.TopK(query, k), cold_result,
                             "seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

/// Planner-held warm start (QueryOptions::topk_warm_start): the second
/// call seeds from the first's k-th best and must stay bit-identical —
/// including after churn drives the data below the remembered bound
/// (the verification catches the over-prune and reruns cold).
TEST(PairScanTest, TopKPlannerWarmStartIdenticalAcrossCheckpoints) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 50, 25);
  ShardedVosConfig config = PlannerConfig(4);
  config.base.track_dirty = true;
  ShardedVosSketch sketch(config, users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryOptions warm_options;
  warm_options.topk_warm_start = true;
  warm_options.incremental = true;
  QueryPlanner warm(sketch, {}, warm_options);
  warm.Rebuild(candidates);

  QueryOptions cold_options;
  cold_options.incremental = true;
  QueryPlanner cold(sketch, {}, cold_options);
  cold.Rebuild(candidates);

  const size_t k = 6;
  const UserId query = 1;  // clustered: has strong planted neighbours
  // First call is cold inside the warm planner; second is warm-seeded.
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 0");
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 0 warm rerun");
  // Mixed query set: a disjoint (low-similarity) user and a different k
  // interleaved with the strong query — bounds are keyed per (query, k),
  // so neither may inherit the other's remembered k-th best.
  const UserId weak_query = 2;  // not clustered: every neighbour is noise
  ExpectEntriesIdentical(warm.TopK(weak_query, k), cold.TopK(weak_query, k),
                         "checkpoint 0 weak query");
  ExpectEntriesIdentical(warm.TopK(query, 2 * k), cold.TopK(query, 2 * k),
                         "checkpoint 0 larger k");
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 0 strong query after weak");

  // Drift the data DOWN: the query's best neighbour loses its shared
  // items, so the remembered k-th best over-prunes and the warm call
  // must detect it and rerun cold.
  ItemId next_item = 1 << 29;
  for (uint32_t c = 0; c < 40; ++c) {
    sketch.Update({query, (query / 4) * 100000u + c, Action::kDelete});
    sketch.Update({query, next_item++, Action::kInsert});
  }
  warm.Refresh();
  cold.Refresh();
  ExpectEntriesIdentical(warm.TopK(query, k), cold.TopK(query, k),
                         "checkpoint 1 (drift below the warm bound)");
}

}  // namespace
}  // namespace vos::core
