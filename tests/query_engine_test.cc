// Tests for the query engine over one snapshot: the word-span popcount
// kernels, DigestMatrix extraction, and QueryPlanner over a plain
// VosSketch, whose batch paths must be bit-identical to the scalar
// reference for every thread count and prefilter setting.

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/popcount.h"
#include "common/random.h"
#include "core/digest_matrix.h"
#include "core/query_planner.h"
#include "core/vos_method.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

VosConfig TestConfig(uint32_t k = 512, uint64_t m = 1 << 14,
                     uint64_t seed = 101) {
  VosConfig config;
  config.k = k;
  config.m = m;
  config.seed = seed;
  return config;
}

/// A feasible insertion-only workload with planted near-duplicate pairs
/// so thresholded queries return hits. (`seed` reserved for future
/// workload variants; the layout itself is deterministic.)
VosSketch PopulatedSketch(const VosConfig& config, UserId users,
                          size_t edges_per_user, uint64_t seed) {
  (void)seed;
  VosSketch sketch(config, users);
  for (UserId u = 0; u < users; ++u) {
    // Users 4t and 4t+1 share ~80% of their items (near-duplicates);
    // everyone else is essentially disjoint.
    const uint64_t base = (u % 4 <= 1) ? (u / 4) * 1000000 : u * 1000000;
    for (size_t i = 0; i < edges_per_user; ++i) {
      const bool shared = (u % 4 <= 1) && i < edges_per_user * 8 / 10;
      const ItemId item = static_cast<ItemId>(
          shared ? base + i : base + 500000 + (u % 4) * 100000 + i);
      sketch.Update({u, item, Action::kInsert});
    }
  }
  return sketch;
}

std::vector<UserId> AllUsers(UserId count) {
  std::vector<UserId> users;
  for (UserId u = 0; u < count; ++u) users.push_back(u);
  return users;
}

// ----------------------------------------------------------- popcount kernels

TEST(PopcountKernelTest, XorPopcountMatchesBitVectorHamming) {
  Rng rng(7);
  for (size_t num_bits : {1u, 63u, 64u, 65u, 200u, 256u, 511u, 6400u}) {
    const size_t words = (num_bits + 63) / 64;
    BitVector a(num_bits), b(num_bits);
    for (size_t pos = 0; pos < num_bits; ++pos) {
      if (rng.NextBernoulli(0.4)) a.Flip(pos);
      if (rng.NextBernoulli(0.3)) b.Flip(pos);
    }
    EXPECT_EQ(XorPopcount(a.words().data(), b.words().data(), words),
              a.HammingDistance(b))
        << "num_bits=" << num_bits;
  }
}

TEST(PopcountKernelTest, PopcountWordsMatchesOnes) {
  Rng rng(9);
  BitVector v(1000);
  for (size_t pos = 0; pos < 1000; ++pos) {
    if (rng.NextBernoulli(0.5)) v.Flip(pos);
  }
  EXPECT_EQ(PopcountWords(v.words().data(), v.words().size()), v.ones());
}

// ----------------------------------------------------------------- f-seed cache

TEST(FSeedCacheTest, TableMatchesCellOfAndIsDeterministic) {
  VosSketch sketch(TestConfig(), 10);
  VosSketch twin(TestConfig(), 10);
  ASSERT_EQ(sketch.f_seed_table().size(), sketch.config().k);
  EXPECT_EQ(sketch.f_seed_table(), twin.f_seed_table());
  for (uint32_t j : {0u, 1u, 255u, 511u}) {
    EXPECT_EQ(sketch.CellOf(3, j),
              hash::ReduceToRange(
                  hash::Hash64(3, sketch.f_seed_table()[j]),
                  sketch.config().m));
  }
  // Snapshot copies share the cache and keep answering identically.
  const VosSketch copy = sketch;
  EXPECT_EQ(&copy.f_seed_table(), &sketch.f_seed_table());
  EXPECT_EQ(copy.CellOf(7, 100), sketch.CellOf(7, 100));
}

// ----------------------------------------------------------------- DigestMatrix

TEST(DigestMatrixTest, RowsBitIdenticalToExtractUserSketch) {
  for (uint32_t k : {64u, 100u, 512u}) {  // word-aligned and padded rows
    const VosSketch sketch =
        PopulatedSketch(TestConfig(k, 1 << 14, 5), 24, 50, 3);
    const auto users = AllUsers(24);
    for (unsigned threads : {1u, 2u, 8u}) {
      const DigestMatrix matrix = DigestMatrix::Build(sketch, users, threads);
      ASSERT_EQ(matrix.rows(), users.size());
      ASSERT_EQ(matrix.k(), k);
      for (size_t i = 0; i < users.size(); ++i) {
        EXPECT_TRUE(matrix.RowAsBitVector(i) ==
                    sketch.ExtractUserSketch(users[i]))
            << "k=" << k << " threads=" << threads << " row=" << i;
      }
    }
  }
}

TEST(DigestMatrixTest, SingleRowExtractionMatchesBuild) {
  const VosSketch sketch = PopulatedSketch(TestConfig(200), 8, 40, 11);
  const auto users = AllUsers(8);
  const DigestMatrix matrix = DigestMatrix::Build(sketch, users, 1);
  std::vector<uint64_t> row(DigestMatrix::WordsPerRow(200), ~uint64_t{0});
  DigestMatrix::ExtractRow(sketch, 5, row.data());
  for (size_t w = 0; w < row.size(); ++w) {
    EXPECT_EQ(row[w], matrix.Row(5)[w]) << "word " << w;
  }
}

TEST(DigestMatrixTest, EmptyAndClear) {
  const VosSketch sketch(TestConfig(), 4);
  DigestMatrix matrix = DigestMatrix::Build(sketch, {}, 4);
  EXPECT_TRUE(matrix.empty());
  matrix = DigestMatrix::Build(sketch, {1, 2}, 2);
  EXPECT_EQ(matrix.rows(), 2u);
  matrix.Clear();
  EXPECT_TRUE(matrix.empty());
  EXPECT_EQ(matrix.MemoryBytes(), 0u);
}

// ----------------------------------------------------- batch vs reference

void ExpectEntriesIdentical(const std::vector<QueryPlanner::Entry>& a,
                            const std::vector<QueryPlanner::Entry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user) << "entry " << i;
    EXPECT_EQ(a[i].common, b[i].common) << "entry " << i;  // bit-identical
    EXPECT_EQ(a[i].jaccard, b[i].jaccard) << "entry " << i;
  }
}

void ExpectPairsIdentical(const std::vector<QueryPlanner::Pair>& a,
                          const std::vector<QueryPlanner::Pair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u) << "pair " << i;
    EXPECT_EQ(a[i].v, b[i].v) << "pair " << i;
    EXPECT_EQ(a[i].common, b[i].common) << "pair " << i;  // bit-identical
    EXPECT_EQ(a[i].jaccard, b[i].jaccard) << "pair " << i;
  }
}

TEST(OneSnapshotEngineTest, TopKIdenticalToReferenceAcrossThreadCounts) {
  // 600 rows: 2 and 8 threads split the one snapshot into row chunks.
  const VosSketch sketch =
      PopulatedSketch(TestConfig(512, 1 << 15, 17), 600, 80, 21);
  for (unsigned threads : {1u, 2u, 8u}) {
    QueryOptions options;
    options.num_threads = threads;
    QueryPlanner engine(sketch, {}, options);
    engine.Rebuild(AllUsers(600));
    for (UserId query : {0u, 1u, 599u}) {  // candidates
      ExpectEntriesIdentical(engine.TopK(query, 10),
                             engine.TopKReference(query, 10));
    }
    // Full ranking, and k beyond the candidate count.
    ExpectEntriesIdentical(engine.TopK(0, 1000),
                           engine.TopKReference(0, 1000));
  }
}

TEST(OneSnapshotEngineTest, TopKNonCandidateQueryExtractsLive) {
  const VosSketch sketch =
      PopulatedSketch(TestConfig(512, 1 << 15, 19), 40, 60, 23);
  QueryPlanner engine(sketch);
  engine.Rebuild(AllUsers(20));  // users 20..39 are not candidates
  ExpectEntriesIdentical(engine.TopK(25, 8), engine.TopKReference(25, 8));
  EXPECT_EQ(engine.TopK(25, 8).size(), 8u);
}

TEST(OneSnapshotEngineTest, TopKReusesSnapshotRowForCandidateQuery) {
  VosSketch sketch(TestConfig(2048, 1 << 16, 29), 4);
  for (ItemId i = 0; i < 50; ++i) {
    sketch.Update({0, i, Action::kInsert});
    sketch.Update({1, i, Action::kInsert});
  }
  QueryPlanner engine(sketch);
  engine.Rebuild({0, 1});
  const double before = engine.TopK(0, 1)[0].jaccard;
  EXPECT_GT(before, 0.8);

  // Mutate the sketch: user 0 (the query!) unsubscribes everything. With
  // snapshot row reuse the answer — TopK and the per-pair estimate alike
  // — must not move until Rebuild.
  for (ItemId i = 0; i < 50; ++i) sketch.Update({0, i, Action::kDelete});
  EXPECT_EQ(engine.TopK(0, 1)[0].jaccard, before);
  EXPECT_EQ(engine.EstimatePair(0, 1).jaccard, before);
  engine.Rebuild({0, 1});
  EXPECT_LT(engine.TopK(0, 1)[0].jaccard, 0.25);
}

TEST(OneSnapshotEngineTest, AllPairsIdenticalAcrossThreads) {
  const VosSketch sketch =
      PopulatedSketch(TestConfig(512, 1 << 15, 31), 60, 80, 37);
  QueryOptions reference_options;
  reference_options.num_threads = 1;
  QueryPlanner reference_engine(sketch, {}, reference_options);
  reference_engine.Rebuild(AllUsers(60));

  for (double tau : {0.0, 0.2, 0.5, 0.9}) {
    const auto expected = reference_engine.AllPairsAboveReference(tau);
    for (unsigned threads : {1u, 2u, 8u}) {
      QueryOptions options;
      options.num_threads = threads;
      QueryPlanner engine(sketch, {}, options);
      engine.Rebuild(AllUsers(60));
      ExpectPairsIdentical(engine.AllPairsAbove(tau), expected);
    }
  }
}

TEST(OneSnapshotEngineTest, PrefilterOnOffIdenticalIncludingBoundary) {
  const VosSketch sketch =
      PopulatedSketch(TestConfig(1024, 1 << 16, 41), 48, 100, 43);
  QueryOptions with, without;
  with.prefilter = true;
  without.prefilter = false;
  QueryPlanner filtered(sketch, {}, with);
  QueryPlanner unfiltered(sketch, {}, without);
  filtered.Rebuild(AllUsers(48));
  unfiltered.Rebuild(AllUsers(48));

  std::vector<double> thresholds = {0.0, 0.1, 0.3, 0.6, 0.95};
  // Exact-boundary thresholds: re-query at every returned Ĵ value; each
  // pair sits exactly on τ and must survive both engines.
  for (const auto& pair : unfiltered.AllPairsAbove(0.05)) {
    thresholds.push_back(pair.jaccard);
  }
  for (double tau : thresholds) {
    ExpectPairsIdentical(filtered.AllPairsAbove(tau),
                         unfiltered.AllPairsAbove(tau));
    ExpectPairsIdentical(filtered.AllPairsAbove(tau),
                         filtered.AllPairsAboveReference(tau));
  }
}

TEST(OneSnapshotEngineTest, SortedSweepIdenticalOnSkewedCardinalities) {
  // Heavy-tailed set sizes exercise the cardinality-sorted window break:
  // most pairs are skipped before the popcount, and none of the skips may
  // change the result.
  VosSketch sketch(TestConfig(1024, 1 << 16, 73), 50);
  for (UserId u = 0; u < 50; ++u) {
    const size_t edges = 5 + 500 / (1 + u % 17);  // sizes 5..505, repeated
    for (size_t i = 0; i < edges; ++i) {
      // Users with equal (u % 17) share a prefix of items, so some skewed
      // pairs really are similar and some boundary pairs have min ≈ τ·max.
      const ItemId item = static_cast<ItemId>(
          i < edges / 2 ? (u % 17) * 100000 + i : u * 100000 + 50000 + i);
      sketch.Update({u, item, Action::kInsert});
    }
  }
  QueryOptions with, without;
  with.prefilter = true;
  with.num_threads = 4;
  with.tile_rows = 8;
  without.prefilter = false;
  without.num_threads = 1;
  QueryPlanner filtered(sketch, {}, with);
  QueryPlanner unfiltered(sketch, {}, without);
  filtered.Rebuild(AllUsers(50));
  unfiltered.Rebuild(AllUsers(50));
  std::vector<double> thresholds = {0.05, 0.3, 0.5, 0.8};
  for (const auto& pair : unfiltered.AllPairsAbove(0.01)) {
    thresholds.push_back(pair.jaccard);  // exact boundaries
  }
  for (double tau : thresholds) {
    ExpectPairsIdentical(filtered.AllPairsAbove(tau),
                         unfiltered.AllPairsAbove(tau));
    ExpectPairsIdentical(filtered.AllPairsAbove(tau),
                         unfiltered.AllPairsAboveReference(tau));
  }
}

TEST(OneSnapshotEngineTest, AllPairsFindsPlantedDuplicates) {
  const VosSketch sketch =
      PopulatedSketch(TestConfig(4096, 1 << 18, 47), 40, 100, 51);
  QueryPlanner engine(sketch);
  engine.Rebuild(AllUsers(40));
  const auto pairs = engine.AllPairsAbove(0.5);
  // Ten planted clusters {4t, 4t+1} with true J = 0.8/1.2 ≈ 0.67.
  ASSERT_EQ(pairs.size(), 10u);
  std::unordered_set<UserId> seen;
  for (const auto& pair : pairs) {
    EXPECT_EQ(pair.u % 4, 0u);
    EXPECT_EQ(pair.v, pair.u + 1);
    EXPECT_GT(pair.jaccard, 0.5);
    seen.insert(pair.u);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(OneSnapshotEngineTest, EmptyAndSingletonCandidateSets) {
  const VosSketch sketch = PopulatedSketch(TestConfig(), 8, 20, 53);
  QueryPlanner engine(sketch);
  EXPECT_TRUE(engine.TopK(0, 5).empty());  // before any Rebuild
  EXPECT_TRUE(engine.AllPairsAbove(0.0).empty());
  engine.Rebuild({});
  EXPECT_TRUE(engine.TopK(0, 5).empty());
  EXPECT_TRUE(engine.AllPairsAbove(0.0).empty());
  EXPECT_TRUE(engine.AllPairsAboveReference(0.0).empty());
  engine.Rebuild({3});
  EXPECT_TRUE(engine.AllPairsAbove(0.0).empty());
  EXPECT_TRUE(engine.TopK(3, 5).empty());  // only candidate is the query
  EXPECT_TRUE(engine.TopKReference(3, 5).empty());
}

// ------------------------------------------------------- VosMethod fast path

TEST(VosMethodBatchCacheTest, MixedCachedAndUncachedPairsMatchDirect) {
  const VosConfig config = TestConfig(512, 1 << 15, 61);
  VosMethod cached(config, 30);
  VosMethod direct(config, 30);
  Rng rng(71);
  for (int i = 0; i < 2000; ++i) {
    const Element e{static_cast<UserId>(rng.NextBounded(30)),
                    static_cast<ItemId>(1000000 + i), Action::kInsert};
    cached.Update(e);
    direct.Update(e);
  }
  cached.SetQueryThreads(2);
  cached.PrepareQuery({0, 1, 2, 3, 4});
  for (UserId u = 0; u < 6; ++u) {    // user 5 is uncached
    for (UserId v = u + 1; v < 7; ++v) {  // user 6 is uncached
      const PairEstimate a = cached.EstimatePair(u, v);
      const PairEstimate b = direct.EstimatePair(u, v);
      EXPECT_EQ(a.common, b.common) << u << "," << v;  // bit-identical
      EXPECT_EQ(a.jaccard, b.jaccard) << u << "," << v;
    }
  }
  cached.InvalidateQueryCache();
  EXPECT_EQ(cached.EstimatePair(0, 1).common, direct.EstimatePair(0, 1).common);
}

/// PrepareQuery's contract: estimates reflect the state at the call until
/// the next PrepareQuery (which, with track_dirty on, refreshes the same
/// tracked set incrementally) or InvalidateQueryCache (live again).
TEST(VosMethodBatchCacheTest, EstimatesReflectStateAtPrepareQuery) {
  const VosConfig config = TestConfig(512, 1 << 15, 63);
  ASSERT_TRUE(config.track_dirty);
  VosMethod cached(config, 8);
  VosMethod direct(config, 8);
  const auto feed = [&](const Element& e) {
    cached.Update(e);
    direct.Update(e);
  };
  for (ItemId i = 0; i < 60; ++i) {
    feed({0, i, Action::kInsert});
    feed({1, i, Action::kInsert});
    feed({2, 30 + i, Action::kInsert});
    feed({3, 1000 + i, Action::kInsert});
  }
  const std::vector<UserId> tracked = {0, 1, 2, 3};
  cached.PrepareQuery(tracked);
  const PairEstimate at_prepare = cached.EstimatePair(0, 1);
  EXPECT_GT(at_prepare.jaccard, 0.8);

  for (ItemId i = 0; i < 40; ++i) feed({1, i, Action::kDelete});
  EXPECT_EQ(cached.EstimatePair(0, 1).common, at_prepare.common);
  EXPECT_EQ(cached.EstimatePair(0, 1).jaccard, at_prepare.jaccard);

  cached.PrepareQuery(tracked);  // same set: an incremental refresh
  for (size_t i = 0; i < tracked.size(); ++i) {
    for (size_t j = i + 1; j < tracked.size(); ++j) {
      const PairEstimate a = cached.EstimatePair(tracked[i], tracked[j]);
      const PairEstimate b = direct.EstimatePair(tracked[i], tracked[j]);
      EXPECT_EQ(a.common, b.common) << tracked[i] << "," << tracked[j];
      EXPECT_EQ(a.jaccard, b.jaccard) << tracked[i] << "," << tracked[j];
    }
  }
  EXPECT_LT(cached.EstimatePair(0, 1).jaccard, at_prepare.jaccard);

  cached.InvalidateQueryCache();
  for (ItemId i = 0; i < 10; ++i) feed({2, 500 + i, Action::kInsert});
  EXPECT_EQ(cached.EstimatePair(2, 0).common, direct.EstimatePair(2, 0).common);
}

}  // namespace
}  // namespace vos::core
