// Tests for incremental index maintenance: SimilarityIndex::RefreshDirty
// must be bit-identical to a full Rebuild on the same sketch state — for
// every dirty fraction (including the shared-cell contamination case,
// where updates to NON-candidate users flip bits of clean candidates'
// digests), every thread count, and across repeated refreshes — and
// must fall back to a Rebuild whenever the sketch's flip log cannot
// describe the change (overflow, MergeFrom, another consumer's clear).
// VosSketch::UpdateBatch must leave the same sketch and bookkeeping as
// the Update loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/similarity_index.h"
#include "core/vos_drift.h"
#include "core/vos_io.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

VosConfig SmallConfig(uint64_t m = 1 << 12) {
  VosConfig config;
  config.k = 256;
  // Deliberately small array: shared-cell collisions between users are
  // frequent, so clean candidates' digests DO change when other users
  // update — the case RefreshDirty must catch via the array delta.
  config.m = m;
  config.seed = 31;
  return config;
}

VosSketch PopulatedSketch(const VosConfig& config, UserId users,
                          size_t edges_per_user, uint64_t seed) {
  VosSketch sketch(config, users);
  Rng rng(seed);
  for (UserId u = 0; u < users; ++u) {
    for (size_t i = 0; i < edges_per_user; ++i) {
      sketch.Update({u, static_cast<ItemId>(rng.NextBounded(1 << 28)),
                     Action::kInsert});
    }
  }
  return sketch;
}

/// Full bit-level equality of two index snapshots: candidate order,
/// per-row digests, cardinality order, β, and the query results built
/// from them.
void ExpectIndexesIdentical(const SimilarityIndex& refreshed,
                            const SimilarityIndex& rebuilt,
                            const std::string& context) {
  ASSERT_EQ(refreshed.candidate_count(), rebuilt.candidate_count())
      << context;
  EXPECT_EQ(refreshed.snapshot_beta(), rebuilt.snapshot_beta()) << context;
  const DigestMatrix& ma = refreshed.matrix();
  const DigestMatrix& mb = rebuilt.matrix();
  ASSERT_EQ(ma.rows(), mb.rows()) << context;
  ASSERT_EQ(ma.words_per_row(), mb.words_per_row()) << context;
  for (size_t p = 0; p < ma.rows(); ++p) {
    ASSERT_EQ(refreshed.sorted_to_candidate(p), rebuilt.sorted_to_candidate(p))
        << context << " sorted position " << p;
    ASSERT_EQ(std::memcmp(ma.Row(p), mb.Row(p),
                          ma.words_per_row() * sizeof(uint64_t)),
              0)
        << context << " digest row at sorted position " << p;
  }
  // End-to-end: identical snapshots answer identically.
  const auto pairs_a = refreshed.AllPairsAbove(0.2);
  const auto pairs_b = rebuilt.AllPairsAbove(0.2);
  ASSERT_EQ(pairs_a.size(), pairs_b.size()) << context;
  for (size_t i = 0; i < pairs_a.size(); ++i) {
    EXPECT_EQ(pairs_a[i].u, pairs_b[i].u) << context;
    EXPECT_EQ(pairs_a[i].v, pairs_b[i].v) << context;
    EXPECT_EQ(pairs_a[i].common, pairs_b[i].common) << context;
    EXPECT_EQ(pairs_a[i].jaccard, pairs_b[i].jaccard) << context;
  }
}

/// Applies `dirty_fraction` of the candidates a few fresh inserts (and a
/// matching delete for some), plus — crucially — updates to users OUTSIDE
/// the candidate set, whose flips can land in clean candidates' cells.
void Churn(VosSketch* sketch, const std::vector<UserId>& candidates,
           double dirty_fraction, ItemId* next_item) {
  const size_t dirty_count =
      static_cast<size_t>(dirty_fraction * candidates.size());
  for (size_t i = 0; i < dirty_count; ++i) {
    const ItemId item = (*next_item)++;
    sketch->Update({candidates[i], item, Action::kInsert});
    if (i % 3 == 0) {
      sketch->Update({candidates[i], item, Action::kDelete});
    }
    sketch->Update({candidates[i], (*next_item)++, Action::kInsert});
  }
  // Background churn from non-candidates (contamination-only changes).
  const UserId background = sketch->num_users() - 1;
  for (int i = 0; i < 20; ++i) {
    sketch->Update({background, (*next_item)++, Action::kInsert});
  }
}

TEST(RefreshDirtyTest, BitIdenticalToRebuildAcrossDirtyFractionsAndThreads) {
  const UserId users = 120;
  const UserId num_candidates = 80;  // users 80..119 are background-only
  for (const unsigned threads : {1u, 2u, 8u}) {
    VosSketch sketch = PopulatedSketch(SmallConfig(), users, 60, 5);
    std::vector<UserId> candidates;
    for (UserId u = 0; u < num_candidates; ++u) candidates.push_back(u);

    QueryOptions incremental_options;
    incremental_options.num_threads = threads;
    incremental_options.incremental = true;
    // Force the incremental path at every fraction — the adaptive
    // fallback (covered by AdaptiveRefreshTest below) would otherwise
    // turn the 50%/100% rounds into plain Rebuilds.
    incremental_options.refresh_fallback_fraction = 2.0;
    SimilarityIndex refreshed(sketch, {}, incremental_options);
    refreshed.Rebuild(candidates);
    EXPECT_TRUE(refreshed.CanRefresh());

    QueryOptions plain_options;
    plain_options.num_threads = threads;
    SimilarityIndex rebuilt(sketch, {}, plain_options);

    ItemId next_item = 1 << 29;
    for (const double fraction : {0.0, 0.01, 0.5, 1.0}) {
      Churn(&sketch, candidates, fraction, &next_item);
      EXPECT_TRUE(refreshed.RefreshDirty())
          << "fallback disabled yet RefreshDirty claims it rebuilt";
      rebuilt.Rebuild(candidates);
      ExpectIndexesIdentical(
          refreshed, rebuilt,
          "threads=" + std::to_string(threads) +
              " fraction=" + std::to_string(fraction));
    }
  }
}

// ------------------------------------------------------- adaptive refresh

TEST(AdaptiveRefreshTest, FallsBackToRebuildPastBreakEvenFraction) {
  VosSketch sketch = PopulatedSketch(SmallConfig(1 << 14), 60, 40, 41);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 60; ++u) candidates.push_back(u);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;  // default fallback fraction: 0.5
  SimilarityIndex index(sketch, {}, options);
  index.Rebuild(candidates);
  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});

  // A handful of dirty candidates: well under the break-even, so the
  // incremental path must run.
  ItemId next_item = 1 << 29;
  sketch.Update({3, next_item++, Action::kInsert});
  sketch.Update({9, next_item++, Action::kInsert});
  EXPECT_TRUE(index.RefreshDirty());
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(index, rebuilt, "small dirty fraction");

  // Touch every candidate: past the break-even, the call must delegate
  // to a full Rebuild — and stay bit-identical.
  for (UserId u = 0; u < 60; ++u) {
    sketch.Update({u, next_item++, Action::kInsert});
  }
  EXPECT_FALSE(index.RefreshDirty());
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(index, rebuilt, "full dirty fraction");

  // The fallback re-captures incremental state: refreshing again works.
  sketch.Update({5, next_item++, Action::kInsert});
  EXPECT_TRUE(index.CanRefresh());
  EXPECT_TRUE(index.RefreshDirty());
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(index, rebuilt, "refresh after fallback");
}

TEST(AdaptiveRefreshTest, FractionOverrideControlsTheBreakEven) {
  VosSketch sketch = PopulatedSketch(SmallConfig(1 << 14), 30, 30, 43);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 30; ++u) candidates.push_back(u);

  // Zero threshold: any affected candidate forces the rebuild path.
  QueryOptions always_rebuild;
  always_rebuild.num_threads = 1;
  always_rebuild.incremental = true;
  always_rebuild.refresh_fallback_fraction = 0.0;
  SimilarityIndex eager(sketch, {}, always_rebuild);
  eager.Rebuild(candidates);
  ItemId next_item = 1 << 29;
  sketch.Update({0, next_item++, Action::kInsert});
  EXPECT_FALSE(eager.RefreshDirty());
  // Nothing affected is still a (trivial) incremental refresh.
  EXPECT_TRUE(eager.RefreshDirty());

  // Above-one threshold: never falls back, even at 100% dirty.
  QueryOptions never_rebuild = always_rebuild;
  never_rebuild.refresh_fallback_fraction = 1.5;
  SimilarityIndex sticky(sketch, {}, never_rebuild);
  sticky.Rebuild(candidates);
  for (UserId u = 0; u < 30; ++u) {
    sketch.Update({u, next_item++, Action::kInsert});
  }
  EXPECT_TRUE(sticky.RefreshDirty());
  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(sticky, rebuilt, "forced incremental at 100%");
}

TEST(RefreshDirtyTest, NoChangesIsANoOpSnapshot) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 40, 50, 9);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 40; ++u) candidates.push_back(u);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  SimilarityIndex index(sketch, {}, options);
  index.Rebuild(candidates);
  const auto before = index.AllPairsAbove(0.1);
  index.RefreshDirty();  // nothing changed since Rebuild
  const auto after = index.AllPairsAbove(0.1);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].u, after[i].u);
    EXPECT_EQ(before[i].common, after[i].common);
  }
}

TEST(RefreshDirtyTest, CardinalityOnlyChangesReorderCorrectly) {
  // Insert+delete pairs that cancel in the array can still change n_u
  // (two items on the same virtual bit). Force the scenario: give one
  // candidate a big cardinality jump so the sorted window order changes,
  // and verify refresh tracks the re-sort exactly.
  VosSketch sketch = PopulatedSketch(SmallConfig(1 << 14), 30, 20, 13);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 30; ++u) candidates.push_back(u);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  SimilarityIndex refreshed(sketch, {}, options);
  refreshed.Rebuild(candidates);
  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});

  for (ItemId item = 0; item < 500; ++item) {
    sketch.Update({7, static_cast<ItemId>((1 << 27) + item),
                   Action::kInsert});
  }
  refreshed.RefreshDirty();
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(refreshed, rebuilt, "cardinality jump");
}

TEST(RefreshDirtyTest, RequiresIncrementalOptionAndPriorRebuild) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 10, 10, 17);
  QueryOptions options;
  options.incremental = true;
  SimilarityIndex index(sketch, {}, options);
  EXPECT_FALSE(index.CanRefresh());  // no Rebuild yet
  SimilarityIndex plain(sketch, {}, QueryOptions{});
  plain.Rebuild({0, 1, 2});
  EXPECT_FALSE(plain.CanRefresh());  // incremental off
}

/// A non-candidate flips a cell that shares a 64-bit array word with
/// candidates' cells but is none of them: the owner index must match the
/// cell's bit offset, not just its word, so no candidate row changes.
TEST(RefreshDirtyTest, OwnersSharingAWordPatchOnlyTheFlippedCell) {
  const VosConfig config = SmallConfig(1 << 16);
  VosSketch sketch = PopulatedSketch(config, 20, 30, 61);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 5; ++u) candidates.push_back(u);
  std::vector<uint64_t> owned;
  for (const UserId u : candidates) {
    for (uint32_t j = 0; j < config.k; ++j) owned.push_back(sketch.CellOf(u, j));
  }
  const auto owns = [&](uint64_t cell) {
    return std::find(owned.begin(), owned.end(), cell) != owned.end();
  };
  const auto shares_word = [&](uint64_t cell) {
    return std::any_of(owned.begin(), owned.end(), [&](uint64_t c) {
      return c >> 6 == cell >> 6;
    });
  };
  const UserId background = 19;
  ItemId item = 1 << 29;
  while (true) {
    const uint64_t cell = sketch.CellOf(background, sketch.BucketOf(item));
    if (shares_word(cell) && !owns(cell)) break;
    ++item;
  }

  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  SimilarityIndex refreshed(sketch, {}, options);
  refreshed.Rebuild(candidates);
  const DigestMatrix before = refreshed.matrix();

  sketch.Update({background, item, Action::kInsert});
  ASSERT_EQ(sketch.flip_log().size(), 1u);
  EXPECT_TRUE(refreshed.RefreshDirty());
  EXPECT_EQ(refreshed.last_refresh_dirty_fraction(), 0.0);
  for (size_t p = 0; p < before.rows(); ++p) {
    ASSERT_EQ(std::memcmp(before.Row(p), refreshed.matrix().Row(p),
                          before.words_per_row() * sizeof(uint64_t)),
              0)
        << "row " << p;
  }
  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(refreshed, rebuilt, "word-sharing flip");
}

/// An incremental snapshot of no candidates is still a snapshot: it can
/// be refreshed, before and after the sketch changes.
TEST(RefreshDirtyTest, EmptyCandidateSetRefreshes) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 10, 10, 67);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  SimilarityIndex index(sketch, {}, options);
  index.Rebuild({});
  EXPECT_TRUE(index.CanRefresh());
  EXPECT_TRUE(index.RefreshDirty());
  sketch.Update({3, 1 << 29, Action::kInsert});
  EXPECT_TRUE(index.RefreshDirty());
  EXPECT_EQ(index.candidate_count(), 0u);
  EXPECT_EQ(index.matrix().rows(), 0u);
}

// ------------------------------------------------------------- flip log

/// Bit-level equality of two sketches, including the bookkeeping an
/// incremental consumer reads (dirty set order, flip log).
void ExpectSketchesIdentical(const VosSketch& a, const VosSketch& b,
                             const std::string& context) {
  EXPECT_EQ(a.array().words(), b.array().words()) << context;
  EXPECT_EQ(a.array().ones(), b.array().ones()) << context;
  EXPECT_EQ(a.beta(), b.beta()) << context;
  for (UserId u = 0; u < a.num_users(); ++u) {
    ASSERT_EQ(a.Cardinality(u), b.Cardinality(u)) << context << " user " << u;
  }
  EXPECT_EQ(a.dirty_users(), b.dirty_users()) << context;
  EXPECT_EQ(a.flip_log(), b.flip_log()) << context;
  EXPECT_EQ(a.flip_log_overflowed(), b.flip_log_overflowed()) << context;
}

/// A feasible random stream: ~25% of elements delete an item the same
/// user inserted earlier.
std::vector<Element> FeasibleStream(UserId users, size_t count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ItemId>> held(users);
  std::vector<Element> elements;
  for (size_t t = 0; t < count; ++t) {
    const UserId u = static_cast<UserId>(rng.NextBounded(users));
    if (!held[u].empty() && rng.NextBernoulli(0.25)) {
      elements.push_back({u, held[u].back(), Action::kDelete});
      held[u].pop_back();
    } else {
      const ItemId item = static_cast<ItemId>(rng.NextBounded(1 << 28));
      elements.push_back({u, item, Action::kInsert});
      held[u].push_back(item);
    }
  }
  return elements;
}

TEST(FlipLogTest, UpdateBatchMatchesUpdateLoop) {
  for (const bool track : {true, false}) {
    // 3000 elements overflow the 1024-cell log of a 4096-bit array.
    for (const size_t count : {0, 1, 15, 16, 17, 700, 3000}) {
      const std::string context = "track=" + std::to_string(track) +
                                  " count=" + std::to_string(count);
      VosConfig config = SmallConfig();
      config.track_dirty = track;
      const std::vector<Element> elements = FeasibleStream(50, count, count);
      VosSketch looped(config, 50);
      for (const Element& e : elements) looped.Update(e);
      VosSketch batched(config, 50);
      const size_t half = count / 2;  // two calls: the log continues
      batched.UpdateBatch(elements.data(), half);
      batched.UpdateBatch(elements.data() + half, count - half);
      ExpectSketchesIdentical(batched, looped, context);
      if (track) {
        EXPECT_EQ(looped.flip_log_capacity(), 1024u) << context;
        EXPECT_EQ(looped.flip_log().size(), std::min<size_t>(count, 1024))
            << context;
        EXPECT_EQ(looped.flip_log_overflowed(), count > 1024) << context;
      } else {
        EXPECT_EQ(looped.flip_log_capacity(), 0u) << context;
        EXPECT_TRUE(looped.flip_log().empty()) << context;
        EXPECT_TRUE(looped.flip_log_overflowed()) << context;
        EXPECT_TRUE(looped.dirty_users().empty()) << context;
      }
    }
  }
}

TEST(FlipLogTest, LogsCellsAndRenewsGenerationOnClearMergeAndLoad) {
  const VosConfig config = SmallConfig(1 << 20);
  VosSketch sketch(config, 10);
  EXPECT_EQ(sketch.flip_log_capacity(), (size_t{1} << 20) / 64);
  const uint64_t born = sketch.flip_log_generation();
  sketch.Update({3, 100, Action::kInsert});
  sketch.Update({3, 100, Action::kDelete});
  const uint32_t cell =
      static_cast<uint32_t>(sketch.CellOf(3, sketch.BucketOf(100)));
  EXPECT_EQ(sketch.flip_log(), (std::vector<uint32_t>{cell, cell}));
  EXPECT_EQ(sketch.flip_log_generation(), born) << "updates keep the log";

  sketch.ClearDirtyUsers();
  EXPECT_TRUE(sketch.flip_log().empty());
  EXPECT_FALSE(sketch.flip_log_overflowed());
  const uint64_t cleared = sketch.flip_log_generation();
  EXPECT_NE(cleared, born);

  VosSketch other(config, 10);
  EXPECT_NE(other.flip_log_generation(), cleared) << "unique per process";
  other.Update({4, 200, Action::kInsert});
  sketch.MergeFrom(other);
  EXPECT_NE(sketch.flip_log_generation(), cleared);
  EXPECT_TRUE(sketch.flip_log().empty());

  const std::string path = ::testing::TempDir() + "/flip_log_generation";
  ASSERT_TRUE(VosSketchIo::Save(sketch, path).ok());
  StatusOr<VosSketch> loaded = VosSketchIo::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NE(loaded->flip_log_generation(), sketch.flip_log_generation());
  EXPECT_TRUE(loaded->flip_log().empty());
  std::remove(path.c_str());
}

/// An overflowed log cannot describe the change: the refresh must rebuild
/// (even with the fallback fraction disabled), bit-identically, and the
/// next refresh patches again.
TEST(RefreshDirtyTest, LogOverflowFallsBackToRebuild) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 120, 60, 51);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 80; ++u) candidates.push_back(u);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  options.refresh_fallback_fraction = 2.0;
  SimilarityIndex refreshed(sketch, {}, options);
  refreshed.Rebuild(candidates);
  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});

  ItemId next_item = 1 << 29;
  for (size_t i = 0; i <= sketch.flip_log_capacity(); ++i) {
    sketch.Update({119, next_item++, Action::kInsert});  // non-candidate
  }
  ASSERT_TRUE(sketch.flip_log_overflowed());
  EXPECT_FALSE(refreshed.RefreshDirty());
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(refreshed, rebuilt, "overflowed log");

  sketch.Update({4, next_item++, Action::kInsert});
  EXPECT_TRUE(refreshed.RefreshDirty());
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(refreshed, rebuilt, "refresh after overflow");
}

TEST(RefreshDirtyTest, MergeFromFallsBackToRebuild) {
  const VosConfig config = SmallConfig();
  VosSketch sketch = PopulatedSketch(config, 60, 40, 53);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 60; ++u) candidates.push_back(u);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  options.refresh_fallback_fraction = 2.0;
  SimilarityIndex refreshed(sketch, {}, options);
  refreshed.Rebuild(candidates);

  VosSketch other(config, 60);
  other.Update({7, 1 << 29, Action::kInsert});
  other.Update({8, (1 << 29) + 1, Action::kInsert});
  sketch.MergeFrom(other);
  EXPECT_FALSE(refreshed.RefreshDirty());
  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(refreshed, rebuilt, "after MergeFrom");
}

/// A cell flipped twice is unchanged: nothing is patched and no row is
/// affected, while a same-ψ item pair on a candidate changes only its
/// cardinality (affected, re-sorted, but no bit patched).
TEST(RefreshDirtyTest, SameCellDoubleFlipsPatchNothing) {
  VosSketch sketch = PopulatedSketch(SmallConfig(), 60, 40, 57);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 40; ++u) candidates.push_back(u);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  SimilarityIndex refreshed(sketch, {}, options);
  refreshed.Rebuild(candidates);
  const DigestMatrix before = refreshed.matrix();

  const ItemId item = 1 << 29;
  sketch.Update({59, item, Action::kInsert});  // non-candidate
  sketch.Update({59, item, Action::kDelete});
  ASSERT_EQ(sketch.flip_log().size(), 2u);
  EXPECT_TRUE(refreshed.RefreshDirty());
  EXPECT_EQ(refreshed.last_refresh_dirty_fraction(), 0.0);
  for (size_t p = 0; p < before.rows(); ++p) {
    ASSERT_EQ(std::memcmp(before.Row(p), refreshed.matrix().Row(p),
                          before.words_per_row() * sizeof(uint64_t)),
              0)
        << "row " << p;
  }

  ItemId twin = item + 1;
  while (sketch.BucketOf(twin) != sketch.BucketOf(item)) ++twin;
  sketch.Update({6, item, Action::kInsert});
  sketch.Update({6, twin, Action::kInsert});
  EXPECT_TRUE(refreshed.RefreshDirty());
  EXPECT_EQ(refreshed.last_refresh_dirty_fraction(), 1.0 / 40);
  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(refreshed, rebuilt, "same-psi pair");
  EXPECT_EQ(refreshed.row_cardinalities(), rebuilt.row_cardinalities());
}

/// Two incremental consumers of one sketch: the first one's refresh
/// clears the dirty set, so the second must not trust an empty set — a
/// cardinality-only change (same-ψ item pair) would otherwise be missed.
TEST(RefreshDirtyTest, SecondConsumerSeesCardinalityOnlyChange) {
  VosSketch sketch = PopulatedSketch(SmallConfig(1 << 14), 30, 20, 59);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < 30; ++u) candidates.push_back(u);
  QueryOptions options;
  options.num_threads = 1;
  options.incremental = true;
  SimilarityIndex first(sketch, {}, options);
  SimilarityIndex second(sketch, {}, options);
  first.Rebuild(candidates);
  second.Rebuild(candidates);

  const ItemId item = 1 << 29;
  ItemId twin = item + 1;
  while (sketch.BucketOf(twin) != sketch.BucketOf(item)) ++twin;
  sketch.Update({11, item, Action::kInsert});
  sketch.Update({11, twin, Action::kInsert});
  first.RefreshDirty();
  EXPECT_FALSE(second.RefreshDirty())
      << "another consumer's clear invalidates this index's log";

  SimilarityIndex rebuilt(sketch, {}, QueryOptions{});
  rebuilt.Rebuild(candidates);
  ExpectIndexesIdentical(second, rebuilt, "second consumer");
  EXPECT_EQ(second.row_cardinalities(), rebuilt.row_cardinalities());
  ExpectIndexesIdentical(first, rebuilt, "first consumer");
  EXPECT_EQ(first.row_cardinalities(), rebuilt.row_cardinalities());
}

// ------------------------------------------------------ VosDrift batching

TEST(VosDriftBatchTest, BatchMatchesScalarBitForBit) {
  const VosConfig config = SmallConfig(1 << 14);
  VosSketch sketch = PopulatedSketch(config, 50, 40, 23);
  const VosSketch before = sketch;
  Rng rng(29);
  for (int i = 0; i < 800; ++i) {
    sketch.Update({static_cast<UserId>(rng.NextBounded(50)),
                   static_cast<ItemId>((1 << 27) + i), Action::kInsert});
  }
  const VosDrift drift(before, sketch);
  std::vector<UserId> users;
  for (UserId u = 0; u < 50; ++u) users.push_back(u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::vector<double> drifts = drift.EstimateDriftBatch(users, threads);
    const std::vector<double> stabilities =
        drift.EstimateStabilityBatch(users, threads);
    ASSERT_EQ(drifts.size(), users.size());
    for (UserId u = 0; u < 50; ++u) {
      EXPECT_EQ(drifts[u], drift.EstimateDrift(u)) << "user " << u;
      EXPECT_EQ(stabilities[u], drift.EstimateStability(u)) << "user " << u;
    }
  }
}

}  // namespace
}  // namespace vos::core
