// Tests for the query engine: QueryPlanner must return exactly the pair
// set of its per-pair reference — bit-identical estimates on same-shard
// AND cross-shard pairs (the §IV correction generalized to
// (1−2β_A)(1−2β_B)) — for every shard count, planner thread count,
// threshold and prefilter setting; TopK must match its brute-force
// reference under the shared-bound pruning; the engine over a plain
// VosSketch must equal the engine over a 1-shard ShardedVosSketch bit for
// bit; the incremental Refresh path must land on the same snapshots as a
// fresh Rebuild; and ids that are out of range or repeated must stop the
// engine instead of corrupting it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/query_optimizer.h"
#include "core/query_planner.h"
#include "core/scan_common.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
#include "core/vos_estimator.h"

namespace vos::core {
namespace {

using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Community stream: every 4-user group's first two members share 75% of
/// their items (so AllPairsAbove has planted hits in and across shards),
/// everyone else is disjoint; ~20% of inserts get a matching delete.
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

ShardedVosConfig PlannerConfig(uint32_t shards, uint32_t k = 512,
                               uint64_t m = 1 << 16) {
  ShardedVosConfig config;
  config.base.k = k;
  config.base.m = m;
  config.base.seed = 91;
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

void ExpectEntriesIdentical(const std::vector<QueryPlanner::Entry>& got,
                            const std::vector<QueryPlanner::Entry>& want,
                            const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user, want[i].user) << context << " entry " << i;
    EXPECT_EQ(got[i].common, want[i].common) << context << " entry " << i;
    EXPECT_EQ(got[i].jaccard, want[i].jaccard) << context << " entry " << i;
  }
}

/// The acceptance matrix: same pair set and bit-identical estimates as
/// the per-pair reference for S ∈ {1, 2, 4} × planner threads ∈ {1, 8} ×
/// τ ∈ {0.2, 0.5}, with and without the prefilter.
TEST(QueryPlannerTest, AllPairsMatchesReferenceAcrossShardsAndThreads) {
  const UserId users = 72;
  const std::vector<Element> elements = CommunityStream(users, 60, 7);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());

    // Reference once per (shards, τ): it is thread- and prefilter-free.
    for (const double tau : {0.2, 0.5}) {
      std::vector<QueryPlanner::Pair> reference;
      {
        QueryPlanner probe(sketch);
        probe.Rebuild(candidates);
        reference = probe.AllPairsAboveReference(tau);
      }
      EXPECT_FALSE(reference.empty())
          << "shards=" << shards << " tau=" << tau
          << ": stream must plant pairs above the threshold";
      // Cross-shard coverage: with S > 1 some planted pairs must split.
      if (shards > 1) {
        const bool has_cross =
            std::any_of(reference.begin(), reference.end(),
                        [&](const QueryPlanner::Pair& p) {
                          return sketch.ShardOf(p.u) != sketch.ShardOf(p.v);
                        });
        EXPECT_TRUE(has_cross) << "shards=" << shards << " tau=" << tau;
      }
      for (const unsigned threads : {1u, 8u}) {
        for (const bool prefilter : {true, false}) {
          QueryOptions options;
          options.num_threads = threads;
          options.prefilter = prefilter;
          QueryPlanner planner(sketch, {}, options);
          planner.Rebuild(candidates);
          ExpectPairsIdentical(
              planner.AllPairsAbove(tau), reference,
              "shards=" + std::to_string(shards) +
                  " threads=" + std::to_string(threads) +
                  " tau=" + std::to_string(tau) +
                  " prefilter=" + std::to_string(prefilter));
        }
      }
    }
  }
}

/// The engine over a plain VosSketch is the one-shard case of the
/// sharded engine: with the same config and stream, every answer — TopK
/// for a candidate and a non-candidate query, AllPairsAbove at several τ,
/// the per-pair estimate (snapshot and live) — is bit-identical, before
/// and after an incremental Refresh.
TEST(QueryPlannerTest, PlainSketchEngineEqualsOneShardEngine) {
  const UserId users = 64;
  const std::vector<Element> elements = CommunityStream(users, 50, 11);
  const ShardedVosConfig config = PlannerConfig(1);
  ShardedVosSketch sharded(config, users);
  VosSketch plain(ShardedVosSketch::ShardConfig(config, 0), users);
  for (const Element& e : elements) {
    sharded.Update(e);
    plain.Update(e);
  }
  // Users 60..63 stay out of the candidate set: live-extraction paths.
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users - 4; ++u) candidates.push_back(u);

  QueryOptions options;
  options.num_threads = 2;
  options.incremental = true;
  QueryPlanner from_sharded(sharded, {}, options);
  QueryPlanner from_plain(plain, {}, options);
  from_sharded.Rebuild(candidates);
  from_plain.Rebuild(candidates);
  EXPECT_EQ(from_plain.num_shards(), 1u);

  const auto expect_identical = [&](const std::string& when) {
    for (const double tau : {0.0, 0.3, 0.6}) {
      const auto pairs = from_plain.AllPairsAbove(tau);
      if (tau > 0.0) {
        EXPECT_FALSE(pairs.empty()) << when << " tau=" << tau;
      }
      ExpectPairsIdentical(pairs, from_sharded.AllPairsAbove(tau),
                           when + " tau=" + std::to_string(tau));
    }
    for (const UserId query : {UserId{0}, UserId{users - 2}}) {
      ExpectEntriesIdentical(from_plain.TopK(query, 6),
                             from_sharded.TopK(query, 6),
                             when + " query=" + std::to_string(query));
    }
    for (const auto& [u, v] : {std::pair<UserId, UserId>{0, 1},
                               {4, 5},
                               {2, 9},
                               {1, users - 1}}) {
      const PairEstimate a = from_plain.EstimatePair(u, v);
      const PairEstimate b = from_sharded.EstimatePair(u, v);
      EXPECT_EQ(a.common, b.common) << when << " (" << u << "," << v << ")";
      EXPECT_EQ(a.jaccard, b.jaccard) << when;
    }
  };
  expect_identical("rebuilt");

  ItemId next_item = 1 << 29;
  for (const UserId touched : {UserId{1}, UserId{8}, UserId{62}}) {
    for (int i = 0; i < 3; ++i) {
      const Element e{touched, next_item++, Action::kInsert};
      sharded.Update(e);
      plain.Update(e);
    }
  }
  EXPECT_TRUE(from_plain.Refresh());
  EXPECT_TRUE(from_sharded.Refresh());
  expect_identical("refreshed");
}

/// Cross-shard estimates follow the documented model exactly:
/// d = Hamming(Ô_u, Ô_v) over the two shards' reconstructions and the
/// mean of the two shards' log-beta terms — i.e. (1−2β_A)(1−2β_B) where
/// the single-sketch estimator squares one β.
TEST(QueryPlannerTest, CrossShardEstimatesMatchTwoBetaModel) {
  const UserId users = 48;
  const std::vector<Element> elements = CommunityStream(users, 50, 13);
  ShardedVosSketch sketch(PlannerConfig(4), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  QueryPlanner planner(sketch);
  planner.Rebuild(candidates);

  const auto pairs = planner.AllPairsAbove(0.2);
  const VosEstimator estimator(sketch.config().base.k);
  size_t cross_checked = 0;
  for (const auto& pair : pairs) {
    const uint32_t su = sketch.ShardOf(pair.u);
    const uint32_t sv = sketch.ShardOf(pair.v);
    if (su == sv) continue;
    ++cross_checked;
    const VosSketch& shard_u = sketch.shard(su);
    const VosSketch& shard_v = sketch.shard(sv);
    const BitVector du = shard_u.ExtractUserSketch(sketch.LocalIdOf(pair.u));
    const BitVector dv = shard_v.ExtractUserSketch(sketch.LocalIdOf(pair.v));
    const double alpha = static_cast<double>(du.HammingDistance(dv)) /
                         sketch.config().base.k;
    const PairEstimate expected = estimator.EstimateFromLogTerms(
        shard_u.Cardinality(sketch.LocalIdOf(pair.u)),
        shard_v.Cardinality(sketch.LocalIdOf(pair.v)),
        estimator.LogAlphaTerm(alpha),
        0.5 * (estimator.LogBetaTerm(shard_u.beta()) +
               estimator.LogBetaTerm(shard_v.beta())));
    EXPECT_EQ(pair.common, expected.common)
        << "pair (" << pair.u << "," << pair.v << ")";
    EXPECT_EQ(pair.jaccard, expected.jaccard);
  }
  EXPECT_GT(cross_checked, 0u);
}

TEST(QueryPlannerTest, TopKMatchesReferenceWithSharedBoundPruning) {
  // Enough rows that 8 threads split every shard into row chunks (at
  // S = 1 and 3), so the shared bound also crosses chunks of one shard.
  const UserId users = 800;
  const std::vector<Element> elements = CommunityStream(users, 50, 17);
  for (const uint32_t shards : {1u, 3u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    sketch.UpdateBatch(elements.data(), elements.size());
    std::vector<UserId> candidates;
    // Leave a few users out of the candidate set so TopK exercises the
    // live-extraction query path too.
    for (UserId u = 0; u < users - 4; ++u) candidates.push_back(u);

    for (const unsigned threads : {1u, 8u}) {
      QueryOptions options;
      options.num_threads = threads;
      QueryPlanner planner(sketch, {}, options);
      planner.Rebuild(candidates);
      for (const UserId query : {UserId{0}, UserId{5}, UserId{users - 2}}) {
        for (const size_t k : {size_t{1}, size_t{5}, size_t{1000}}) {
          ExpectEntriesIdentical(
              planner.TopK(query, k), planner.TopKReference(query, k),
              "shards=" + std::to_string(shards) +
                  " threads=" + std::to_string(threads) +
                  " query=" + std::to_string(query) +
                  " k=" + std::to_string(k));
        }
      }
    }
  }
}

/// Refresh() drains dirty state shard-locally and must land on exactly
/// the snapshots a fresh Rebuild would produce — across churn rounds and
/// including the adaptive fallback round (everything dirty).
TEST(QueryPlannerTest, IncrementalRefreshMatchesFreshRebuild) {
  const UserId users = 56;
  std::vector<Element> elements = CommunityStream(users, 40, 19);
  ShardedVosSketch sketch(PlannerConfig(4, 512, 1 << 14), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  QueryOptions incremental;
  incremental.num_threads = 2;
  incremental.incremental = true;
  QueryPlanner refreshed(sketch, {}, incremental);
  refreshed.Rebuild(candidates);

  ItemId next_item = 1 << 29;
  for (const UserId touched : {UserId{2}, UserId{33}}) {
    sketch.Update({touched, next_item++, Action::kInsert});
    sketch.Update({touched, next_item++, Action::kInsert});
  }
  EXPECT_TRUE(refreshed.Refresh());

  QueryPlanner rebuilt(sketch, {}, QueryOptions{});
  rebuilt.Rebuild(candidates);
  ExpectPairsIdentical(refreshed.AllPairsAbove(0.25),
                       rebuilt.AllPairsAbove(0.25), "small churn");
  ExpectEntriesIdentical(refreshed.TopK(2, 8), rebuilt.TopK(2, 8),
                         "small churn TopK");

  // Touch everyone: per-shard refreshes cross the break-even and fall
  // back to full per-shard rebuilds — results must not change.
  for (UserId u = 0; u < users; ++u) {
    sketch.Update({u, next_item++, Action::kInsert});
  }
  EXPECT_FALSE(refreshed.Refresh());
  rebuilt.Rebuild(candidates);
  ExpectPairsIdentical(refreshed.AllPairsAbove(0.25),
                       rebuilt.AllPairsAbove(0.25), "full churn");
}

/// Two items on the same virtual bit of one user: inserting both flips
/// the same cell twice (no array change) while n_u grows by two — a
/// cardinality-only change that only the dirty set can reveal.
std::pair<ItemId, ItemId> SamePsiItems(const VosSketch& sketch, ItemId from) {
  for (ItemId b = from + 1;; ++b) {
    if (sketch.BucketOf(b) == sketch.BucketOf(from)) return {from, b};
  }
}

/// Restore() swaps in freshly loaded shards whose dirty sets are empty;
/// a Refresh() after it must still land on the restored state — here a
/// candidate whose only change since the snapshot is its cardinality.
TEST(QueryPlannerTest, RefreshAfterRestoreMatchesFreshRebuild) {
  const UserId users = 56;
  std::vector<Element> elements = CommunityStream(users, 40, 23);
  ShardedVosSketch sketch(PlannerConfig(4, 512, 1 << 14), users);
  sketch.UpdateBatch(elements.data(), elements.size());
  const std::string path =
      ::testing::TempDir() + "/query_planner_refresh_after_restore";
  ASSERT_TRUE(sketch.Checkpoint(path).ok());
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);

  // Past the checkpoint: user 5 gains two same-ψ items, user 9 one item.
  const UserId quiet = 5;
  const uint32_t shard = sketch.ShardOf(quiet);
  const auto [a, b] = SamePsiItems(sketch.shard(shard), 1 << 29);
  sketch.Update({quiet, a, Action::kInsert});
  sketch.Update({quiet, b, Action::kInsert});
  sketch.Update({9, (1 << 29) - 1, Action::kInsert});

  QueryOptions incremental;
  incremental.num_threads = 1;
  incremental.incremental = true;
  incremental.refresh_fallback_fraction = 2.0;
  QueryPlanner refreshed(sketch, {}, incremental);
  refreshed.Rebuild(candidates);
  ASSERT_TRUE(sketch.Restore(path).ok());
  EXPECT_FALSE(refreshed.Refresh())
      << "a restored sketch's log cannot describe the change";

  QueryPlanner rebuilt(sketch, {}, QueryOptions{});
  rebuilt.Rebuild(candidates);
  for (uint32_t s = 0; s < sketch.num_shards(); ++s) {
    EXPECT_EQ(refreshed.shard_index(s).row_cardinalities(),
              rebuilt.shard_index(s).row_cardinalities())
        << "shard " << s;
  }
  ExpectEntriesIdentical(refreshed.TopK(quiet, 8), rebuilt.TopK(quiet, 8),
                         "TopK after restore");
  ExpectPairsIdentical(refreshed.AllPairsAbove(0.25),
                       rebuilt.AllPairsAbove(0.25), "pairs after restore");
  std::remove(path.c_str());
}

/// PlanAllPairs reports one PassReport per pass AllPairsAbove runs — the
/// same-shard triangles with ≥ 2 rows in shard order, then the
/// cross-shard rectangles with two non-empty sides in (s, t) order — and
/// each stats.exact_pairs is a brute-force count of the pairs inside that
/// pass's cardinality window (the full pair space with the prefilter off).
TEST(QueryPlannerTest, PlanAllPairsReportsWindowPairsPerPass) {
  const UserId users = 96;
  const uint32_t shards = 4;
  // Set sizes 20..140, so the τ cardinality window prunes real pairs.
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    for (uint32_t i = 0; i < 20 + 30 * (u % 5); ++i) {
      elements.push_back(
          {u, static_cast<ItemId>(u * 1000 + i), Action::kInsert});
    }
  }
  ShardedVosSketch sketch(PlannerConfig(shards), users);
  sketch.UpdateBatch(elements.data(), elements.size());

  // Shard 0 keeps one candidate (no triangle, rectangles only), shard 3
  // none (no passes at all), shards 1 and 2 all of theirs.
  std::vector<UserId> candidates;
  bool shard0_taken = false;
  for (UserId u = 0; u < users; ++u) {
    const uint32_t s = sketch.ShardOf(u);
    if (s == 0 && !shard0_taken) {
      candidates.push_back(u);
      shard0_taken = true;
    } else if (s == 1 || s == 2) {
      candidates.push_back(u);
    }
  }
  ASSERT_TRUE(shard0_taken);

  const double tau = 0.4;
  const double tau_frac = tau / (1.0 + tau);
  const auto in_window = [&](uint32_t a, uint32_t b, bool prefilter) {
    return !prefilter ||
           !scan::CardinalityFail(std::min(a, b), static_cast<double>(a) + b,
                                  tau_frac);
  };

  for (const bool prefilter : {true, false}) {
    QueryOptions options;
    options.prefilter = prefilter;
    QueryPlanner planner(sketch, {}, options);
    planner.Rebuild(candidates);
    const auto cards = [&](uint32_t s) {
      return planner.shard_index(s).row_cardinalities();
    };
    ASSERT_EQ(cards(0).size(), 1u);
    ASSERT_TRUE(cards(3).empty());
    ASSERT_GE(cards(1).size(), 2u);
    ASSERT_GE(cards(2).size(), 2u);

    struct Expected {
      bool triangle;
      uint32_t s, t;
    };
    const std::vector<Expected> expected = {
        {true, 1, 1}, {true, 2, 2}, {false, 0, 1}, {false, 0, 2},
        {false, 1, 2}};
    const std::vector<optimizer::PassReport> reports =
        planner.PlanAllPairs(tau);
    ASSERT_EQ(reports.size(), expected.size()) << "prefilter=" << prefilter;

    size_t total = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
      const Expected& e = expected[i];
      const optimizer::PassStats& stats = reports[i].stats;
      const std::vector<uint32_t> a = cards(e.s);
      const std::vector<uint32_t> b = cards(e.t);
      size_t brute = 0;
      for (size_t p = 0; p < a.size(); ++p) {
        for (size_t q = e.triangle ? p + 1 : 0; q < b.size(); ++q) {
          if (in_window(a[p], b[q], prefilter)) ++brute;
        }
      }
      EXPECT_EQ(stats.triangle, e.triangle) << "pass " << i;
      EXPECT_EQ(stats.rows_a, a.size()) << "pass " << i;
      EXPECT_EQ(stats.rows_b, b.size()) << "pass " << i;
      EXPECT_EQ(stats.exact_pairs, brute)
          << "pass " << i << " prefilter=" << prefilter;
      total += brute;
    }
    const size_t n = candidates.size();
    if (prefilter) {
      EXPECT_LT(total, n * (n - 1) / 2) << "the window must prune pairs";
    } else {
      EXPECT_EQ(total, n * (n - 1) / 2) << "passes partition the pair space";
    }
  }
}

TEST(QueryPlannerTest, EmptyAndDegenerateInputs) {
  const UserId users = 16;
  ShardedVosSketch sketch(PlannerConfig(4), users);
  QueryPlanner planner(sketch);
  EXPECT_TRUE(planner.AllPairsAbove(0.5).empty());
  EXPECT_TRUE(planner.TopK(0, 5).empty());

  planner.Rebuild({3});  // one candidate: no pairs, TopK excludes self
  EXPECT_TRUE(planner.AllPairsAbove(0.1).empty());
  EXPECT_TRUE(planner.TopK(3, 5).empty());
  EXPECT_TRUE(planner.TopK(3, 0).empty());
}

/// Every id that enters the engine is bounds-checked: at S = 1 the local
/// id is the global id and VosSketch::Cardinality does not check, so an
/// out-of-range candidate, TopK query or EstimatePair endpoint used to
/// read past the per-user arrays instead of stopping.
TEST(QueryPlannerDeathTest, OutOfRangeIdsStopTheEngine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const UserId users = 10;
  const auto expect_checks = [&](QueryPlanner& planner) {
    EXPECT_DEATH(planner.Rebuild({0, 1, 2, 5000000}), "out of range");
    planner.Rebuild({0, 1, 2});
    EXPECT_DEATH((void)planner.TopK(9000000, 2), "out of range");
    EXPECT_DEATH((void)planner.EstimatePair(1, 9000000), "out of range");
    EXPECT_DEATH((void)planner.EstimatePair(users, 1), "out of range");
  };
  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    QueryPlanner planner(sketch);
    expect_checks(planner);
  }
  VosSketch plain(PlannerConfig(1).base, users);
  QueryPlanner planner(plain);
  expect_checks(planner);
}

/// A repeated candidate would be scanned against itself (a self-pair at
/// Ĵ = 1) and reported twice by AllPairsAbove and TopK.
TEST(QueryPlannerDeathTest, DuplicateCandidatesAreRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const UserId users = 10;
  for (const uint32_t shards : {1u, 4u}) {
    ShardedVosSketch sketch(PlannerConfig(shards), users);
    QueryPlanner planner(sketch);
    EXPECT_DEATH(planner.Rebuild({1, 1, 2}), "duplicate candidates")
        << "shards=" << shards;
  }
  VosSketch plain(PlannerConfig(1).base, users);
  QueryPlanner planner(plain);
  EXPECT_DEATH(planner.Rebuild({1, 2, 1}), "duplicate candidates");
}

}  // namespace
}  // namespace vos::core
