// QueryPlanner: shard-aware batch similarity queries over a
// ShardedVosSketch — the query tier that scales with shard count.
//
// PR 2 sharded the write path; this class shards the read path to match.
// It owns one SimilarityIndex per shard, each built over that shard's
// VosSketch in shard-local id space (the dense remap of
// core/sharded_vos_sketch.h), and plans queries as a scatter–gather over
// those indexes:
//
//   * Rebuild(candidates) partitions the global candidate set by shard,
//     translates ids to dense locals, and (re)builds every shard index —
//     S independent snapshot builds, run in parallel. With
//     QueryOptions::incremental each snapshot retains refresh state, and
//     Refresh() drains each shard's dirty set shard-locally through
//     SimilarityIndex::RefreshDirty (with its adaptive full-rebuild
//     fallback) — incremental maintenance never crosses a shard boundary.
//
//   * AllPairsAbove(τ) decomposes the pair space exactly: S same-shard
//     triangle passes plus S·(S−1)/2 cross-shard rectangle passes that
//     scan one shard's DigestMatrix against another's, all described as
//     pair_scan::Passes and run on the shared tiled scan tier
//     (core/pair_scan.h) — every pass is decomposed into cache-sized
//     row×row tiles dispatched to ONE worker pool, so a skewed ("hot")
//     shard's triangle parallelizes across tiles instead of serializing
//     as a single task. Digests from different shards are XOR-comparable
//     (shared ψ, equal k); only the β correction changes: each digest
//     carries its own shard's contamination, so the §IV (1−2β)² factor
//     generalizes to (1−2β_A)(1−2β_B) and the estimator receives the
//     mean of the two log-beta terms. The conservative prefilters
//     generalize too — the τ cardinality bound becomes a two-sided
//     window over the partner shard's sorted rows (both matrices are
//     cardinality-sorted, so both window ends are partition points), and
//     the 3/4-row confinement check and exact log-alpha screen run with
//     the combined ln|1−2β_A| + ln|1−2β_B| cut. Estimates are
//     bit-identical to ShardedVosSketch::EstimatePair on the same
//     quiesced state: the same log-alpha table, the same mean-log-beta
//     combination. The tiled scan is the only all-pairs plan;
//     PlanAllPairs(τ) reports each pass's window-pair count without
//     scanning.
//
//   * TopK(u, k) scatters the query digest to every shard index and
//     gathers per-shard top-k lists under a shared global threshold
//     bound: each worker publishes its current k-th best Ĵ (a lower bound
//     on the final k-th best, since the merged result can only be
//     better), and every worker prunes candidates whose clamped Ĵ
//     provably falls below the published bound before popcounting.
//     Pruning is strict-inequality conservative, so the merged result is
//     bit-identical to the unpruned scan for every schedule.
//
// Parallelism model: the planner parallelizes ACROSS scan units (the
// tiles of every same-shard and cross-shard pass, QueryOptions::tile_rows
// per tile edge) with QueryOptions::num_threads workers; each unit runs
// single-threaded inside (per-shard indexes are configured with one
// thread), so there is no nested oversubscription. With S == 1 the
// planner degenerates to the single global index — tiled exactly as
// SimilarityIndex::AllPairsAbove tiles it — which is what
// bench/micro_query_path.cc measures shard scaling against.
//
// Results are global: pairs/entries carry global user ids (canonically
// oriented u < v), merged across tasks in deterministic task order and
// sorted with the same total orders SimilarityIndex uses — the output is
// independent of thread count and schedule.
//
// Thread-safety contract: Rebuild()/Refresh() mutate the planner and must
// not run concurrently with queries or each other, and they require a
// quiesced ingest pipeline — call ShardedVosSketch::Flush() first, as for
// any SimilarityIndex snapshot. Between snapshots TopK/AllPairsAbove and
// the *Reference twins are const and concurrent-safe.
//
// The *Reference implementations answer from per-pair
// ShardedVosSketch::EstimatePair calls — the ground truth the planner is
// asserted bit-identical against (tests/query_planner_test.cc) and the
// baseline the bench measures speedups over.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/query_optimizer.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"

namespace vos::core {

/// Scatter–gather query planner over per-shard SimilarityIndex snapshots.
class QueryPlanner {
 public:
  using Entry = SimilarityIndex::Entry;
  using Pair = SimilarityIndex::Pair;

  /// Binds to `sketch` (not owned; must outlive the planner).
  /// QueryOptions::num_threads is the planner's task-level worker count;
  /// QueryOptions::incremental enables Refresh() (requires the shards to
  /// track dirty users, VosConfig::track_dirty).
  explicit QueryPlanner(const ShardedVosSketch& sketch,
                        VosEstimatorOptions estimator_options = {},
                        QueryOptions query_options = {});

  /// Snapshots every shard index for the global candidate set.
  /// Candidates must be unique; pairs and entries are reported between
  /// candidates only.
  void Rebuild(std::vector<UserId> candidates);

  /// Incrementally re-snapshots the SAME candidate set, draining each
  /// shard's dirty set shard-locally (SimilarityIndex::RefreshDirty, with
  /// the adaptive full-rebuild fallback). Requires
  /// QueryOptions::incremental and a prior Rebuild(). Returns true when
  /// every shard refreshed incrementally, false if any fell back to a
  /// full per-shard rebuild. Result is bit-identical either way.
  bool Refresh();

  /// All unordered candidate pairs with Ĵ ≥ `jaccard_threshold`, global
  /// ids, u < v, descending Ĵ (ties by (u, v)) — same pair set and
  /// bit-identical estimates as AllPairsAboveReference on quiesced state.
  std::vector<Pair> AllPairsAbove(double jaccard_threshold) const;

  /// The `k` candidates most similar to `query` (global id; any user of
  /// the stream, candidate or not), excluding the query itself.
  ///
  /// Warm start: the shared raise-only bound can be seeded from
  /// QueryOptions::topk_warm_threshold and/or (topk_warm_start) the
  /// planner-remembered k-th best of the previous completed TopK for the
  /// SAME (query, k) — bounds are keyed per query so a mixed query set
  /// cannot cross-pollute. A seed is optimistic, never trusted: when the
  /// merged result does not end with k entries at or above the seed, the
  /// scan reruns cold — so the returned entries are bit-identical to a
  /// cold start for every seed.
  std::vector<Entry> TopK(UserId query, size_t k) const;

  /// Ground truth: one ShardedVosSketch::EstimatePair call per candidate
  /// pair. O(n²·k) — tests and bench baselines only.
  std::vector<Pair> AllPairsAboveReference(double jaccard_threshold) const;

  /// Ground truth for TopK (see AllPairsAboveReference).
  std::vector<Entry> TopKReference(UserId query, size_t k) const;

  size_t candidate_count() const { return candidates_.size(); }
  const std::vector<UserId>& candidates() const { return candidates_; }

  /// The shard-local index of shard s (snapshot of its candidates in
  /// dense local ids). Exposed for diagnostics, tests and the method
  /// adapter's per-pair cache reads.
  const SimilarityIndex& shard_index(uint32_t s) const {
    return *indexes_[s];
  }

  const QueryOptions& query_options() const { return query_options_; }

  /// The work statistics of every pass AllPairsAbove(τ) would run, in
  /// pass order: the S same-shard triangles with ≥ 2 rows, then the
  /// cross-shard rectangles with two non-empty sides. Each report's
  /// stats.exact_pairs is the pass's window-pair count
  /// (core/query_optimizer.h) — the pairs the tiled scan enumerates.
  /// O(rows) per pass, no popcounts; for benches and diagnostics.
  std::vector<optimizer::PassReport> PlanAllPairs(
      double jaccard_threshold) const;

  /// Task-level worker count for subsequent Rebuild/Refresh/queries
  /// (0 = hardware concurrency). Results are bit-identical for every
  /// value, so a long-lived planner can follow
  /// SimilarityMethod::SetQueryThreads without invalidating its
  /// snapshots. Not concurrent-safe with running queries.
  void set_num_threads(unsigned num_threads) {
    query_options_.num_threads = num_threads;
  }

 private:
  /// The TopK scatter–gather with the shared bound seeded at
  /// `warm_seed` (≤ 0 = cold). A positive seed may prune entries the
  /// final result needs, so TopK() verifies and reruns cold.
  std::vector<Entry> TopKImpl(UserId query, size_t k, double warm_seed) const;

  /// Global id of shard s's matrix row p.
  UserId GlobalOfRow(uint32_t s, size_t p) const;

  const ShardedVosSketch* sketch_;
  VosEstimator estimator_;
  QueryOptions query_options_;
  std::vector<UserId> candidates_;
  /// One snapshot index per shard, over that shard's candidate locals.
  std::vector<std::unique_ptr<SimilarityIndex>> indexes_;
  /// ln|1−2·d/k| per Hamming distance d — shared by every cross-shard
  /// task (identical by construction to each index's internal table).
  std::vector<double> log_alpha_table_;
  /// k-th best Ĵ of the last completed full-k TopK, keyed per
  /// (query, k) — one shared bound would thrash between high- and
  /// low-similarity queries and force a cold rerun on almost every call
  /// of a mixed query set. The key packs both (a collision is harmless:
  /// every seed is verified, so a wrong bound only costs a cold rerun,
  /// never a result). Mutex-guarded because TopK is const and
  /// concurrent-safe; the map is a verified hint either way.
  static uint64_t WarmKey(UserId query, size_t k) {
    return (uint64_t{query} << 32) | (k & 0xffffffffull);
  }
  mutable Mutex warm_mutex_;
  mutable std::unordered_map<uint64_t, double> warm_topk_bounds_
      VOS_GUARDED_BY(warm_mutex_);
};

}  // namespace vos::core
