// QueryPlanner: the query engine. Every TopK, AllPairsAbove and cached
// per-pair estimate in the system runs here, over S ≥ 1 snapshots.
//
// The planner owns one SimilarityIndex snapshot per shard. Over a
// ShardedVosSketch each is built over that shard's VosSketch in
// shard-local id space (the dense remap of core/sharded_vos_sketch.h);
// over a plain VosSketch there is exactly one, and local ids are the
// global ids. The paper's §IV estimate over one shared array is the
// one-shard case of the two-β form below, so the same code answers both:
//
//   * Rebuild(candidates) partitions the global candidate set by shard,
//     translates ids to dense locals, and (re)builds every snapshot — S
//     independent builds, run in parallel. With QueryOptions::incremental
//     each snapshot retains refresh state, and Refresh() drains each
//     shard's dirty set shard-locally through SimilarityIndex::RefreshDirty
//     (with its adaptive full-rebuild fallback) — incremental maintenance
//     never crosses a shard boundary. Prepare() is the one snapshot path
//     of the SimilarityMethod adapters: Refresh when it can, else Rebuild.
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
//     the combined ln|1−2β_A| + ln|1−2β_B| cut. PlanAllPairs(τ) reports
//     each pass's window-pair count without scanning.
//
//   * TopK(u, k) scatters the query digest to every snapshot — one task
//     per shard, or per row chunk of a shard when there are more workers
//     than shards — and gathers per-shard top-k lists under a shared global
//     threshold bound: each worker publishes its current k-th best Ĵ (a
//     lower bound on the final k-th best, since the merged result can only
//     be better), and every worker prunes candidates whose clamped Ĵ
//     provably falls below the published bound before popcounting.
//     Pruning is strict-inequality conservative, so the merged result is
//     bit-identical to the unpruned scan for every schedule.
//
//   * EstimatePair(u, v) reads both users' snapshot rows when both are
//     candidates, and estimates from the live sketch otherwise.
//
// Snapshot semantics: every answer except EstimatePair's live fallback
// reflects the sketch state at the last Rebuild/Refresh — including a
// TopK query that is itself a candidate, whose snapshot row is reused.
// A non-candidate TopK query's digest is extracted live.
//
// Parallelism model: the planner parallelizes ACROSS scan units (the
// tiles of every same-shard and cross-shard pass, QueryOptions::tile_rows
// per tile edge; one task per shard — or per shard row chunk — for TopK;
// one task per shard for the snapshot builds) with
// QueryOptions::num_threads workers. A snapshot build or refresh runs on
// num_threads / S workers of its own (at least one), so the S of them
// side by side never exceed num_threads and a lone snapshot gets them
// all.
//
// Results are global: pairs/entries carry global user ids (canonically
// oriented u < v), merged across tasks in deterministic task order and
// sorted with the total orders of core/scan_common.h — the output is
// independent of thread count and schedule. Every id entering the engine
// (a Rebuild candidate, a TopK query, an EstimatePair endpoint) is
// bounds-checked against the sketch's user count.
//
// Thread-safety contract: Rebuild()/Refresh()/Prepare() mutate the planner
// and must not run concurrently with queries or each other, and they
// require a quiesced ingest pipeline — call ShardedVosSketch::Flush()
// first. Between snapshots every query and both *References are const and
// concurrent-safe.
//
// TopKReference / AllPairsAboveReference are the ground truth every fast
// path is asserted bit-identical against (tests/query_planner_test.cc,
// tests/pair_scan_test.cc, tests/query_engine_test.cc) and the baseline
// bench/micro_query_path.cc measures speedups over: they extract each
// candidate's live digest once and estimate every pair with the
// arithmetic of ShardedVosSketch::EstimatePair, touching no snapshot row,
// log-alpha table, tile or prefilter.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/query_optimizer.h"
#include "core/scan_common.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"

namespace vos::core {

/// The query engine over one SimilarityIndex snapshot per shard.
class QueryPlanner {
 public:
  /// One TopK answer (user / common / jaccard).
  using Entry = scan::Entry;
  /// One thresholded pair (u / v / common / jaccard).
  using Pair = scan::Pair;

  /// Binds to `sketch` (not owned; must outlive the planner).
  /// QueryOptions::num_threads is the planner's task-level worker count;
  /// QueryOptions::incremental enables Refresh() (requires the shards to
  /// track dirty users, VosConfig::track_dirty).
  explicit QueryPlanner(const ShardedVosSketch& sketch,
                        VosEstimatorOptions estimator_options = {},
                        QueryOptions query_options = {});

  /// The one-snapshot engine over a plain VosSketch (S = 1, local ids =
  /// global ids); same contract as the sharded constructor.
  explicit QueryPlanner(const VosSketch& sketch,
                        VosEstimatorOptions estimator_options = {},
                        QueryOptions query_options = {});

  /// Snapshots every shard index for the global candidate set.
  /// Candidates must be unique and below the sketch's user count (both
  /// checked); pairs and entries are reported between candidates only.
  void Rebuild(std::vector<UserId> candidates);

  /// Incrementally re-snapshots the SAME candidate set, draining each
  /// shard's dirty set shard-locally (SimilarityIndex::RefreshDirty, with
  /// the adaptive full-rebuild fallback). Requires
  /// QueryOptions::incremental and a prior Rebuild(). Returns true when
  /// every shard refreshed incrementally, false if any fell back to a
  /// full per-shard rebuild. Result is bit-identical either way.
  bool Refresh();

  /// Brings the snapshot to `candidates` at the current sketch state:
  /// Refresh() when the planner is incremental and already holds exactly
  /// this candidate list, Rebuild(candidates) otherwise.
  void Prepare(const std::vector<UserId>& candidates);

  /// All unordered candidate pairs with Ĵ ≥ `jaccard_threshold`, global
  /// ids, u < v, descending Ĵ (ties by (u, v)) — same pair set and
  /// bit-identical estimates as AllPairsAboveReference on quiesced state.
  std::vector<Pair> AllPairsAbove(double jaccard_threshold) const;

  /// The `k` candidates most similar to `query` (global id; any user of
  /// the stream, candidate or not), excluding the query itself.
  std::vector<Entry> TopK(UserId query, size_t k) const;

  /// (ŝ, Ĵ) for one pair: from the two snapshot rows when both users are
  /// candidates (bit-identical to AllPairsAbove's estimate of the pair),
  /// from the live sketch otherwise.
  PairEstimate EstimatePair(UserId u, UserId v) const;

  /// (ŝ, Ĵ) for one pair from the live sketch, candidate or not: the
  /// arithmetic of the references, which reads no snapshot.
  PairEstimate EstimateLivePair(UserId u, UserId v) const;

  /// Ground truth for AllPairsAbove: every candidate pair estimated from
  /// live digests (see file comment). O(n·k) extraction + O(n²·k/64)
  /// popcounts — tests and bench baselines only.
  std::vector<Pair> AllPairsAboveReference(double jaccard_threshold) const;

  /// Ground truth for TopK (see AllPairsAboveReference).
  std::vector<Entry> TopKReference(UserId query, size_t k) const;

  size_t candidate_count() const { return candidates_.size(); }
  const std::vector<UserId>& candidates() const { return candidates_; }

  /// Number of snapshots (the sketch's shard count; 1 over a VosSketch).
  uint32_t num_shards() const { return static_cast<uint32_t>(indexes_.size()); }

  /// The shard-local snapshot of shard s (its candidates in dense local
  /// ids). Exposed for diagnostics and tests.
  const SimilarityIndex& shard_index(uint32_t s) const {
    return *indexes_[s];
  }

  const QueryOptions& query_options() const { return query_options_; }
  const VosEstimator& estimator() const { return estimator_; }

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
  void set_num_threads(unsigned num_threads);

 private:
  /// Where a user lives: its shard and its local id there.
  struct Slot {
    uint32_t shard = 0;
    UserId local = 0;
  };

  /// A user's live digest row, cardinality and shard log-β term — the
  /// inputs of ShardedVosSketch::EstimatePair's arithmetic.
  struct LiveDigest {
    std::vector<uint64_t> row;
    uint32_t card = 0;
    double log_beta = 0.0;
  };

  QueryPlanner(const ShardedVosSketch* sharded, const VosSketch* plain,
               VosEstimatorOptions estimator_options,
               QueryOptions query_options);

  /// Bounds-checks `user` and locates it.
  Slot Locate(UserId user) const;

  /// Global id of shard s's local id.
  UserId GlobalOf(uint32_t s, UserId local) const {
    return sharded_ == nullptr ? local : sharded_->GlobalUserOf(s, local);
  }

  /// Global id of shard s's matrix row p.
  UserId GlobalOfRow(uint32_t s, size_t p) const {
    const SimilarityIndex& index = *indexes_[s];
    return GlobalOf(s, index.candidates()[index.sorted_to_candidate(p)]);
  }

  LiveDigest ExtractLive(Slot slot) const;
  PairEstimate EstimateLive(const LiveDigest& a, const LiveDigest& b) const;

  const ShardedVosSketch* sharded_;  ///< null over a plain VosSketch
  UserId num_users_;
  VosEstimator estimator_;
  QueryOptions query_options_;
  std::vector<UserId> candidates_;
  /// One snapshot index per shard, over that shard's candidate locals.
  std::vector<std::unique_ptr<SimilarityIndex>> indexes_;
  /// ln|1−2·d/k| per Hamming distance d — shared by every pass and TopK
  /// task.
  std::vector<double> log_alpha_table_;
};

}  // namespace vos::core
