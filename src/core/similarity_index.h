// SimilarityIndex: batched, parallel similarity queries over a VOS sketch.
//
// The sketch answers one pair in O(k); applications usually want "who is
// most similar to u?" or "all pairs above J ≥ τ" over a candidate set
// (e.g. the currently active users). Rebuild() snapshots every candidate's
// reconstructed digest into a DigestMatrix — one contiguous packed buffer,
// filled by a thread-parallel extraction pass over the sketch's cached
// f-seed table — after which a pair estimate is one word-wise XOR+popcount
// row kernel (common/popcount.h) plus a table lookup:
//
//   * ŝ depends on the Hamming distance d only through ln|1−2·d/k|, which
//     takes k+1 values; Rebuild-time tabulation removes every log/divide
//     from the O(U²) loop (bit-identical by construction — see
//     VosEstimator::EstimateFromLogTerms).
//   * AllPairsAbove runs on the shared tiled pair-scan tier
//     (core/pair_scan.h), its only query path: the triangle is decomposed
//     into cache-sized row×row tiles, each an independent work unit with
//     its own result buffer, merged and canonically sorted at the end;
//     results are bit-identical for every thread count and tile size.
//   * A conservative prefilter converts the Jaccard threshold into
//     cardinality and alpha (log-term) bounds. Because Ĵ ≥ τ forces
//     min(n_u,n_v) ≥ τ/(1+τ)·(n_u+n_v), the all-pairs sweep runs in
//     cardinality-sorted order: the admissible partners of each row form a
//     contiguous window, and the inner loop breaks at its end — hopeless
//     pairs are never enumerated, let alone popcounted. Pairs inside the
//     window whose Hamming distance rules τ out are skipped before the
//     estimator. All slacks are chosen so the filter never drops a pair
//     the full estimator would keep; prefilter on/off is asserted
//     identical in tests.
//
// TopKReference / AllPairsAboveReference keep the original scalar
// implementation (per-user BitVector digests, one estimator call per
// pair). They are the ground truth the batch engine is asserted
// bit-identical against, and the baseline bench/micro_query_path.cc
// measures speedups over.
//
// The index is a *snapshot*: estimates reflect the sketch state at the
// last Rebuild(). This includes the TopK query user whenever it is among
// the candidates — its stored row and cardinality are reused instead of
// re-extracting per call. Rebuild after ingesting more stream (cheap
// relative to re-scanning pairs).
//
// Thread-safety contract: Rebuild() and RefreshDirty() mutate the index
// and must not run concurrently with queries (or each other). Between
// snapshots the index is immutable; TopK, AllPairsAbove and their
// *Reference twins are const and safe to call concurrently from any
// number of threads (each call may itself spawn
// QueryOptions::num_threads workers). Snapshot calls additionally read —
// and, under QueryOptions::incremental, consume — the bound sketch's
// dirty set and flip log, so they must not race with sketch Updates
// either; quiesce the ingest pipeline (ShardedVosSketch::Flush) before
// snapshotting.

#pragma once

#include <unordered_map>
#include <vector>

#include "common/bit_vector.h"
#include "core/digest_matrix.h"
#include "core/scan_common.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {

/// Tunables of the batch query engine.
struct QueryOptions {
  /// Worker threads per query / Rebuild extraction pass
  /// (0 = std::thread::hardware_concurrency()).
  unsigned num_threads = 0;
  /// Rows per parallel work unit in the TopK candidate loop. Small
  /// blocks balance mixed-cost workloads; large blocks cut scheduling
  /// overhead. (The all-pairs loop is governed by `tile_rows` below.)
  size_t block_size = 128;
  /// Rows per tile edge of the all-pairs pair scan (core/pair_scan.h):
  /// every triangle/rectangle pass is decomposed into tile_rows ×
  /// tile_rows row tiles, each one work unit on the pool, so a hot
  /// shard's triangle parallelizes and candidate sets beyond the LLC
  /// stay cache-resident per tile. 0 = sized from the digest row width
  /// and the detected cache hierarchy (optimizer::AdaptiveTileRows); any
  /// value ≥ the candidate count degenerates to one tile per pass.
  /// Results are bit-identical for every value.
  size_t tile_rows = 0;
  /// Optimistic warm seed for QueryPlanner::TopK's shared raise-only
  /// threshold bound (≤ 0 = cold start, the default). Any value is
  /// safe: the result is verified to dominate the seed and the scan
  /// reruns cold when it does not, so results are always bit-identical
  /// to a cold start — a good seed (the previous checkpoint's k-th best
  /// Ĵ) just skips most of the popcounts.
  double topk_warm_threshold = -1.0;
  /// Planner-held warm start: QueryPlanner remembers each completed
  /// TopK's k-th best Ĵ per (query, k) and seeds the next call for that
  /// same query with it (same verification + cold fallback as
  /// topk_warm_threshold; per-query keying keeps a mixed query set from
  /// cross-polluting bounds). Off by default; intended for the
  /// checkpoint loop's repeated same-query-set TopK calls.
  bool topk_warm_start = false;
  /// Enable the cardinality + Hamming-distance prescreen in
  /// AllPairsAbove. Only applied when the estimator clamps to the
  /// feasible range (the default); results are identical either way.
  bool prefilter = true;
  /// Retain incremental-maintenance state so RefreshDirty() can run: a
  /// spare digest matrix the refresh reorders into, and a cell-word →
  /// (candidate, bit) owner index of 5 bytes per candidate-bit (e.g.
  /// 2,000 candidates × k=6400 ≈ 61 MiB, plus m/16 bytes of bucket
  /// offsets). The owner index is built by the first RefreshDirty after
  /// each Rebuild that can patch from the flip log, so a snapshot that is
  /// only ever rebuilt never pays for it. Leave off for rebuild-only
  /// indexes.
  bool incremental = false;
  /// Adaptive refresh: RefreshDirty() falls back to a full Rebuild() when
  /// more than this fraction of the candidates is affected. Patching stays
  /// cheaper than re-extracting at every measured fraction up to 50%
  /// (bench/micro_ingest_path.cc), so the default keeps the rebuild for
  /// snapshots where most rows changed anyway. Results are bit-identical
  /// either way; only the time differs. Set > 1 to take the incremental
  /// path whenever the sketch's flip log is valid (see RefreshDirty), ≤ 0
  /// to always rebuild.
  double refresh_fallback_fraction = 0.5;
};

/// Snapshot index over a candidate set of users.
class SimilarityIndex {
 public:
  /// One query answer (record shared with the scan tier,
  /// core/scan_common.h: user / common / jaccard).
  using Entry = scan::Entry;

  /// One thresholded pair from AllPairsAbove (u / v / common / jaccard).
  using Pair = scan::Pair;

  /// Binds to `sketch` (not owned; must outlive the index).
  explicit SimilarityIndex(const VosSketch& sketch,
                           VosEstimatorOptions options = {},
                           QueryOptions query_options = {});

  /// Snapshots digests, cardinalities and β for `candidates` (extraction
  /// runs on QueryOptions::num_threads workers). With
  /// QueryOptions::incremental it additionally consumes the sketch's
  /// dirty set and flip log and drops the owner index, which the next
  /// RefreshDirty rebuilds on first use.
  void Rebuild(std::vector<UserId> candidates);

  /// Incrementally re-snapshots the SAME candidate set by patching only
  /// what changed since the last Rebuild()/RefreshDirty(), read from the
  /// sketch's flip log and dirty set (VosSketch's dirty-tracking
  /// contract): every cell flipped an odd number of times flips bit j of
  /// each candidate row i with f_j(candidates[i]) == cell (covers every
  /// digest change, including shared-cell contamination flips caused by
  /// OTHER users' updates), and users in the dirty set get their
  /// cardinality re-read (covers every cardinality change). Rows move
  /// into the new cardinality-sorted order by one block copy each, and β
  /// is recaptured — the result is asserted bit-identical to a full
  /// Rebuild(candidates) in tests for every dirty fraction and thread
  /// count. The log-alpha table depends only on k and is never rebuilt
  /// (k is fixed for the sketch's lifetime). Requires
  /// QueryOptions::incremental and a prior Rebuild(); consumes the
  /// sketch's dirty set and flip log.
  ///
  /// Cost: O(L log L) for L logged flips + one scan of the changed cell's
  /// word bucket (expected n·k/(m/64) entries, matched by bit offset) per
  /// changed cell + one row-copy pass (skipped when the order is
  /// unchanged), vs. Rebuild's O(k) hashes per candidate. Nothing scales
  /// with m or re-reads whole rows. The first call after a Rebuild that
  /// gets past the log check also builds the owner index: 2·n·k hashes
  /// and n·k bucket stores, paid once per Rebuild.
  ///
  /// Fallbacks to a full Rebuild() of the same candidates (bit-identical
  /// result) happen when the log cannot describe the change — it
  /// overflowed its max(1024, m/64) cap, or its generation is not the one
  /// this index recorded at its last snapshot (the sketch was merged into,
  /// loaded or restored, or another consumer cleared it) — and when the
  /// affected fraction exceeds QueryOptions::refresh_fallback_fraction.
  /// Several incremental consumers of one sketch therefore stay correct
  /// but rebuild each other's snapshots: each one's clear invalidates the
  /// others' generation. Returns true when the incremental path ran,
  /// false when it fell back.
  bool RefreshDirty();

  /// True once an incremental Rebuild() has taken a snapshot (i.e.
  /// RefreshDirty() may be called).
  bool CanRefresh() const {
    return query_options_.incremental && snapshot_taken_;
  }

  /// The `k` candidates most similar to `query` (by Ĵ, descending;
  /// excluding the query itself if present among candidates). When the
  /// query is a candidate its snapshot row is reused; otherwise its digest
  /// is extracted from the live sketch.
  std::vector<Entry> TopK(UserId query, size_t k) const;

  /// All unordered candidate pairs with Ĵ ≥ `jaccard_threshold`,
  /// descending by Ĵ (ties by (u, v)). Runs on the tiled pair-scan tier
  /// (core/pair_scan.h); bit-identical to AllPairsAboveReference.
  std::vector<Pair> AllPairsAbove(double jaccard_threshold) const;

  /// Scalar reference implementation of TopK: single-threaded, per-user
  /// BitVector digests, one estimator (log) call per pair. Kept as the
  /// ground truth for bit-identity tests and as the bench baseline.
  std::vector<Entry> TopKReference(UserId query, size_t k) const;

  /// Scalar reference implementation of AllPairsAbove (see TopKReference).
  std::vector<Pair> AllPairsAboveReference(double jaccard_threshold) const;

  size_t candidate_count() const { return candidates_.size(); }

  /// The candidate set of the last Rebuild, in the caller's order.
  const std::vector<UserId>& candidates() const { return candidates_; }

  /// β captured at the last Rebuild (exposed for diagnostics).
  double snapshot_beta() const { return beta_; }

  /// VosEstimator::LogBetaTerm(snapshot_beta()) — the β log term every
  /// estimate from this snapshot uses. The cross-shard query planner
  /// combines two of these (core/query_planner.h).
  double log_beta_term() const { return log_beta_term_; }

  /// Matrix row of `user` (first occurrence among candidates), or npos.
  /// The planner reads snapshot rows by user through this.
  size_t RowIndexOf(UserId user) const { return RowOf(user); }

  /// Cardinality snapshot of matrix row p (rows are cardinality-sorted).
  uint32_t row_cardinality(size_t p) const { return cards_by_row_[p]; }

  /// All row cardinalities in matrix-row order (non-decreasing); the
  /// planner's cross-shard window search binary-searches this directly.
  const std::vector<uint32_t>& row_cardinalities() const {
    return cards_by_row_;
  }

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// The packed digest snapshot (exposed for tests and diagnostics).
  /// Rows are stored in cardinality-sorted order — row p belongs to
  /// candidate sorted_to_candidate(p) — so the all-pairs sweep streams
  /// contiguous memory.
  const DigestMatrix& matrix() const { return matrix_; }

  /// The candidate-list index owning matrix row p.
  size_t sorted_to_candidate(size_t p) const { return sorted_rows_[p]; }

  const QueryOptions& query_options() const { return query_options_; }
  void set_query_options(const QueryOptions& options) {
    query_options_ = options;
  }

  /// Affected-candidate fraction of the last snapshot (1.0 after a full
  /// Rebuild, including RefreshDirty's fallbacks). A diagnostic: it shows
  /// how much of the snapshot each refresh had to patch.
  double last_refresh_dirty_fraction() const {
    return last_refresh_dirty_fraction_;
  }

 private:
  /// The matrix-row order: cardinality ascending, ties by candidate
  /// index (shared by Rebuild's sort and RefreshDirty's merge, so both
  /// produce the identical deterministic order).
  bool RowBefore(uint32_t a, uint32_t b) const;

  /// Recomputes row_of_orig_ and cards_by_row_ from sorted_rows_.
  void IndexSortedRows();

  /// Reference-path estimate from two BitVector digests.
  PairEstimate EstimateFromDigests(const BitVector& a, uint32_t card_a,
                                   const BitVector& b, uint32_t card_b) const;

  /// Batch-path estimate from two packed rows.
  PairEstimate EstimateRows(const uint64_t* a, uint32_t card_a,
                            const uint64_t* b, uint32_t card_b) const;

  /// TopK core over an explicit query row + cardinality.
  std::vector<Entry> TopKFromRow(UserId query, const uint64_t* query_row,
                                 uint32_t query_card, size_t k) const;

  /// Row index of `user` among the candidates, or npos.
  size_t RowOf(UserId user) const;

  /// Builds the owner index (bucket_*_) for the current candidates.
  void BuildOwners();

  static constexpr size_t kNpos = npos;

  const VosSketch* sketch_;
  VosEstimator estimator_;
  QueryOptions query_options_;
  std::vector<UserId> candidates_;
  /// Digest rows in cardinality-sorted order (ties by candidate index):
  /// the sweep order that turns the τ cardinality bound into a loop break
  /// while streaming the matrix contiguously.
  DigestMatrix matrix_;
  /// Cardinalities in candidate order (reference paths, diagnostics).
  std::vector<uint32_t> cardinalities_;
  /// Cardinalities aligned with matrix rows (non-decreasing).
  std::vector<uint32_t> cards_by_row_;
  /// sorted_rows_[p] = candidate index owning matrix row p.
  std::vector<uint32_t> sorted_rows_;
  /// row_of_orig_[i] = matrix row of candidate index i.
  std::vector<uint32_t> row_of_orig_;
  /// user → candidate index (first occurrence); built only at Rebuild,
  /// since candidate indices are stable across refreshes.
  std::unordered_map<UserId, uint32_t> candidate_of_;
  /// log_alpha_table_[d] = VosEstimator::LogAlphaTerm(d / k) for every
  /// Hamming distance d in [0, k]; built once in the constructor (it
  /// depends only on k, so neither Rebuild nor RefreshDirty touches it).
  std::vector<double> log_alpha_table_;
  double beta_ = 0.0;
  /// VosEstimator::LogBetaTerm(beta_), captured at Rebuild.
  double log_beta_term_ = 0.0;
  /// Affected fraction of the last snapshot (1.0 for a full Rebuild).
  double last_refresh_dirty_fraction_ = 1.0;
  // --- Incremental-maintenance state (QueryOptions::incremental) -------
  /// Set by an incremental Rebuild: RefreshDirty may run.
  bool snapshot_taken_ = false;
  /// The sketch's flip-log generation right after this index's last
  /// clear; RefreshDirty patches from the log only while it still matches.
  uint64_t flip_log_generation_ = 0;
  /// Reused target of RefreshDirty's reorder copy (swapped with matrix_).
  DigestMatrix spare_;
  /// Counting-sorted owner index over cell words, empty until
  /// BuildOwners: the (candidate, bit) pairs whose cell f_j(candidate)
  /// lies in array word w are slots bucket_offsets_[w] ..
  /// bucket_offsets_[w+1]; slot s holds the entry i·k + j in
  /// bucket_entries_[s] and the cell's bit within the word in
  /// bucket_bits_[s], so a changed cell's exact owners (expected n·k/m)
  /// are found by scanning its own bucket alone.
  std::vector<uint32_t> bucket_offsets_;
  std::vector<uint32_t> bucket_entries_;
  std::vector<uint8_t> bucket_bits_;
};

}  // namespace vos::core
