// SimilarityMethod adapter for ShardedVosSketch: the sharded write path
// behind the same harness interface as every other method.
//
// Update/UpdateBatch feed the concurrent ingest pipeline; FlushIngest
// quiesces it (the harness calls it at every checkpoint). PrepareQuery
// flushes, then snapshots the tracked users into a QueryPlanner
// (core/query_planner.h) — the one query engine, shared with VosMethod —
// holding one SimilarityIndex per shard, each user extracted from its
// owning shard under its dense local id. EstimatePair is then a
// word-wise XOR+popcount between two snapshot rows plus log-table
// lookups; rows from different shards are directly comparable (shared ψ,
// equal k), only the β correction switches to the two-shard form (see
// core/sharded_vos_sketch.h). When the shards keep a flip log
// (VosConfig::track_dirty with per-shard m ≤ 2^32) the planner is
// incremental: every PrepareQuery over the SAME tracked set refreshes the
// snapshots shard-locally (SimilarityIndex::RefreshDirty, with its
// adaptive full-rebuild fallback) instead of re-extracting every row.

#pragma once

#include <vector>

#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_method.h"

namespace vos::core {

/// Sharded VOS as a pluggable SimilarityMethod ("VOS-sharded").
class ShardedVosMethod : public SimilarityMethod {
 public:
  ShardedVosMethod(const ShardedVosConfig& config, UserId num_users,
                   VosEstimatorOptions options = {});

  std::string Name() const override { return "VOS-sharded"; }

  void Update(const Element& e) override { sketch_.Update(e); }
  void UpdateBatch(const Element* elements, size_t count) override {
    sketch_.UpdateBatch(elements, count);
  }
  /// Producer-lane ingest: distinct lanes in
  /// [0, ConcurrentIngestProducers()) may feed concurrently, each from
  /// one thread (see core/sharded_vos_sketch.h).
  void UpdateBatch(const Element* elements, size_t count,
                   unsigned producer) override {
    sketch_.UpdateBatch(elements, count, producer);
  }
  /// Quiesces the pipeline and surfaces its sticky health: a poisoned
  /// shard / starved lane / exceeded budget comes back as the non-OK
  /// Status (see core/sharded_vos_sketch.h). Queries keep serving — the
  /// last PrepareQuery snapshot stays valid — but new data is the
  /// caller's to stop sending.
  Status FlushIngest() override { return sketch_.Flush(); }
  Status FlushIngest(unsigned producer) override {
    return sketch_.FlushProducer(producer);
  }
  unsigned ConcurrentIngestProducers() const override {
    return sketch_.num_producers();
  }

  /// Atomic whole-pipeline checkpoint / recovery (forwards to
  /// ShardedVosSketch; see there for the watermark contract). Restore
  /// additionally stops EstimatePair serving the pre-restore snapshot;
  /// the next PrepareQuery rebuilds it (the restored shards renew their
  /// flip-log generations, so a refresh falls back to a rebuild).
  Status Checkpoint(const std::string& path) {
    return sketch_.Checkpoint(path);
  }
  Status Restore(const std::string& path);

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override { return sketch_.MemoryBits(); }

  void PrepareQuery(const std::vector<UserId>& users) override;
  void InvalidateQueryCache() override { prepared_ = false; }
  void SetQueryThreads(unsigned num_threads) override {
    planner_.set_num_threads(num_threads);
  }

  const ShardedVosSketch& sketch() const { return sketch_; }
  ShardedVosSketch& mutable_sketch() { return sketch_; }

  /// The PrepareQuery snapshot, for callers that want TopK/AllPairsAbove
  /// over the tracked set (and for tests).
  const QueryPlanner& planner() const { return planner_; }

 private:
  ShardedVosSketch sketch_;
  QueryPlanner planner_;
  /// EstimatePair reads the planner between PrepareQuery and
  /// InvalidateQueryCache, the live sketch otherwise.
  bool prepared_ = false;
};

}  // namespace vos::core
