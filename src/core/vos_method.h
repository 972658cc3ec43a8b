// SimilarityMethod adapter for VOS: sketch + estimator + query snapshot.
//
// EstimatePair on raw VosSketch costs O(k) hash evaluations per user; with
// hundreds of tracked users and tens of thousands of tracked pairs per
// checkpoint that work is quadratic in pairs. PrepareQuery snapshots the
// tracked users' reconstructed k-bit sketches once into a QueryPlanner
// (core/query_planner.h) — the one query engine, shared with
// ShardedVosMethod — so a pair estimate is a single word-wise
// XOR+popcount row kernel plus a log-table lookup (no transcendental calls
// on the pair loop; see VosEstimator::EstimateFromLogTerms for the
// bit-identity argument). The planner refreshes incrementally exactly when
// the sketch keeps a flip log (VosConfig::track_dirty, the default, with
// m ≤ 2^32); a refreshing snapshot additionally holds an owner index of
// 5 bytes per candidate-bit once it first refreshes (see
// QueryOptions::incremental).

#pragma once

#include <memory>

#include "common/bit_vector.h"
#include "core/query_planner.h"
#include "core/similarity_method.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {

/// VOS as a pluggable SimilarityMethod.
class VosMethod : public SimilarityMethod {
 public:
  VosMethod(const VosConfig& config, UserId num_users,
            VosEstimatorOptions options = {});
  /// The planner points into this object's sketch: not copyable/movable.
  VosMethod(const VosMethod&) = delete;
  VosMethod& operator=(const VosMethod&) = delete;

  std::string Name() const override { return "VOS"; }

  void Update(const Element& e) override { sketch_.Update(e); }

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override { return sketch_.MemoryBits(); }

  void PrepareQuery(const std::vector<UserId>& users) override;
  void InvalidateQueryCache() override { prepared_ = false; }
  void SetQueryThreads(unsigned num_threads) override {
    planner_.set_num_threads(num_threads);
  }

  const VosSketch& sketch() const { return sketch_; }

  /// A fresh query engine over this method's sketch, snapshotted on
  /// `candidates` with the last SetQueryThreads worker count. The planner
  /// follows the usual snapshot semantics (core/query_planner.h): call
  /// Rebuild after ingesting more stream; callers drive
  /// TopK/AllPairsAbove on it. It is never incremental, so it leaves the
  /// sketch's dirty set to the method's own PrepareQuery snapshot.
  std::unique_ptr<QueryPlanner> MakeIndex(
      std::vector<UserId> candidates) const;

 private:
  VosSketch sketch_;
  /// The PrepareQuery snapshot. EstimatePair reads it between
  /// PrepareQuery and InvalidateQueryCache, and its live estimate
  /// otherwise.
  QueryPlanner planner_;
  bool prepared_ = false;
};

/// Ablation baseline: the dedicated (non-virtual) odd sketch of [9], one
/// private k-bit array per user. Same estimator with β = 0. Under an equal
/// total memory budget each user gets far fewer bits than VOS's virtual k
/// (no sharing), which is the design point the paper's virtualization
/// argument rests on.
class DedicatedOddSketchMethod : public SimilarityMethod {
 public:
  /// `bits_per_user` — k of each private odd sketch.
  DedicatedOddSketchMethod(uint32_t bits_per_user, UserId num_users,
                           uint64_t seed, VosEstimatorOptions options = {});

  std::string Name() const override { return "OddSketch"; }

  void Update(const Element& e) override;

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override;

 private:
  uint32_t bits_per_user_;
  uint64_t psi_seed_;
  VosEstimator estimator_;
  std::vector<BitVector> sketches_;
  std::vector<uint32_t> cardinality_;
};

}  // namespace vos::core
