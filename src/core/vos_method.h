// SimilarityMethod adapter for VOS: sketch + estimator + batch query cache.
//
// EstimatePair on raw VosSketch costs O(k) hash evaluations per user; with
// hundreds of tracked users and tens of thousands of tracked pairs per
// checkpoint that work is quadratic in pairs. PrepareQuery materializes the
// tracked users' reconstructed k-bit sketches once — into a contiguous
// DigestMatrix, extracted thread-parallel — so a pair estimate is a single
// word-wise XOR+popcount row kernel plus a log-table lookup (no
// transcendental calls on the pair loop; see
// VosEstimator::EstimateFromLogTerms for the bit-identity argument).

#pragma once

#include <memory>
#include <unordered_map>

#include "common/bit_vector.h"
#include "core/digest_matrix.h"
#include "core/similarity_index.h"
#include "core/similarity_method.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {

/// VOS as a pluggable SimilarityMethod.
class VosMethod : public SimilarityMethod {
 public:
  /// `query_options` configures batch scans built through MakeIndex()
  /// (tile_rows, prefilter; the method_factory's tile_rows lands here);
  /// the per-pair EstimatePair path ignores it.
  VosMethod(const VosConfig& config, UserId num_users,
            VosEstimatorOptions options = {}, QueryOptions query_options = {});

  std::string Name() const override { return "VOS"; }

  void Update(const Element& e) override { sketch_.Update(e); }

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override { return sketch_.MemoryBits(); }

  void PrepareQuery(const std::vector<UserId>& users) override;
  void InvalidateQueryCache() override {
    cache_.Clear();
    cache_rows_.clear();
  }
  void SetQueryThreads(unsigned num_threads) override {
    query_threads_ = num_threads;
  }

  const VosSketch& sketch() const { return sketch_; }
  const VosEstimator& estimator() const { return estimator_; }
  const QueryOptions& query_options() const { return query_options_; }

  /// A snapshot SimilarityIndex over `candidates`, configured with this
  /// method's QueryOptions (so factory knobs such as tile_rows and the
  /// last SetQueryThreads govern its scans). The returned index
  /// follows the usual snapshot semantics (core/similarity_index.h);
  /// callers drive TopK/AllPairsAbove on it directly.
  std::unique_ptr<SimilarityIndex> MakeIndex(
      std::vector<UserId> candidates) const;

 private:
  /// Returns the cached digest for `user`, or extracts one on the fly
  /// (slow path for users outside the PrepareQuery set).
  BitVector DigestFor(UserId user) const;

  VosSketch sketch_;
  VosEstimator estimator_;
  QueryOptions query_options_;
  /// ln|1−2·d/k| per Hamming distance d ∈ [0, k] (see SimilarityIndex).
  std::vector<double> log_alpha_table_;
  DigestMatrix cache_;
  std::unordered_map<UserId, size_t> cache_rows_;
  /// ln|1−2β| memoized at PrepareQuery; EstimatePair revalidates against
  /// the live β (one compare), so estimates always reflect the current
  /// fill while the unchanged-β hot loop pays no log.
  double cached_beta_ = -1.0;
  double cached_log_beta_term_ = 0.0;
  unsigned query_threads_ = 0;
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
