// Closed-form estimators and theoretical moments of VOS (§IV).
//
// Given the observed 1-bit fraction α of the XOR-combined reconstructed
// sketches of a pair and the array fill β, the paper derives
//
//   E[α] ≈ (1 − (1−2β)² · e^{−2·nΔ/k}) / 2
//   n̂Δ  = −k·(ln(1−2α) − 2·ln(1−2β)) / 2
//   ŝ   = (n_u+n_v)/2 + k·(ln|1−2α| − 2·ln|1−2β|)/4
//   Ĵ   = ŝ / (n_u + n_v − ŝ)
//
// plus approximations of E[ŝ] and Var[ŝ]. This header implements all of
// them, with explicit saturation handling: ln(1−2α) is undefined for
// α ≥ ½, which the paper sidesteps with |1−2α|; we do the same and
// optionally clamp ŝ to its feasible range [0, min(n_u, n_v)] (clamping is
// applied uniformly to every method by the harness, DESIGN.md §5.3).

#pragma once

#include <cstdint>
#include <vector>

#include "core/similarity_method.h"

namespace vos::core {

/// Numerical guards and estimator options.
struct VosEstimatorOptions {
  /// Clamp ŝ to [0, min(n_u, n_v)] (and Ĵ to [0, 1]).
  bool clamp_to_feasible = true;
  /// |1−2α| and |1−2β| are floored at this value before taking logs, so a
  /// saturated sketch yields a large finite estimate instead of ±∞.
  double log_arg_floor = 1e-12;
};

/// Stateless estimator functions parameterized by (k, options).
class VosEstimator {
 public:
  explicit VosEstimator(uint32_t k, VosEstimatorOptions options = {})
      : k_(k), options_(options) {}

  /// n̂Δ from observed α and β.
  double EstimateSymmetricDifference(double alpha, double beta) const;

  /// ŝ_uv from cardinalities, observed α and β.
  double EstimateCommonItems(double n_u, double n_v, double alpha,
                             double beta) const;

  // --- Precomputed-log entry points (the batch query engine) ---
  //
  // ŝ depends on α and β only through ln(max(|1−2α|, floor)) and
  // ln(max(|1−2β|, floor)). Since α = d/k takes just k+1 values for a
  // Hamming distance d, a batch engine can tabulate LogAlphaTerm once per
  // index build and estimate each pair without any transcendental calls.
  // EstimateCommonItems(n_u, n_v, α, β) is *defined* as
  // EstimateCommonItemsFromLogTerms(n_u, n_v, LogAlphaTerm(α),
  // LogBetaTerm(β)), so the two paths are bit-identical by construction.

  /// ln(max(|1−2α|, floor)) — the α-dependent log term of ŝ.
  double LogAlphaTerm(double alpha) const;

  /// LogAlphaTerm(d / k) for every Hamming distance d in [0, k] — the
  /// lookup table the batch scans index by d. Built here (once per
  /// QueryPlanner) so the tabulated values can never diverge from the
  /// live path.
  std::vector<double> BuildLogAlphaTable() const;

  /// ln(max(|1−2β|, floor)) — the β-dependent log term of ŝ.
  double LogBetaTerm(double beta) const;

  /// ŝ_uv from cardinalities and the two precomputed log terms.
  double EstimateCommonItemsFromLogTerms(double n_u, double n_v,
                                         double log_alpha_term,
                                         double log_beta_term) const;

  /// Convenience: (ŝ, Ĵ) from cardinalities and precomputed log terms.
  PairEstimate EstimateFromLogTerms(double n_u, double n_v,
                                    double log_alpha_term,
                                    double log_beta_term) const;

  /// Ĵ from a ŝ estimate (the paper computes Ĵ = ŝ/(n_u+n_v−ŝ)).
  double JaccardFromCommon(double common, double n_u, double n_v) const;

  /// Containment Ĉ(u→v) = ŝ/n_u — the fraction of u's items v also holds
  /// (asymmetric; the measure behind "is u's set a subset of v's?").
  /// Returns 0 when n_u = 0; clamped to [0, 1] when clamping is enabled.
  double ContainmentFromCommon(double common, double n_u) const;

  /// Szymkiewicz–Simpson overlap coefficient ŝ/min(n_u, n_v); 0 when
  /// either set is empty.
  double OverlapFromCommon(double common, double n_u, double n_v) const;

  /// Convenience: both estimates at once.
  PairEstimate Estimate(double n_u, double n_v, double alpha,
                        double beta) const;

  /// A ŝ estimate with a ±z·σ confidence band derived from the §IV
  /// variance approximation (σ evaluated at the *estimated* symmetric
  /// difference). The band is clamped to the feasible range when clamping
  /// is enabled.
  struct IntervalEstimate {
    double common = 0.0;  ///< point estimate ŝ
    double lo = 0.0;      ///< ŝ − z·σ̂ (clamped)
    double hi = 0.0;      ///< ŝ + z·σ̂ (clamped)
    double sigma = 0.0;   ///< σ̂ from the variance formula
  };

  /// Point estimate plus a confidence band at `z` standard deviations
  /// (z = 1.96 ≈ 95% under the normal approximation).
  IntervalEstimate EstimateWithConfidence(double n_u, double n_v,
                                          double alpha, double beta,
                                          double z = 1.96) const;

  // --- Theoretical moments (§IV), used by tests and the ablation bench ---

  /// E[α] for a pair with true symmetric difference nΔ under fill β.
  double ExpectedAlpha(double n_delta, double beta) const;

  /// Approximate E[ŝ] (paper's expectation formula).
  double ExpectedCommonEstimate(double s, double n_delta, double beta) const;

  /// Approximate Var[ŝ] (paper's variance formula). Note: the printed
  /// formula's β term carries a k² factor where the bit-level delta-method
  /// derivation gives k (see bench/ablation_estimator_moments.cc); kept
  /// verbatim for fidelity. Confidence intervals use the delta-method
  /// variance below, whose coverage is verified by Monte-Carlo tests.
  double VarianceCommonEstimate(double n_delta, double beta) const;

  /// Delta-method plug-in variance of ŝ given the *observed* α:
  /// Var[ŝ] ≈ k·α(1−α) / (4·(1−2α)²).
  double DeltaMethodVariance(double alpha) const;

  uint32_t k() const { return k_; }
  const VosEstimatorOptions& options() const { return options_; }

 private:
  /// ln(max(|x|, floor)).
  double SafeLogAbs(double x) const;

  uint32_t k_;
  VosEstimatorOptions options_;
};

}  // namespace vos::core
