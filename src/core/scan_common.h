// Shared building blocks of the query engine's scans: QueryPlanner's TopK
// loop and the tiled all-pairs passes of core/pair_scan.h.
//
// Everything the scans and their references must agree on lives here
// exactly once: the result record types and their total orders, the
// dynamic worker pool, and the conservative prefilter math (slack
// regime, phase-split policy, confinement test). Tuning any of these in
// one scan but not another would silently diverge results under specific
// cardinality distributions — keeping them in one header makes the
// lockstep structural.
//
// Internal to core/; not part of the public query API (callers see the
// records as QueryPlanner::Entry / QueryPlanner::Pair aliases).

#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "stream/element.h"

namespace vos::core::scan {

/// One TopK answer (aliased as QueryPlanner::Entry).
struct Entry {
  stream::UserId user = 0;  ///< the matched candidate
  double common = 0.0;      ///< ŝ (estimated common items with the query)
  double jaccard = 0.0;     ///< Ĵ
};

/// One thresholded pair (aliased as QueryPlanner::Pair).
struct Pair {
  stream::UserId u = 0;
  stream::UserId v = 0;
  double common = 0.0;
  double jaccard = 0.0;
};

/// Total order on TopK entries: Ĵ descending, then user ascending —
/// the batch scan and the scalar reference both sort to this.
inline bool EntryBefore(const Entry& a, const Entry& b) {
  return a.jaccard != b.jaccard ? a.jaccard > b.jaccard : a.user < b.user;
}

/// Total order on thresholded pairs: Ĵ descending, then (u, v) ascending.
inline bool PairBefore(const Pair& a, const Pair& b) {
  if (a.jaccard != b.jaccard) return a.jaccard > b.jaccard;
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

/// Runs `work(i)` for every i in [0, count) across `threads` workers
/// pulling ids from a shared counter (dynamic balancing for triangular /
/// mixed-cost workloads). `threads` is clamped to ≥ 1 here — callers
/// normally pass ResolveThreadCount output, but an unclamped 0 would
/// underflow the unsigned pool reservation below to ~4e9. Callers merge
/// per-unit outputs in unit order, so results are independent of the
/// schedule.
template <typename Work>
void RunIndexed(unsigned threads, size_t count, const Work& work) {
  if (threads == 0) threads = 1;
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      work(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

// --- Conservative prefilter math (see pair_scan.cc ScanTriangleTile for
// the full derivation; every slack is orders above FP rounding so no
// boundary pair the estimator would keep is ever dropped) --------------

/// The prefilter's gating condition, resolved identically by every scan
/// engine: the cardinality/alpha bounds are sound only where Ĵ is
/// monotone in the clamped ŝ (clamp_to_feasible) and τ is meaningfully
/// positive.
inline bool PrefilterApplies(bool prefilter_requested, bool clamped,
                             double jaccard_threshold) {
  return prefilter_requested && clamped && jaccard_threshold > 1e-5;
}

/// The cardinality-bound fail test: a pair whose smaller (clamp-limited)
/// cardinality is `min_card` cannot reach Ĵ ≥ τ when
/// min_card < τ/(1+τ)·(n_u+n_v) − slack. `tau_frac` = τ/(1+τ); `sum` =
/// n_u + n_v. Monotone in either cardinality with the other fixed, so
/// window ends over sorted rows are partition points.
inline bool CardinalityFail(double min_card, double sum, double tau_frac) {
  return min_card < tau_frac * sum - 1e-6 * (sum + 1.0);
}

/// ŝ_raw ≥ τ/(1+τ)·sum ⟺ L(d) ≥ CutScale(τ,k)·sum + [2·ln|1−2β| term];
/// the scale of the cardinality sum in that log-alpha cut.
inline double CutScale(double tau_frac, uint32_t k) {
  return (tau_frac - 0.5) * (4.0 / k);
}

/// The cut with its conservative slack applied.
inline double SlackedCut(double la_cut) {
  return la_cut - 1e-6 * (std::fabs(la_cut) + 1.0);
}

/// Early-exit split policy: the micro-kernels popcount the first ~3/4 of
/// each row (rounded down to the 4-word unroll), then the confinement
/// check decides whether the tail can still matter; short rows skip the
/// split. The position only decides where the (always sound) check runs,
/// never the result.
inline size_t Phase1Words(size_t words) {
  return words >= 16 ? (words * 3 / 4) & ~size_t{3} : words;
}

/// Confinement test: a partial distance d over `seen_bits` bits confines
/// the final distance to [d, d + (k − seen_bits)]. The pass set on d is
/// [0, lo_end) ∪ [hi_begin, k] (`table` = ln|1−2·d/k| is non-increasing
/// up to k/2 and non-decreasing after), so the pair provably fails when
/// the interval misses both pass regions.
inline bool ConfinedFail(const std::vector<double>& table, uint32_t k,
                         size_t d, size_t seen_bits, double cut) {
  const size_t mid = k / 2;
  const size_t d_max = std::min<size_t>(d + (k - seen_bits), k);
  return (d > mid || table[d] < cut) && (d_max < mid || table[d_max] < cut);
}

}  // namespace vos::core::scan
