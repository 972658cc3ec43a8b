// Work statistics and tile sizing for the pair-scan tier.
//
// The all-pairs query has one plan, the exact tiled scan
// (core/pair_scan.h). This header holds the two pieces of arithmetic
// that sit beside it:
//
//   * Triangle/RectangleWindowPairs count the pairs a pass enumerates:
//     the pairs inside the conservative τ cardinality window, found with
//     the same scan::CardinalityFail predicate the scan uses, so the count
//     is the scan's work and not a bound. QueryPlanner::PlanAllPairs
//     reports one count per pass (PassReport) for benches and diagnostics.
//   * AdaptiveTileRows sizes a scan tile from the digest row width and the
//     detected cache hierarchy (per-core L2 / LLC share), so a tile's two
//     row ranges stay resident while its pairs are popcounted. It resolves
//     QueryOptions::tile_rows == 0 inside pair_scan::RunPasses. Tile size
//     never changes results, only locality.
//
// Everything here is pure and deterministic within a process.
//
// Internal to core/; not part of the public query API.

#pragma once

#include <cstddef>
#include <cstdint>

namespace vos::core::optimizer {

/// Work statistics of one pair-scan pass.
struct PassStats {
  bool triangle = true;
  size_t rows_a = 0;
  size_t rows_b = 0;  ///< == rows_a for triangles
  /// Pairs inside the conservative cardinality windows: what the exact
  /// tiled scan enumerates (Triangle/RectangleWindowPairs below).
  size_t exact_pairs = 0;
};

/// One pass's statistics, as reported by QueryPlanner::PlanAllPairs.
struct PassReport {
  PassStats stats;
};

/// Exact count of pairs the triangle scan enumerates: the sum over rows p
/// of the conservative cardinality window [p+1, end_p) over the
/// non-decreasing `cards` (the same scan::CardinalityFail predicate the
/// scan uses). The window ends are monotone in p, so one two-pointer
/// sweep suffices: O(n), no popcounts. With `prefilter` false this is
/// n·(n−1)/2.
size_t TriangleWindowPairs(const uint32_t* cards, size_t n, double tau,
                           bool prefilter);

/// Rectangle twin: sum over a-rows of the two-sided window over b's
/// sorted cards. O(n_a + n_b).
size_t RectangleWindowPairs(const uint32_t* cards_a, size_t n_a,
                            const uint32_t* cards_b, size_t n_b, double tau,
                            bool prefilter);

/// Tile edge for QueryOptions::tile_rows == 0: sized so a tile's two row
/// ranges (2 · tile · words · 8 bytes) fit in about half the per-core
/// cache budget — min(L2, LLC / cores), detected once from sysfs (256 KiB
/// when detection fails). Clamped to [64, 2048] and rounded down to a
/// multiple of 8. Deterministic per process.
size_t AdaptiveTileRows(size_t words_per_row);

}  // namespace vos::core::optimizer
