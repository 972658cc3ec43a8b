#include "core/pair_scan.h"

#include <algorithm>
#include <cmath>

#include "common/popcount.h"
#include "core/query_optimizer.h"

namespace vos::core::pair_scan {
namespace {

using scan::Pair;

/// One unit of RunPasses work: a tile of a pass.
struct ScanUnit {
  size_t pass = 0;
  size_t a_begin = 0, a_end = 0;
  size_t b_begin = 0, b_end = 0;
};

/// Exact scan of one triangle tile: pairs {(p, q) : p ∈ [a_begin, a_end),
/// q ∈ [max(p+1, b_begin), b_end)} of the pass's (single) sorted matrix.
/// This is the pre-tier SimilarityIndex::ScanSortedBlock sweep with the
/// partner range clamped to the tile — the per-row admissible window is
/// the global partition point intersected with [b_begin, b_end), so the
/// tiles of one pass enumerate exactly the pre-tier pair set, each pair
/// once, with the identical phase-split/confinement/exact-screen math.
void ScanTriangleTile(const Pass& pass, const ScanParams& params,
                      size_t a_begin, size_t a_end, size_t b_begin,
                      size_t b_end, std::vector<Pair>* out) {
  const DigestMatrix& m = *pass.a.matrix;
  const uint32_t* cards = pass.a.cards;
  const size_t words = m.words_per_row();
  const uint32_t k = m.k();
  const std::vector<double>& table = *params.log_alpha_table;
  const VosEstimator& estimator = *params.estimator;
  const double tau = params.jaccard_threshold;
  const double log_beta = pass.log_beta_pair;

  if (!params.prefilter) {
    for (size_t p = a_begin; p < a_end; ++p) {
      const uint64_t* row_i = m.Row(p);
      const double card_i = cards[p];
      for (size_t q = std::max(p + 1, b_begin); q < b_end; ++q) {
        const size_t d = XorPopcount(row_i, m.Row(q), words);
        const PairEstimate est = estimator.EstimateFromLogTerms(
            card_i, cards[q], table[d], log_beta);
        if (est.jaccard >= tau) pass.emit(p, q, est, *out);
      }
    }
    return;
  }

  const double tau_frac = tau / (1.0 + tau);
  const size_t phase1_words = scan::Phase1Words(words);
  const bool split = phase1_words != words;
  const size_t phase1_bits = std::min<size_t>(phase1_words * 64, k);
  const double cut_scale = scan::CutScale(tau_frac, k);

  // Admissible window of row p, clamped to the tile's partner range. In
  // sorted order card_p is the pair's min throughout the window, so the
  // fail test is scan::CardinalityFail on card_p and the window end is a
  // partition point (see scan_common.h).
  const auto window_end = [&](size_t p, double card_i) {
    const size_t search_begin = std::max(p + 1, b_begin);
    if (search_begin >= b_end) return search_begin;
    const uint32_t* it = std::partition_point(
        cards + search_begin, cards + b_end, [&](uint32_t card_j) {
          return !scan::CardinalityFail(card_i, card_i + card_j, tau_frac);
        });
    return static_cast<size_t>(it - cards);
  };

  // Finishes pair (p, q) given the pair's phase-1 distance: confinement
  // test against the slacked log-alpha cut, tail popcount for survivors,
  // exact table screen, then the estimator.
  const auto finish = [&](size_t p, const uint64_t* row_i, double card_i,
                          size_t q, size_t d) {
    const double card_j = cards[q];
    const double cut =
        scan::SlackedCut(cut_scale * (card_i + card_j) + 2.0 * log_beta);
    if (scan::ConfinedFail(table, k, d, phase1_bits, cut)) return;
    if (split) {
      d += XorPopcount(row_i + phase1_words, m.Row(q) + phase1_words,
                       words - phase1_words);
    }
    if (table[d] < cut) return;
    const PairEstimate est =
        estimator.EstimateFromLogTerms(card_i, card_j, table[d], log_beta);
    if (est.jaccard >= tau) pass.emit(p, q, est, *out);
  };

  const auto scan_1x8 = [&](size_t p, const uint64_t* row_i, double card_i,
                            size_t q, size_t q_end) {
    size_t d8[8];
    for (; q + 8 <= q_end; q += 8) {
      XorPopcount8(row_i, m.Row(q), words, phase1_words, d8);
      for (size_t t = 0; t < 8; ++t) finish(p, row_i, card_i, q + t, d8[t]);
    }
    for (; q < q_end; ++q) {
      finish(p, row_i, card_i, q,
             XorPopcount(row_i, m.Row(q), phase1_words));
    }
  };

  // Pair up adjacent p-rows: their windows are nested (cards are sorted,
  // so row p+1 admits every partner row p does), letting the shared range
  // run on the 2×4 micro-kernel — each partner row load feeds two pairs.
  size_t p = a_begin;
  for (; p + 2 <= a_end; p += 2) {
    const uint64_t* row_a = m.Row(p);
    const uint64_t* row_b = m.Row(p + 1);
    const double card_a = cards[p];
    const double card_b = cards[p + 1];
    const size_t q_end_a = window_end(p, card_a);
    const size_t q_end_b = window_end(p + 1, card_b);
    // Pair (p, p+1) belongs to this tile only when p+1 is inside the
    // partner range (diagonal tiles).
    if (p + 1 >= b_begin && p + 1 < q_end_a) {
      finish(p, row_a, card_a, p + 1,
             XorPopcount(row_a, row_b, phase1_words));
    }
    size_t q = std::max(p + 2, b_begin);
    const size_t shared_begin = q;
    size_t d8[8];
    for (; q + 4 <= q_end_a; q += 4) {
      XorPopcount2x4(row_a, row_b, m.Row(q), words, phase1_words, d8);
      for (size_t t = 0; t < 4; ++t) {
        finish(p, row_a, card_a, q + t, d8[t]);
        finish(p + 1, row_b, card_b, q + t, d8[4 + t]);
      }
    }
    for (; q < q_end_a; ++q) {
      finish(p, row_a, card_a, q,
             XorPopcount(row_a, m.Row(q), phase1_words));
      finish(p + 1, row_b, card_b, q,
             XorPopcount(row_b, m.Row(q), phase1_words));
    }
    scan_1x8(p + 1, row_b, card_b, std::max(q_end_a, shared_begin), q_end_b);
  }
  for (; p < a_end; ++p) {
    scan_1x8(p, m.Row(p), cards[p], std::max(p + 1, b_begin),
             window_end(p, cards[p]));
  }
}

/// Exact scan of one rectangle tile: rows [a_begin, a_end) of side a
/// against rows [b_begin, b_end) of side b. The pre-tier
/// QueryPlanner::ScanCrossShardBlock sweep with both ends of the
/// two-sided cardinality window clamped to the tile's partner range.
void ScanRectTile(const Pass& pass, const ScanParams& params, size_t a_begin,
                  size_t a_end, size_t b_begin, size_t b_end,
                  std::vector<Pair>* out) {
  const DigestMatrix& ma = *pass.a.matrix;
  const DigestMatrix& mb = *pass.b.matrix;
  const uint32_t* cards_a = pass.a.cards;
  const uint32_t* cards_b = pass.b.cards;
  const size_t words = ma.words_per_row();
  const uint32_t k = ma.k();
  const std::vector<double>& table = *params.log_alpha_table;
  const VosEstimator& estimator = *params.estimator;
  const double tau = params.jaccard_threshold;
  const double log_beta = pass.log_beta_pair;

  if (!params.prefilter) {
    for (size_t p = a_begin; p < a_end; ++p) {
      const uint64_t* row_a = ma.Row(p);
      const double card_a = cards_a[p];
      for (size_t q = b_begin; q < b_end; ++q) {
        const size_t d = XorPopcount(row_a, mb.Row(q), words);
        const PairEstimate est = estimator.EstimateFromLogTerms(
            card_a, cards_b[q], table[d], log_beta);
        if (est.jaccard >= tau) pass.emit(p, q, est, *out);
      }
    }
    return;
  }

  const double tau_frac = tau / (1.0 + tau);
  const size_t phase1_words = scan::Phase1Words(words);
  const bool split = phase1_words != words;
  const size_t phase1_bits = std::min<size_t>(phase1_words * 64, k);
  const double cut_scale = scan::CutScale(tau_frac, k);

  for (size_t p = a_begin; p < a_end; ++p) {
    const uint64_t* row_a = ma.Row(p);
    const double card_a = cards_a[p];
    // Two-sided admissible window over b's cardinality-sorted rows,
    // clamped to the tile: below the window the partner is the min and
    // too small, above it card_a is the min and too small; both fail
    // predicates are monotone in the partner's cardinality, so both ends
    // are partition points and out-of-window pairs are never enumerated.
    const uint32_t* lo_it = std::partition_point(
        cards_b + b_begin, cards_b + b_end, [&](uint32_t card_j) {
          return scan::CardinalityFail(card_j, card_a + card_j, tau_frac);
        });
    const uint32_t* hi_it =
        std::partition_point(lo_it, cards_b + b_end, [&](uint32_t card_j) {
          return !scan::CardinalityFail(card_a, card_a + card_j, tau_frac);
        });
    size_t q = static_cast<size_t>(lo_it - cards_b);
    const size_t q_end = static_cast<size_t>(hi_it - cards_b);

    const auto finish = [&](size_t qq, size_t d) {
      const double card_b = cards_b[qq];
      const double cut =
          scan::SlackedCut(cut_scale * (card_a + card_b) + 2.0 * log_beta);
      if (scan::ConfinedFail(table, k, d, phase1_bits, cut)) return;
      size_t d_full = d;
      if (split) {
        d_full += XorPopcount(row_a + phase1_words, mb.Row(qq) + phase1_words,
                              words - phase1_words);
      }
      if (table[d_full] < cut) return;
      const PairEstimate est = estimator.EstimateFromLogTerms(
          card_a, card_b, table[d_full], log_beta);
      if (est.jaccard >= tau) pass.emit(p, qq, est, *out);
    };

    size_t d8[8];
    for (; q + 8 <= q_end; q += 8) {
      XorPopcount8(row_a, mb.Row(q), words, phase1_words, d8);
      for (size_t i = 0; i < 8; ++i) finish(q + i, d8[i]);
    }
    for (; q < q_end; ++q) {
      finish(q, XorPopcount(row_a, mb.Row(q), phase1_words));
    }
  }
}

}  // namespace

std::vector<scan::Pair> RunPasses(const std::vector<Pass>& passes,
                                  const ScanParams& params, size_t tile_rows,
                                  unsigned num_threads) {
  size_t tile = tile_rows;
  const double tau_frac =
      params.jaccard_threshold / (1.0 + params.jaccard_threshold);
  std::vector<ScanUnit> units;
  for (size_t pi = 0; pi < passes.size(); ++pi) {
    const Pass& pass = passes[pi];
    const size_t n_a = pass.a.rows();
    const size_t n_b = pass.triangle ? n_a : pass.b.rows();
    if (n_a == 0 || n_b == 0 || (pass.triangle && n_a < 2)) continue;
    if (tile == 0) {
      // Tile size never changes results, only locality: size it from the
      // digest row width (equal across passes) and the cache hierarchy.
      tile = optimizer::AdaptiveTileRows(pass.a.matrix->words_per_row());
    }
    if (pass.triangle) {
      for (size_t a0 = 0; a0 < n_a; a0 += tile) {
        const size_t a1 = std::min(n_a, a0 + tile);
        for (size_t b0 = a0; b0 < n_a; b0 += tile) {
          const size_t b1 = std::min(n_a, b0 + tile);
          if (params.prefilter && b0 > a0) {
            // Tile-level window prune: the most admissible pair of an
            // off-diagonal tile is the largest a-row against the
            // smallest b-row (CardinalityFail is monotone both ways);
            // if even that pair fails, no pair in the tile can pass.
            const double card_p = pass.a.cards[a1 - 1];
            if (scan::CardinalityFail(card_p, card_p + pass.a.cards[b0],
                                      tau_frac)) {
              break;  // later b-blocks only grow the partner cardinality
            }
          }
          ScanUnit unit;
          unit.pass = pi;
          unit.a_begin = a0;
          unit.a_end = a1;
          unit.b_begin = b0;
          unit.b_end = b1;
          units.push_back(unit);
        }
      }
    } else {
      for (size_t a0 = 0; a0 < n_a; a0 += tile) {
        const size_t a1 = std::min(n_a, a0 + tile);
        size_t lo = 0, hi = n_b;
        if (params.prefilter) {
          // Block-level window: lo/hi are non-decreasing in the a-row,
          // so the union of the block's per-row windows is
          // [lo(first row), hi(last row)) — tiles outside it hold only
          // provably failing pairs.
          const double card_first = pass.a.cards[a0];
          const double card_last = pass.a.cards[a1 - 1];
          const uint32_t* lo_it = std::partition_point(
              pass.b.cards, pass.b.cards + n_b, [&](uint32_t card_j) {
                return scan::CardinalityFail(card_j, card_first + card_j,
                                             tau_frac);
              });
          const uint32_t* hi_it = std::partition_point(
              lo_it, pass.b.cards + n_b, [&](uint32_t card_j) {
                return !scan::CardinalityFail(card_last, card_last + card_j,
                                              tau_frac);
              });
          lo = static_cast<size_t>(lo_it - pass.b.cards);
          hi = static_cast<size_t>(hi_it - pass.b.cards);
        }
        for (size_t b0 = 0; b0 < n_b; b0 += tile) {
          const size_t b1 = std::min(n_b, b0 + tile);
          if (params.prefilter && (b1 <= lo || b0 >= hi)) continue;
          ScanUnit unit;
          unit.pass = pi;
          unit.a_begin = a0;
          unit.a_end = a1;
          unit.b_begin = b0;
          unit.b_end = b1;
          units.push_back(unit);
        }
      }
    }
  }
  std::vector<scan::Pair> merged;
  if (units.empty()) return merged;

  const auto run_unit = [&](size_t i, std::vector<scan::Pair>* out) {
    const ScanUnit& unit = units[i];
    const Pass& pass = passes[unit.pass];
    if (pass.triangle) {
      ScanTriangleTile(pass, params, unit.a_begin, unit.a_end, unit.b_begin,
                       unit.b_end, out);
    } else {
      ScanRectTile(pass, params, unit.a_begin, unit.a_end, unit.b_begin,
                   unit.b_end, out);
    }
  };

  const unsigned threads = ResolveThreadCount(num_threads, units.size());
  if (threads <= 1) {
    // Sequential unit order — identical to the concatenation below.
    for (size_t i = 0; i < units.size(); ++i) run_unit(i, &merged);
    return merged;
  }
  std::vector<std::vector<scan::Pair>> per_unit(units.size());
  scan::RunIndexed(threads, units.size(),
                   [&](size_t i) { run_unit(i, &per_unit[i]); });
  size_t total = 0;
  for (const auto& chunk : per_unit) total += chunk.size();
  merged.reserve(total);
  for (const auto& chunk : per_unit) {
    merged.insert(merged.end(), chunk.begin(), chunk.end());
  }
  return merged;
}

}  // namespace vos::core::pair_scan
