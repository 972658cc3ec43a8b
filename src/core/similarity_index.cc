#include "core/similarity_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/popcount.h"
#include "core/pair_scan.h"
#include "core/scan_common.h"

namespace vos::core {
namespace {

// Result orders and the dynamic worker pool are shared with the planner
// (core/scan_common.h) — both paths must sort and schedule identically.
using scan::EntryBefore;
using scan::PairBefore;

template <typename Work>
void RunBlocks(unsigned threads, size_t num_blocks, const Work& work) {
  scan::RunIndexed(threads, num_blocks, work);
}

}  // namespace

SimilarityIndex::SimilarityIndex(const VosSketch& sketch,
                                 VosEstimatorOptions options,
                                 QueryOptions query_options)
    : sketch_(&sketch),
      estimator_(sketch.config().k, options),
      query_options_(query_options),
      log_alpha_table_(estimator_.BuildLogAlphaTable()) {}

bool SimilarityIndex::RowBefore(uint32_t a, uint32_t b) const {
  return cardinalities_[a] != cardinalities_[b]
             ? cardinalities_[a] < cardinalities_[b]
             : a < b;
}

void SimilarityIndex::IndexSortedRows() {
  const size_t n = candidates_.size();
  row_of_orig_.resize(n);
  cards_by_row_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const uint32_t i = sorted_rows_[p];
    row_of_orig_[i] = static_cast<uint32_t>(p);
    cards_by_row_[p] = cardinalities_[i];
  }
}

void SimilarityIndex::Rebuild(std::vector<UserId> candidates) {
  candidates_ = std::move(candidates);
  const size_t n = candidates_.size();
  cardinalities_.clear();
  cardinalities_.reserve(n);
  for (UserId u : candidates_) {
    cardinalities_.push_back(sketch_->Cardinality(u));
  }
  sorted_rows_.resize(n);
  for (size_t i = 0; i < n; ++i) sorted_rows_[i] = static_cast<uint32_t>(i);
  std::sort(sorted_rows_.begin(), sorted_rows_.end(),
            [this](uint32_t a, uint32_t b) { return RowBefore(a, b); });
  IndexSortedRows();
  candidate_of_.clear();
  candidate_of_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // emplace keeps the first occurrence of a repeated user.
    candidate_of_.emplace(candidates_[i], static_cast<uint32_t>(i));
  }
  std::vector<UserId> ordered_users(n);
  for (size_t p = 0; p < n; ++p) {
    ordered_users[p] = candidates_[sorted_rows_[p]];
  }
  matrix_ =
      DigestMatrix::Build(*sketch_, ordered_users, query_options_.num_threads);
  // A Rebuild may change the candidate set, so it drops the owner index;
  // the first RefreshDirty that patches builds it again.
  bucket_offsets_.clear();
  bucket_entries_.clear();
  bucket_bits_.clear();
  snapshot_taken_ = query_options_.incremental;
  if (!query_options_.incremental) {
    spare_.Clear();
  } else {
    VOS_CHECK(sketch_->tracks_dirty())
        << "incremental index needs a sketch with VosConfig::track_dirty";
    VOS_CHECK(sketch_->config().m <= uint64_t{0xffffffff})
        << "the flip log stores cells as uint32; m too large";
    VOS_CHECK(n * sketch_->config().k <= uint64_t{0xffffffff})
        << "incremental index entries are uint32; candidates*k too large";
    sketch_->ClearDirtyUsers();
    flip_log_generation_ = sketch_->flip_log_generation();
  }
  beta_ = sketch_->beta();
  log_beta_term_ = estimator_.LogBetaTerm(beta_);
  last_refresh_dirty_fraction_ = 1.0;
}

void SimilarityIndex::BuildOwners() {
  // Counting sort over cell words. Cells depend only on the user, never on
  // the array, so they are hashed afresh — once to count each word's
  // owners, once to place them — instead of being kept in an n·k buffer
  // next to the entries. Counts land in bucket_offsets_[w], the prefix sum
  // turns each into its bucket's end, and placing decrements it to the
  // bucket's start.
  const size_t n = candidates_.size();
  const uint32_t k = sketch_->config().k;
  const size_t num_words = (sketch_->config().m + 63) / 64;
  bucket_offsets_.assign(num_words + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < k; ++j) {
      ++bucket_offsets_[sketch_->CellOf(candidates_[i], j) >> 6];
    }
  }
  uint32_t total = 0;
  for (uint32_t& offset : bucket_offsets_) {
    total += offset;
    offset = total;
  }
  bucket_entries_.resize(total);
  bucket_bits_.resize(total);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = static_cast<uint32_t>(i) * k;
    for (uint32_t j = 0; j < k; ++j) {
      const uint64_t cell = sketch_->CellOf(candidates_[i], j);
      const uint32_t slot = --bucket_offsets_[cell >> 6];
      bucket_entries_[slot] = row + j;
      bucket_bits_[slot] = static_cast<uint8_t>(cell & 63);
    }
  }
}

bool SimilarityIndex::RefreshDirty() {
  VOS_CHECK(query_options_.incremental)
      << "RefreshDirty needs QueryOptions::incremental";
  VOS_CHECK(CanRefresh())
      << "RefreshDirty before the first incremental Rebuild";
  // The flip log describes every change since this snapshot only while
  // it is complete and still the generation this index cleared; after an
  // overflow, a bulk replacement (MergeFrom, load, Restore) or another
  // consumer's clear, re-snapshot from scratch.
  if (sketch_->flip_log_overflowed() ||
      sketch_->flip_log_generation() != flip_log_generation_) {
    Rebuild(std::move(candidates_));
    return false;
  }
  if (bucket_offsets_.empty()) BuildOwners();
  const size_t n = candidates_.size();
  const uint32_t k = sketch_->config().k;

  // Affected candidates = dirty users (covers cardinality changes — those
  // never flip a cell) ∪ owners of a changed cell (covers every digest
  // change, including shared-cell flips from other users' updates). A
  // cell flipped an even number of times is unchanged, so the sorted log
  // is cancelled by parity first; every surviving cell's owners are the
  // slots of its word's bucket that record its bit offset.
  std::vector<uint8_t> affected(n, 0);
  if (!sketch_->dirty_users().empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (sketch_->IsDirty(candidates_[i])) affected[i] = 1;
    }
  }
  std::vector<uint32_t> flips = sketch_->flip_log();
  std::sort(flips.begin(), flips.end());
  std::vector<uint32_t> patches;  // entries i·k + j whose bit flips
  for (size_t a = 0; a < flips.size();) {
    const uint32_t cell = flips[a];
    size_t b = a + 1;
    while (b < flips.size() && flips[b] == cell) ++b;
    if ((b - a) % 2 == 1) {
      const uint32_t w = cell >> 6;
      const uint8_t bit = static_cast<uint8_t>(cell & 63);
      for (uint32_t s = bucket_offsets_[w]; s < bucket_offsets_[w + 1]; ++s) {
        if (bucket_bits_[s] == bit) {
          const uint32_t entry = bucket_entries_[s];
          affected[entry / k] = 1;
          patches.push_back(entry);
        }
      }
    }
    a = b;
  }

  // Adaptive fallback: past QueryOptions::refresh_fallback_fraction
  // affected candidates, re-snapshot from scratch.
  std::vector<uint32_t> moved;
  for (size_t i = 0; i < n; ++i) {
    if (affected[i]) moved.push_back(static_cast<uint32_t>(i));
  }
  if (static_cast<double>(moved.size()) >
      query_options_.refresh_fallback_fraction * static_cast<double>(n)) {
    Rebuild(std::move(candidates_));
    return false;
  }

  // Re-sort: clean rows keep their cardinalities and hence their relative
  // order, so only the affected rows are sorted and merged back in — the
  // same total order a full sort yields.
  for (const uint32_t i : moved) {
    cardinalities_[i] = sketch_->Cardinality(candidates_[i]);
  }
  const auto before = [this](uint32_t a, uint32_t b) {
    return RowBefore(a, b);
  };
  if (!moved.empty()) {
    std::sort(moved.begin(), moved.end(), before);
    std::vector<uint32_t> kept;
    kept.reserve(n - moved.size());
    for (const uint32_t i : sorted_rows_) {
      if (!affected[i]) kept.push_back(i);
    }
    std::merge(kept.begin(), kept.end(), moved.begin(), moved.end(),
               sorted_rows_.begin(), before);
  }
  std::vector<uint32_t> old_row_of_orig;
  old_row_of_orig.swap(row_of_orig_);
  IndexSortedRows();

  // Rows move into the new order in the spare matrix (one memcpy each),
  // then every changed cell's bit is flipped in place: a row's bit j is
  // A[f_j(candidates[i])], so XOR-ing the changed cells reproduces a fresh
  // extraction exactly.
  if (row_of_orig_ != old_row_of_orig) {
    if (spare_.rows() != n || spare_.k() != k) spare_ = DigestMatrix(k, n);
    const size_t words = matrix_.words_per_row();
    const size_t block = 64;
    const size_t num_blocks = (n + block - 1) / block;
    const unsigned threads =
        ResolveThreadCount(query_options_.num_threads, num_blocks);
    RunBlocks(threads, num_blocks, [&](size_t b) {
      const size_t end = std::min(n, (b + 1) * block);
      for (size_t p = b * block; p < end; ++p) {
        std::memcpy(spare_.MutableRow(p),
                    matrix_.Row(old_row_of_orig[sorted_rows_[p]]),
                    words * sizeof(uint64_t));
      }
    });
    std::swap(matrix_, spare_);
  }
  for (const uint32_t entry : patches) {
    const uint32_t i = entry / k;
    const uint32_t j = entry - i * k;
    matrix_.MutableRow(row_of_orig_[i])[j >> 6] ^= uint64_t{1} << (j & 63);
  }

  sketch_->ClearDirtyUsers();
  flip_log_generation_ = sketch_->flip_log_generation();
  beta_ = sketch_->beta();
  log_beta_term_ = estimator_.LogBetaTerm(beta_);
  last_refresh_dirty_fraction_ =
      n == 0 ? 0.0
             : static_cast<double>(moved.size()) / static_cast<double>(n);
  return true;
}

size_t SimilarityIndex::RowOf(UserId user) const {
  const auto it = candidate_of_.find(user);
  return it == candidate_of_.end() ? kNpos : row_of_orig_[it->second];
}

PairEstimate SimilarityIndex::EstimateFromDigests(const BitVector& a,
                                                  uint32_t card_a,
                                                  const BitVector& b,
                                                  uint32_t card_b) const {
  const double alpha = static_cast<double>(a.HammingDistance(b)) /
                       sketch_->config().k;
  return estimator_.Estimate(card_a, card_b, alpha, beta_);
}

PairEstimate SimilarityIndex::EstimateRows(const uint64_t* a, uint32_t card_a,
                                           const uint64_t* b,
                                           uint32_t card_b) const {
  const size_t d = XorPopcount(a, b, matrix_.words_per_row());
  return estimator_.EstimateFromLogTerms(card_a, card_b, log_alpha_table_[d],
                                         log_beta_term_);
}

// ----------------------------------------------------------------- TopK

std::vector<SimilarityIndex::Entry> SimilarityIndex::TopKFromRow(
    UserId query, const uint64_t* query_row, uint32_t query_card,
    size_t k) const {
  const size_t n = matrix_.rows();
  const auto scan = [&](size_t begin, size_t end, std::vector<Entry>* out) {
    for (size_t p = begin; p < end; ++p) {
      const UserId candidate = candidates_[sorted_rows_[p]];
      if (candidate == query) continue;
      const PairEstimate est = EstimateRows(
          query_row, query_card, matrix_.Row(p), cards_by_row_[p]);
      out->push_back({candidate, est.common, est.jaccard});
    }
  };

  std::vector<Entry> entries;
  entries.reserve(n);
  const size_t block = std::max<size_t>(query_options_.block_size, 1);
  const size_t num_blocks = (n + block - 1) / block;
  const unsigned threads =
      ResolveThreadCount(query_options_.num_threads, num_blocks);
  if (threads <= 1) {
    scan(0, n, &entries);
  } else {
    std::vector<std::vector<Entry>> per_block(num_blocks);
    RunBlocks(threads, num_blocks, [&](size_t b) {
      const size_t begin = b * block;
      scan(begin, std::min(n, begin + block), &per_block[b]);
    });
    for (const auto& chunk : per_block) {
      entries.insert(entries.end(), chunk.begin(), chunk.end());
    }
  }
  const size_t take = std::min(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + take, entries.end(),
                    EntryBefore);
  entries.resize(take);
  return entries;
}

std::vector<SimilarityIndex::Entry> SimilarityIndex::TopK(UserId query,
                                                          size_t k) const {
  if (candidates_.empty()) return {};
  const size_t row = RowOf(query);
  if (row != kNpos) {
    // Snapshot reuse: the query's digest and cardinality were captured at
    // Rebuild; no per-call re-extraction.
    return TopKFromRow(query, matrix_.Row(row), cards_by_row_[row], k);
  }
  std::vector<uint64_t> query_row(matrix_.words_per_row());
  DigestMatrix::ExtractRow(*sketch_, query, query_row.data());
  return TopKFromRow(query, query_row.data(), sketch_->Cardinality(query), k);
}

std::vector<SimilarityIndex::Entry> SimilarityIndex::TopKReference(
    UserId query, size_t k) const {
  if (candidates_.empty()) return {};
  BitVector query_digest;
  uint32_t query_card = 0;
  const size_t row = RowOf(query);
  if (row != kNpos) {
    query_digest = matrix_.RowAsBitVector(row);
    query_card = cards_by_row_[row];
  } else {
    query_digest = sketch_->ExtractUserSketch(query);
    query_card = sketch_->Cardinality(query);
  }
  std::vector<Entry> entries;
  entries.reserve(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i] == query) continue;
    const PairEstimate est = EstimateFromDigests(
        query_digest, query_card, matrix_.RowAsBitVector(row_of_orig_[i]),
        cardinalities_[i]);
    entries.push_back({candidates_[i], est.common, est.jaccard});
  }
  const size_t take = std::min(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + take, entries.end(),
                    EntryBefore);
  entries.resize(take);
  return entries;
}

// ----------------------------------------------------------- AllPairsAbove

std::vector<SimilarityIndex::Pair> SimilarityIndex::AllPairsAbove(
    double jaccard_threshold) const {
  std::vector<Pair> pairs;
  if (matrix_.rows() < 2) return pairs;
  // One triangle pass on the shared tiled scan tier; the prefilter is
  // sound only where Ĵ is monotone in ŝ over the clamped feasible range,
  // so the gate resolves here (scan::PrefilterApplies) exactly as the
  // planner resolves it.
  pair_scan::ScanParams params;
  params.jaccard_threshold = jaccard_threshold;
  params.prefilter =
      scan::PrefilterApplies(query_options_.prefilter,
                             estimator_.options().clamp_to_feasible,
                             jaccard_threshold);
  params.estimator = &estimator_;
  params.log_alpha_table = &log_alpha_table_;

  pair_scan::Pass pass;
  pass.a = pass.b = pair_scan::MatrixView{&matrix_, cards_by_row_.data()};
  pass.triangle = true;
  pass.log_beta_pair = log_beta_term_;
  pass.emit = [this](size_t p, size_t q, const PairEstimate& est,
                     std::vector<Pair>& out) {
    // Canonical orientation: smaller candidate index first, as the
    // reference loop emits.
    const uint32_t oi = sorted_rows_[p];
    const uint32_t oj = sorted_rows_[q];
    const uint32_t u = std::min(oi, oj);
    const uint32_t v = std::max(oi, oj);
    out.push_back({candidates_[u], candidates_[v], est.common, est.jaccard});
  };

  pairs = pair_scan::RunPasses({pass}, params, query_options_.tile_rows,
                               query_options_.num_threads);
  std::sort(pairs.begin(), pairs.end(), PairBefore);
  return pairs;
}

std::vector<SimilarityIndex::Pair> SimilarityIndex::AllPairsAboveReference(
    double jaccard_threshold) const {
  const size_t n = matrix_.rows();
  std::vector<BitVector> digests;
  digests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    digests.push_back(matrix_.RowAsBitVector(row_of_orig_[i]));
  }
  std::vector<Pair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const PairEstimate est = EstimateFromDigests(
          digests[i], cardinalities_[i], digests[j], cardinalities_[j]);
      if (est.jaccard >= jaccard_threshold) {
        pairs.push_back({candidates_[i], candidates_[j], est.common,
                         est.jaccard});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), PairBefore);
  return pairs;
}

}  // namespace vos::core
