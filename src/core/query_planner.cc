#include "core/query_planner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/popcount.h"
#include "core/pair_scan.h"
#include "core/scan_common.h"

namespace vos::core {
namespace {

using scan::EntryBefore;
using scan::PairBefore;

template <typename Work>
void RunTasks(unsigned threads, size_t num_tasks, const Work& work) {
  scan::RunIndexed(threads, num_tasks, work);
}

/// Raise-only publish of a shared lower bound (TopK's gathered k-th best
/// Ĵ). Relaxed ordering is enough: the bound is a monotone hint — any
/// stale read only prunes less.
void PublishBound(std::atomic<double>* bound, double candidate) {
  double current = bound->load(std::memory_order_relaxed);
  while (candidate > current &&
         !bound->compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
  }
}

/// The resolved worker count of `requested` (0 = hardware concurrency).
unsigned Workers(unsigned requested) {
  return ResolveThreadCount(requested, ~size_t{0});
}

/// A snapshot's options: the planner builds and refreshes its snapshots
/// side by side, one task each, so each snapshot gets an equal share of
/// the workers — all of them when there is one — and no more than
/// num_threads threads ever run.
QueryOptions IndexOptions(QueryOptions options, size_t num_shards) {
  options.num_threads = std::max<unsigned>(
      1, Workers(options.num_threads) / static_cast<unsigned>(num_shards));
  return options;
}

/// Minimum rows per TopK task when a shard is split across workers: below
/// it a thread's start-up outweighs its share of the scan.
constexpr size_t kTopKChunkRows = 128;

}  // namespace

QueryPlanner::QueryPlanner(const ShardedVosSketch& sketch,
                           VosEstimatorOptions estimator_options,
                           QueryOptions query_options)
    : QueryPlanner(&sketch, &sketch.shard(0), estimator_options,
                   query_options) {}

QueryPlanner::QueryPlanner(const VosSketch& sketch,
                           VosEstimatorOptions estimator_options,
                           QueryOptions query_options)
    : QueryPlanner(nullptr, &sketch, estimator_options, query_options) {}

QueryPlanner::QueryPlanner(const ShardedVosSketch* sharded,
                           const VosSketch* plain,
                           VosEstimatorOptions estimator_options,
                           QueryOptions query_options)
    : sharded_(sharded),
      num_users_(sharded != nullptr ? sharded->num_users()
                                    : plain->num_users()),
      estimator_(plain->config().k, estimator_options),
      query_options_(query_options),
      log_alpha_table_(estimator_.BuildLogAlphaTable()) {
  // One index per shard, bound to the shard's VosSketch (local id space).
  const uint32_t num_shards = sharded != nullptr ? sharded->num_shards() : 1;
  const QueryOptions per_index = IndexOptions(query_options_, num_shards);
  indexes_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    indexes_.push_back(std::make_unique<SimilarityIndex>(
        sharded != nullptr ? sharded->shard(s) : *plain, estimator_options,
        per_index));
  }
}

void QueryPlanner::set_num_threads(unsigned num_threads) {
  query_options_.num_threads = num_threads;
  for (auto& index : indexes_) {
    index->set_query_options(IndexOptions(query_options_, indexes_.size()));
  }
}

QueryPlanner::Slot QueryPlanner::Locate(UserId user) const {
  VOS_CHECK(user < num_users_)
      << "user" << user << "out of range: the sketch has" << num_users_
      << "users";
  if (sharded_ == nullptr) return {0, user};
  return {sharded_->ShardOf(user), sharded_->LocalIdOf(user)};
}

void QueryPlanner::Rebuild(std::vector<UserId> candidates) {
  VOS_DCHECK(sharded_ == nullptr || !sharded_->HasPendingIngest())
      << "Rebuild on a non-quiesced pipeline; call Flush() first";
  candidates_ = std::move(candidates);
  std::vector<std::vector<UserId>> locals(num_shards());
  for (const UserId user : candidates_) {
    const Slot slot = Locate(user);
    locals[slot.shard].push_back(slot.local);
  }
  RunTasks(ResolveThreadCount(query_options_.num_threads, num_shards()),
           num_shards(),
           [&](size_t s) { indexes_[s]->Rebuild(std::move(locals[s])); });
}

bool QueryPlanner::Refresh() {
  VOS_CHECK(query_options_.incremental)
      << "Refresh needs QueryOptions::incremental";
  VOS_DCHECK(sharded_ == nullptr || !sharded_->HasPendingIngest())
      << "Refresh on a non-quiesced pipeline; call Flush() first";
  std::vector<uint8_t> incremental(num_shards(), 0);
  RunTasks(ResolveThreadCount(query_options_.num_threads, num_shards()),
           num_shards(), [&](size_t s) {
             incremental[s] = indexes_[s]->RefreshDirty() ? 1 : 0;
           });
  return std::all_of(incremental.begin(), incremental.end(),
                     [](uint8_t i) { return i != 0; });
}

void QueryPlanner::Prepare(const std::vector<UserId>& candidates) {
  // Every snapshot is rebuilt together, so shard 0 speaks for all.
  if (indexes_[0]->CanRefresh() && candidates == candidates_) {
    Refresh();
  } else {
    Rebuild(candidates);
  }
}

std::vector<optimizer::PassReport> QueryPlanner::PlanAllPairs(
    double jaccard_threshold) const {
  const bool prefilter =
      scan::PrefilterApplies(query_options_.prefilter,
                             estimator_.options().clamp_to_feasible,
                             jaccard_threshold);
  std::vector<optimizer::PassReport> reports;
  const uint32_t num_shards = this->num_shards();
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<uint32_t>& cards = indexes_[s]->row_cardinalities();
    if (cards.size() < 2) continue;
    optimizer::PassReport report;
    report.stats.triangle = true;
    report.stats.rows_a = report.stats.rows_b = cards.size();
    report.stats.exact_pairs = optimizer::TriangleWindowPairs(
        cards.data(), cards.size(), jaccard_threshold, prefilter);
    reports.push_back(report);
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<uint32_t>& cards_a = indexes_[s]->row_cardinalities();
    if (cards_a.empty()) continue;
    for (uint32_t t = s + 1; t < num_shards; ++t) {
      const std::vector<uint32_t>& cards_b = indexes_[t]->row_cardinalities();
      if (cards_b.empty()) continue;
      optimizer::PassReport report;
      report.stats.triangle = false;
      report.stats.rows_a = cards_a.size();
      report.stats.rows_b = cards_b.size();
      report.stats.exact_pairs = optimizer::RectangleWindowPairs(
          cards_a.data(), cards_a.size(), cards_b.data(), cards_b.size(),
          jaccard_threshold, prefilter);
      reports.push_back(report);
    }
  }
  return reports;
}

std::vector<QueryPlanner::Pair> QueryPlanner::AllPairsAbove(
    double jaccard_threshold) const {
  std::vector<Pair> pairs;
  const uint32_t num_shards = this->num_shards();
  // Describe the whole pair space as pair_scan passes: one triangle per
  // shard plus one rectangle per shard pair. The tier decomposes every
  // pass into tiles and dispatches them to ONE pool, so a hot shard's
  // triangle runs as many units instead of one serialized task.
  pair_scan::ScanParams params;
  params.jaccard_threshold = jaccard_threshold;
  params.prefilter =
      scan::PrefilterApplies(query_options_.prefilter,
                             estimator_.options().clamp_to_feasible,
                             jaccard_threshold);
  params.estimator = &estimator_;
  params.log_alpha_table = &log_alpha_table_;

  std::vector<pair_scan::Pass> passes;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const SimilarityIndex& index = *indexes_[s];
    if (index.matrix().rows() < 2) continue;
    pair_scan::Pass pass;
    pass.a = pass.b = pair_scan::MatrixView{&index.matrix(),
                                            index.row_cardinalities().data()};
    pass.triangle = true;
    pass.log_beta_pair = index.log_beta_term();
    pass.emit = [this, s](size_t p, size_t q, const PairEstimate& est,
                          std::vector<Pair>& out) {
      const UserId gu = GlobalOfRow(s, p);
      const UserId gv = GlobalOfRow(s, q);
      out.push_back({std::min(gu, gv), std::max(gu, gv), est.common,
                     est.jaccard});
    };
    passes.push_back(std::move(pass));
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    const SimilarityIndex& ia = *indexes_[s];
    if (ia.matrix().rows() == 0) continue;
    for (uint32_t t = s + 1; t < num_shards; ++t) {
      const SimilarityIndex& ib = *indexes_[t];
      if (ib.matrix().rows() == 0) continue;
      pair_scan::Pass pass;
      pass.a = pair_scan::MatrixView{&ia.matrix(),
                                     ia.row_cardinalities().data()};
      pass.b = pair_scan::MatrixView{&ib.matrix(),
                                     ib.row_cardinalities().data()};
      pass.triangle = false;
      // Cross-shard β correction: each digest carries its own shard's
      // contamination, so the estimator takes the mean of the two
      // log-beta terms — identical to ShardedVosSketch::EstimatePair.
      pass.log_beta_pair = 0.5 * (ia.log_beta_term() + ib.log_beta_term());
      pass.emit = [this, s, t](size_t p, size_t q, const PairEstimate& est,
                               std::vector<Pair>& out) {
        const UserId gu = GlobalOfRow(s, p);
        const UserId gv = GlobalOfRow(t, q);
        out.push_back({std::min(gu, gv), std::max(gu, gv), est.common,
                       est.jaccard});
      };
      passes.push_back(std::move(pass));
    }
  }
  if (passes.empty()) return pairs;

  pairs = pair_scan::RunPasses(passes, params, query_options_.tile_rows,
                               query_options_.num_threads);
  std::sort(pairs.begin(), pairs.end(), PairBefore);
  return pairs;
}

std::vector<QueryPlanner::Entry> QueryPlanner::TopK(UserId query,
                                                    size_t k) const {
  const Slot query_slot = Locate(query);
  if (k == 0 || candidates_.empty()) return {};
  const SimilarityIndex& query_index = *indexes_[query_slot.shard];
  const size_t words = DigestMatrix::WordsPerRow(estimator_.k());

  // Query digest: snapshot row when the query is a candidate, live
  // extraction from its owning shard otherwise.
  std::vector<uint64_t> extracted;
  const uint64_t* query_row = nullptr;
  uint32_t query_card = 0;
  const size_t query_pos = query_index.RowIndexOf(query_slot.local);
  if (query_pos != SimilarityIndex::npos) {
    query_row = query_index.matrix().Row(query_pos);
    query_card = query_index.row_cardinality(query_pos);
  } else {
    extracted.resize(words);
    DigestMatrix::ExtractRow(query_index.sketch(), query_slot.local,
                             extracted.data());
    query_row = extracted.data();
    query_card = query_index.sketch().Cardinality(query_slot.local);
  }
  const double log_beta_query = query_index.log_beta_term();

  // Scatter: one task per shard index — or, with more workers than
  // shards, per contiguous row chunk of a shard, so a lone snapshot still
  // scans on every worker. Gather under a shared global threshold bound:
  // each task publishes its current k-th best Ĵ (a lower bound on the
  // final k-th best — the merged top-k can only be better than any one
  // task's) and prunes rows whose clamped Ĵ provably falls below a
  // published bound before popcounting. Strict-inequality conservative ⇒
  // bit-identical to the unpruned scan for any schedule and split.
  const bool prune = estimator_.options().clamp_to_feasible;
  std::atomic<double> bound{-1.0};
  const uint32_t num_shards = this->num_shards();
  const unsigned workers = Workers(query_options_.num_threads);
  size_t chunks = 1;  // per shard
  if (workers > num_shards) {
    size_t max_rows = 0;
    for (const auto& index : indexes_) {
      max_rows = std::max(max_rows, index->matrix().rows());
    }
    chunks = std::clamp<size_t>(max_rows / kTopKChunkRows, 1,
                                (workers + num_shards - 1) / num_shards);
  }
  std::vector<std::vector<Entry>> per_task(num_shards * chunks);
  RunTasks(
      ResolveThreadCount(workers, per_task.size()), per_task.size(),
      [&](size_t task) {
        const size_t s = task / chunks;
        const SimilarityIndex& index = *indexes_[s];
        const DigestMatrix& matrix = index.matrix();
        const size_t rows = matrix.rows();
        const size_t begin = rows * (task % chunks) / chunks;
        const size_t end = rows * (task % chunks + 1) / chunks;
        if (begin == end) return;
        const double log_beta_pair =
            0.5 * (log_beta_query + index.log_beta_term());
        std::vector<Entry>& kept = per_task[task];
        const size_t trim_at = std::max<size_t>(2 * k, 256);
        // The query's own row, when it is a candidate of this shard.
        const size_t skip_row = s == query_slot.shard ? query_pos : rows;
        // Ĵ ≤ min/(sum−min) under clamping, so a row can reach the bound
        // only while min ≥ bound/(1+bound)·sum (up to the all-pairs
        // prefilter's slack): bound_frac is refreshed with the bound.
        double local_bound = 0.0;
        double bound_frac = 0.0;
        const auto load_bound = [&] {
          local_bound = bound.load(std::memory_order_relaxed);
          if (local_bound > 0.0) {
            bound_frac = local_bound / (1.0 + local_bound);
          }
        };
        load_bound();
        const auto trim = [&] {
          if (kept.size() <= k) return;
          std::partial_sort(kept.begin(),
                            kept.begin() + static_cast<ptrdiff_t>(k),
                            kept.end(), EntryBefore);
          kept.resize(k);
          PublishBound(&bound, kept.back().jaccard);
          load_bound();
        };
        for (size_t p = begin; p < end; ++p) {
          if (p == skip_row) continue;
          const double card_v = index.row_cardinality(p);
          // Prune when even the ceiling is strictly below the bound.
          if (prune && local_bound > 0.0 &&
              scan::CardinalityFail(std::min<double>(query_card, card_v),
                                    query_card + card_v, bound_frac)) {
            continue;
          }
          const size_t d = XorPopcount(query_row, matrix.Row(p), words);
          const PairEstimate est = estimator_.EstimateFromLogTerms(
              query_card, card_v, log_alpha_table_[d], log_beta_pair);
          kept.push_back({GlobalOfRow(static_cast<uint32_t>(s), p),
                          est.common, est.jaccard});
          if (kept.size() >= trim_at) trim();
        }
        trim();
      });

  std::vector<Entry> entries;
  size_t total = 0;
  for (const auto& chunk : per_task) total += chunk.size();
  entries.reserve(total);
  for (const auto& chunk : per_task) {
    entries.insert(entries.end(), chunk.begin(), chunk.end());
  }
  const size_t take = std::min(k, entries.size());
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<ptrdiff_t>(take),
                    entries.end(), EntryBefore);
  entries.resize(take);
  return entries;
}

PairEstimate QueryPlanner::EstimatePair(UserId u, UserId v) const {
  const Slot su = Locate(u);
  const Slot sv = Locate(v);
  const SimilarityIndex& iu = *indexes_[su.shard];
  const SimilarityIndex& iv = *indexes_[sv.shard];
  const size_t pu = iu.RowIndexOf(su.local);
  const size_t pv = iv.RowIndexOf(sv.local);
  if (pu == SimilarityIndex::npos || pv == SimilarityIndex::npos) {
    return EstimateLive(ExtractLive(su), ExtractLive(sv));
  }
  const size_t d = XorPopcount(iu.matrix().Row(pu), iv.matrix().Row(pv),
                               iu.matrix().words_per_row());
  return estimator_.EstimateFromLogTerms(
      iu.row_cardinality(pu), iv.row_cardinality(pv), log_alpha_table_[d],
      0.5 * (iu.log_beta_term() + iv.log_beta_term()));
}

PairEstimate QueryPlanner::EstimateLivePair(UserId u, UserId v) const {
  return EstimateLive(ExtractLive(Locate(u)), ExtractLive(Locate(v)));
}

QueryPlanner::LiveDigest QueryPlanner::ExtractLive(Slot slot) const {
  const VosSketch& sketch = indexes_[slot.shard]->sketch();
  LiveDigest live;
  live.row.resize(DigestMatrix::WordsPerRow(estimator_.k()));
  DigestMatrix::ExtractRow(sketch, slot.local, live.row.data());
  live.card = sketch.Cardinality(slot.local);
  live.log_beta = estimator_.LogBetaTerm(sketch.beta());
  return live;
}

PairEstimate QueryPlanner::EstimateLive(const LiveDigest& a,
                                        const LiveDigest& b) const {
  // ShardedVosSketch::EstimatePair's arithmetic: α = d/k through
  // LogAlphaTerm, and the mean of the two shards' log-β terms (one β
  // squared when both digests come from the same array).
  const size_t d = XorPopcount(a.row.data(), b.row.data(), a.row.size());
  const double alpha = static_cast<double>(d) / estimator_.k();
  return estimator_.EstimateFromLogTerms(a.card, b.card,
                                         estimator_.LogAlphaTerm(alpha),
                                         0.5 * (a.log_beta + b.log_beta));
}

std::vector<QueryPlanner::Pair> QueryPlanner::AllPairsAboveReference(
    double jaccard_threshold) const {
  std::vector<LiveDigest> live;
  live.reserve(candidates_.size());
  for (const UserId user : candidates_) {
    live.push_back(ExtractLive(Locate(user)));
  }
  std::vector<Pair> pairs;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    for (size_t j = i + 1; j < candidates_.size(); ++j) {
      const PairEstimate est = EstimateLive(live[i], live[j]);
      if (est.jaccard >= jaccard_threshold) {
        const UserId u = std::min(candidates_[i], candidates_[j]);
        const UserId v = std::max(candidates_[i], candidates_[j]);
        pairs.push_back({u, v, est.common, est.jaccard});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), PairBefore);
  return pairs;
}

std::vector<QueryPlanner::Entry> QueryPlanner::TopKReference(
    UserId query, size_t k) const {
  const LiveDigest query_digest = ExtractLive(Locate(query));
  std::vector<Entry> entries;
  entries.reserve(candidates_.size());
  for (const UserId candidate : candidates_) {
    if (candidate == query) continue;
    const PairEstimate est =
        EstimateLive(query_digest, ExtractLive(Locate(candidate)));
    entries.push_back({candidate, est.common, est.jaccard});
  }
  const size_t take = std::min(k, entries.size());
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<ptrdiff_t>(take),
                    entries.end(), EntryBefore);
  entries.resize(take);
  return entries;
}

}  // namespace vos::core
