// Micro-benchmark (M3) for the query engine (core/query_planner.h):
// digest-extraction throughput (users/s) and all-pairs estimate
// throughput (pairs/s), scalar reference vs. the tiled batch scan.
//
// The scalar baseline is QueryPlanner::AllPairsAboveReference — one live
// digest per candidate, one popcount and one closed-form (log) estimator
// evaluation per pair, single-threaded. The batch engine packs all
// digests into one contiguous DigestMatrix (thread-parallel extraction
// over the cached f-seed table), runs word-wise XOR+popcount row kernels,
// replaces per-pair logs with a log table, prefilters on the Hamming
// bound, and tiles the pair loop across threads. The "all_pairs" rows
// time it over a plain VosSketch (S = 1). Results are verified
// bit-identical before any timing is reported.
//
// The "planner_all_pairs" phase measures the same engine over a
// ShardedVosSketch at S ∈ {4, 8} shards: AllPairsAbove planned as
// same-shard passes plus cross-shard blocks, on --threads workers. Its
// speedup column divides the S = 1 "all_pairs" batch time at --threads
// by the S-shard time. Every planner result is verified bit-identical
// across thread counts and to the planner's per-pair reference before
// timing is reported.
//
// The "kernel_hamming" / "kernel_extract" phases are the dispatch tier's
// acceptance signal (common/kernels.h): the 1×8 blocked XOR+popcount and
// the batched digest-extraction kernels timed once per dispatch level the
// build + CPU offers (scalar / neon / avx2 / avx512). Every level's
// output is verified bit-identical to the scalar reference table before
// its timing counts, and the speedup column divides by the scalar level's
// time — so these rows measure exactly what runtime dispatch buys on this
// host, inside the same JSON schema bench_compare.py trends on. A WARN
// line follows the phase for each kernel whose auto-picked level runs
// more than 10% slower than a lower level.
//
// The "hot_shard" phase is the tiled tier's acceptance signal
// (core/pair_scan.h): the candidate set is skewed so one shard owns most
// rows — before the tier that shard's triangle ran as ONE planner task
// and serialized, so planner threads could not help; tiles are the work
// unit now, so the same workload must show multi-thread scaling.
//
// Run: ./build/micro_query_path [--users=2000] [--k=6400] [--threads=8]
//      [--tau=0.5] [--repeats=3] [--tile_rows=0]
//      [--dispatch=auto|scalar|neon|avx2|avx512] [--csv=out.csv]

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/kernels.h"
#include "common/timer.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/vos_sketch.h"

namespace vos::bench {
namespace {

using core::DigestMatrix;
using core::QueryOptions;
using core::QueryPlanner;
using core::ShardedVosConfig;
using core::ShardedVosSketch;
using core::VosConfig;
using core::VosSketch;
using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Synthetic community: every 4-user group's first two members share 80%
/// of their items (planted near-duplicates), the rest are disjoint — so
/// AllPairsAbove at moderate τ has real hits and realistic misses. Under
/// --dist=zipf (the default) the disjoint users' set sizes follow a
/// heavy-tailed ~1/rank law like real subscription graphs, which is what
/// the engine's cardinality-sorted sweep exploits; --dist=uniform gives
/// every user the same size, the prefilter's worst case.
std::vector<Element> BuildElements(UserId users, size_t edges_per_user,
                                   bool zipf) {
  std::vector<Element> elements;
  for (UserId u = 0; u < users; ++u) {
    const bool clustered = u % 4 <= 1;
    const uint64_t base =
        clustered ? (u / 4) * uint64_t{1000000} : u * uint64_t{1000000};
    size_t edges = edges_per_user;
    if (zipf && !clustered) {
      edges = std::max<size_t>(10, 20 * edges_per_user / (1 + u % 200));
    }
    for (size_t i = 0; i < edges; ++i) {
      const bool shared = clustered && i < edges * 8 / 10;
      const ItemId item = static_cast<ItemId>(
          shared ? base + i : base + 500000 + (u % 4) * 100000 + i);
      elements.push_back({u, item, Action::kInsert});
    }
  }
  return elements;
}

VosSketch BuildSketch(const VosConfig& config, UserId users,
                      const std::vector<Element>& elements) {
  VosSketch sketch(config, users);
  for (const Element& e : elements) sketch.Update(e);
  return sketch;
}

/// Best-of-`repeats` wall time of `fn` in seconds.
template <typename Fn>
double BestSeconds(int repeats, const Fn& fn) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    fn();
    const double elapsed = timer.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

}  // namespace
}  // namespace vos::bench

int main(int argc, char** argv) {
  using namespace vos;
  using namespace vos::bench;

  const Flags flags = ParseFlagsOrDie(
      argc, argv,
      "[--users=N] [--edges_per_user=N] [--k=N] [--m=N] [--threads=N] "
      "[--tau=J] [--repeats=N] [--seed=N] [--dist=zipf|uniform] "
      "[--planner_shards=N] [--tile_rows=N] "
      "[--dispatch=auto|scalar|neon|avx2|avx512] [--csv=path] "
      "[--json=path]");
  const auto users = static_cast<UserId>(flags.GetInt("users", 2000));
  const auto edges_per_user =
      static_cast<size_t>(flags.GetInt("edges_per_user", 200));
  const auto threads = static_cast<unsigned>(flags.GetInt("threads", 8));
  const double tau = flags.GetDouble("tau", 0.5);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  const auto tile_rows = static_cast<size_t>(flags.GetInt("tile_rows", 0));
  const std::string dist = flags.GetString("dist", "zipf");
  VOS_CHECK(dist == "zipf" || dist == "uniform")
      << "--dist must be zipf or uniform, got" << dist;

  VosConfig config;
  config.k = static_cast<uint32_t>(flags.GetInt("k", 6400));
  config.m = static_cast<uint64_t>(flags.GetInt("m", int64_t{1} << 23));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  const DispatchChoice dispatch = ApplyDispatchFlag(flags);
  const std::string& kernel_tag = dispatch.tag;

  PrintBanner("micro_query_path — scalar reference vs. batch query engine",
              flags);
  std::printf("kernel dispatch: %s (requested %s)\n",
              kernels::Active().name, kernel_tag.c_str());

  const std::vector<Element> elements =
      BuildElements(users, edges_per_user, dist == "zipf");
  const VosSketch sketch = BuildSketch(config, users, elements);
  std::vector<UserId> candidates;
  for (UserId u = 0; u < users; ++u) candidates.push_back(u);
  const double num_pairs =
      0.5 * static_cast<double>(users) * (static_cast<double>(users) - 1.0);
  std::printf("sketch: k=%u m=%llu beta=%.4f | %u candidates, %.0f pairs, "
              "tau=%.2f\n\n",
              config.k, static_cast<unsigned long long>(config.m),
              sketch.beta(), users, num_pairs, tau);

  const std::vector<std::string> header = {
      "phase",   "engine",     "kernel", "threads",
      "seconds", "throughput", "unit",   "speedup"};
  TablePrinter table(header);
  std::vector<std::vector<std::string>> rows;
  // The kernel_* phases stamp each row with the forced dispatch level;
  // every other row carries the run-wide tag.
  auto emit_row = [&](const std::string& phase, const std::string& engine,
                      const std::string& kernel, unsigned nthreads,
                      double seconds, double throughput,
                      const std::string& unit, double speedup) {
    std::vector<std::string> row = {
        phase,
        engine,
        kernel,
        TablePrinter::FormatInt(nthreads),
        TablePrinter::FormatDouble(seconds, 4),
        TablePrinter::FormatDouble(throughput, 4),
        unit,
        TablePrinter::FormatDouble(speedup, 3)};
    table.AddRow(row);
    rows.push_back(std::move(row));
  };
  auto emit = [&](const std::string& phase, const std::string& engine,
                  unsigned nthreads, double seconds, double throughput,
                  const std::string& unit, double speedup) {
    emit_row(phase, engine, kernel_tag, nthreads, seconds, throughput, unit,
             speedup);
  };

  // ------------------------------------------------------ digest extraction
  const double scalar_extract = BestSeconds(repeats, [&] {
    std::vector<BitVector> digests;
    digests.reserve(candidates.size());
    for (UserId u : candidates) digests.push_back(sketch.ExtractUserSketch(u));
  });
  emit("extract", "scalar", 1, scalar_extract, users / scalar_extract,
       "users/s", 1.0);
  for (unsigned t : {1u, threads}) {
    const double batch_extract = BestSeconds(repeats, [&] {
      const core::DigestMatrix matrix =
          core::DigestMatrix::Build(sketch, candidates, t);
      (void)matrix;
    });
    emit("extract", "batch", t, batch_extract, users / batch_extract,
         "users/s", scalar_extract / batch_extract);
    if (threads == 1) break;
  }

  // ---------------------------------------------------------- kernel tier
  // One row per dispatch level for the two kernels the query path spends
  // its time in: the 1×8 blocked XOR+popcount (the tiled pair scan's
  // inner loop) and batched digest extraction (DigestMatrix::Build).
  // Reference outputs come from the scalar table; every level must match
  // them bit-for-bit before its timing counts, and speedup divides by the
  // scalar level's time — the measured value of runtime dispatch on this
  // host.
  {
    const kernels::DispatchLevel restore_level = kernels::ActiveLevel();
    VOS_CHECK(kernels::SetDispatchLevel(kernels::DispatchLevel::kScalar));
    const DigestMatrix matrix = DigestMatrix::Build(sketch, candidates, 1);
    const size_t words = matrix.words_per_row();
    const size_t mrows = matrix.rows();
    VOS_CHECK(mrows > 8) << "kernel phase needs more than 8 candidate rows";
    const size_t ham_pairs = (mrows - 8) * 8;
    // Scale sweeps so even the widest level runs long enough to time.
    const size_t sweeps = std::max<size_t>(
        1, 8'000'000 / std::max<size_t>(1, ham_pairs * words));

    const kernels::KernelTable& scalar_table =
        *kernels::TableFor(kernels::DispatchLevel::kScalar);
    std::vector<size_t> ham_ref(ham_pairs);
    for (size_t r = 0; r + 8 < mrows; ++r) {
      scalar_table.xor_popcount8(matrix.Row(r), matrix.Row(r + 1), words,
                                 words, &ham_ref[r * 8]);
    }

    double ham_scalar_seconds = 0.0;
    double extract_scalar_seconds = 0.0;
    std::vector<LevelSeconds> ham_timings;
    std::vector<LevelSeconds> extract_timings;
    for (const kernels::DispatchLevel level : kernels::AvailableLevels()) {
      VOS_CHECK(kernels::SetDispatchLevel(level));
      const kernels::KernelTable& kernel = kernels::Active();

      // Hamming: bit-identity against the scalar reference, then timing.
      std::vector<size_t> ham_out(ham_pairs);
      for (size_t r = 0; r + 8 < mrows; ++r) {
        kernel.xor_popcount8(matrix.Row(r), matrix.Row(r + 1), words, words,
                             &ham_out[r * 8]);
      }
      VOS_CHECK(ham_out == ham_ref)
          << kernel.name << " Hamming kernel diverges from scalar";
      size_t sink = 0;
      const double ham_seconds = BestSeconds(repeats, [&] {
        size_t block[8];
        for (size_t s = 0; s < sweeps; ++s) {
          for (size_t r = 0; r + 8 < mrows; ++r) {
            kernel.xor_popcount8(matrix.Row(r), matrix.Row(r + 1), words,
                                 words, block);
            sink += block[0] + block[7];
          }
        }
      });
      VOS_CHECK(sink != static_cast<size_t>(-1));  // keep results observable
      if (level == kernels::DispatchLevel::kScalar) {
        ham_scalar_seconds = ham_seconds;
      }
      ham_timings.push_back({level, ham_seconds});
      emit_row("kernel_hamming", "xor_popcount8", kernel.name, 1, ham_seconds,
               static_cast<double>(ham_pairs * sweeps) / ham_seconds,
               "pairs/s", ham_scalar_seconds / ham_seconds);

      // Extraction: DigestMatrix::Build routes through extract_bits; the
      // whole matrix must equal the scalar-built one word-for-word.
      const DigestMatrix level_matrix =
          DigestMatrix::Build(sketch, candidates, 1);
      VOS_CHECK(level_matrix.rows() == mrows &&
                level_matrix.words_per_row() == words);
      for (size_t r = 0; r < mrows; ++r) {
        VOS_CHECK(std::memcmp(level_matrix.Row(r), matrix.Row(r),
                              words * sizeof(uint64_t)) == 0)
            << kernel.name << " extraction diverges from scalar at row " << r;
      }
      const double extract_seconds = BestSeconds(repeats, [&] {
        const DigestMatrix built = DigestMatrix::Build(sketch, candidates, 1);
        (void)built;
      });
      if (level == kernels::DispatchLevel::kScalar) {
        extract_scalar_seconds = extract_seconds;
      }
      extract_timings.push_back({level, extract_seconds});
      emit_row("kernel_extract", "extract_bits", kernel.name, 1,
               extract_seconds, users / extract_seconds, "users/s",
               extract_scalar_seconds / extract_seconds);
    }
    VOS_CHECK(kernels::SetDispatchLevel(restore_level));
    std::printf("\nkernel tier: %zu dispatch level(s) verified bit-identical "
                "to scalar before timing.\n",
                extract_timings.size());
    WarnIfAutoLevelLoses("kernel_hamming", dispatch.auto_level, ham_timings);
    WarnIfAutoLevelLoses("kernel_extract", dispatch.auto_level,
                         extract_timings);
  }

  // ----------------------------------------------------------- all-pairs
  QueryOptions query_options;
  query_options.num_threads = threads;
  query_options.tile_rows = tile_rows;
  QueryPlanner index(sketch, {}, query_options);
  index.Rebuild(candidates);

  // Bit-identity of a planner's result against a reference pair list;
  // aborts on the first difference.
  const auto check_pairs = [](const std::vector<QueryPlanner::Pair>& got,
                              const std::vector<QueryPlanner::Pair>& want,
                              const std::string& what) {
    VOS_CHECK(got.size() == want.size()) << what << ": pair count differs";
    for (size_t i = 0; i < got.size(); ++i) {
      VOS_CHECK(got[i].u == want[i].u && got[i].v == want[i].v &&
                got[i].common == want[i].common &&
                got[i].jaccard == want[i].jaccard)
          << what << ": pair" << i << "differs";
    }
  };
  const auto reference = index.AllPairsAboveReference(tau);
  const auto timed_batch = [&](unsigned t) {
    index.set_num_threads(t);
    (void)index.AllPairsAbove(tau);  // warm caches (evicted by the
                                     // scalar pass's digest copies)
    WallTimer timer;
    const auto result = index.AllPairsAbove(tau);
    const double elapsed = timer.ElapsedSeconds();
    // Verify bit-identical results on every round, not just once.
    check_pairs(result, reference, "batch vs scalar reference");
    return elapsed;
  };

  // Interleave the engines within each round so a slow scheduling window
  // on a shared machine penalizes all of them equally; report per-engine
  // minima.
  double scalar_pairs = 0.0, batch_one = 0.0, batch_many = 0.0;
  for (int r = 0; r < repeats; ++r) {
    (void)index.AllPairsAboveReference(tau);  // warm caches
    WallTimer timer;
    const auto result = index.AllPairsAboveReference(tau);
    const double scalar_elapsed = timer.ElapsedSeconds();
    VOS_CHECK(result.size() == reference.size());
    const double one = timed_batch(1);
    const double many = threads == 1 ? one : timed_batch(threads);
    if (r == 0 || scalar_elapsed < scalar_pairs) scalar_pairs = scalar_elapsed;
    if (r == 0 || one < batch_one) batch_one = one;
    if (r == 0 || many < batch_many) batch_many = many;
  }
  emit("all_pairs", "scalar", 1, scalar_pairs, num_pairs / scalar_pairs,
       "pairs/s", 1.0);
  emit("all_pairs", "batch", 1, batch_one, num_pairs / batch_one, "pairs/s",
       scalar_pairs / batch_one);
  if (threads != 1) {
    emit("all_pairs", "batch", threads, batch_many, num_pairs / batch_many,
         "pairs/s", scalar_pairs / batch_many);
  }

  // ------------------------------------------------------ sharded planner
  // Shard-scaling of the same engine: AllPairsAbove over S ∈ {4, 8}
  // shards, parallel across tasks (same-shard passes + cross-shard
  // tiles). The S = 1 baseline is the all_pairs batch row at --threads.
  const auto max_planner_shards =
      static_cast<uint32_t>(flags.GetInt("planner_shards", 8));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw < 2) {
    std::printf("\n(single hardware thread: planner shard-scaling "
                "degenerates to the cross-shard kernel overhead; run on a "
                "multi-core host for the scaling measurement)\n");
  }
  double planner_last_speedup = 1.0;
  uint32_t planner_last_shards = 1;
  for (const uint32_t shards : {4u, 8u}) {
    if (shards > max_planner_shards) break;
    ShardedVosConfig sharded;
    sharded.base = config;
    sharded.num_shards = shards;
    ShardedVosSketch sharded_sketch(sharded, users);
    sharded_sketch.UpdateBatch(elements.data(), elements.size());

    QueryPlanner planner(sharded_sketch, {}, query_options);
    planner.Rebuild(candidates);

    // Verify before timing: bit-identical to the per-pair reference and
    // across thread counts.
    const std::string at = " at shards=" + std::to_string(shards);
    const auto planner_result = planner.AllPairsAbove(tau);
    check_pairs(planner_result, planner.AllPairsAboveReference(tau),
                "planner vs reference" + at);
    planner.set_num_threads(1);
    check_pairs(planner.AllPairsAbove(tau), planner_result,
                "planner thread counts" + at);
    planner.set_num_threads(threads);

    const double planner_seconds = BestSeconds(repeats, [&] {
      (void)planner.AllPairsAbove(tau);
    });
    const double speedup = batch_many / planner_seconds;
    planner_last_speedup = speedup;
    planner_last_shards = shards;
    emit("planner_all_pairs", "planner-s" + std::to_string(shards), threads,
         planner_seconds, num_pairs / planner_seconds, "pairs/s", speedup);
  }

  // ------------------------------------------------------ hot-shard tiling
  // Skewed candidate set: every user of shard 0 plus a 1-in-8 sprinkle of
  // the rest, so shard 0's triangle dominates the pair space. Pre-tier
  // that triangle was ONE planner task — threads>1 bought nothing here;
  // the tiled tier must show multi-thread scaling on exactly this
  // workload (the speedup column divides by the 1-thread time).
  {
    ShardedVosConfig sharded;
    sharded.base = config;
    sharded.num_shards = 4;
    ShardedVosSketch hot_sketch(sharded, users);
    hot_sketch.UpdateBatch(elements.data(), elements.size());
    std::vector<UserId> hot_candidates;
    size_t hot_rows = 0;
    for (UserId u = 0; u < users; ++u) {
      const bool hot = hot_sketch.ShardOf(u) == 0;
      if (hot || u % 8 == 0) {
        hot_candidates.push_back(u);
        if (hot) ++hot_rows;
      }
    }
    const double hot_n = static_cast<double>(hot_candidates.size());
    const double hot_pairs = 0.5 * hot_n * (hot_n - 1.0);

    QueryOptions hot_base;
    hot_base.tile_rows = tile_rows;
    hot_base.num_threads = 1;
    QueryPlanner hot_single(hot_sketch, {}, hot_base);
    hot_single.Rebuild(hot_candidates);
    const auto hot_reference = hot_single.AllPairsAbove(tau);

    std::printf("\nhot_shard workload: %zu candidates, %zu (%.0f%%) in "
                "shard 0 — pre-tier this triangle serialized as one task.\n",
                hot_candidates.size(), hot_rows,
                100.0 * static_cast<double>(hot_rows) / hot_n);

    double hot_base_seconds = 0.0;
    for (const unsigned t : {1u, threads}) {
      QueryOptions hot_options = hot_base;
      hot_options.num_threads = t;
      QueryPlanner hot_planner(hot_sketch, {}, hot_options);
      hot_planner.Rebuild(hot_candidates);
      // Bit-identity across thread counts on the skewed workload before
      // any timing — the tiles repartition the triangle, never its output.
      check_pairs(hot_planner.AllPairsAbove(tau), hot_reference,
                  "hot-shard thread counts");
      const double hot_seconds = BestSeconds(repeats, [&] {
        (void)hot_planner.AllPairsAbove(tau);
      });
      if (t == 1) hot_base_seconds = hot_seconds;
      emit("hot_shard", "planner-s4-hot", t, hot_seconds,
           hot_pairs / hot_seconds, "pairs/s", hot_base_seconds / hot_seconds);
      if (threads == 1) break;
    }
  }

  EmitTable(flags, table, header, rows);
  MaybeEmitJson(flags, "micro_query_path", header, rows);
  std::printf("\n%zu pairs above tau=%.2f; batch results verified "
              "bit-identical to the scalar reference.\n",
              reference.size(), tau);
  std::printf("all_pairs speedup: %.2fx single-thread, %.2fx with %u "
              "threads.\n",
              scalar_pairs / batch_one, scalar_pairs / batch_many, threads);
  std::printf("planner all_pairs scaling 1 -> %u shards: %.2fx vs. the "
              "one-snapshot engine (task-parallel scatter-gather; needs "
              "multiple hardware threads).\n",
              planner_last_shards, planner_last_speedup);
  return 0;
}
