// Micro-benchmark (M4) for the sharded ingestion engine and incremental
// index maintenance.
//
// Phase "ingest": update throughput (updates/s) of the serial
// `for (e : stream) Update(e)` loop vs. ShardedVosSketch at growing shard
// counts, both synchronous (routing inline, no workers — isolates the
// per-shard locality win: each shard's array is m/S bits) and
// asynchronous (shard-partitioned sub-batches drained by per-shard
// workers — the near-linear-scaling configuration on multi-core hosts;
// on a single hardware thread the async numbers degenerate to the sync
// ones plus queue overhead, which the banner calls out). A second
// multi-producer pass ("sharded-async-p" rows) holds the shard count at
// --shards and scales producer lanes 1 → --producers: each lane routes
// its own per-user sub-stream through its own (producer, shard) queues,
// so async throughput scales with the producer count instead of
// flat-lining on a single producer's routing pass. Shard state is
// verified identical to synchronous routing of the same per-producer
// streams before any timing is reported.
//
// Phase "routing": producer-side routing bandwidth per kernel dispatch
// level (common/kernels.h). "shard-tag" rows time ShardRouter::Tag over
// the full element stream, the pure hash+reduce kernel every sharded
// pipeline runs before any queueing; "dense-route" rows time
// DenseShardMap::Route, the same kernel plus the local-id lookup
// (route_batch with local_of != nullptr). Each level's output is
// verified identical to the scalar table's before timing; the speedup
// column divides by the scalar level, so these rows are the dispatch
// tier's ingest-side acceptance signal. A WARN line follows the phase
// for each row kind whose auto-picked level runs more than 10% slower
// than a lower level.
//
// Phase "checkpoint": ShardedVosSketch::Checkpoint/Restore wall time and
// bandwidth at --shards (the PR 6 durability path: atomic CRC-checked v3
// container). Every restored sketch is verified bit-identical to the
// checkpointed one before its timing counts; the "speedup" column carries
// the on-disk bytes / in-memory bytes ratio (MemoryBits / 8) so the
// serialization overhead is visible next to the timings.
//
// Phase "index": SimilarityIndex::Rebuild (full re-extraction) vs.
// RefreshDirty (patches the cells in the sketch's flip log and re-reads
// the dirty users' cardinalities, then re-orders rows by block copy) at
// dirty fractions {1%, 10%, 50%} of the candidate set. The "owner-build"
// row times the first refresh after an incremental Rebuild on its own:
// it builds the owner index the later refreshes patch through. Every RefreshDirty
// result is VOS_CHECKed bit-identical to a full Rebuild on the same
// sketch state — rows, row order and β — before its timing counts.
// Expected: ≥5× at ≤10% dirty; the refresh cost tracks the flips since
// the last snapshot, not m or k, so the ratio stays far above 1 even at
// 50%.
//
// Run: ./build/micro_ingest_path [--users=100000] [--edges_per_user=20]
//      [--k=6400] [--m=33554432] [--shards=4] [--producers=4]
//      [--batch=16384] [--candidates=1000] [--repeats=3]
//      [--dispatch=auto|scalar|neon|avx2|avx512] [--csv=out.csv]
//      [--json=out.json]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/kernels.h"
#include "common/numa.h"
#include "common/timer.h"
#include "stream/shard_router.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"
#include "core/vos_sketch.h"

namespace vos::bench {
namespace {

using core::QueryOptions;
using core::ShardedVosConfig;
using core::ShardedVosSketch;
using core::SimilarityIndex;
using core::VosConfig;
using core::VosSketch;
using stream::Action;
using stream::Element;
using stream::ItemId;
using stream::UserId;

/// Heavy-tailed synthetic stream: element t belongs to a hash-scattered
/// user (so consecutive updates do not share a user) and ~10% of
/// elements delete the item inserted by an earlier element of the same
/// user — exercising the fully dynamic path without infeasible deletes.
std::vector<Element> BuildStream(UserId users, size_t edges_per_user,
                                 uint64_t seed) {
  const size_t total = static_cast<size_t>(users) * edges_per_user;
  std::vector<Element> elements;
  elements.reserve(total + total / 10);
  for (size_t t = 0; t < total; ++t) {
    const UserId user = static_cast<UserId>(
        hash::ReduceToRange(hash::Hash64(t, seed), users));
    const ItemId item = static_cast<ItemId>(t);
    elements.push_back({user, item, Action::kInsert});
    if (t % 10 == 9) {
      // Delete this element's own item later-ish: defer by pushing now —
      // the pair (insert at t, delete right after) keeps the stream
      // feasible for every prefix and every user-partitioned sub-stream.
      elements.push_back({user, item, Action::kDelete});
    }
  }
  return elements;
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

/// All shard arrays and cardinality counters equal?
void CheckShardsIdentical(const ShardedVosSketch& a,
                          const ShardedVosSketch& b) {
  VOS_CHECK(a.num_shards() == b.num_shards());
  for (uint32_t s = 0; s < a.num_shards(); ++s) {
    VOS_CHECK(a.shard(s).array() == b.shard(s).array())
        << "shard " << s << " arrays diverge between pipelines";
  }
  for (UserId u = 0; u < a.num_users(); ++u) {
    VOS_CHECK(a.Cardinality(u) == b.Cardinality(u))
        << "cardinalities diverge at user " << u;
  }
}

/// Bit-identity of two index snapshots: rows, order, β.
void CheckIndexesIdentical(const SimilarityIndex& a,
                           const SimilarityIndex& b) {
  VOS_CHECK(a.candidate_count() == b.candidate_count());
  VOS_CHECK(a.snapshot_beta() == b.snapshot_beta());
  const core::DigestMatrix& ma = a.matrix();
  const core::DigestMatrix& mb = b.matrix();
  VOS_CHECK(ma.rows() == mb.rows() &&
            ma.words_per_row() == mb.words_per_row());
  for (size_t p = 0; p < ma.rows(); ++p) {
    VOS_CHECK(a.sorted_to_candidate(p) == b.sorted_to_candidate(p))
        << "row order diverges at sorted position " << p;
    VOS_CHECK(std::memcmp(ma.Row(p), mb.Row(p),
                          ma.words_per_row() * sizeof(uint64_t)) == 0)
        << "digest rows diverge at sorted position " << p;
  }
}

}  // namespace
}  // namespace vos::bench

int main(int argc, char** argv) {
  using namespace vos;
  using namespace vos::bench;

  const Flags flags = ParseFlagsOrDie(
      argc, argv,
      "[--users=N] [--edges_per_user=N] [--k=N] [--m=N] [--shards=N] "
      "[--producers=N] [--batch=N] [--candidates=N] [--repeats=N] "
      "[--seed=N] [--pin_threads=0|1] "
      "[--dispatch=auto|scalar|neon|avx2|avx512] [--csv=path] "
      "[--json=path]");
  const auto users = static_cast<UserId>(flags.GetInt("users", 100000));
  const auto edges_per_user =
      static_cast<size_t>(flags.GetInt("edges_per_user", 20));
  const auto max_shards =
      static_cast<uint32_t>(flags.GetInt("shards", 4));
  const auto max_producers = std::max<unsigned>(
      1, static_cast<unsigned>(flags.GetInt("producers", 4)));
  const auto batch = static_cast<size_t>(flags.GetInt("batch", 16384));
  const auto num_candidates =
      static_cast<size_t>(flags.GetInt("candidates", 1000));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  // NUMA pinning of the shard workers: VOS_PIN / multi-node autodetect
  // unless forced. An identity column, not a metric — pinned and unpinned
  // rows never compare against each other.
  const bool pin_threads =
      flags.GetInt("pin_threads", numa::DefaultPinThreads() ? 1 : 0) != 0;
  const std::string pinned_tag = pin_threads ? "1" : "0";

  VosConfig config;
  config.k = static_cast<uint32_t>(flags.GetInt("k", 6400));
  config.m = static_cast<uint64_t>(flags.GetInt("m", int64_t{1} << 25));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  const DispatchChoice dispatch = ApplyDispatchFlag(flags);
  const std::string& kernel_tag = dispatch.tag;

  PrintBanner("micro_ingest_path — sharded ingestion + incremental index",
              flags);
  std::printf("kernel dispatch: %s (requested %s)\n",
              kernels::Active().name, kernel_tag.c_str());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("NUMA: %zu node(s); worker pinning %s\n",
              numa::Detect().num_nodes(), pin_threads ? "ON" : "off");
  std::printf("hardware threads: %u%s\n", hw,
              hw < max_shards
                  ? "  (fewer than --shards: async scaling will be flat "
                    "on this host; run on a multi-core machine for the "
                    "shard-scaling measurement)"
                  : "");

  const std::vector<Element> elements =
      BuildStream(users, edges_per_user, config.seed);
  const double num_updates = static_cast<double>(elements.size());
  std::printf("stream: %zu elements over %u users | k=%u m=%llu\n\n",
              elements.size(), users, config.k,
              static_cast<unsigned long long>(config.m));

  const std::vector<std::string> header = {
      "phase",   "engine", "kernel",     "shards", "producers", "threads",
      "pinned",  "seconds", "throughput", "unit",  "speedup",   "efficiency"};
  TablePrinter table(header);
  std::vector<std::vector<std::string>> rows;
  // The routing phase stamps rows with the dispatch level it forces;
  // every other row carries the run-wide tag. `efficiency` is numeric
  // only on the producer-scaling rows (throughput(P) / (P·throughput(1)),
  // per-lane efficiency); everywhere else it is the empty string, which
  // MaybeEmitJson emits as a non-numeric "" that bench_compare.py skips.
  auto emit_row = [&](const std::string& phase, const std::string& engine,
                      const std::string& kernel, uint32_t shards,
                      unsigned producers, unsigned threads, double seconds,
                      double throughput, const std::string& unit,
                      double speedup, const std::string& efficiency) {
    std::vector<std::string> row = {phase,
                                    engine,
                                    kernel,
                                    TablePrinter::FormatInt(shards),
                                    TablePrinter::FormatInt(producers),
                                    TablePrinter::FormatInt(threads),
                                    pinned_tag,
                                    TablePrinter::FormatDouble(seconds, 4),
                                    TablePrinter::FormatDouble(throughput, 4),
                                    unit,
                                    TablePrinter::FormatDouble(speedup, 3),
                                    efficiency};
    table.AddRow(row);
    rows.push_back(std::move(row));
  };
  auto emit = [&](const std::string& phase, const std::string& engine,
                  uint32_t shards, unsigned producers, unsigned threads,
                  double seconds, double throughput, const std::string& unit,
                  double speedup, const std::string& efficiency = "") {
    emit_row(phase, engine, kernel_tag, shards, producers, threads, seconds,
             throughput, unit, speedup, efficiency);
  };

  // -------------------------------------------------------------- ingest
  const double serial_seconds = BestSeconds(repeats, [&] {
    VosSketch sketch(config, users);
    for (const Element& e : elements) sketch.Update(e);
  });
  emit("ingest", "serial", 1, 1, 1, serial_seconds,
       num_updates / serial_seconds, "updates/s", 1.0);

  double async_1shard_seconds = 0.0;
  double async_max_shards_seconds = 0.0;
  for (uint32_t shards = 1; shards <= max_shards; shards *= 2) {
    ShardedVosConfig sharded;
    sharded.base = config;
    sharded.num_shards = shards;
    sharded.batch_size = batch;

    // Reference state: synchronous routing (single thread, inline).
    ShardedVosSketch reference(sharded, users);
    const double sync_seconds = BestSeconds(repeats, [&] {
      ShardedVosSketch sketch(sharded, users);
      for (size_t t = 0; t < elements.size(); t += batch) {
        sketch.UpdateBatch(elements.data() + t,
                           std::min(batch, elements.size() - t));
      }
    });
    for (size_t t = 0; t < elements.size(); t += batch) {
      reference.UpdateBatch(elements.data() + t,
                            std::min(batch, elements.size() - t));
    }
    emit("ingest", "sharded-sync", shards, 1, 1, sync_seconds,
         num_updates / sync_seconds, "updates/s",
         serial_seconds / sync_seconds);

    // Concurrent pipeline: one worker per shard, tagged shared batches.
    sharded.ingest_threads = shards;
    sharded.pin_numa_workers = pin_threads;
    double async_seconds = 0.0;
    for (int r = 0; r < repeats; ++r) {
      ShardedVosSketch sketch(sharded, users);
      WallTimer timer;
      for (size_t t = 0; t < elements.size(); t += batch) {
        sketch.UpdateBatch(elements.data() + t,
                           std::min(batch, elements.size() - t));
      }
      const Status flushed = sketch.Flush();
      const double elapsed = timer.ElapsedSeconds();
      VOS_CHECK(flushed.ok()) << "async ingest degraded:" << flushed.ToString();
      if (r == 0 || elapsed < async_seconds) async_seconds = elapsed;
      // The concurrent pipeline must land on exactly the synchronous
      // pipeline's state (per-shard order is preserved by construction).
      CheckShardsIdentical(sketch, reference);
    }
    if (shards == 1) async_1shard_seconds = async_seconds;
    async_max_shards_seconds = async_seconds;
    emit("ingest", "sharded-async", shards, 1, shards, async_seconds,
         num_updates / async_seconds, "updates/s",
         serial_seconds / async_seconds);
  }

  // -------------------------------------------------- ingest, multi-producer
  // Producer scaling at the full shard count: P lanes, each feeding its
  // own per-user sub-stream (user % P keeps every user's history — and
  // therefore feasibility — on one lane) through its own
  // (producer, shard) queues. The P=1 row is the single-producer async
  // baseline the acceptance target compares against.
  double async_1producer_seconds = 0.0;
  double async_max_producers_seconds = 0.0;
  unsigned producers_measured = 1;
  for (unsigned producers = 1; producers <= max_producers; producers *= 2) {
    std::vector<std::vector<Element>> lanes(producers);
    for (auto& lane : lanes) lane.reserve(elements.size() / producers + 1);
    for (const Element& e : elements) {
      lanes[e.user % producers].push_back(e);
    }

    ShardedVosConfig sharded;
    sharded.base = config;
    sharded.num_shards = max_shards;
    sharded.batch_size = batch;
    sharded.ingest_threads = max_shards;
    sharded.ingest_producers = producers;
    sharded.pin_numa_workers = pin_threads;

    // Reference: synchronous routing of the same per-producer streams
    // (the state every timed repeat must land on bit-for-bit).
    ShardedVosConfig sync_config = sharded;
    sync_config.ingest_threads = 0;
    ShardedVosSketch reference(sync_config, users);
    for (const std::vector<Element>& lane : lanes) {
      reference.UpdateBatch(lane.data(), lane.size());
    }

    double mp_seconds = 0.0;
    for (int r = 0; r < repeats; ++r) {
      ShardedVosSketch sketch(sharded, users);
      WallTimer timer;
      {
        std::vector<std::thread> producer_threads;
        producer_threads.reserve(producers);
        for (unsigned p = 0; p < producers; ++p) {
          producer_threads.emplace_back([&, p] {
            const std::vector<Element>& lane = lanes[p];
            for (size_t t = 0; t < lane.size(); t += batch) {
              sketch.UpdateBatch(lane.data() + t,
                                 std::min(batch, lane.size() - t), p);
            }
            const Status lane_flushed = sketch.FlushProducer(p);
            VOS_CHECK(lane_flushed.ok())
                << "producer" << p
                << "flush degraded:" << lane_flushed.ToString();
          });
        }
        for (std::thread& t : producer_threads) t.join();
      }
      const Status flushed = sketch.Flush();
      const double elapsed = timer.ElapsedSeconds();
      VOS_CHECK(flushed.ok())
          << "multi-producer ingest degraded:" << flushed.ToString();
      if (r == 0 || elapsed < mp_seconds) mp_seconds = elapsed;
      CheckShardsIdentical(sketch, reference);
    }
    if (producers == 1) async_1producer_seconds = mp_seconds;
    async_max_producers_seconds = mp_seconds;
    producers_measured = producers;
    // Per-lane efficiency: throughput(P) / (P * throughput(1)). Equal
    // seconds-per-stream means throughput(P) = P * throughput(1) and the
    // column reads 1.0; lanes serializing on each other drag it toward
    // 1/P. bench_compare.py flags drops in this column even when absolute
    // throughput noise hides the collapse.
    const double efficiency =
        async_1producer_seconds / (producers * mp_seconds);
    emit("ingest", "sharded-async-p", max_shards, producers,
         max_shards + producers, mp_seconds, num_updates / mp_seconds,
         "updates/s", serial_seconds / mp_seconds,
         TablePrinter::FormatDouble(efficiency, 4));
  }

  // ------------------------------------------------------------- routing
  // Routing bandwidth per kernel dispatch level: ShardRouter::Tag and
  // DenseShardMap::Route over the full element stream (one Mix64 + one
  // range-reduction per element, plus the local-id lookup for Route),
  // swept enough times to be timeable. Output verified identical to the
  // scalar table's before timing; speedup divides by scalar. Route
  // rewrites user ids in place, so each sweep routes a fresh copy of the
  // stream; the copy is timed at every level alike.
  {
    const kernels::DispatchLevel restore_level = kernels::ActiveLevel();
    const stream::ShardRouter router(max_shards, config.seed);
    const stream::DenseShardMap dense_map(router, users);
    const size_t route_sweeps =
        std::max<size_t>(1, 2'000'000 / std::max<size_t>(1, elements.size()));
    std::vector<uint16_t> ref_tags(elements.size());
    std::vector<Element> ref_routed = elements;
    std::vector<uint16_t> ref_dense_tags(elements.size());
    VOS_CHECK(kernels::SetDispatchLevel(kernels::DispatchLevel::kScalar));
    router.Tag(elements.data(), elements.size(), ref_tags.data());
    dense_map.Route(ref_routed.data(), ref_routed.size(),
                    ref_dense_tags.data());
    std::vector<uint16_t> tags(elements.size());
    std::vector<Element> routed(elements.size());
    double tag_scalar_seconds = 0.0;
    double dense_scalar_seconds = 0.0;
    std::vector<LevelSeconds> tag_timings;
    std::vector<LevelSeconds> dense_timings;
    for (const kernels::DispatchLevel level : kernels::AvailableLevels()) {
      VOS_CHECK(kernels::SetDispatchLevel(level));
      const kernels::KernelTable& kernel = kernels::Active();
      std::fill(tags.begin(), tags.end(), uint16_t{0xffff});
      router.Tag(elements.data(), elements.size(), tags.data());
      VOS_CHECK(tags == ref_tags)
          << kernel.name << " routing diverges from scalar";
      std::fill(tags.begin(), tags.end(), uint16_t{0xffff});
      routed = elements;
      dense_map.Route(routed.data(), routed.size(), tags.data());
      VOS_CHECK(tags == ref_dense_tags)
          << kernel.name << " dense routing tags diverge from scalar";
      for (size_t i = 0; i < routed.size(); ++i) {
        VOS_CHECK(routed[i].user == ref_routed[i].user)
            << kernel.name << " dense routing local ids diverge from scalar";
      }

      const double tag_seconds = BestSeconds(repeats, [&] {
        for (size_t s = 0; s < route_sweeps; ++s) {
          router.Tag(elements.data(), elements.size(), tags.data());
        }
      });
      if (level == kernels::DispatchLevel::kScalar) {
        tag_scalar_seconds = tag_seconds;
      }
      tag_timings.push_back({level, tag_seconds});
      emit_row("routing", "shard-tag", kernel.name, max_shards, 1, 1,
               tag_seconds,
               static_cast<double>(elements.size() * route_sweeps) /
                   tag_seconds,
               "routes/s", tag_scalar_seconds / tag_seconds, "");

      const double dense_seconds = BestSeconds(repeats, [&] {
        for (size_t s = 0; s < route_sweeps; ++s) {
          std::copy(elements.begin(), elements.end(), routed.begin());
          dense_map.Route(routed.data(), routed.size(), tags.data());
        }
      });
      if (level == kernels::DispatchLevel::kScalar) {
        dense_scalar_seconds = dense_seconds;
      }
      dense_timings.push_back({level, dense_seconds});
      emit_row("routing", "dense-route", kernel.name, max_shards, 1, 1,
               dense_seconds,
               static_cast<double>(elements.size() * route_sweeps) /
                   dense_seconds,
               "routes/s", dense_scalar_seconds / dense_seconds, "");
    }
    VOS_CHECK(kernels::SetDispatchLevel(restore_level));
    std::printf("routing: %zu dispatch level(s) verified identical to "
                "scalar before timing\n",
                tag_timings.size());
    WarnIfAutoLevelLoses("routing shard-tag", dispatch.auto_level,
                         tag_timings);
    WarnIfAutoLevelLoses("routing dense-route", dispatch.auto_level,
                         dense_timings);
    std::printf("\n");
  }

  // --------------------------------------------------------------- checkpoint
  // Save/restore cost of the durable v3 container at the full shard
  // count, against the state the ingest phase just verified.
  {
    ShardedVosConfig sharded;
    sharded.base = config;
    sharded.num_shards = max_shards;
    sharded.batch_size = batch;
    sharded.ingest_threads = max_shards;
    sharded.pin_numa_workers = pin_threads;
    ShardedVosSketch full_state(sharded, users);
    for (size_t t = 0; t < elements.size(); t += batch) {
      full_state.UpdateBatch(elements.data() + t,
                             std::min(batch, elements.size() - t));
    }
    const Status flushed = full_state.Flush();
    VOS_CHECK(flushed.ok()) << flushed.ToString();

    const std::string ckpt_path =
        flags.GetString("ckpt", "/tmp/micro_ingest_path.ckpt");
    const double save_seconds = BestSeconds(repeats, [&] {
      const Status saved = full_state.Checkpoint(ckpt_path);
      VOS_CHECK(saved.ok()) << saved.ToString();
    });
    double ckpt_bytes = 0.0;
    {
      std::ifstream in(ckpt_path, std::ios::binary | std::ios::ate);
      VOS_CHECK(in.good()) << "checkpoint vanished: " << ckpt_path;
      ckpt_bytes = static_cast<double>(in.tellg());
    }
    const double sketch_bytes =
        static_cast<double>(full_state.MemoryBits()) / 8.0;
    const double mib = 1024.0 * 1024.0;
    emit("checkpoint", "save", max_shards, 1, 1, save_seconds,
         ckpt_bytes / save_seconds / mib, "MB/s", ckpt_bytes / sketch_bytes);

    double restore_seconds = 0.0;
    for (int r = 0; r < repeats; ++r) {
      ShardedVosSketch restored(sharded, users);
      WallTimer timer;
      const Status status = restored.Restore(ckpt_path);
      const double elapsed = timer.ElapsedSeconds();
      VOS_CHECK(status.ok()) << status.ToString();
      if (r == 0 || elapsed < restore_seconds) restore_seconds = elapsed;
      // A restore that is fast but wrong is worthless: bit-identity first.
      CheckShardsIdentical(restored, full_state);
    }
    emit("checkpoint", "restore", max_shards, 1, 1, restore_seconds,
         ckpt_bytes / restore_seconds / mib, "MB/s",
         ckpt_bytes / sketch_bytes);
    std::remove(ckpt_path.c_str());
    std::printf("checkpoint: %.1f MB on disk vs %.1f MB sketch memory "
                "(ratio %.3f); every restore verified bit-identical\n\n",
                ckpt_bytes / mib, sketch_bytes / mib,
                ckpt_bytes / sketch_bytes);
  }

  // --------------------------------------------------------------- index
  // Candidate set: the first `num_candidates` hash-scattered users.
  VosSketch sketch(config, users);
  for (const Element& e : elements) sketch.Update(e);
  std::vector<UserId> candidates;
  candidates.reserve(num_candidates);
  for (size_t i = 0; candidates.size() < num_candidates && i < users; ++i) {
    candidates.push_back(static_cast<UserId>(
        hash::ReduceToRange(hash::Hash64(i, config.seed ^ 0xc0ffee), users)));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  QueryOptions incremental_options;
  incremental_options.num_threads = 1;
  incremental_options.incremental = true;
  // Measure the pure refresh path at every fraction: the adaptive
  // fallback (QueryOptions default 0.5) would turn the 50% row into a
  // plain Rebuild — this bench is what the break-even is calibrated ON.
  incremental_options.refresh_fallback_fraction = 2.0;
  SimilarityIndex incremental_index(sketch, {}, incremental_options);

  QueryOptions plain_options;
  plain_options.num_threads = 1;
  SimilarityIndex full_index(sketch, {}, plain_options);

  const double full_rebuild_seconds = BestSeconds(repeats, [&] {
    full_index.Rebuild(candidates);
  });
  emit("index", "rebuild", 1, 1, 1, full_rebuild_seconds,
       candidates.size() / full_rebuild_seconds, "rows/s", 1.0);

  // The first refresh after a Rebuild builds the owner index (its cost
  // moved there from Rebuild); time it on its own, so the refresh-* rows
  // below measure patching alone even at --repeats=1.
  double owner_build_seconds = 0.0;
  for (int r = 0; r < repeats; ++r) {
    incremental_index.Rebuild(candidates);
    WallTimer timer;
    const bool patched = incremental_index.RefreshDirty();
    const double elapsed = timer.ElapsedSeconds();
    VOS_CHECK(patched) << "an unchanged sketch fell back to Rebuild";
    if (r == 0 || elapsed < owner_build_seconds) owner_build_seconds = elapsed;
  }
  emit("index", "owner-build", 1, 1, 1, owner_build_seconds,
       candidates.size() / owner_build_seconds, "rows/s",
       full_rebuild_seconds / owner_build_seconds);
  CheckIndexesIdentical(incremental_index, full_index);

  ItemId next_item = static_cast<ItemId>(elements.size()) + 1000;
  double speedup_at_10pct = 0.0;
  for (const double frac : {0.01, 0.10, 0.50}) {
    const size_t dirty_count = std::max<size_t>(
        1, static_cast<size_t>(frac * static_cast<double>(candidates.size())));
    double refresh_seconds = 0.0;
    for (int r = 0; r < repeats; ++r) {
      // Touch the first `dirty_count` candidates with a few inserts each.
      for (size_t i = 0; i < dirty_count; ++i) {
        for (int e = 0; e < 3; ++e) {
          sketch.Update({candidates[i], next_item++, Action::kInsert});
        }
      }
      WallTimer timer;
      incremental_index.RefreshDirty();
      const double elapsed = timer.ElapsedSeconds();
      if (r == 0 || elapsed < refresh_seconds) refresh_seconds = elapsed;
      full_index.Rebuild(candidates);
      CheckIndexesIdentical(incremental_index, full_index);
    }
    const double speedup = full_rebuild_seconds / refresh_seconds;
    if (frac == 0.10) speedup_at_10pct = speedup;
    emit("index", "refresh-" + TablePrinter::FormatDouble(frac, 2), 1, 1, 1,
         refresh_seconds, candidates.size() / refresh_seconds, "rows/s",
         speedup);
  }

  EmitTable(flags, table, header, rows);
  MaybeEmitJson(flags, "micro_ingest_path", header, rows);

  std::printf("\nall sharded pipelines (single- and multi-producer) "
              "verified identical to synchronous routing; every "
              "RefreshDirty verified bit-identical to a full Rebuild.\n");
  std::printf("async ingest scaling 1 -> %u shards: %.2fx (needs >= %u "
              "hardware threads to be meaningful) | RefreshDirty speedup "
              "at 10%% dirty: %.2fx (target >= 5x)\n",
              max_shards,
              async_max_shards_seconds > 0.0
                  ? async_1shard_seconds / async_max_shards_seconds
                  : 0.0,
              max_shards, speedup_at_10pct);
  std::printf("multi-producer scaling 1 -> %u producers at %u shards: "
              "%.2fx (target >= 2x at S >= 4; needs >= %u hardware "
              "threads — producers + shard workers — to be meaningful)\n",
              producers_measured,
              max_shards,
              async_max_producers_seconds > 0.0
                  ? async_1producer_seconds / async_max_producers_seconds
                  : 0.0,
              max_shards + producers_measured);
  return 0;
}
