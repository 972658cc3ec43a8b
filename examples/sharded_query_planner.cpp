// Sharded query planner: end-to-end shard-parallel write path + shard-aware
// read path.
//
// The pipeline this example walks through:
//
//   stream → ShardedVosSketch (dense user remap, per-shard worker threads)
//          → QueryPlanner (the query engine; one SimilarityIndex
//            snapshot per shard)
//          → AllPairsAbove / TopK answered as a scatter–gather with
//            cross-shard pairs estimated under the (1−2β_A)(1−2β_B)
//            correction, then refreshed incrementally after more churn.
//
// The same engine runs over a plain VosSketch as its one-shard case
// (QueryPlanner's VosSketch constructor, or VosMethod::MakeIndex).
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/sharded_query_planner

#include <cstdio>
#include <vector>

#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"

int main() {
  using vos::core::QueryOptions;
  using vos::core::QueryPlanner;
  using vos::core::ShardedVosConfig;
  using vos::core::ShardedVosSketch;
  using vos::stream::Action;
  using vos::stream::Element;
  using vos::stream::UserId;

  constexpr UserId kUsers = 2000;

  // Four shards splitting one 2^22-bit budget; two ingest workers drain
  // tagged batches concurrently. The dense remap means each shard's
  // per-user state is sized for the ~500 users it owns, not for all 2000.
  ShardedVosConfig config;
  config.base.k = 4096;
  config.base.m = uint64_t{1} << 22;
  config.base.seed = 7;
  config.num_shards = 4;
  config.ingest_threads = 2;
  ShardedVosSketch sketch(config, kUsers);

  // Communities of 5: members share their first 300 channels and keep 80
  // private ones. Pairs inside a community are similar (J ≈ 0.65);
  // everyone else is noise.
  std::vector<Element> batch;
  for (UserId u = 0; u < kUsers; ++u) {
    const uint32_t community = u / 5;
    for (uint32_t c = 0; c < 300; ++c) {
      batch.push_back({u, community * 100000 + c, Action::kInsert});
    }
    for (uint32_t c = 0; c < 80; ++c) {
      batch.push_back({u, 50000000 + u * 1000 + c, Action::kInsert});
    }
  }
  sketch.UpdateBatch(batch.data(), batch.size());
  // Quiesce the workers before snapshotting; a degraded pipeline would
  // make every number below meaningless.
  VOS_CHECK(sketch.Flush().ok());

  std::printf("ingested %zu elements into %u shards "
              "(%.1f bits/user total memory)\n",
              batch.size(), sketch.num_shards(),
              static_cast<double>(sketch.MemoryBits()) / kUsers);

  // Snapshot every shard index (incremental mode retains refresh state).
  std::vector<UserId> candidates;
  for (UserId u = 0; u < kUsers; ++u) candidates.push_back(u);
  QueryOptions options;
  options.incremental = true;
  QueryPlanner planner(sketch, {}, options);
  planner.Rebuild(candidates);

  const auto pairs = planner.AllPairsAbove(0.5);
  size_t cross_shard = 0;
  for (const auto& pair : pairs) {
    if (sketch.ShardOf(pair.u) != sketch.ShardOf(pair.v)) ++cross_shard;
  }
  std::printf("all-pairs J >= 0.5: %zu pairs (%zu of them cross-shard, "
              "expected ~%u from the planted communities)\n",
              pairs.size(), cross_shard, kUsers / 5 * 10);

  const auto top = planner.TopK(0, 4);
  std::printf("top-4 neighbours of user 0 (community 0..4):");
  for (const auto& entry : top) {
    std::printf("  u%u (J=%.2f)", entry.user, entry.jaccard);
  }
  std::printf("\n");

  // Churn one user, then refresh: each shard patches only the digest bits
  // its flip log says changed instead of re-extracting every row.
  for (uint32_t c = 0; c < 200; ++c) {
    sketch.Update({0, 0 * 100000u + c, Action::kDelete});
  }
  VOS_CHECK(sketch.Flush().ok());
  const bool incremental = planner.Refresh();
  const auto top_after = planner.TopK(0, 4);
  std::printf("after user 0 drops 200 shared channels (%s refresh): "
              "best neighbour J %.2f -> %.2f\n",
              incremental ? "incremental" : "fallback-rebuild",
              top.empty() ? 0.0 : top[0].jaccard,
              top_after.empty() ? 0.0 : top_after[0].jaccard);
  return 0;
}
