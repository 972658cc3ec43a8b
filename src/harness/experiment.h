// The evaluation protocol of §V as a reusable harness.
//
// Protocol (mirroring the paper):
//   1. Build the *static* graph (all base insertions) and select the top-N
//      users by cardinality, then the tracked pairs — pairs among them with
//      at least one common item.
//   2. Replay the fully dynamic stream into every method under test and
//      into the exact store simultaneously.
//   3. At each checkpoint t, compute exact PairTruths and every method's
//      PairEstimates for the tracked pairs, and reduce to AAPE(t) and
//      ARMSE(t).
//
// A separate single-method timing entry point (MeasureUpdateRuntime) backs
// the Figure 2 benches: it replays the stream through one method with
// nothing else on the hot path and returns wall-clock seconds.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/similarity_method.h"
#include "exact/exact_store.h"
#include "exact/pair_selection.h"
#include "harness/method_factory.h"
#include "harness/metrics.h"
#include "stream/graph_stream.h"

namespace vos::harness {

/// Tunables of an accuracy experiment.
struct ExperimentConfig {
  /// Top users by static cardinality to form pairs from (paper: 5,000;
  /// scaled with the datasets here).
  size_t top_users = 300;
  /// Cap on tracked pairs (0 = no cap); subsampled deterministically.
  size_t max_pairs = 20000;
  /// Number of evaluation checkpoints, evenly spaced over the stream.
  size_t num_checkpoints = 10;
  /// Worker threads for per-checkpoint batch digest extraction
  /// (SimilarityMethod::SetQueryThreads; 0 = hardware concurrency).
  /// Metrics are bit-identical for every value.
  unsigned query_threads = 0;
  /// Method sizing (base_k, λ, seeds, clamping), ingest knobs
  /// (vos_shards, ingest_threads, ingest_producers — the accuracy replay
  /// itself stays single-producer so checkpoint cuts are exact —
  /// ingest_batch, the latter of which also sets
  /// the replay batch size for both experiment entry points; metrics are
  /// identical for every value, since the default UpdateBatch is the
  /// element loop and batched methods quiesce via FlushIngest before
  /// each checkpoint).
  MethodFactoryConfig factory;
};

/// One method's metrics at one checkpoint.
struct MethodCheckpoint {
  std::string method;
  PairMetrics metrics;
};

/// One evaluation checkpoint.
struct Checkpoint {
  /// Stream time t (number of elements processed, 1-based like the paper).
  size_t t = 0;
  /// Live edges in the exact store at t (diagnostic).
  size_t live_edges = 0;
  std::vector<MethodCheckpoint> methods;
};

/// Full result of an accuracy experiment.
struct ExperimentResult {
  std::string stream_name;
  size_t stream_elements = 0;
  size_t tracked_pairs = 0;
  size_t tracked_users = 0;
  std::vector<Checkpoint> checkpoints;

  /// The final checkpoint (stream fully consumed), as used by Figures
  /// 3(b)/(d).
  const Checkpoint& Final() const { return checkpoints.back(); }
};

/// Runs the §V protocol for `method_names` on `stream`.
///
/// Checkpoints are evenly spaced; the last one always falls on the final
/// element. Returns InvalidArgument for unknown method names or an empty
/// stream.
StatusOr<ExperimentResult> RunAccuracyExperiment(
    const stream::GraphStream& stream,
    const std::vector<std::string>& method_names,
    const ExperimentConfig& config);

/// Replays `stream` through one freshly created method and returns seconds
/// of wall-clock update time (no queries on the path). Ingestion runs in
/// factory.ingest_batch-sized UpdateBatch calls with a FlushIngest inside
/// the timed region, so "VOS-sharded" is measured end-to-end — routing,
/// queues and shard workers included — under the factory's
/// vos_shards/ingest_threads/ingest_producers knobs. When the method
/// advertises ConcurrentIngestProducers() > 1, the stream is
/// pre-partitioned by user across that many lanes (outside the timed
/// region — deployed producers receive their own streams) and replayed by
/// one thread per lane, each flushing its own lane inside the timer.
/// Backs Figure 2 in serial, sharded and multi-producer configurations.
StatusOr<double> MeasureUpdateRuntime(const stream::GraphStream& stream,
                                      const std::string& method_name,
                                      const MethodFactoryConfig& factory);

/// Selects tracked users and pairs per the §V protocol from the *static*
/// graph (insertions only — deletions ignored). Exposed for tests and
/// examples.
struct TrackedSet {
  std::vector<stream::UserId> users;
  std::vector<exact::UserPair> pairs;
};
TrackedSet SelectTrackedSet(const stream::GraphStream& stream,
                            size_t top_users, size_t max_pairs,
                            uint64_t seed);

}  // namespace vos::harness
