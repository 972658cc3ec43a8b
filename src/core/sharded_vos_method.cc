#include "core/sharded_vos_method.h"

namespace vos::core {

namespace {

QueryOptions PlannerOptions(const ShardedVosSketch& sketch) {
  QueryOptions options;
  options.incremental = sketch.shard(0).flip_log_capacity() > 0;
  return options;
}

}  // namespace

ShardedVosMethod::ShardedVosMethod(const ShardedVosConfig& config,
                                   UserId num_users,
                                   VosEstimatorOptions options)
    : sketch_(config, num_users, options),
      planner_(sketch_, options, PlannerOptions(sketch_)) {}

Status ShardedVosMethod::Restore(const std::string& path) {
  VOS_RETURN_IF_ERROR(sketch_.Restore(path));
  prepared_ = false;
  return Status::OK();
}

void ShardedVosMethod::PrepareQuery(const std::vector<UserId>& users) {
  if (!sketch_.Flush().ok()) {
    // Degraded pipeline: refuse to re-snapshot suspect state and keep
    // serving the last snapshot (graceful degradation — the caller sees
    // the failure from FlushIngest, queries keep answering).
    return;
  }
  planner_.Prepare(users);
  prepared_ = true;
}

PairEstimate ShardedVosMethod::EstimatePair(UserId u, UserId v) const {
  return prepared_ ? planner_.EstimatePair(u, v)
                   : planner_.EstimateLivePair(u, v);
}

}  // namespace vos::core
