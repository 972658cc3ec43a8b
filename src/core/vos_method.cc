#include "core/vos_method.h"

namespace vos::core {
namespace {

QueryOptions PlannerOptions(unsigned num_threads, bool incremental) {
  QueryOptions options;
  options.num_threads = num_threads;
  options.incremental = incremental;
  return options;
}

}  // namespace

VosMethod::VosMethod(const VosConfig& config, UserId num_users,
                     VosEstimatorOptions options)
    : sketch_(config, num_users),
      planner_(sketch_, options,
               PlannerOptions(0, sketch_.flip_log_capacity() > 0)) {}

std::unique_ptr<QueryPlanner> VosMethod::MakeIndex(
    std::vector<UserId> candidates) const {
  auto planner = std::make_unique<QueryPlanner>(
      sketch_, planner_.estimator().options(),
      PlannerOptions(planner_.query_options().num_threads, false));
  planner->Rebuild(std::move(candidates));
  return planner;
}

void VosMethod::PrepareQuery(const std::vector<UserId>& users) {
  planner_.Prepare(users);
  prepared_ = true;
}

PairEstimate VosMethod::EstimatePair(UserId u, UserId v) const {
  return prepared_ ? planner_.EstimatePair(u, v)
                   : planner_.EstimateLivePair(u, v);
}

DedicatedOddSketchMethod::DedicatedOddSketchMethod(uint32_t bits_per_user,
                                                   UserId num_users,
                                                   uint64_t seed,
                                                   VosEstimatorOptions options)
    : bits_per_user_(bits_per_user),
      psi_seed_(hash::DeriveSeed(seed, 0x0dd)),
      estimator_(bits_per_user, options),
      sketches_(num_users, BitVector(bits_per_user)),
      cardinality_(num_users, 0) {
  VOS_CHECK(bits_per_user >= 1);
}

void DedicatedOddSketchMethod::Update(const Element& e) {
  const uint32_t bucket = static_cast<uint32_t>(
      hash::ReduceToRange(hash::Hash64(e.item, psi_seed_), bits_per_user_));
  sketches_[e.user].Flip(bucket);
  if (e.action == Action::kInsert) {
    ++cardinality_[e.user];
  } else {
    VOS_DCHECK(cardinality_[e.user] > 0) << "deletion below zero" << e;
    --cardinality_[e.user];
  }
}

PairEstimate DedicatedOddSketchMethod::EstimatePair(UserId u,
                                                    UserId v) const {
  const double alpha =
      static_cast<double>(sketches_[u].HammingDistance(sketches_[v])) /
      bits_per_user_;
  // Dedicated storage has no cross-user contamination: β = 0.
  return estimator_.Estimate(cardinality_[u], cardinality_[v], alpha,
                             /*beta=*/0.0);
}

size_t DedicatedOddSketchMethod::MemoryBits() const {
  size_t total = 0;
  for (const BitVector& sketch : sketches_) total += sketch.MemoryBits();
  return total;
}

}  // namespace vos::core
