#include "core/vos_sketch.h"

#include <algorithm>
#include <atomic>

namespace vos::core {
namespace {

// Flip-log generations are unique across every sketch in the process, so
// a consumer's recorded generation can only match the log it cleared.
uint64_t NextFlipLogGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

VosSketch::VosSketch(const VosConfig& config, UserId num_users)
    : config_(config),
      psi_seed_(hash::DeriveSeed(config.seed, 0x9a11)),
      f_seed_(config.f_seed != 0 ? config.f_seed
                                 : hash::DeriveSeed(config.seed, 0xf00d)),
      array_(config.m),
      cardinality_(num_users, 0),
      dirty_epoch_(config.track_dirty ? num_users : 0, 0),
      flip_log_overflowed_(!config.track_dirty),
      flip_log_generation_(NextFlipLogGeneration()) {
  VOS_CHECK(config.k >= 1) << "virtual sketch needs at least one bit";
  VOS_CHECK(config.m >= 1) << "shared array must be non-empty";
  if (config.track_dirty && config.m <= uint64_t{1} << 32) {
    flip_log_capacity_ = std::max<size_t>(1024, config.m / 64);
    flip_log_.reserve(flip_log_capacity_);
  }
  {
    std::vector<uint64_t> seeds(config.k);
    for (uint32_t j = 0; j < config.k; ++j) {
      seeds[j] = hash::DeriveSeed(f_seed_, j);
    }
    f_seeds_ = std::make_shared<const std::vector<uint64_t>>(std::move(seeds));
  }
  switch (config.psi_kind) {
    case PsiKind::kTwoUniversal:
      psi_two_universal_ = std::make_shared<hash::TwoUniversalHash>(
          psi_seed_, config.k);
      break;
    case PsiKind::kTabulation:
      psi_tabulation_ = std::make_shared<hash::TabulationHash>(psi_seed_);
      break;
    case PsiKind::kMixer:
      break;
  }
}

void VosSketch::MergeFrom(const VosSketch& other) {
  VOS_CHECK(IsCompatibleWith(other))
      << "merging incompatible VOS sketches (config/user-count mismatch)";
  array_.XorWith(other.array_);
  for (size_t u = 0; u < cardinality_.size(); ++u) {
    if (other.cardinality_[u] != 0) {
      cardinality_[u] += other.cardinality_[u];
      MarkDirty(static_cast<UserId>(u));
    }
  }
  InvalidateFlipLog();
}

void VosSketch::UpdateBatch(const Element* elements, size_t count) {
  constexpr size_t kGroup = 16;
  uint64_t cells[kGroup];
  const bool tracking = tracks_dirty();
  for (size_t base = 0; base < count; base += kGroup) {
    const size_t group = std::min(kGroup, count - base);
    const Element* batch = elements + base;
    for (size_t t = 0; t < group; ++t) {
      cells[t] = CellOf(batch[t].user, BucketOf(batch[t].item));
      __builtin_prefetch(array_.words().data() + (cells[t] >> 6), 1);
      __builtin_prefetch(&cardinality_[batch[t].user], 1);
      if (tracking) __builtin_prefetch(&dirty_epoch_[batch[t].user], 1);
    }
    for (size_t t = 0; t < group; ++t) Apply(batch[t], cells[t]);
  }
}

void VosSketch::InvalidateFlipLog() const {
  flip_log_.clear();
  flip_log_generation_ = NextFlipLogGeneration();
}

void VosSketch::ClearDirtyUsers() const {
  dirty_users_.clear();
  InvalidateFlipLog();
  flip_log_overflowed_ = !tracks_dirty();
  if (++dirty_current_epoch_ == 0) {
    // uint32 epoch wrapped: reset the per-user epochs so stale entries
    // from 2^32 snapshots ago cannot alias the fresh epoch.
    std::fill(dirty_epoch_.begin(), dirty_epoch_.end(), 0u);
    dirty_current_epoch_ = 1;
  }
}

BitVector VosSketch::ExtractUserSketch(UserId user) const {
  BitVector sketch(config_.k);
  for (uint32_t j = 0; j < config_.k; ++j) {
    if (GetUserBit(user, j)) sketch.Flip(j);
  }
  return sketch;
}

}  // namespace vos::core
