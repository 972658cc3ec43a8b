#include "core/digest_matrix.h"

#include <algorithm>
#include <thread>

#include "common/kernels.h"

namespace vos::core {

unsigned ResolveThreadCount(unsigned requested, size_t work_items) {
  unsigned threads = requested;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (work_items < threads) threads = static_cast<unsigned>(work_items);
  return std::max(threads, 1u);
}

void DigestMatrix::ExtractRowFromArray(const BitVector& array,
                                       const VosSketch& sketch, UserId user,
                                       uint64_t* dst) {
  VOS_DCHECK(array.size() == sketch.config().m)
      << "array/geometry size mismatch";
  const std::vector<uint64_t>& seeds = sketch.f_seed_table();
  const uint64_t m = sketch.config().m;
  const uint32_t k = sketch.config().k;
  // The per-j hash/gather/pack loop is the extraction kernel —
  // runtime-dispatched (4- or 8-lane hashing on AVX2/AVX-512),
  // bit-identical to scalar at every level.
  kernels::Active().extract_bits(array.words().data(), seeds.data(), k, user,
                                 m, dst);
}

void DigestMatrix::ExtractRow(const VosSketch& sketch, UserId user,
                              uint64_t* dst) {
  ExtractRowFromArray(sketch.array(), sketch, user, dst);
}

/// Shared thread-parallel fill over disjoint row ranges.
DigestMatrix DigestMatrix::BuildImpl(const BitVector& array,
                                     const VosSketch& sketch,
                                     const std::vector<stream::UserId>& users,
                                     unsigned num_threads) {
  DigestMatrix matrix;
  matrix.k_ = sketch.config().k;
  matrix.num_rows_ = users.size();
  matrix.words_per_row_ = DigestMatrix::WordsPerRow(matrix.k_);
  matrix.words_.assign(matrix.num_rows_ * matrix.words_per_row_, 0);
  if (matrix.num_rows_ == 0) return matrix;

  const auto extract_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      DigestMatrix::ExtractRowFromArray(
          array, sketch, users[i],
          matrix.words_.data() + i * matrix.words_per_row_);
    }
  };

  const unsigned threads = ResolveThreadCount(num_threads, matrix.num_rows_);
  if (threads <= 1) {
    extract_range(0, matrix.num_rows_);
    return matrix;
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const size_t chunk = (matrix.num_rows_ + threads - 1) / threads;
  for (unsigned t = 0; t < threads; ++t) {
    const size_t begin = std::min(matrix.num_rows_, t * chunk);
    const size_t end = std::min(matrix.num_rows_, begin + chunk);
    if (begin == end) break;
    workers.emplace_back(extract_range, begin, end);
  }
  for (std::thread& worker : workers) worker.join();
  return matrix;
}

DigestMatrix DigestMatrix::Build(const VosSketch& sketch,
                                 const std::vector<UserId>& users,
                                 unsigned num_threads) {
  return BuildImpl(sketch.array(), sketch, users, num_threads);
}

DigestMatrix DigestMatrix::BuildFromArray(const BitVector& array,
                                          const VosSketch& sketch,
                                          const std::vector<UserId>& users,
                                          unsigned num_threads) {
  VOS_CHECK(array.size() == sketch.config().m)
      << "array/geometry size mismatch";
  return BuildImpl(array, sketch, users, num_threads);
}

BitVector DigestMatrix::RowAsBitVector(size_t i) const {
  const uint64_t* row = Row(i);
  return BitVector::FromWords(
      k_, std::vector<uint64_t>(row, row + words_per_row_));
}

}  // namespace vos::core
