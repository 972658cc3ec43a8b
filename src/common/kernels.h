// Runtime-dispatched SIMD kernel table for the library's data-plane hot
// loops: XOR+popcount over digest rows, batched digest-bit extraction,
// and producer-side shard routing.
//
// One Release binary built for baseline x86-64 (or aarch64) carries every
// implementation the compiler could produce — scalar always, plus AVX2
// (Harley–Seal popcount, 4-lane hashing), AVX-512 (VPOPCNTDQ, 8-lane
// hashing with masked ragged tails and mask-register bit packing) and
// NEON (vcnt) variants compiled in their own translation units with
// per-file ISA flags — and picks the best one the *running* CPU supports
// at first use. Both x86 extraction kernels hash a whole 64-cell output
// word before gathering its cells, so a word's gathers overlap instead of
// each waiting on its own hash chain. This
// replaces the old model where the Hamming kernels only vectorized under
// a -march=native build, which pinned a binary to the build machine's
// microarchitecture (see CMakeLists.txt VOS_NATIVE_ARCH, now a pure
// tuning opt-in).
//
// Contract: every kernel at every dispatch level is BIT-IDENTICAL to the
// scalar reference — same popcounts, same extracted bits, same
// shard ids and locals — for every input, including
// unaligned row bases, odd strides and 0..7-word tails
// (tests/kernel_dispatch_test.cc sweeps all available levels against
// scalar). Dispatch therefore never changes results, only throughput, and
// the scalar table doubles as the reference implementation the rest of
// the system's bit-identity tests are anchored to.
//
// Selection order (first available wins): VOS_DISPATCH env override
// ("scalar" | "avx2" | "avx512" | "neon"; unknown or unavailable values
// warn to stderr once and fall through), then the best level the CPU
// supports. SetDispatchLevel() forces a level programmatically (tests and
// the bench --dispatch flag); Active() is safe to call concurrently with
// a SetDispatchLevel from another thread (atomic table pointer).
//
// Adding an ISA: add kernels_<isa>.cc exporting `const KernelTable*
// <Isa>Kernels()` (nullptr when the TU is compiled without the ISA), give
// the file its ISA flags + VOS_KERNELS_<ISA> define in CMakeLists.txt,
// add the probe in kernels.cc, and extend kernel_dispatch_test's sweep —
// the test needs no per-ISA code, it compares whatever AvailableLevels()
// reports. Keep ISA translation units free of project headers that
// define inline functions: an inline emitted under -mavx2 can be the copy
// the linker keeps, silently making the "baseline" binary crash on older
// CPUs.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vos::kernels {

/// The dispatch levels, in preference order (higher = wider).
enum class DispatchLevel : uint8_t {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// One resolved set of kernels. All entries are non-null; a level that
/// has no profitable implementation of some kernel aliases the scalar
/// one (NEON does this for the gather-shaped kernels).
struct KernelTable {
  /// popcount(a[i] ^ b[i]) summed over i in [0, n) — the Hamming
  /// distance between two n-word digest rows.
  size_t (*xor_popcount)(const uint64_t* a, const uint64_t* b, size_t n);

  /// 1×8 register-blocked variant: out[t] = popcount(a XOR
  /// (b_base + t·stride)) over n words, t in [0, 8).
  void (*xor_popcount8)(const uint64_t* a, const uint64_t* b_base,
                        size_t stride, size_t n, size_t out[8]);

  /// 2×4 variant: out[t] = popcount(a0 XOR (b_base + t·stride)),
  /// out[4+t] = popcount(a1 XOR (b_base + t·stride)), t in [0, 4).
  void (*xor_popcount2x4)(const uint64_t* a0, const uint64_t* a1,
                          const uint64_t* b_base, size_t stride, size_t n,
                          size_t out[8]);

  /// popcount(a[i]) summed over i in [0, n).
  size_t (*popcount_words)(const uint64_t* a, size_t n);

  /// Digest extraction (DigestMatrix::ExtractRowFromArray's hot loop):
  /// for j in [0, k), cell_j = ReduceToRange(Hash64(user, seeds[j]), m);
  /// bit j of dst = array_words[cell_j >> 6] >> (cell_j & 63) & 1. dst
  /// holds ceil(k/64) words; pad bits are zeroed. m may be up to 2^48.
  void (*extract_bits)(const uint64_t* array_words, const uint64_t* seeds,
                       uint32_t k, uint64_t user, uint64_t m, uint64_t* dst);

  /// Producer-side routing (ShardRouter::ShardOf over a batch):
  /// shards[i] = ReduceToRange(Mix64(users[i] ^ seed_mix), num_shards)
  /// with seed_mix = seed * 0x9e3779b97f4a7c15. When local_of is
  /// non-null, additionally locals[i] = local_of[users[i]] (the
  /// DenseShardMap gather; callers bounds-check users first).
  void (*route_batch)(const uint32_t* users, size_t n, uint64_t seed_mix,
                      uint32_t num_shards, const uint32_t* local_of,
                      uint16_t* shards, uint32_t* locals);

  DispatchLevel level;
  const char* name;  ///< "scalar" | "neon" | "avx2" | "avx512"
};

namespace internal {
/// The active table; nullptr until first resolution. Exposed only so
/// Active() can stay inline (one relaxed load on the hot path).
extern std::atomic<const KernelTable*> g_active;
/// Slow path: probes the CPU, applies VOS_DISPATCH, stores and returns
/// the chosen table. Idempotent and safe under concurrent first calls.
const KernelTable* ResolveActive();
}  // namespace internal

/// The kernels every hot path dispatches through. First call probes the
/// CPU and honours VOS_DISPATCH; later calls are one atomic load.
inline const KernelTable& Active() {
  const KernelTable* table =
      internal::g_active.load(std::memory_order_relaxed);
  if (table == nullptr) table = internal::ResolveActive();
  return *table;
}

/// Level of the table Active() currently returns.
DispatchLevel ActiveLevel();

/// The table for `level`, or nullptr when it is not compiled in or the
/// CPU lacks the ISA. TableFor(kScalar) never returns nullptr.
const KernelTable* TableFor(DispatchLevel level);

/// Every level available on this build + CPU, ascending (always starts
/// with kScalar).
std::vector<DispatchLevel> AvailableLevels();

/// Forces the active table. Returns false (and changes nothing) when the
/// level is unavailable. Used by tests and the bench --dispatch flags;
/// production binaries normally rely on the automatic probe.
bool SetDispatchLevel(DispatchLevel level);

/// Human-readable level name ("scalar", "neon", "avx2", "avx512").
const char* LevelName(DispatchLevel level);

/// Parses a LevelName back to its level; false on unknown strings.
bool ParseDispatchLevel(const char* s, DispatchLevel* out);

}  // namespace vos::kernels
