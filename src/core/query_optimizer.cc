#include "core/query_optimizer.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

#include "core/scan_common.h"

namespace vos::core::optimizer {

size_t TriangleWindowPairs(const uint32_t* cards, size_t n, double tau,
                           bool prefilter) {
  if (n < 2) return 0;
  if (!prefilter) return n * (n - 1) / 2;
  const double tau_frac = tau / (1.0 + tau);
  size_t pairs = 0;
  size_t end = 1;
  // Window ends are monotone in p (a larger card admits every partner a
  // smaller one does — scan::CardinalityFail is monotone), so the sweep
  // is O(n) total: `end` only moves forward.
  for (size_t p = 0; p + 1 < n; ++p) {
    const double card_p = cards[p];
    if (end < p + 1) end = p + 1;
    while (end < n &&
           !scan::CardinalityFail(card_p, card_p + cards[end], tau_frac)) {
      ++end;
    }
    pairs += end - (p + 1);
  }
  return pairs;
}

size_t RectangleWindowPairs(const uint32_t* cards_a, size_t n_a,
                            const uint32_t* cards_b, size_t n_b, double tau,
                            bool prefilter) {
  if (n_a == 0 || n_b == 0) return 0;
  if (!prefilter) return n_a * n_b;
  const double tau_frac = tau / (1.0 + tau);
  size_t pairs = 0;
  size_t lo = 0, hi = 0;
  // Both window ends are non-decreasing in the a-row's cardinality (the
  // same partition points ScanRectTile binary-searches per row).
  for (size_t p = 0; p < n_a; ++p) {
    const double card_a = cards_a[p];
    while (lo < n_b &&
           scan::CardinalityFail(cards_b[lo], card_a + cards_b[lo],
                                 tau_frac)) {
      ++lo;
    }
    if (hi < lo) hi = lo;
    while (hi < n_b &&
           !scan::CardinalityFail(card_a, card_a + cards_b[hi], tau_frac)) {
      ++hi;
    }
    pairs += hi - lo;
  }
  return pairs;
}

namespace {

/// Parses a sysfs cache size string ("48K", "2048K", "260M") to bytes;
/// 0 on anything unexpected.
size_t ParseCacheSize(const std::string& text) {
  size_t value = 0;
  size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<size_t>(text[i] - '0');
    ++i;
  }
  if (i >= text.size()) return value;
  if (text[i] == 'K') return value << 10;
  if (text[i] == 'M') return value << 20;
  if (text[i] == 'G') return value << 30;
  return value;
}

/// Per-core cache budget for one tile's working set: min(L2, LLC/cores)
/// from /sys/devices/system/cpu/cpu0/cache, with a 256 KiB fallback when
/// the hierarchy cannot be read (non-Linux, sandboxes).
size_t DetectPerCoreCacheBytes() {
  size_t l2 = 0;
  size_t llc = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream type_file(base + "/type");
    std::ifstream level_file(base + "/level");
    std::ifstream size_file(base + "/size");
    if (!type_file || !level_file || !size_file) continue;
    std::string type, size_text;
    int level = 0;
    type_file >> type;
    level_file >> level;
    size_file >> size_text;
    if (type == "Instruction") continue;
    const size_t bytes = ParseCacheSize(size_text);
    if (bytes == 0) continue;
    if (level == 2) l2 = std::max(l2, bytes);
    llc = std::max(llc, bytes);
  }
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  size_t budget = l2;
  if (llc != 0) {
    const size_t llc_share = std::max<size_t>(llc / cores, size_t{64} << 10);
    budget = budget == 0 ? llc_share : std::min(budget, llc_share);
  }
  return budget == 0 ? size_t{256} << 10 : budget;
}

}  // namespace

size_t AdaptiveTileRows(size_t words_per_row) {
  static const size_t budget = DetectPerCoreCacheBytes();
  const size_t words = words_per_row == 0 ? 1 : words_per_row;
  // Two resident row ranges of 8-byte words per tile; target half the
  // budget so per-unit output buffers and the partner stream fit too.
  size_t tile = (budget / 2) / (2 * words * sizeof(uint64_t));
  tile &= ~size_t{7};
  return std::min<size_t>(std::max<size_t>(tile, 64), 2048);
}

}  // namespace vos::core::optimizer
