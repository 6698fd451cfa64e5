// Reference answer for the WordCount sliding window, computed from the
// generated stream alone (no engine code), so the engine's window can be
// checked against it.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/tuple.h"

namespace perfbench {

using prompt::KeyId;
using WindowMap = std::unordered_map<KeyId, double>;

/// \brief Per-key tuple counts over the last `window_batches` batches.
///
/// Keeps each retained batch's raw keys; WindowAt() folds them on demand, so
/// the cost sits at the (rare) check points, not in the per-batch loop.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(uint32_t window_batches)
      : window_batches_(window_batches) {}

  /// Records batch `batch_id`'s keys (ids must be consecutive). Batches
  /// older than any window a later WindowAt() can ask for are dropped.
  void AddBatch(uint64_t batch_id, std::vector<KeyId> keys);

  /// Per-key counts over batches (batch_id - window_batches, batch_id]; keys
  /// whose count is 0 are absent, as in the engine's window. Empty when
  /// batch_id is not retained.
  WindowMap WindowAt(uint64_t batch_id) const;

 private:
  struct Batch {
    uint64_t id;
    std::vector<KeyId> keys;
  };
  uint32_t window_batches_;
  std::deque<Batch> batches_;
};

/// Empty when equal; otherwise a one-line description of the first
/// difference found (size, missing key, or differing count).
std::string DiffWindows(const WindowMap& got, const WindowMap& want);

}  // namespace perfbench
