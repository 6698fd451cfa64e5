// Sliding-window query state over batch outputs (paper Fig. 3): the answer
// aggregates the last W batch outputs; expiring batches are subtracted via
// the inverse Reduce function instead of recomputation.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/robin_hood_map.h"
#include "engine/job.h"

namespace prompt {

/// \brief Maintains the windowed query answer incrementally.
class WindowState {
 public:
  WindowState(std::shared_ptr<ReduceFunction> reduce, uint32_t window_batches)
      : reduce_(std::move(reduce)),
        identity_(reduce_->Identity()),
        window_batches_(window_batches) {}

  /// Folds one batch's per-key output into the window, expiring the oldest
  /// batch when the window is full. Invertible aggregates retract the
  /// expired batch with the inverse Reduce; non-invertible ones (MIN/MAX)
  /// recompute the window answer from the retained batch outputs.
  void AddBatch(std::vector<KV> batch_output);

  /// Replaces the retained output of one in-window batch with a recomputed
  /// one (§8 replay after its bucket state died with a node). `index` counts
  /// from the oldest retained batch. The window answer is patched by
  /// retracting the old contribution and folding in the new one.
  Status ReplaceBatch(size_t index, std::vector<KV> batch_output);

  /// Current window answer: key -> aggregate over in-window batches.
  ///
  /// A cached view: the answer lives in a RobinHoodMap, and this map is
  /// materialised from it on the first call after a mutation. AddBatch,
  /// ReplaceBatch and Restore invalidate it (and references to its entries).
  /// Not safe across threads, because a const call may rebuild the view:
  /// call it from the thread that drives the engine.
  const std::unordered_map<KeyId, double>& Result() const;

  /// Number of batches currently inside the window.
  size_t depth() const { return history_.size(); }

  uint32_t window_batches() const { return window_batches_; }

  /// Top-k keys by aggregate (TopKCount workload helper).
  std::vector<KV> TopK(size_t k) const;

  /// Serializes the retained batch outputs (the window's authoritative
  /// state — the result map is derivable). Restore() rebuilds both; §8
  /// keeps state recoverable by recomputation, and checkpointing the
  /// per-batch outputs shortcuts that for planned restarts.
  std::string Checkpoint() const;
  Status Restore(const std::string& bytes);

  /// Slot count of the answer's hash table; test observability for its
  /// memory bound under key churn (the table never shrinks).
  size_t table_capacity() const { return result_.capacity(); }

 private:
  /// Combines `kv` into its key's aggregate, seeding a new key with the
  /// Reduce identity (±inf for MIN/MAX, so not the map's default 0).
  void Fold(const KV& kv);
  /// Removes `kv` with the inverse Reduce; a key whose aggregate returns to
  /// the identity leaves the answer.
  void Retract(const KV& kv);
  /// Rebuilds the answer from every retained batch (non-invertible path).
  void Recompute();
  /// Drops the materialised Result() view, freeing its nodes and buckets.
  void InvalidateView();

  std::shared_ptr<ReduceFunction> reduce_;
  double identity_;
  uint32_t window_batches_;
  std::deque<std::vector<KV>> history_;
  RobinHoodMap<double> result_;
  mutable std::unordered_map<KeyId, double> view_;
  mutable bool view_valid_ = false;
};

}  // namespace prompt
