// The traced run: drives each engine layer through its public calls, from
// the benchmark's own code, in the order the engine's run loop does, with a
// span around every call. The traced pipeline's windows must equal the engine's on
// the same stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/tuple.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Counts recorded at the same boundaries as the spans.
struct LayerCounts {
  uint64_t tuples = 0;  ///< stream tuples driven through the layers
  uint64_t batches = 0;
  uint64_t encoded_bytes = 0;  ///< EncodeBatch output (durable workloads)
  uint64_t journal_bytes = 0;  ///< journal bytes appended
  uint64_t reduce_alloc_calls = 0;
  uint64_t reduce_alloc_clusters = 0;
  double sketch_coverage_sum = 0.0;  ///< head coverage summed over seals
  uint64_t sketch_seals = 0;
};

class TracedPipeline {
 public:
  /// Drives `spec` at `shards` ingest shards. `state_dir` must be a fresh
  /// directory (durable workloads write their store and journal under it).
  TracedPipeline(const WorkloadSpec& spec, uint32_t shards,
               const std::string& state_dir, Tracer* tracer);
  ~TracedPipeline();
  TracedPipeline(const TracedPipeline&) = delete;
  TracedPipeline& operator=(const TracedPipeline&) = delete;

  const prompt::Status& init_status() const { return status_; }

  /// Runs batch `batch_id` over its tuples (all with ts inside the batch's
  /// interval) under one root span named "batch".
  void RunBatch(uint64_t batch_id, const std::vector<prompt::Tuple>& tuples);

  /// Starts counting from the next batch (counts before it are warm-up).
  void ResetCounts() { counts_ = LayerCounts{}; }
  const LayerCounts& counts() const { return counts_; }
  /// Store and journal calls that returned an error (any is a failure).
  uint64_t io_errors() const { return io_errors_; }

  size_t num_windows() const;
  const WindowMap& window(size_t i) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  prompt::Status status_;
  LayerCounts counts_;
  uint64_t io_errors_ = 0;
};

}  // namespace perfbench
