// Sharded parallel ingest pipeline: multi-core frequency-aware buffering
// with a heartbeat k-way merge.
//
// The seed's batching phase is single-threaded — one thread drains the
// ingestion queue into one accumulator — so Alg. 1 throughput is capped by
// one core. Prompt's design shards cleanly: per-key accumulator state is
// independent across disjoint key sets, so tuples routed by hash(key) % S
// land in S private accumulators (MakeAccumulator(key_mode)) that never
// share state. At the early-release cut-off a seal barrier stops all shards
// and a loser-tree k-way merge interleaves the per-shard quasi-sorted run
// lists into one global quasi-sorted list with exact counts, which feeds
// Alg. 2 (BuildPromptPlan) unchanged.
//
// Thread roles:
//   router (caller of Ingest)  --SPSC ring-->  shard worker 0..S-1
// Each ring is strictly single-producer/single-consumer and carries tuples
// in chunks: the router stages up to kChunk tuples per shard and pushes them
// as one message, so the release store and the pop are paid once per chunk
// instead of once per tuple. Batch control (Begin/Seal) travels in-band
// through the same rings, and the router flushes every partial chunk before
// it pushes a seal, so a worker has consumed every tuple of a batch before
// it sees the batch's seal message.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "common/status.h"
#include "core/accumulator_api.h"
#include "core/partitioner.h"
#include "ingest/spsc_ring.h"
#include "model/key_filter.h"
#include "obs/metrics_registry.h"
#include "stats/ewma.h"
#include "stats/metrics.h"

namespace prompt {

/// \brief Batching-phase ingest configuration. This is the grouped options
/// block exposed as `EngineOptions::ingest` (and mirrored by the
/// multi-tenant engine); the pipeline itself consumes it directly.
struct IngestOptions {
  /// Shard workers (>= 1). The engine runs the accumulator inline on the
  /// router thread at 1; the pipeline itself accepts 1 and still exercises
  /// the full route/seal/merge path on a single worker thread.
  uint32_t shards = 1;
  /// Per-shard SPSC ring capacity in tuples. The ring holds
  /// pow2(max(2, ceil(ring_capacity / kChunk))) messages of
  /// ParallelIngestPipeline::kChunk tuples each, so it fits at least this
  /// many tuples. A full ring blocks the router — back-pressure toward the
  /// source.
  size_t ring_capacity = 16 * 1024;
  /// Exact vs heavy-hitter ingest, and with it the Alg. 1 implementation
  /// every shard runs (MakeAccumulator(key_mode)). Under kSketch the
  /// per-shard sketches are folded into global batch telemetry at the seal
  /// barrier and the per-shard tail buckets are stitched bucket-by-bucket
  /// (same tail hash on every shard, so bucket i holds the same key slice
  /// everywhere).
  KeyMode key_mode = KeyMode::kExact;
  /// Base (whole-batch) Alg. 1 options — the budget / N_est / K_avg
  /// overrides. Each shard receives a proportionally scaled copy:
  /// estimated_tuples / S and avg_keys / S, same budget — the per-key
  /// frequency step then matches the single-accumulator setting.
  AccumulatorOptions accumulator_options;
};

/// Historical name of the pipeline's config, now the engine-wide grouping.
using ParallelIngestOptions = IngestOptions;

/// Upper bounds on the options that size threads and rings. They are fixed,
/// not derived from the host, so a journal recorded on one host replays on
/// any other.
inline constexpr uint32_t kMaxIngestShards = 256;
inline constexpr size_t kMaxIngestRingCapacity = size_t{1} << 22;

/// \brief The one range check for ingest options: shards in
/// [1, kMaxIngestShards] and ring_capacity in [2, kMaxIngestRingCapacity]
/// tuples. Every entry point that takes these values from outside (engine
/// construction, journal manifests, CLI flags) calls it before any ring is
/// allocated or any thread started.
Status ValidateIngestOptions(const IngestOptions& options);

/// \brief S shard workers, each owning a private Accumulator (created via
/// MakeAccumulator), fed over lock-free SPSC rings; sealed per-shard runs
/// are k-way merged at the heartbeat into one AccumulatedBatch with exact
/// per-key counts.
///
/// Lifecycle per batch interval, driven by one router thread:
///   BeginBatch(start, end) -> Ingest(t)* -> SealBatch()
/// The view returned by SealBatch stays valid until the next BeginBatch,
/// mirroring an accumulator's storage lifetime contract.
class ParallelIngestPipeline {
 public:
  /// Tuples per ring message.
  static constexpr uint32_t kChunk = 64;

  /// `options` must pass ValidateIngestOptions.
  explicit ParallelIngestPipeline(IngestOptions options);
  ~ParallelIngestPipeline();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(ParallelIngestPipeline);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Alg. 1 estimate feedback (N_est, K_avg), divided across shards at the
  /// next BeginBatch.
  void UpdateEstimates(uint64_t estimated_tuples, uint64_t avg_keys);

  /// The shared-ingest feedback rule: folds the last sealed batch's merged
  /// totals into alpha = 0.4 EWMAs and applies them through UpdateEstimates.
  /// In sketch mode num_keys() counts only promoted head runs — feeding
  /// that back would collapse K_avg toward 1, blow up the auto promote
  /// threshold (4 * N_est / K_avg) and lock the sketch out of promoting —
  /// so the HLL distinct estimate stands in when it is larger. Call between
  /// SealBatch and the next BeginBatch.
  void ObserveSealedBatch();

  /// Opens a batch interval [start, end) on every shard.
  void BeginBatch(TimeMicros start, TimeMicros end);

  /// Routes one tuple to its shard (hash(key) % S) by appending it to the
  /// shard's staged chunk; a full chunk is pushed to the shard's ring, which
  /// blocks (with backoff) while the ring is full.
  void Ingest(const Tuple& t);

  /// Seal barrier + merge: flushes every shard's partial chunk, stops every
  /// shard, waits for their seals, rebases the per-shard tuple chains into
  /// one merged arena (workers copy their segments in parallel) while the
  /// router loser-tree-merges the quasi-sorted run lists, and returns the
  /// combined batch view.
  const AccumulatedBatch& SealBatch();

  /// Ingest observability for the batch most recently sealed.
  const IngestMetrics& last_metrics() const { return metrics_; }

  /// Publishes cumulative ingest activity (per-shard routed tuples, router
  /// stalls on full rings, seal/merge latency distributions) into
  /// `registry`. nullptr disables (the default). Call from the router thread
  /// before the first BeginBatch.
  void BindMetrics(MetricsRegistry* registry);

 private:
  struct IngestMsg {
    enum Kind : uint32_t { kTuple = 0, kBegin = 1, kSeal = 2 };
    uint32_t kind = kTuple;
    uint32_t count = 0;  // kTuple: tuples[0, count) are this chunk
    Tuple tuples[kChunk];
  };

  struct Shard {
    Shard(size_t ring_slots, std::unique_ptr<Accumulator> acc)
        : ring(ring_slots), accumulator(std::move(acc)) {}

    SpscRing<IngestMsg> ring;
    IngestMsg stage;  // router-owned: the chunk being filled
    std::thread worker;
    std::unique_ptr<Accumulator> accumulator;

    // Seal handshake (written by the worker, read by the router after the
    // barrier; the pipeline mutex orders the non-atomic fields).
    AccumulatedBatch sealed;
    uint64_t arena_offset = 0;  // set by router between barrier phases
    ShardIngestStats stats;
    Counter* tuples_total = nullptr;  // optional instrumentation (router-side)
  };

  void WorkerLoop(uint32_t index);
  void PushMsg(uint32_t shard, const IngestMsg& msg);
  /// Pushes shard `s`'s staged chunk, if any, and samples ring occupancy.
  void FlushStage(uint32_t s);

  IngestOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Batch parameters published before the kBegin message is pushed; the
  // ring's release/acquire pair orders them for the workers.
  TimeMicros batch_start_ = 0;
  TimeMicros batch_end_ = 0;
  AccumulatorOptions shard_options_;

  // Two-phase seal barrier (mutex + condvar; shards may outnumber cores, so
  // parking beats spinning).
  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t sealed_count_ = 0;
  uint32_t copied_count_ = 0;
  uint64_t copy_epoch_ = 0;   // workers copy when this reaches their epoch
  uint64_t batch_epoch_ = 0;  // per-worker progress tracking

  // Merged storage backing the returned AccumulatedBatch view.
  std::vector<Tuple> merged_arena_;
  std::vector<uint32_t> merged_next_;
  AccumulatedBatch merged_batch_;

  IngestMetrics metrics_;
  Ewma est_tuples_{0.4};
  Ewma est_keys_{0.4};
  Stopwatch ingest_watch_;
  bool batch_open_ = false;

  // Optional instrumentation handles (all null or all set), router-side.
  Counter* ring_stalls_total_ = nullptr;
  HistogramMetric* seal_barrier_us_ = nullptr;
  HistogramMetric* merge_us_ = nullptr;
  /// Atomic: idle workers poll it outside the mutex.
  std::atomic<bool> stopped_{false};
};

/// \brief The engine's seal step on the sharded or sketch path: seals a
/// merged batch (SealBatch's view) through `partitioner` as batch
/// `batch_id`, keeping only the keys `filter` matches. Techniques with
/// the quasi-sorted fast path consume an unfiltered merge whole
/// (SealAccumulated); otherwise the filter's slice is replayed through
/// OnTuple in quasi-sorted order — whole key runs, then sketch-mode tail
/// tuples one by one (tail buckets mix keys, and skipping them would drop
/// never-promoted keys from the batch) — and sealed.
PartitionedBatch SealMerged(BatchPartitioner* partitioner,
                            const AccumulatedBatch& merged, uint64_t batch_id,
                            const KeyFilter& filter);

}  // namespace prompt
