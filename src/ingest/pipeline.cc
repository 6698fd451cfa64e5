#include "ingest/pipeline.h"

#include <algorithm>
#include <span>
#include <string>

#include "common/hash.h"
#include "ingest/merge.h"

namespace prompt {

namespace {

// Per-shard Alg. 1 options: a shard sees ~1/S of the tuples and (with a
// well-mixed key hash) ~1/S of the keys, so N_est and K_avg shrink together
// and the initial frequency step f = N_est / (K_avg * budget) — and with it
// the per-key update cadence — matches the single-accumulator setting.
AccumulatorOptions ScaleForShard(AccumulatorOptions base, uint32_t shards) {
  base.estimated_tuples =
      std::max<uint64_t>(1, base.estimated_tuples / shards);
  base.avg_keys = std::max<uint64_t>(1, base.avg_keys / shards);
  return base;
}

}  // namespace

Status ValidateIngestOptions(const IngestOptions& options) {
  if (options.shards < 1 || options.shards > kMaxIngestShards) {
    return Status::Invalid("ingest.shards must be in [1, " +
                           std::to_string(kMaxIngestShards) + "], got " +
                           std::to_string(options.shards));
  }
  if (options.ring_capacity < 2 ||
      options.ring_capacity > kMaxIngestRingCapacity) {
    return Status::Invalid("ingest.ring_capacity must be in [2, " +
                           std::to_string(kMaxIngestRingCapacity) +
                           "] tuples, got " +
                           std::to_string(options.ring_capacity));
  }
  return Status::OK();
}

ParallelIngestPipeline::ParallelIngestPipeline(IngestOptions options)
    : options_(options) {
  PROMPT_CHECK(ValidateIngestOptions(options_).ok());
  shard_options_ =
      ScaleForShard(options_.accumulator_options, options_.shards);
  // The ring counts chunk messages; SpscRing rounds up to a power of two.
  const size_t ring_slots = std::max<size_t>(
      2, (options_.ring_capacity + kChunk - 1) / kChunk);
  shards_.reserve(options_.shards);
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        ring_slots, MakeAccumulator(options_.key_mode, shard_options_)));
    shards_.back()->stats.ring_capacity =
        shards_.back()->ring.capacity() * kChunk;
  }
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

ParallelIngestPipeline::~ParallelIngestPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ParallelIngestPipeline::UpdateEstimates(uint64_t estimated_tuples,
                                             uint64_t avg_keys) {
  options_.accumulator_options.estimated_tuples =
      std::max<uint64_t>(1, estimated_tuples);
  options_.accumulator_options.avg_keys = std::max<uint64_t>(1, avg_keys);
}

void ParallelIngestPipeline::ObserveSealedBatch() {
  const SketchBatchStats& stats = merged_batch_.stats();
  est_tuples_.Observe(static_cast<double>(merged_batch_.num_tuples()));
  est_keys_.Observe(static_cast<double>(
      stats.sketch_mode
          ? std::max(merged_batch_.num_keys(), stats.distinct_estimate)
          : merged_batch_.num_keys()));
  UpdateEstimates(static_cast<uint64_t>(est_tuples_.Value()),
                  static_cast<uint64_t>(est_keys_.Value()));
}

void ParallelIngestPipeline::BindMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  ring_stalls_total_ =
      registry->GetCounter("prompt_ingest_ring_stalls_total");
  seal_barrier_us_ = registry->GetHistogram("prompt_ingest_seal_barrier_us");
  merge_us_ = registry->GetHistogram("prompt_ingest_merge_us");
  for (uint32_t i = 0; i < num_shards(); ++i) {
    shards_[i]->tuples_total = registry->GetCounter(
        "prompt_ingest_tuples_total", {{"shard", std::to_string(i)}});
  }
}

void ParallelIngestPipeline::PushMsg(uint32_t shard, const IngestMsg& msg) {
  if (shards_[shard]->ring.TryPush(msg)) return;
  if (ring_stalls_total_ != nullptr) ring_stalls_total_->Increment();
  SpinBackoff backoff;
  do {
    backoff.Pause();
  } while (!shards_[shard]->ring.TryPush(msg));
}

void ParallelIngestPipeline::BeginBatch(TimeMicros start, TimeMicros end) {
  PROMPT_CHECK(!batch_open_);
  batch_start_ = start;
  batch_end_ = end;
  shard_options_ =
      ScaleForShard(options_.accumulator_options, num_shards());
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed_count_ = 0;
    copied_count_ = 0;
  }
  ++batch_epoch_;
  IngestMsg begin;
  begin.kind = IngestMsg::kBegin;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    shards_[i]->stats.ring_high_water = 0;
    // Batch params and scaled options are published above; the ring push's
    // release store orders them before the worker's kBegin.
    PushMsg(i, begin);
  }
  batch_open_ = true;
  ingest_watch_.Restart();
}

void ParallelIngestPipeline::Ingest(const Tuple& t) {
  const uint32_t s =
      static_cast<uint32_t>(HashKey(t.key) % num_shards());
  IngestMsg& stage = shards_[s]->stage;
  stage.tuples[stage.count++] = t;
  if (stage.count == kChunk) FlushStage(s);
}

void ParallelIngestPipeline::FlushStage(uint32_t s) {
  Shard& shard = *shards_[s];
  if (shard.stage.count == 0) return;
  PushMsg(s, shard.stage);
  shard.stage.count = 0;
  // Occupancy is sampled once per chunk push, in tuples: reading both ring
  // indices is a shared-line access the cached-index ring otherwise avoids.
  shard.stats.ring_high_water = std::max<uint64_t>(
      shard.stats.ring_high_water, shard.ring.size() * kChunk);
}

const AccumulatedBatch& ParallelIngestPipeline::SealBatch() {
  PROMPT_CHECK(batch_open_);
  metrics_.ingest_wall = ingest_watch_.ElapsedMicros();

  // Ring FIFO order puts each shard's last partial chunk ahead of its seal.
  IngestMsg seal;
  seal.kind = IngestMsg::kSeal;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    FlushStage(i);
    PushMsg(i, seal);
  }

  // Phase 1: the seal barrier. Every worker drains its ring (FIFO order
  // guarantees it has consumed all of this batch's tuples), seals its
  // accumulator and reports in.
  Stopwatch barrier_watch;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return sealed_count_ == num_shards(); });
  }
  metrics_.seal_barrier_latency = barrier_watch.ElapsedMicros();

  // Phase 2: rebase + merge. Shard chains are index-based, so concatenating
  // the arenas with per-shard offsets preserves every chain; workers copy
  // their own segments while this thread merges the run lists.
  Stopwatch merge_watch;
  uint64_t total = 0;
  for (auto& shard : shards_) {
    shard->arena_offset = total;
    total += shard->stats.tuples;
  }
  PROMPT_CHECK_MSG(total < SortedKeyRun::kNoTuple,
                   "merged batch exceeds 32-bit arena addressing");
  merged_arena_.resize(total);
  merged_next_.resize(total);
  {
    std::lock_guard<std::mutex> lock(mu_);
    copy_epoch_ = batch_epoch_;
    cv_.notify_all();
  }

  std::vector<std::span<const SortedKeyRun>> inputs;
  inputs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    inputs.emplace_back(shard->sealed.keys());
  }
  LoserTree tree(std::move(inputs));
  std::vector<SortedKeyRun> runs;
  runs.reserve(tree.remaining());
  SortedKeyRun run;
  uint32_t source = 0;
  while (tree.Next(&run, &source)) {
    if (run.head != SortedKeyRun::kNoTuple) {
      run.head += static_cast<uint32_t>(shards_[source]->arena_offset);
    }
    runs.push_back(run);
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return copied_count_ == num_shards(); });
  }
  metrics_.merge_latency = merge_watch.ElapsedMicros();

  const TupleStorageView merged_view = TupleStorageView::Rows(
      merged_arena_.data(), merged_next_.data(), merged_arena_.size());
  if (options_.key_mode == KeyMode::kSketch) {
    // Stitch per-shard tail buckets: the tail hash is identical on every
    // shard, so global bucket i is the concatenation of each shard's bucket
    // i. Workers already rebased their chain links into the merged arena;
    // the router only rewrites each shard-chain terminator to point at the
    // next shard's bucket head. Runs after the copy barrier — the
    // terminators being patched were written by the workers.
    size_t num_buckets = 0;
    for (const auto& shard : shards_) {
      num_buckets = std::max(num_buckets, shard->sealed.tail().size());
    }
    std::vector<TailBucket> merged_tail(num_buckets);
    SketchBatchStats stats;
    stats.sketch_mode = true;
    for (const auto& shard : shards_) {
      const uint32_t off = static_cast<uint32_t>(shard->arena_offset);
      const auto& shard_tail = shard->sealed.tail();
      for (size_t b = 0; b < shard_tail.size(); ++b) {
        if (shard_tail[b].head == SortedKeyRun::kNoTuple) continue;
        const uint32_t head = shard_tail[b].head + off;
        const uint32_t tail = shard_tail[b].tail + off;
        if (merged_tail[b].head == SortedKeyRun::kNoTuple) {
          merged_tail[b].head = head;
        } else {
          merged_next_[merged_tail[b].tail] = head;
        }
        merged_tail[b].tail = tail;
        merged_tail[b].tuples += shard_tail[b].tuples;
      }
      // Shards see disjoint key sets, so additive fields sum exactly; the
      // untracked-frequency ceiling is the worst shard's floor.
      const SketchBatchStats& s = shard->sealed.stats();
      stats.head_tuples += s.head_tuples;
      stats.tail_tuples += s.tail_tuples;
      stats.tracked_keys += s.tracked_keys;
      stats.promoted_keys += s.promoted_keys;
      stats.distinct_estimate += s.distinct_estimate;
      stats.min_count = std::max(stats.min_count, s.min_count);
      stats.error_frac +=
          s.error_frac * static_cast<double>(s.head_tuples + s.tail_tuples);
    }
    stats.error_frac = total == 0
                           ? 0.0
                           : stats.error_frac / static_cast<double>(total);
    merged_batch_ = AccumulatedBatch::FromMergedSketch(
        total, std::move(runs), merged_view, std::move(merged_tail), stats);
  } else {
    merged_batch_ = AccumulatedBatch::FromMerged(total, std::move(runs),
                                                 merged_view);
  }
  metrics_.shards.clear();
  metrics_.shards.reserve(shards_.size());
  for (const auto& shard : shards_) metrics_.shards.push_back(shard->stats);
  metrics_.total_tuples = total;
  if (seal_barrier_us_ != nullptr) {
    seal_barrier_us_->Observe(
        static_cast<double>(metrics_.seal_barrier_latency));
    merge_us_->Observe(static_cast<double>(metrics_.merge_latency));
    for (const auto& shard : shards_) {
      shard->tuples_total->Increment(shard->stats.tuples);
    }
  }
  batch_open_ = false;
  return merged_batch_;
}

void ParallelIngestPipeline::WorkerLoop(uint32_t index) {
  Shard& shard = *shards_[index];
  SpinBackoff backoff;
  uint64_t my_epoch = 0;
  // One message reused across pops: constructing one per iteration would
  // zero kChunk tuples on every spin.
  IngestMsg msg;
  for (;;) {
    if (!shard.ring.TryPop(&msg)) {
      if (stopped_) return;
      backoff.Pause();
      continue;
    }
    backoff.Reset();
    switch (msg.kind) {
      case IngestMsg::kTuple:
        for (uint32_t i = 0; i < msg.count; ++i) {
          shard.accumulator->OnTuple(msg.tuples[i]);
        }
        break;
      case IngestMsg::kBegin:
        shard.accumulator->set_options(shard_options_);
        shard.accumulator->Begin(batch_start_, batch_end_);
        ++my_epoch;
        break;
      case IngestMsg::kSeal: {
        Stopwatch seal_watch;
        shard.sealed = shard.accumulator->Seal();
        shard.stats.seal_latency = seal_watch.ElapsedMicros();
        shard.stats.tuples = shard.accumulator->num_tuples();
        shard.stats.keys = shard.accumulator->num_keys();
        {
          std::unique_lock<std::mutex> lock(mu_);
          ++sealed_count_;
          cv_.notify_all();
          cv_.wait(lock, [this, my_epoch] {
            return copy_epoch_ >= my_epoch || stopped_;
          });
          if (stopped_) return;
        }
        Stopwatch copy_watch;
        const uint32_t off = static_cast<uint32_t>(shard.arena_offset);
        // The merged arena is row-major regardless of the shard accumulator's
        // layout: Alg. 2's MaterializePlan walks chains with random access,
        // which favors whole-tuple rows, and the view keeps the copy generic
        // across kinds.
        const TupleStorageView view = shard.accumulator->storage();
        const size_t n = view.size();
        for (size_t i = 0; i < n; ++i) {
          const uint32_t idx = static_cast<uint32_t>(i);
          merged_arena_[off + i] = view.At(idx);
          const uint32_t nx = view.Next(idx);
          merged_next_[off + i] =
              nx == SortedKeyRun::kNoTuple ? SortedKeyRun::kNoTuple : nx + off;
        }
        shard.stats.copy_latency = copy_watch.ElapsedMicros();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++copied_count_;
          cv_.notify_all();
        }
        break;
      }
    }
  }
}

PartitionedBatch SealMerged(BatchPartitioner* partitioner,
                            const AccumulatedBatch& merged, uint64_t batch_id,
                            const KeyFilter& filter) {
  PartitionedBatch batch;
  if (filter.kind == KeyFilter::Kind::kAll &&
      partitioner->SealAccumulated(merged, batch_id, &batch)) {
    return batch;
  }
  auto replay = [&](const Tuple& t) { partitioner->OnTuple(t); };
  for (const SortedKeyRun& run : merged.keys()) {
    if (filter.Matches(run.key)) {
      merged.ForEachTuple(run, 0, run.count, replay);
    }
  }
  for (const TailBucket& bucket : merged.tail()) {
    merged.ForEachTailTuple(bucket, [&](const Tuple& t) {
      if (filter.Matches(t.key)) replay(t);
    });
  }
  return partitioner->Seal(batch_id);
}

}  // namespace prompt
