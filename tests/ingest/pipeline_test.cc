#include "ingest/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/factory.h"
#include "common/hash.h"
#include "engine/engine.h"
#include "ingest/merge.h"
#include "reference/legacy_chain_accumulator.h"
#include "workload/sources.h"

namespace prompt {
namespace {

// A skewed tuple stream with timestamps spread over [start, end).
std::vector<Tuple> MakeStream(uint64_t n, uint64_t cardinality, uint64_t seed,
                              TimeMicros start, TimeMicros end) {
  std::mt19937_64 rng(seed);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  const TimeMicros span = end - start;
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    // Squaring a uniform variate skews toward low key ids (a cheap Zipf-ish
    // profile; the pipeline only cares that frequencies differ).
    const double u =
        static_cast<double>(rng() % 1000000) / 1000000.0;
    t.key = static_cast<KeyId>(u * u * static_cast<double>(cardinality));
    t.ts = start + static_cast<TimeMicros>(
                       (static_cast<double>(i) / static_cast<double>(n)) *
                       static_cast<double>(span));
    t.value = 1.0;
    tuples.push_back(t);
  }
  return tuples;
}

std::map<KeyId, uint64_t> KeyCounts(const AccumulatedBatch& batch) {
  std::map<KeyId, uint64_t> counts;
  for (const SortedKeyRun& run : batch.keys()) counts[run.key] += run.count;
  return counts;
}

// Full observable state of a merged batch: the quasi-sorted (key, count)
// sequence plus every chained tuple in chain order.
struct BatchImage {
  std::vector<std::pair<KeyId, uint64_t>> runs;
  std::vector<Tuple> chained;
  bool operator==(const BatchImage& o) const {
    if (runs != o.runs || chained.size() != o.chained.size()) return false;
    for (size_t i = 0; i < chained.size(); ++i) {
      if (chained[i].ts != o.chained[i].ts ||
          chained[i].key != o.chained[i].key ||
          chained[i].value != o.chained[i].value) {
        return false;
      }
    }
    return true;
  }
};

BatchImage Image(const AccumulatedBatch& batch) {
  BatchImage img;
  for (const SortedKeyRun& run : batch.keys()) {
    img.runs.emplace_back(run.key, run.count);
    batch.ForEachTuple(run, 0, run.count,
                       [&](const Tuple& t) { img.chained.push_back(t); });
  }
  return img;
}

// The flat pipeline's merged batch rebuilt outside the pipeline: an exact
// implementation runs on each shard's routed sub-stream (HashKey(key) % S,
// options scaled by 1/S like the pipeline's own shards) and MergeShardRuns
// interleaves the shard outputs. The shard accumulators own the tuple
// storage the sealed batches chain into, so they live here too.
struct ShardedReference {
  std::vector<std::unique_ptr<Accumulator>> shards;
  std::vector<AccumulatedBatch> sealed;
  BatchImage image;
};

ShardedReference BuildShardedReference(ExactImpl impl,
                                       const std::vector<Tuple>& stream,
                                       uint32_t shards, TimeMicros start,
                                       TimeMicros end) {
  AccumulatorOptions scaled;
  scaled.estimated_tuples =
      std::max<uint64_t>(1, scaled.estimated_tuples / shards);
  scaled.avg_keys = std::max<uint64_t>(1, scaled.avg_keys / shards);
  ShardedReference ref;
  for (uint32_t s = 0; s < shards; ++s) {
    ref.shards.push_back(MakeExactAccumulator(impl, scaled));
    ref.shards.back()->Begin(start, end);
  }
  for (const Tuple& t : stream) {
    ref.shards[HashKey(t.key) % shards]->OnTuple(t);
  }
  for (auto& acc : ref.shards) ref.sealed.push_back(acc->Seal());

  // Shards own disjoint keys, so each merged run chains into exactly one
  // shard's storage.
  std::vector<std::span<const SortedKeyRun>> runs;
  std::map<KeyId, const AccumulatedBatch*> owner;
  for (const AccumulatedBatch& batch : ref.sealed) {
    runs.emplace_back(batch.keys());
    for (const SortedKeyRun& run : batch.keys()) owner[run.key] = &batch;
  }
  for (const SortedKeyRun& run : MergeShardRuns(std::move(runs))) {
    ref.image.runs.emplace_back(run.key, run.count);
    owner.at(run.key)->ForEachTuple(run, 0, run.count, [&](const Tuple& t) {
      ref.image.chained.push_back(t);
    });
  }
  return ref;
}

// Parameter: the exact implementation the (always flat) pipeline is checked
// against — the Alg. 1 reference or the production flat accumulator.
class ParallelIngestPipelineTest : public ::testing::TestWithParam<ExactImpl> {
};

INSTANTIATE_TEST_SUITE_P(Kinds, ParallelIngestPipelineTest,
                         ::testing::Values(ExactImpl::kLegacy,
                                           ExactImpl::kFlat),
                         [](const auto& info) {
                           return std::string(ExactImplName(info.param));
                         });

// Tentpole acceptance: for any shard count the merged batch's per-key counts
// are bit-identical to a single accumulator fed the same stream, and the
// merged list stays quasi-sorted with every tuple reachable through the
// rebased chains.
TEST_P(ParallelIngestPipelineTest, MergedCountsMatchSingleAccumulator) {
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(20000, 400, 7, start, end);

  auto reference = MakeExactAccumulator(GetParam());
  reference->Begin(start, end);
  for (const Tuple& t : stream) reference->OnTuple(t);
  const auto expected = KeyCounts(reference->Seal());

  for (uint32_t shards : {1u, 2u, 3u, 4u}) {
    IngestOptions opts;
    opts.shards = shards;
    opts.ring_capacity = 256;  // small ring: exercises back-pressure
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();

    EXPECT_EQ(merged.num_tuples(), stream.size()) << "shards=" << shards;
    EXPECT_EQ(KeyCounts(merged), expected) << "shards=" << shards;

    // Every run's chain must yield exactly `count` tuples of that key.
    uint64_t chained = 0;
    for (const SortedKeyRun& run : merged.keys()) {
      uint64_t seen = 0;
      merged.ForEachTuple(run, 0, run.count, [&](const Tuple& t) {
        EXPECT_EQ(t.key, run.key);
        ++seen;
      });
      EXPECT_EQ(seen, run.count) << "key=" << run.key;
      chained += seen;
    }
    EXPECT_EQ(chained, merged.num_tuples());

    const IngestMetrics& m = pipeline.last_metrics();
    EXPECT_EQ(m.shards.size(), shards);
    EXPECT_EQ(m.total_tuples, stream.size());
  }
}

// Shard invariance: at every shard count the flat pipeline's merged batch is
// bit-identical — identical run sequence and identical chained tuples — to
// the sharded reference built from the Alg. 1 oracle, and to the one built
// from the production flat accumulator.
TEST(ParallelIngestPipelineDifferentialTest, FlatMatchesLegacyAtEveryShardCount) {
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(30000, 800, 13, start, end);

  for (uint32_t shards : {1u, 2u, 3u, 4u}) {
    IngestOptions opts;
    opts.shards = shards;
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const BatchImage flat = Image(pipeline.SealBatch());
    for (ExactImpl impl : {ExactImpl::kLegacy, ExactImpl::kFlat}) {
      const ShardedReference ref =
          BuildShardedReference(impl, stream, shards, start, end);
      EXPECT_TRUE(flat == ref.image)
          << "shards=" << shards << " reference=" << ExactImplName(impl);
    }
  }
}

TEST_P(ParallelIngestPipelineTest, MultipleBatchesReuseWorkers) {
  IngestOptions opts;
  opts.shards = 3;
  ParallelIngestPipeline pipeline(opts);
  for (int b = 0; b < 4; ++b) {
    const TimeMicros start = Seconds(b), end = Seconds(b + 1);
    const auto stream =
        MakeStream(5000, 100, 100 + static_cast<uint64_t>(b), start, end);
    auto reference = MakeExactAccumulator(GetParam());
    reference->Begin(start, end);
    for (const Tuple& t : stream) reference->OnTuple(t);
    const auto expected = KeyCounts(reference->Seal());

    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();
    EXPECT_EQ(KeyCounts(merged), expected) << "batch=" << b;
  }
}

TEST_P(ParallelIngestPipelineTest, EmptyBatch) {
  IngestOptions opts;
  opts.shards = 4;
  ParallelIngestPipeline pipeline(opts);
  pipeline.BeginBatch(0, Seconds(1));
  const AccumulatedBatch& merged = pipeline.SealBatch();
  EXPECT_EQ(merged.num_tuples(), 0u);
  EXPECT_TRUE(merged.keys().empty());
  // And a non-empty batch right after still works, matching the reference.
  pipeline.BeginBatch(Seconds(1), Seconds(2));
  Tuple t;
  t.ts = Seconds(1);
  t.key = 42;
  pipeline.Ingest(t);
  const AccumulatedBatch& merged2 = pipeline.SealBatch();
  EXPECT_EQ(merged2.num_tuples(), 1u);
  ASSERT_EQ(merged2.keys().size(), 1u);
  EXPECT_EQ(merged2.keys()[0].key, 42u);
  EXPECT_TRUE(Image(merged2) ==
              BuildShardedReference(GetParam(), {t}, 4, Seconds(1), Seconds(2))
                  .image);
}

TEST_P(ParallelIngestPipelineTest, ShardStatsCoverAllTuples) {
  IngestOptions opts;
  opts.shards = 4;
  ParallelIngestPipeline pipeline(opts);
  const auto stream = MakeStream(10000, 1000, 3, 0, Seconds(1));
  pipeline.BeginBatch(0, Seconds(1));
  for (const Tuple& t : stream) pipeline.Ingest(t);
  pipeline.SealBatch();
  const IngestMetrics& m = pipeline.last_metrics();
  uint64_t tuples = 0, keys = 0;
  for (const ShardIngestStats& s : m.shards) {
    tuples += s.tuples;
    keys += s.keys;
  }
  EXPECT_EQ(tuples, stream.size());
  EXPECT_GT(keys, 0u);
  EXPECT_GE(ShardLoadImbalance(m), 1.0);
  // Per shard, the stats match the reference run on that shard's routed
  // sub-stream.
  const ShardedReference ref =
      BuildShardedReference(GetParam(), stream, 4, 0, Seconds(1));
  ASSERT_EQ(m.shards.size(), ref.shards.size());
  for (size_t s = 0; s < m.shards.size(); ++s) {
    EXPECT_EQ(m.shards[s].tuples, ref.shards[s]->num_tuples()) << "shard " << s;
    EXPECT_EQ(m.shards[s].keys, ref.shards[s]->num_keys()) << "shard " << s;
  }
}

// --- Chunked ring hop ---

// A stream that routes exactly `per_shard` tuples to each of `shards` shards
// (HashKey(key) % shards, the pipeline's routing), cycling over a few keys
// per shard, with timestamps spread over [start, end). Per-shard lengths
// then land exactly on, or one off, a chunk boundary.
std::vector<Tuple> MakePerShardStream(uint32_t shards, uint64_t per_shard,
                                      TimeMicros start, TimeMicros end) {
  constexpr size_t kKeysPerShard = 7;
  std::vector<std::vector<KeyId>> keys(shards);
  uint32_t full = 0;
  for (KeyId k = 0; full < shards; ++k) {
    auto& mine = keys[HashKey(k) % shards];
    if (mine.size() == kKeysPerShard) continue;
    mine.push_back(k);
    if (mine.size() == kKeysPerShard) ++full;
  }
  std::vector<Tuple> tuples;
  const uint64_t n = per_shard * shards;
  tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t s = i % shards, j = i / shards;
    Tuple t;
    // Skewed within a shard: slots 0-2 get twice the tuples of slots 3-6.
    t.key = keys[s][(j % 10) % kKeysPerShard];
    t.ts = start + static_cast<TimeMicros>(
                       (static_cast<double>(i) / static_cast<double>(n)) *
                       static_cast<double>(end - start));
    t.value = static_cast<double>(i);
    tuples.push_back(t);
  }
  return tuples;
}

std::map<KeyId, uint64_t> TruthCounts(const std::vector<Tuple>& stream) {
  std::map<KeyId, uint64_t> counts;
  for (const Tuple& t : stream) ++counts[t.key];
  return counts;
}

// Every shard receives 0, 1, kChunk - 1, kChunk, kChunk + 1 or 10k tuples,
// at shards {1,2,3,4,8}, through the default ring and through a ring
// smaller than one chunk (ring_capacity = 2: two chunk slots, so the router
// blocks on back-pressure). Counts are exact and the merged batch equals
// the sharded reference bit for bit; the ring statistics stay in tuples.
TEST(ParallelIngestChunkTest, ChunkBoundariesMatchShardedReference) {
  const TimeMicros start = 0, end = Seconds(1);
  const uint64_t chunk = ParallelIngestPipeline::kChunk;
  for (uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    for (const size_t ring_capacity : {size_t{2}, size_t{16 * 1024}}) {
      IngestOptions opts;
      opts.shards = shards;
      opts.ring_capacity = ring_capacity;
      ParallelIngestPipeline pipeline(opts);
      for (const uint64_t per_shard :
           {uint64_t{0}, uint64_t{1}, chunk - 1, chunk, chunk + 1,
            uint64_t{10000}}) {
        const std::string ctx = "shards=" + std::to_string(shards) +
                                " ring=" + std::to_string(ring_capacity) +
                                " per_shard=" + std::to_string(per_shard);
        const auto stream = MakePerShardStream(shards, per_shard, start, end);
        pipeline.BeginBatch(start, end);
        for (const Tuple& t : stream) pipeline.Ingest(t);
        const AccumulatedBatch& merged = pipeline.SealBatch();

        EXPECT_EQ(merged.num_tuples(), stream.size()) << ctx;
        EXPECT_EQ(KeyCounts(merged), TruthCounts(stream)) << ctx;
        EXPECT_TRUE(Image(merged) ==
                    BuildShardedReference(ExactImpl::kFlat, stream, shards,
                                          start, end)
                        .image)
            << ctx;
        const IngestMetrics& m = pipeline.last_metrics();
        ASSERT_EQ(m.shards.size(), shards) << ctx;
        for (const ShardIngestStats& s : m.shards) {
          EXPECT_EQ(s.tuples, per_shard) << ctx;
          EXPECT_GE(s.ring_capacity, ring_capacity) << ctx;
          EXPECT_LE(s.ring_high_water, s.ring_capacity) << ctx;
        }
      }
    }
  }
}

// Consecutive batches whose per-shard lengths are never a multiple of the
// chunk: every seal must flush a partial chunk into its own batch, and no
// tuple may leak into the next one.
TEST(ParallelIngestChunkTest, EverySealFlushesAPartialChunk) {
  const uint64_t chunk = ParallelIngestPipeline::kChunk;
  IngestOptions opts;
  opts.shards = 3;
  opts.ring_capacity = 2;
  ParallelIngestPipeline pipeline(opts);
  for (uint64_t b = 0; b < 6; ++b) {
    const TimeMicros start = Seconds(static_cast<int64_t>(b));
    const TimeMicros end = Seconds(static_cast<int64_t>(b) + 1);
    const uint64_t per_shard = b * chunk + 1 + (b * 13) % (chunk - 1);
    ASSERT_NE(per_shard % chunk, 0u);
    const auto stream = MakePerShardStream(3, per_shard, start, end);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();
    EXPECT_EQ(merged.num_tuples(), stream.size()) << "batch=" << b;
    EXPECT_TRUE(Image(merged) ==
                BuildShardedReference(ExactImpl::kFlat, stream, 3, start, end)
                    .image)
        << "batch=" << b;
    for (const ShardIngestStats& s : pipeline.last_metrics().shards) {
      EXPECT_EQ(s.tuples, per_shard) << "batch=" << b;
    }
  }
}

// ring_capacity stays a tuple count: the ring holds
// pow2(max(2, ceil(ring_capacity / kChunk))) chunks, reported in tuples.
TEST(ParallelIngestChunkTest, RingCapacityIsReportedInTuples) {
  const std::pair<size_t, uint64_t> cases[] = {
      {2, 128},   {64, 128},   {65, 128},        {129, 256},
      {1000, 1024}, {16 * 1024, 16 * 1024}, {16 * 1024 + 1, 32 * 1024}};
  for (const auto& [requested, reported] : cases) {
    IngestOptions opts;
    opts.shards = 2;
    opts.ring_capacity = requested;
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(0, Seconds(1));
    pipeline.SealBatch();
    for (const ShardIngestStats& s : pipeline.last_metrics().shards) {
      EXPECT_EQ(s.ring_capacity, reported) << "requested=" << requested;
    }
  }
}

// --- Sketch (heavy-hitter) mode ---

// Sketch mode at every shard count: the merged batch conserves all tuples
// across the run list plus the stitched tail buckets, a tail key never spans
// two buckets, and the folded stats cover the whole batch.
TEST(ParallelIngestPipelineSketchTest, TailStitchConservesTuples) {
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(40000, 5000, 17, start, end);
  std::map<KeyId, uint64_t> truth;
  for (const Tuple& t : stream) ++truth[t.key];

  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    IngestOptions opts;
    opts.shards = shards;
    opts.key_mode = KeyMode::kSketch;
    opts.accumulator_options.sketch.capacity = 256;
    opts.accumulator_options.sketch.tail_buckets = 32;
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();

    EXPECT_EQ(merged.num_tuples(), stream.size()) << "shards=" << shards;
    ASSERT_FALSE(merged.tail().empty()) << "shards=" << shards;

    // Conservation: per-key counts over head runs + tail chains == truth.
    std::map<KeyId, uint64_t> seen;
    for (const SortedKeyRun& run : merged.keys()) {
      uint64_t chained = 0;
      merged.ForEachTuple(run, 0, run.count, [&](const Tuple& t) {
        EXPECT_EQ(t.key, run.key);
        ++chained;
      });
      EXPECT_EQ(chained, run.count) << "key=" << run.key;
      seen[run.key] += run.count;
    }
    // A tail key must live in exactly one global bucket (the bucket hash is
    // shard-independent), or Alg. 2 would split it without knowing.
    std::map<KeyId, size_t> key_bucket;
    uint64_t tail_tuples = 0;
    for (size_t b = 0; b < merged.tail().size(); ++b) {
      uint64_t in_bucket = 0;
      merged.ForEachTailTuple(merged.tail()[b], [&](const Tuple& t) {
        auto [it, inserted] = key_bucket.emplace(t.key, b);
        EXPECT_EQ(it->second, b) << "tail key " << t.key << " in two buckets";
        ++seen[t.key];
        ++in_bucket;
      });
      EXPECT_EQ(in_bucket, merged.tail()[b].tuples) << "bucket=" << b;
      tail_tuples += in_bucket;
    }
    EXPECT_EQ(seen, truth) << "shards=" << shards;

    const SketchBatchStats& stats = merged.stats();
    EXPECT_TRUE(stats.sketch_mode);
    EXPECT_EQ(stats.head_tuples + stats.tail_tuples, stream.size());
    EXPECT_EQ(stats.tail_tuples, tail_tuples);
    EXPECT_GT(stats.head_coverage(), 0.0);
    EXPECT_GT(stats.distinct_estimate, 0u);
  }
}

// The per-shard sketch capacity bounds merged key state at every shard
// count: run-list size stays O(shards * capacity) even at high cardinality.
TEST(ParallelIngestPipelineSketchTest, RunListBoundedBySketchCapacity) {
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(60000, 50000, 23, start, end);
  for (uint32_t shards : {1u, 4u}) {
    IngestOptions opts;
    opts.shards = shards;
    opts.key_mode = KeyMode::kSketch;
    opts.accumulator_options.sketch.capacity = 128;
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();
    EXPECT_LE(merged.keys().size(), 128u * shards) << "shards=" << shards;
    EXPECT_EQ(merged.num_tuples(), stream.size());
  }
}

// --- The engine's batching loop (MicroBatchEngine::Run) ---

std::unique_ptr<TupleSource> MakeSource(double rate = 10000,
                                        uint64_t seed = 1) {
  ZipfKeyedSource::Params params;
  params.cardinality = 300;
  params.zipf = 1.0;
  params.seed = seed;
  params.rate = std::make_shared<ConstantRate>(rate);
  return std::make_unique<SynDSource>(std::move(params));
}

constexpr TimeMicros kLoopInterval = Millis(200);

EngineOptions LoopOptions(uint32_t shards) {
  EngineOptions opts;
  opts.batch_interval = kLoopInterval;
  opts.map_tasks = 4;
  opts.reduce_tasks = 4;
  opts.cores = 4;
  opts.ingest.shards = shards;
  // Eight chunk messages per ring: small enough that the router can fill a
  // ring and wait on it (back-pressure), which the no-loss checks then cover.
  opts.ingest.ring_capacity = 512;
  return opts;
}

// One engine driven a heartbeat at a time over MakeSource(10000, seed), so
// the window answer can be read after every batch.
struct LoopRun {
  std::vector<BatchReport> batches;
  std::vector<std::unordered_map<KeyId, double>> windows;
};

LoopRun RunLoop(const EngineOptions& opts, PartitionerType technique,
                uint64_t seed, int batches) {
  auto source = MakeSource(10000, seed);
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(technique), source.get());
  EXPECT_TRUE(engine.init_status().ok()) << engine.init_status().ToString();
  LoopRun run;
  for (int i = 0; i < batches; ++i) {
    for (BatchReport& b : engine.Run(1).batches) {
      run.batches.push_back(std::move(b));
    }
    run.windows.push_back(engine.window().Result());
  }
  return run;
}

// Batch i holds exactly the source's tuples with ts in [i, i+1) intervals:
// none lost at a heartbeat (the one-tuple lookahead), none counted twice.
TEST(EngineBatchingLoopTest, NoTupleLostOrDuplicatedAcrossBatches) {
  constexpr int kBatches = 10;
  std::vector<uint64_t> expected(kBatches, 0);
  auto reference = MakeSource(10000, 9);
  Tuple t;
  while (reference->Next(&t) && t.ts < kBatches * kLoopInterval) {
    ++expected[static_cast<size_t>(t.ts / kLoopInterval)];
  }
  for (uint32_t shards : {1u, 3u}) {
    const LoopRun run =
        RunLoop(LoopOptions(shards), PartitionerType::kPrompt, 9, kBatches);
    ASSERT_EQ(run.batches.size(), static_cast<size_t>(kBatches));
    for (int i = 0; i < kBatches; ++i) {
      EXPECT_EQ(run.batches[i].num_tuples, expected[i])
          << "shards=" << shards << " batch " << i;
    }
  }
}

// The sharded route/merge path answers exactly like the inline 1-shard loop:
// per-batch tuple and key counts and the window after every batch.
void ExpectShardedMatchesSingle(PartitionerType technique) {
  constexpr int kBatches = 4;
  const LoopRun single = RunLoop(LoopOptions(1), technique, 21, kBatches);
  for (uint32_t shards : {2u, 3u}) {
    const LoopRun sharded =
        RunLoop(LoopOptions(shards), technique, 21, kBatches);
    ASSERT_EQ(sharded.batches.size(), single.batches.size());
    for (size_t i = 0; i < single.batches.size(); ++i) {
      const std::string ctx = std::string(PartitionerTypeName(technique)) +
                              " shards=" + std::to_string(shards) +
                              " batch " + std::to_string(i);
      EXPECT_GT(single.batches[i].num_tuples, 0u) << ctx;
      EXPECT_EQ(sharded.batches[i].num_tuples, single.batches[i].num_tuples)
          << ctx;
      EXPECT_EQ(sharded.batches[i].num_keys, single.batches[i].num_keys)
          << ctx;
      EXPECT_EQ(sharded.windows[i], single.windows[i]) << ctx;
    }
  }
}

// Prompt seals through the SealAccumulated fast path.
TEST(ReceiverShardedIngestTest, MatchesSingleThreadedReceiver) {
  ExpectShardedMatchesSingle(PartitionerType::kPrompt);
}

// Hash is online: the merged batch is replayed through OnTuple.
TEST(ReceiverShardedIngestTest, FallbackReplayForOnlinePartitioner) {
  ExpectShardedMatchesSingle(PartitionerType::kHash);
}

// Sketch mode conserves every tuple on both seal paths: Prompt places tail
// buckets whole (Alg. 2), Hash gets tail tuples replayed one by one. From
// batch 1 on the promote threshold comes from the pipeline's fed-back
// estimates, which in sketch mode must use the HLL estimate rather than the
// head-run count, or no key is promoted and head coverage drops to 0.
TEST(EngineBatchingLoopTest, SketchModeConservesTuplesOnBothSealPaths) {
  constexpr int kBatches = 4;
  for (PartitionerType technique :
       {PartitionerType::kPrompt, PartitionerType::kHash}) {
    const LoopRun exact = RunLoop(LoopOptions(1), technique, 31, kBatches);
    for (uint32_t shards : {1u, 2u}) {
      EngineOptions opts = LoopOptions(shards);
      opts.ingest.key_mode = KeyMode::kSketch;
      opts.ingest.accumulator_options.sketch.capacity = 64;
      // The source's real shape (10k/s * 200 ms over 300 keys) for batch 0.
      opts.ingest.accumulator_options.estimated_tuples = 2000;
      opts.ingest.accumulator_options.avg_keys = 300;
      const LoopRun sketch = RunLoop(opts, technique, 31, kBatches);
      ASSERT_EQ(sketch.batches.size(), exact.batches.size());
      for (size_t i = 0; i < exact.batches.size(); ++i) {
        const std::string ctx = std::string(PartitionerTypeName(technique)) +
                                " shards=" + std::to_string(shards) +
                                " batch " + std::to_string(i);
        EXPECT_EQ(sketch.batches[i].num_tuples, exact.batches[i].num_tuples)
            << ctx;
        EXPECT_EQ(sketch.windows[i], exact.windows[i]) << ctx;
        if (technique == PartitionerType::kPrompt) {
          EXPECT_TRUE(sketch.batches[i].sketch.sketch_mode) << ctx;
          EXPECT_GT(sketch.batches[i].sketch.head_coverage(), 0.0) << ctx;
        }
      }
    }
  }
}

// --- Option validation ---

size_t ThreadCount() {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::is_directory(tasks)) return 0;
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator(tasks),
      std::filesystem::directory_iterator()));
}

TEST(IngestOptionsValidationTest, BoundsAreInclusive) {
  IngestOptions opts;
  EXPECT_TRUE(ValidateIngestOptions(opts).ok());
  for (uint32_t shards : {1u, kMaxIngestShards}) {
    opts.shards = shards;
    EXPECT_TRUE(ValidateIngestOptions(opts).ok()) << shards;
  }
  for (uint32_t shards : {0u, kMaxIngestShards + 1, 1000000u, UINT32_MAX}) {
    opts.shards = shards;
    EXPECT_TRUE(ValidateIngestOptions(opts).IsInvalid()) << shards;
  }
  opts.shards = 1;
  for (size_t ring : {size_t{2}, kMaxIngestRingCapacity}) {
    opts.ring_capacity = ring;
    EXPECT_TRUE(ValidateIngestOptions(opts).ok()) << ring;
  }
  for (size_t ring : {size_t{0}, size_t{1}, kMaxIngestRingCapacity + 1,
                      size_t{100000000000}}) {
    opts.ring_capacity = ring;
    EXPECT_TRUE(ValidateIngestOptions(opts).IsInvalid()) << ring;
  }
}

// Out-of-range ingest options reach the engine as init_status() = Invalid,
// with no ring allocated and no shard thread started, and the engine then
// refuses to run. Under key_mode = sketch the engine builds a pipeline even
// at shards = 0, so that case reaches the pipeline unless the engine
// validates first.
TEST(IngestOptionsValidationTest, EngineReportsInvalidInsteadOfAborting) {
  struct Case {
    uint32_t shards;
    size_t ring_capacity;
    KeyMode key_mode;
  };
  for (const Case& c : {Case{0, 16 * 1024, KeyMode::kSketch},
                        Case{0, 16 * 1024, KeyMode::kExact},
                        Case{1000000, 16 * 1024, KeyMode::kExact},
                        Case{4, size_t{100000000000}, KeyMode::kExact},
                        Case{2, 1, KeyMode::kSketch}}) {
    const std::string ctx = "shards=" + std::to_string(c.shards) +
                            " ring=" + std::to_string(c.ring_capacity);
    EngineOptions opts;
    opts.batch_interval = Millis(100);
    opts.ingest.shards = c.shards;
    opts.ingest.ring_capacity = c.ring_capacity;
    opts.ingest.key_mode = c.key_mode;
    auto source = MakeSource();
    const size_t threads_before = ThreadCount();
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    EXPECT_EQ(ThreadCount(), threads_before) << ctx;
    EXPECT_TRUE(engine.init_status().IsInvalid())
        << ctx << ": " << engine.init_status().ToString();
    EXPECT_TRUE(engine.Run(2).batches.empty()) << ctx;
  }
}

// Out-of-range task counts, cores, heartbeat and early-release fractions
// are refused at construction in simulated mode: init_status() names the
// field, no shard thread starts (shards = 4 is otherwise valid), and Run
// refuses to run. Only rejected values are constructed here; accepted
// bounds are checked on the validator alone, so no engine is ever built
// with a large core count.
TEST(EngineOptionsValidationTest, RejectedValuesStartNoThread) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(EngineOptions*)>>>
      cases = {
          {"map_tasks=0", [](EngineOptions* o) { o->map_tasks = 0; }},
          {"map_tasks=max+1",
           [](EngineOptions* o) { o->map_tasks = kMaxEngineTasks + 1; }},
          {"map_tasks=UINT32_MAX",
           [](EngineOptions* o) { o->map_tasks = UINT32_MAX; }},
          {"reduce_tasks=0", [](EngineOptions* o) { o->reduce_tasks = 0; }},
          {"reduce_tasks=UINT32_MAX",
           [](EngineOptions* o) { o->reduce_tasks = UINT32_MAX; }},
          {"cores=0", [](EngineOptions* o) { o->cores = 0; }},
          {"cores=UINT32_MAX", [](EngineOptions* o) { o->cores = UINT32_MAX; }},
          {"batch_interval=0", [](EngineOptions* o) { o->batch_interval = 0; }},
          {"early_release_frac=nan",
           [nan](EngineOptions* o) { o->early_release_frac = nan; }},
          {"early_release_frac=inf",
           [inf](EngineOptions* o) { o->early_release_frac = inf; }},
          {"early_release_frac=1",
           [](EngineOptions* o) { o->early_release_frac = 1; }},
          {"early_release_frac=2",
           [](EngineOptions* o) { o->early_release_frac = 2; }},
          {"early_release_frac=-0.1",
           [](EngineOptions* o) { o->early_release_frac = -0.1; }},
      };
  for (const auto& [name, edit] : cases) {
    EngineOptions opts;
    opts.batch_interval = Millis(100);
    opts.mode = ExecutionMode::kSimulated;
    opts.ingest.shards = 4;
    edit(&opts);
    const std::string field = name.substr(0, name.find('='));
    auto source = MakeSource();
    const size_t threads_before = ThreadCount();
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    EXPECT_EQ(ThreadCount(), threads_before) << name;
    EXPECT_TRUE(engine.init_status().IsInvalid())
        << name << ": " << engine.init_status().ToString();
    EXPECT_NE(engine.init_status().message().find(field), std::string::npos)
        << name << ": " << engine.init_status().ToString();
    EXPECT_TRUE(engine.Run(2).batches.empty()) << name;
  }
  EngineOptions edge;
  for (uint32_t n : {1u, kMaxEngineTasks}) {
    edge.map_tasks = edge.reduce_tasks = edge.cores = n;
    EXPECT_TRUE(ValidateEngineOptions(edge).ok()) << n;
  }
  for (double frac : {0.0, 0.99}) {
    edge.early_release_frac = frac;
    EXPECT_TRUE(ValidateEngineOptions(edge).ok()) << frac;
  }
}

}  // namespace
}  // namespace prompt
