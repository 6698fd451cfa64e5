// Heavy-hitter mode at scale (DESIGN.md §17): a 10M-distinct-key Zipf
// stream through exact vs sketch ingest, reporting the memory-vs-balance
// frontier and self-asserting the mode's contract:
//
//  1. Memory: sketch-mode key-proportional state (key_state_bytes(), the
//     O(distinct-keys) axis — tuple columns are O(tuples) in both modes)
//     stays <= 10% of exact mode's on the z=1.0 headline stream.
//  2. Balance: sketch-mode BSI stays within the documented bound of exact —
//     (bsi_sketch - bsi_exact) / avg_block_size <= 0.15, i.e. the
//     unsplittable tail buckets may cost at most 15 points of
//     avg-block-normalized imbalance, on z in {0.8, 1.0, 1.4}.
//  3. Exactness: at each shard count S in {1, 4} the exact-mode pipeline's
//     sealed merged batch is bit-identical (runs and chained tuples) to an
//     inline reference that routes by the same hash into S flat
//     accumulators and LoserTree-merges the sealed runs — the pre-PR merge
//     algorithm — proving the tail-bucket machinery is inert when off.
//     (Different shard counts legitimately interleave equal-count runs
//     differently, so S=1 vs S=4 outputs are NOT compared to each other.)
//
//   sketch_scale [tuples] [cardinality]     defaults: 10000000 10000000
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <span>

#include "common/hash.h"
#include "common/random.h"
#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "ingest/merge.h"
#include "ingest/pipeline.h"
#include "stats/metrics.h"

using namespace prompt;

namespace {

constexpr uint32_t kBlocks = 16;

std::vector<Tuple> MakeStream(uint64_t n, uint64_t cardinality, double z,
                              uint64_t seed) {
  Rng rng(seed);
  ZipfSampler sampler(cardinality, z);
  std::vector<Tuple> stream;
  stream.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    stream.push_back(Tuple{static_cast<TimeMicros>(i),
                           static_cast<KeyId>(sampler.Sample(rng)), 1.0});
  }
  return stream;
}

struct ModeResult {
  size_t key_state_bytes = 0;
  double bsi = 0;
  double avg_block_size = 0;
  double head_coverage = 1.0;
  uint64_t distinct = 0;
  double accumulate_tps = 0;
};

/// One mode over one stream: accumulate, seal, plan with Alg. 2, measure.
/// `cardinality` feeds K_avg so the auto promote threshold
/// (4 * N_est / K_avg) reflects the stream's true mean frequency.
ModeResult RunMode(const std::vector<Tuple>& stream, KeyMode mode,
                   size_t sketch_capacity, uint64_t cardinality) {
  AccumulatorOptions opts;
  opts.estimated_tuples = stream.size();
  opts.avg_keys = cardinality;
  opts.sketch.capacity = sketch_capacity;
  opts.sketch.tail_buckets = 8 * kBlocks;
  auto acc = MakeAccumulator(mode, opts);

  Stopwatch watch;
  acc->Begin(0, static_cast<TimeMicros>(stream.size()));
  for (const Tuple& t : stream) acc->OnTuple(t);
  AccumulatedBatch batch = acc->Seal();
  const double secs = static_cast<double>(watch.ElapsedMicros()) / 1e6;

  ModeResult r;
  r.key_state_bytes = acc->key_state_bytes();
  r.accumulate_tps =
      secs > 0 ? static_cast<double>(stream.size()) / secs : 0;
  r.distinct = batch.stats().sketch_mode
                   ? batch.stats().distinct_estimate
                   : batch.keys().size();
  r.head_coverage = batch.stats().sketch_mode
                        ? batch.stats().head_coverage()
                        : 1.0;

  const PartitionPlan plan = BuildPromptPlan(batch, kBlocks);
  const PartitionedBatch parts = MaterializePlan(batch, plan, kBlocks);
  const PartitionMetrics m = ComputeBlockMetrics(parts);
  r.bsi = m.bsi;
  r.avg_block_size = m.avg_block_size;
  return r;
}

/// Runs+chained-tuples image of a merged batch for bit-identity checks.
struct BatchImage {
  std::vector<SortedKeyRun> runs;
  std::vector<Tuple> chained;
};

BatchImage Image(const AccumulatedBatch& batch) {
  BatchImage img;
  for (const SortedKeyRun& run : batch.keys()) {
    img.runs.push_back(run);
    batch.ForEachTuple(run, 0, run.count,
                       [&](const Tuple& t) { img.chained.push_back(t); });
  }
  return img;
}

bool Identical(const BatchImage& a, const BatchImage& b) {
  if (a.runs.size() != b.runs.size() || a.chained.size() != b.chained.size())
    return false;
  for (size_t i = 0; i < a.runs.size(); ++i) {
    if (a.runs[i].key != b.runs[i].key || a.runs[i].count != b.runs[i].count)
      return false;
  }
  for (size_t i = 0; i < a.chained.size(); ++i) {
    if (a.chained[i].ts != b.chained[i].ts ||
        a.chained[i].key != b.chained[i].key ||
        a.chained[i].value != b.chained[i].value)
      return false;
  }
  return true;
}

BatchImage RunExactPipeline(const std::vector<Tuple>& stream,
                            uint32_t shards) {
  IngestOptions opts;
  opts.shards = shards;
  ParallelIngestPipeline pipeline(opts);
  pipeline.BeginBatch(0, static_cast<TimeMicros>(stream.size()));
  for (const Tuple& t : stream) pipeline.Ingest(t);
  return Image(pipeline.SealBatch());
}

/// Pre-PR reference for the exact path at S shards: route by the pipeline's
/// hash into S flat accumulators (options scaled exactly as the pipeline
/// scales them), seal, and LoserTree-merge the run lists. No tail buckets,
/// no sketch — this is the merge algorithm as it existed before heavy-hitter
/// mode, rebuilt inline.
BatchImage ReferenceExactMerge(const std::vector<Tuple>& stream,
                               uint32_t shards) {
  AccumulatorOptions scaled;  // defaults, matching IngestOptions
  scaled.estimated_tuples =
      std::max<uint64_t>(1, scaled.estimated_tuples / shards);
  scaled.avg_keys = std::max<uint64_t>(1, scaled.avg_keys / shards);
  std::vector<std::unique_ptr<Accumulator>> accs;
  accs.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    accs.push_back(MakeAccumulator(KeyMode::kExact, scaled));
    accs.back()->Begin(0, static_cast<TimeMicros>(stream.size()));
  }
  for (const Tuple& t : stream) {
    accs[HashKey(t.key) % shards]->OnTuple(t);
  }
  std::vector<AccumulatedBatch> sealed;
  sealed.reserve(shards);
  for (auto& acc : accs) sealed.push_back(acc->Seal());
  std::vector<std::span<const SortedKeyRun>> inputs;
  inputs.reserve(shards);
  for (const AccumulatedBatch& b : sealed) inputs.emplace_back(b.keys());
  LoserTree tree(std::move(inputs));
  BatchImage img;
  SortedKeyRun run;
  uint32_t source = 0;
  while (tree.Next(&run, &source)) {
    img.runs.push_back(run);
    sealed[source].ForEachTuple(
        run, 0, run.count, [&](const Tuple& t) { img.chained.push_back(t); });
  }
  return img;
}

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t tuples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000000ull;
  const uint64_t cardinality =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10000000ull;

  std::printf("sketch_scale: %llu tuples, %llu-key Zipf, %u blocks\n",
              static_cast<unsigned long long>(tuples),
              static_cast<unsigned long long>(cardinality), kBlocks);

  // --- Memory-vs-BSI frontier across z and sketch capacity. ---
  std::printf("\n%-6s %-10s %14s %12s %10s %12s %12s\n", "z", "mode",
              "key_state_B", "bsi", "bsi/avg", "coverage", "Mtps");
  for (const double z : {0.8, 1.0, 1.4}) {
    const auto stream = MakeStream(tuples, cardinality, z, /*seed=*/42);
    const ModeResult exact = RunMode(stream, KeyMode::kExact,
                                     /*sketch_capacity=*/0, cardinality);
    std::printf("%-6.1f %-10s %14zu %12.0f %10.4f %12.3f %12.2f\n", z,
                "exact", exact.key_state_bytes, exact.bsi,
                exact.bsi / exact.avg_block_size, exact.head_coverage,
                exact.accumulate_tps / 1e6);
    for (const size_t capacity : {4096ul, 16384ul, 65536ul}) {
      const ModeResult sk =
          RunMode(stream, KeyMode::kSketch, capacity, cardinality);
      std::printf("%-6.1f %-10s %14zu %12.0f %10.4f %12.3f %12.2f\n", z,
                  ("sk" + std::to_string(capacity / 1024) + "k").c_str(),
                  sk.key_state_bytes, sk.bsi, sk.bsi / sk.avg_block_size,
                  sk.head_coverage, sk.accumulate_tps / 1e6);
      if (capacity == 65536ul) {
        // Documented bound (DESIGN.md §17): the unsplittable tail may cost
        // at most 15 points of avg-block-normalized BSI over exact.
        const double excess =
            (sk.bsi - exact.bsi) / std::max(1.0, exact.avg_block_size);
        char label[96];
        std::snprintf(label, sizeof(label),
                      "z=%.1f bsi excess %.4f <= 0.15", z, excess);
        Check(excess <= 0.15, label);
        if (z == 1.0) {
          const double mem_ratio =
              static_cast<double>(sk.key_state_bytes) /
              static_cast<double>(std::max<size_t>(1, exact.key_state_bytes));
          std::snprintf(label, sizeof(label),
                        "z=1.0 key-state ratio %.4f <= 0.10", mem_ratio);
          Check(mem_ratio <= 0.10, label);
          std::snprintf(label, sizeof(label),
                        "z=1.0 head coverage %.3f > 0", sk.head_coverage);
          Check(sk.head_coverage > 0.0, label);
        }
      }
    }
  }

  // --- Exact-mode inertness: pipeline == pre-PR reference merge at each
  // shard count (the "inert when off" leg). ---
  {
    const uint64_t n = std::min<uint64_t>(tuples, 1000000ull);
    const auto stream = MakeStream(n, cardinality, 1.0, /*seed=*/7);
    for (const uint32_t shards : {1u, 4u}) {
      const BatchImage pipeline = RunExactPipeline(stream, shards);
      const BatchImage reference = ReferenceExactMerge(stream, shards);
      char label[96];
      std::snprintf(label, sizeof(label),
                    "exact pipeline bit-identical to reference merge at "
                    "shards=%u",
                    shards);
      Check(Identical(pipeline, reference), label);
    }
  }

  if (g_failures > 0) {
    std::printf("\nsketch_scale: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nsketch_scale: all checks passed\n");
  return 0;
}
