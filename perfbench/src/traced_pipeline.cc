#include "traced_pipeline.h"

#include <algorithm>
#include <utility>

#include "baselines/factory.h"
#include "core/accumulator_api.h"
#include "core/reduce_allocator.h"
#include "engine/cost_model.h"
#include "engine/execution.h"
#include "engine/serde.h"
#include "ingest/pipeline.h"
#include "query/multi_query.h"
#include "replay/journal.h"
#include "store/block_store.h"
#include "tenant/query_context.h"

namespace perfbench {

using prompt::Tuple;

namespace {

/// Times Alg. 3 (the reduce allocation BatchExecutor calls per batch) and
/// counts the clusters it places.
class TimingAllocator final : public prompt::ReduceAllocator {
 public:
  TimingAllocator(std::unique_ptr<prompt::ReduceAllocator> inner,
                  Tracer* tracer, LayerCounts* counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}

  const char* name() const override { return inner_->name(); }
  std::vector<uint32_t> Assign(const std::vector<prompt::KeyCluster>& clusters,
                               uint32_t num_buckets) override {
    Tracer::Scope span(tracer_, "core.reduce_alloc", batch_);
    ++counts_->reduce_alloc_calls;
    counts_->reduce_alloc_clusters += clusters.size();
    return inner_->Assign(clusters, num_buckets);
  }
  void set_batch(uint64_t batch) { batch_ = batch; }

 private:
  std::unique_ptr<prompt::ReduceAllocator> inner_;
  Tracer* tracer_;
  LayerCounts* counts_;
  uint64_t batch_ = 0;
};

struct Tenant {
  prompt::KeyFilter filter;
  std::unique_ptr<prompt::QueryContext> ctx;
  std::unique_ptr<TimingAllocator> allocator;
};

// The engines' default core counts, so the modeled cost of each stage (and
// with it Alg. 3's input) matches the engine run.
constexpr uint32_t kCores = 8;

}  // namespace

struct TracedPipeline::Impl {
  const WorkloadSpec& spec;
  Tracer* tracer;
  std::vector<Tenant> tenants;
  std::unique_ptr<prompt::ParallelIngestPipeline> ingest;
  std::unique_ptr<prompt::DurableBlockStore> durable;
  std::unique_ptr<prompt::JournalWriter> journal;
  // Shared-ingest estimates (multi-tenant engine's merged EWMA).
  double est_tuples = 0;
  double est_keys = 0;
  bool est_init = false;

  Impl(const WorkloadSpec& s, Tracer* t) : spec(s), tracer(t) {}
};

TracedPipeline::TracedPipeline(const WorkloadSpec& spec, uint32_t shards,
                           const std::string& state_dir, Tracer* tracer)
    : impl_(std::make_unique<Impl>(spec, tracer)) {
  prompt::QueryContextOptions qc;
  qc.mode = prompt::ExecutionMode::kSimulated;
  qc.use_prompt_reduce = true;
  for (const prompt::KeyFilter& filter : WindowFilters(spec)) {
    Tenant tenant;
    tenant.filter = filter;
    tenant.ctx = std::make_unique<prompt::QueryContext>(
        "traced", qc, prompt::JobSpec::WordCount(kWindowBatches),
        prompt::CreatePartitioner(prompt::PartitionerType::kPrompt),
        /*registry=*/nullptr);
    tenant.allocator = std::make_unique<TimingAllocator>(
        std::move(tenant.ctx->allocator), tracer, &counts_);
    tenant.ctx->executor = std::make_unique<prompt::BatchExecutor>(
        tenant.ctx->job, prompt::CostModel(qc.cost), tenant.allocator.get(),
        qc.mode);
    impl_->tenants.push_back(std::move(tenant));
  }
  if (shards > 1 || spec.sketch) {
    prompt::IngestOptions ingest;
    ingest.shards = shards;
    ingest.key_mode =
        spec.sketch ? prompt::KeyMode::kSketch : prompt::KeyMode::kExact;
    impl_->ingest = std::make_unique<prompt::ParallelIngestPipeline>(ingest);
  }
  if (spec.durable) {
    prompt::StoreOptions store;
    store.dir = state_dir + "/store";
    store.fsync = prompt::FsyncPolicy::kBatch;
    auto durable = prompt::DurableBlockStore::Open(store);
    if (!durable.ok()) {
      status_ = durable.status();
      return;
    }
    impl_->durable = std::move(durable).ValueUnsafe();
    prompt::JournalOptions journal;
    journal.dir = state_dir + "/journal";
    auto writer = prompt::JournalWriter::Open(journal, prompt::JournalManifest{});
    if (!writer.ok()) {
      status_ = writer.status();
      return;
    }
    impl_->journal = std::move(writer).ValueUnsafe();
  }
}

TracedPipeline::~TracedPipeline() = default;

size_t TracedPipeline::num_windows() const { return impl_->tenants.size(); }

const WindowMap& TracedPipeline::window(size_t i) const {
  return impl_->tenants[i].ctx->window->Result();
}

void TracedPipeline::RunBatch(uint64_t batch_id,
                            const std::vector<Tuple>& tuples) {
  Impl& m = *impl_;
  Tracer* tr = m.tracer;
  Tracer::Scope root(tr, "batch", batch_id);
  const int64_t start = static_cast<int64_t>(batch_id) * kIntervalUs;
  const int64_t end = start + kIntervalUs;
  const bool multi = !m.spec.tenants.empty();

  // --- Batching phase: route to shards, or accumulate inline (Alg. 1). ---
  for (Tenant& t : m.tenants) {
    t.ctx->partitioner->Begin(t.ctx->map_tasks, start, end);
  }
  const prompt::AccumulatedBatch* merged = nullptr;
  if (m.ingest != nullptr) {
    m.ingest->BeginBatch(start, end);
    {
      Tracer::Scope span(tr, "ingest.route", batch_id);
      for (const Tuple& t : tuples) m.ingest->Ingest(t);
    }
    Tracer::Scope span(tr, "ingest.seal_merge", batch_id);
    merged = &m.ingest->SealBatch();
  } else {
    Tracer::Scope span(tr, "core.accumulate", batch_id);
    if (multi) {
      for (const Tuple& t : tuples) {
        for (Tenant& tenant : m.tenants) {
          if (tenant.filter.Matches(t.key)) tenant.ctx->partitioner->OnTuple(t);
        }
      }
    } else {
      prompt::BatchPartitioner* p = m.tenants[0].ctx->partitioner.get();
      for (const Tuple& t : tuples) p->OnTuple(t);
    }
  }
  if (m.journal != nullptr) {
    Tracer::Scope span(tr, "replay.journal", batch_id);
    const uint64_t before = m.journal->appended_bytes();
    for (const Tuple& t : tuples) m.journal->RecordTuple(t);
    if (!m.journal->AppendBatchTuples(batch_id).ok()) ++io_errors_;
    counts_.journal_bytes += m.journal->appended_bytes() - before;
  }

  // --- Per-tenant seal (Alg. 2), log, execute (Alg. 3), window. ---
  for (size_t ti = 0; ti < m.tenants.size(); ++ti) {
    Tenant& tenant = m.tenants[ti];
    prompt::QueryContext& ctx = *tenant.ctx;
    prompt::PartitionedBatch batch;
    int64_t seal_start = 0;
    auto seal_plan_child = [&](const prompt::PartitionedBatch& b) {
      // The partitioner times its own decision (Alg. 2) in partition_cost.
      tr->AddChild("core.plan", seal_start,
                   std::min(NowNs(), seal_start + b.partition_cost * 1000),
                   batch_id);
    };
    if (merged != nullptr) {
      bool sealed = false;
      if (tenant.filter.kind == prompt::KeyFilter::Kind::kAll) {
        Tracer::Scope span(tr, "core.seal", batch_id);
        seal_start = NowNs();
        sealed = ctx.partitioner->SealAccumulated(*merged, ctx.next_batch_id,
                                                  &batch);
        if (sealed) seal_plan_child(batch);
      }
      if (!sealed) {
        {
          Tracer::Scope span(tr, "tenant.replay", batch_id);
          for (const prompt::SortedKeyRun& run : merged->keys()) {
            if (!tenant.filter.Matches(run.key)) continue;
            merged->ForEachTuple(run, 0, run.count, [&](const Tuple& t) {
              ctx.partitioner->OnTuple(t);
            });
          }
          for (const prompt::TailBucket& bucket : merged->tail()) {
            merged->ForEachTailTuple(bucket, [&](const Tuple& t) {
              if (tenant.filter.Matches(t.key)) ctx.partitioner->OnTuple(t);
            });
          }
        }
        Tracer::Scope span(tr, "core.seal", batch_id);
        seal_start = NowNs();
        batch = ctx.partitioner->Seal(ctx.next_batch_id);
        seal_plan_child(batch);
      }
      ++ctx.next_batch_id;
    } else {
      Tracer::Scope span(tr, "core.seal", batch_id);
      seal_start = NowNs();
      batch = ctx.partitioner->Seal(ctx.next_batch_id++);
      seal_plan_child(batch);
    }
    if (batch.sketch.sketch_mode) {
      counts_.sketch_coverage_sum += batch.sketch.head_coverage();
      ++counts_.sketch_seals;
    }

    if (m.durable != nullptr) {
      std::string bytes;
      {
        Tracer::Scope span(tr, "engine.encode", batch_id);
        bytes = prompt::EncodeBatch(batch);
      }
      counts_.encoded_bytes += bytes.size();
      Tracer::Scope span(tr, "store.put", batch_id);
      const auto owner = static_cast<uint32_t>(ti);
      if (!m.durable->Put(owner, batch.batch_id, bytes).ok()) ++io_errors_;
      if (batch.batch_id >= kWindowBatches) {
        if (!m.durable->Evict(owner, batch.batch_id - kWindowBatches).ok()) {
          ++io_errors_;
        }
      }
    }

    prompt::BatchExecution exec;
    {
      Tracer::Scope span(tr, "engine.execute", batch_id);
      tenant.allocator->set_batch(batch_id);
      exec = ctx.executor->Execute(batch, ctx.reduce_tasks, kCores);
    }
    {
      Tracer::Scope span(tr, "engine.window", batch_id);
      ctx.window->AddBatch(std::move(exec.output));
    }
    ctx.ObserveBatchEstimates(batch.num_tuples, batch.num_keys);
  }

  // --- Feedback and durability points, as the engines order them. ---
  if (m.ingest != nullptr) {
    if (multi) {
      constexpr double kAlpha = 0.4;
      const double mt = static_cast<double>(merged->num_tuples());
      const double mk = static_cast<double>(
          merged->stats().sketch_mode
              ? std::max(merged->num_keys(), merged->stats().distinct_estimate)
              : merged->num_keys());
      m.est_tuples = m.est_init ? kAlpha * mt + (1 - kAlpha) * m.est_tuples : mt;
      m.est_keys = m.est_init ? kAlpha * mk + (1 - kAlpha) * m.est_keys : mk;
      m.est_init = true;
      m.ingest->UpdateEstimates(static_cast<uint64_t>(m.est_tuples),
                                static_cast<uint64_t>(m.est_keys));
    } else {
      const prompt::QueryContext& ctx = *m.tenants[0].ctx;
      m.ingest->UpdateEstimates(static_cast<uint64_t>(ctx.est_tuples),
                                static_cast<uint64_t>(ctx.est_keys));
    }
  }
  if (m.durable != nullptr) {
    Tracer::Scope span(tr, "store.sync", batch_id);
    if (!m.durable->Sync().ok()) ++io_errors_;
  }
  if (m.journal != nullptr) {
    Tracer::Scope span(tr, "replay.journal", batch_id);
    const uint64_t before = m.journal->appended_bytes();
    if (!m.journal->SyncBatch().ok()) ++io_errors_;
    counts_.journal_bytes += m.journal->appended_bytes() - before;
  }
  counts_.tuples += tuples.size();
  ++counts_.batches;
}

}  // namespace perfbench
