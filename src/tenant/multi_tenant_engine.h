// Multi-tenant query serving: N tenant queries over one shared source and
// ingest pipeline, driven by MicroBatchEngine's heartbeat loop — the same
// Run that drives the single-query engine, here over N QueryContexts.
//
// Create() validates the tenant specs, registers every tenant with a
// weighted-fair TenantScheduler and hands the loop one query per tenant.
// Each heartbeat:
//   1. the scheduler hands every tenant its deterministic slot share
//      (weights only — a tenant's overflow queues behind its *own* slots);
//   2. the shared source drains once; tuples fan out to each tenant whose
//      KeyFilter matches (sharded ingest merges once, then each tenant
//      seals its slice of the merged quasi-sorted runs);
//   3. every tenant seals and processes its own batch on its granted slots,
//      with its own window, technique/adaptive-ladder state, autopsy stream
//      and tenant-labeled metrics.
// Virtual time is per tenant (QueryContext::pipeline_free_at), so a noisy
// neighbor's queueing never shows up in a calm tenant's latency — the
// isolation property bench/multi_tenant_isolation asserts.
//
// Cluster mode, fault injection, elasticity, batch resizing and report-row
// sinks stay single-query features of the loop; MultiTenantEngineOptions
// has no fields for them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "ingest/pipeline.h"
#include "obs/observability.h"
#include "query/multi_query.h"
#include "replay/journal.h"
#include "tenant/query_context.h"
#include "tenant/tenant_scheduler.h"
#include "workload/source.h"

namespace prompt {

/// \brief Shared-substrate configuration. Per-query knobs (technique,
/// adaptive ladder, weight, filter, window) come from each TenantQuerySpec.
struct MultiTenantEngineOptions {
  /// Heartbeat period — the shared slide every tenant's window rides
  /// (ParseQueryFile rejects specs whose SLIDEs differ).
  TimeMicros batch_interval = Seconds(1);
  /// Task-slot pool the scheduler divides each heartbeat (the cluster's
  /// cores). Must be >= the number of tenants.
  uint32_t total_slots = 16;
  /// Per-tenant Map parallelism (data blocks per batch) and Reduce buckets.
  uint32_t map_tasks = 8;
  uint32_t reduce_tasks = 8;
  CostModelParams cost;
  ExecutionMode mode = ExecutionMode::kSimulated;
  /// Alg. 3 Worst-Fit Reduce allocation for every tenant (vs hashing).
  bool use_prompt_reduce = true;
  /// Early Batch Release slack as a fraction of the interval (§4.2).
  double early_release_frac = 0.05;
  /// Per-tenant instability bound on queueing delay, in intervals.
  double unstable_queue_intervals = 8.0;
  /// Shared ingest pipeline configuration. ingest.shards = 1 routes tuples
  /// straight into each matching tenant's partitioner; > 1 accumulates once
  /// (Alg. 1 sharded) and each tenant replays its filtered slice of the
  /// merge.
  IngestOptions ingest;
  /// Shared observability stack. Autopsy rows carry a `tenant` column; the
  /// exporter serves per-tenant stores at /timeseries.json?tenant=<id>.
  ObservabilityOptions obs;
  /// Template for adaptive tenants: thresholds, window and partitioner
  /// config come from here; enabled/d/candidates come from each spec.
  AdaptiveOptions adapt_base;
  /// Durable block store shared by every tenant (src/store/): batch ids are
  /// namespaced by tenant index, each tenant's sealed batch is logged
  /// before processing, and Create() recovers every tenant's surviving
  /// in-window batches from the same directory.
  StoreOptions store;
  /// Flight recorder (src/replay/): when journal.dir is set, every tuple,
  /// sealed-batch boundary, per-tenant outcome fingerprint, adaptive switch
  /// and wall-clock input is journaled; outcome records are namespaced by
  /// tenant index, mirroring the durable store's owner namespace.
  JournalOptions journal;
};

/// \brief All tenants' results for a Run call, tenant-indexed.
struct MultiTenantRunSummary {
  std::vector<TenantRunResult> tenants;
};

/// \brief The multi-tenant serving engine: a facade that builds the shared
/// heartbeat loop over one query per tenant.
class MultiTenantEngine {
 public:
  /// \param source not owned; must outlive the engine. Invalid when specs is
  /// empty, ids collide, or the slot pool cannot cover one slot per tenant.
  static Result<std::unique_ptr<MultiTenantEngine>> Create(
      MultiTenantEngineOptions options, std::vector<TenantQuerySpec> specs,
      TupleSource* source);
  ~MultiTenantEngine();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(MultiTenantEngine);

  /// Runs `num_batches` heartbeats. Callable repeatedly; per-tenant state
  /// (windows, virtual clocks, adaptive rungs) carries over, results cover
  /// this call's batches only.
  MultiTenantRunSummary Run(uint32_t num_batches);

  size_t tenants() const { return engine_->queries_.size(); }
  const std::string& id(size_t tenant) const { return context(tenant).id(); }
  /// The tenant's complete per-query state (window, technique, clocks).
  const QueryContext& context(size_t tenant) const {
    return *engine_->queries_[tenant].ctx;
  }
  const WindowState& window(size_t tenant) const {
    return *context(tenant).window;
  }

  const TenantScheduler& scheduler() const { return *engine_->scheduler_; }
  Observability* observability() { return engine_->observability(); }
  const Observability* observability() const {
    return engine_->observability();
  }
  const MultiTenantEngineOptions& options() const { return options_; }

  /// What Create() recovered from the shared store directory (across all
  /// tenants; batch ids share the heartbeat clock).
  using DurableRecovery = MicroBatchEngine::DurableRecovery;
  const DurableRecovery& durable_recovery() const {
    return engine_->durable_recovery();
  }
  const DurableBlockStore* durable_store() const {
    return engine_->durable_store();
  }
  /// The flight recorder, or null when options.journal is disabled.
  const JournalWriter* journal() const { return engine_->journal(); }

 private:
  MultiTenantEngine(MultiTenantEngineOptions options,
                    std::unique_ptr<MicroBatchEngine> engine);

  MultiTenantEngineOptions options_;
  std::unique_ptr<MicroBatchEngine> engine_;
};

}  // namespace prompt
