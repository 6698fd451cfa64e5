#include "tenant/multi_tenant_engine.h"

#include <utility>

namespace prompt {

MultiTenantEngine::MultiTenantEngine(MultiTenantEngineOptions options,
                                     std::unique_ptr<MicroBatchEngine> engine)
    : options_(std::move(options)), engine_(std::move(engine)) {}

MultiTenantEngine::~MultiTenantEngine() = default;

Result<std::unique_ptr<MultiTenantEngine>> MultiTenantEngine::Create(
    MultiTenantEngineOptions options, std::vector<TenantQuerySpec> specs,
    TupleSource* source) {
  if (source == nullptr) return Status::Invalid("source is null");
  if (specs.empty()) return Status::Invalid("no tenant specs");
  // The shared substrate as engine options: the slot pool is the core pool
  // the scheduler divides each heartbeat. Elasticity and batch resizing
  // stay off — the slots are the scheduler's to divide, and the interval is
  // the shared heartbeat.
  EngineOptions shared;
  shared.batch_interval = options.batch_interval;
  shared.cores = options.total_slots;
  shared.map_tasks = options.map_tasks;
  shared.reduce_tasks = options.reduce_tasks;
  shared.cost = options.cost;
  shared.mode = options.mode;
  shared.use_prompt_reduce = options.use_prompt_reduce;
  shared.early_release_frac = options.early_release_frac;
  shared.unstable_queue_intervals = options.unstable_queue_intervals;
  shared.ingest = options.ingest;
  shared.obs = options.obs;
  shared.adapt = options.adapt_base;
  shared.store = options.store;
  shared.journal = options.journal;
  // Range checks first (the scheduler aborts on an empty slot pool), then
  // registering every tenant validates ids, weights and the slot count
  // before anything touches the store or journal directories.
  PROMPT_RETURN_NOT_OK(ValidateEngineOptions(shared));
  auto scheduler = std::make_unique<TenantScheduler>(
      TenantSchedulerOptions{options.total_slots});
  for (const TenantQuerySpec& spec : specs) {
    PROMPT_RETURN_NOT_OK(scheduler->AddTenant(spec.id, spec.weight).status());
  }

  std::vector<MicroBatchEngine::QuerySpec> queries;
  queries.reserve(specs.size());
  for (const TenantQuerySpec& spec : specs) {
    MicroBatchEngine::QuerySpec query;
    query.id = spec.id;
    // The adaptive template, specialized by the spec's ladder.
    query.options = QueryOptionsFrom(shared);
    query.options.adapt.enabled = spec.adaptive;
    if (spec.adaptive) {
      query.options.adapt.d = spec.adapt_d;
      if (!spec.adapt_candidates.empty()) {
        query.options.adapt.candidates = spec.adapt_candidates;
      }
    }
    query.job = spec.query.job;
    query.job.window_batches = spec.query.window_batches();
    query.partitioner =
        CreatePartitioner(spec.technique, options.adapt_base.config);
    query.filter = spec.filter;
    query.spec_line = TenantSpecLine(spec);
    queries.push_back(std::move(query));
  }

  std::unique_ptr<MicroBatchEngine> engine(
      new MicroBatchEngine(std::move(shared), std::move(queries),
                           std::move(scheduler), source));
  // A store or journal that cannot be opened fails Create loudly: running
  // memory-only or unrecorded would break the operator's guarantee.
  PROMPT_RETURN_NOT_OK(engine->init_status());
  return std::unique_ptr<MultiTenantEngine>(
      new MultiTenantEngine(std::move(options), std::move(engine)));
}

MultiTenantRunSummary MultiTenantEngine::Run(uint32_t num_batches) {
  return MultiTenantRunSummary{engine_->RunQueries(num_batches)};
}

}  // namespace prompt
