#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "baselines/factory.h"
#include "common/logging.h"
#include "engine/serde.h"
#include "fault/recovery.h"

namespace prompt {

namespace {

// ---- Flight-recorder manifests: every option that shapes the run's
// deterministic outcome, serialized key=value in a fixed insertion order
// (pinned by tests/testdata/format_pins). The replayer's *FromManifest
// readers (src/replay/replayer.cc) parse exactly these keys back;
// ReplayResult::manifest_match catches any drift between the two. Directory
// paths and journal settings are deliberately absent — a journal must
// replay from any location. The key blocks both engine modes record are
// written by the shared helpers below.

std::string CandidatesCsv(const std::vector<PartitionerType>& candidates) {
  std::string csv;
  for (PartitionerType t : candidates) {
    if (!csv.empty()) csv += ',';
    csv += PartitionerTypeName(t);
  }
  return csv;
}

void SetCostKeys(const CostModelParams& c, JournalManifest* m) {
  m->Set("cost.map_task_fixed_us", c.map_task_fixed_us);
  m->Set("cost.map_per_tuple_us", c.map_per_tuple_us);
  m->Set("cost.map_per_key_us", c.map_per_key_us);
  m->Set("cost.reduce_task_fixed_us", c.reduce_task_fixed_us);
  m->Set("cost.reduce_per_tuple_us", c.reduce_per_tuple_us);
  m->Set("cost.reduce_per_cluster_us", c.reduce_per_cluster_us);
  m->Set("cost.partition_cost_scale", c.partition_cost_scale);
  m->Set("cost.replicate_per_kib_us", c.replicate_per_kib_us);
}

void SetAdaptThresholdKeys(const AdaptiveOptions& a, JournalManifest* m) {
  m->Set("adapt.grace", static_cast<int64_t>(a.grace));
  m->Set("adapt.window", static_cast<uint64_t>(a.window));
  m->Set("adapt.calm_block_load_ratio", a.calm_block_load_ratio);
  m->Set("adapt.calm_split_key_frac", a.calm_split_key_frac);
}

void SetPartitionerAndObsKeys(const EngineOptions& o, JournalManifest* m) {
  const PartitionerConfig& config = o.adapt.config;
  // Constant: Alg. 1 has one exact implementation. The key stays so that
  // journals recorded while it was selectable re-record byte for byte.
  m->Set("partitioner.accumulator", "flat");
  m->Set("partitioner.post_sort", config.prompt.post_sort);
  m->Set("partitioner.cam_candidates",
         static_cast<uint64_t>(config.cam_candidates));
  m->Set("partitioner.sketch_capacity",
         static_cast<uint64_t>(config.sketch_capacity));
  m->Set("obs.collect_partition_metrics", o.obs.collect_partition_metrics);
  m->Set("obs.autopsy.min_excess_frac", o.obs.autopsy.min_excess_frac);
  m->Set("obs.autopsy.min_excess_us",
         static_cast<int64_t>(o.obs.autopsy.min_excess_us));
  m->Set("obs.autopsy.ring_pressure_threshold",
         o.obs.autopsy.ring_pressure_threshold);
}

void SetStoreKeys(const StoreOptions& store, JournalManifest* m) {
  m->Set("store.enabled", store.enabled());
  m->Set("store.fsync", FsyncPolicyName(store.fsync));
  m->Set("store.memory_budget_bytes",
         static_cast<uint64_t>(store.memory_budget_bytes));
  m->Set("store.retain_bytes", static_cast<uint64_t>(store.retain_bytes));
  m->Set("store.retain_batches", store.retain_batches);
}

void SetIngestKeys(const IngestOptions& ingest, JournalManifest* m) {
  m->Set("ingest.shards", static_cast<uint64_t>(ingest.shards));
  m->Set("ingest.ring_capacity", static_cast<uint64_t>(ingest.ring_capacity));
  // Constant, like partitioner.accumulator: kept for journal compatibility.
  m->Set("ingest.accumulator", "flat");
  m->Set("ingest.key_mode", KeyModeName(ingest.key_mode));
  if (ingest.key_mode == KeyMode::kSketch) {
    const SketchSettings& sketch = ingest.accumulator_options.sketch;
    m->Set("ingest.sketch_capacity", static_cast<uint64_t>(sketch.capacity));
    m->Set("ingest.tail_buckets", static_cast<uint64_t>(sketch.tail_buckets));
  }
}

/// The single-query manifest (SingleOptionsFromManifest reads it back).
JournalManifest BuildSingleManifest(const EngineOptions& o, const JobSpec& job,
                                    int32_t technique) {
  JournalManifest m;
  m.Set("format", "prompt-journal-v1");
  m.Set("mode", "single");
  m.Set("batch_interval", static_cast<int64_t>(o.batch_interval));
  m.Set("window_batches", static_cast<uint64_t>(job.window_batches));
  if (!o.journal.query.empty()) m.Set("query", o.journal.query);
  m.Set("technique",
        technique >= 0
            ? PartitionerTypeName(static_cast<PartitionerType>(technique))
            : "custom");
  m.Set("exec_mode",
        o.mode == ExecutionMode::kReal ? "real" : "simulated");
  m.Set("map_tasks", static_cast<uint64_t>(o.map_tasks));
  m.Set("reduce_tasks", static_cast<uint64_t>(o.reduce_tasks));
  m.Set("cores", static_cast<uint64_t>(o.cores));
  m.Set("cores_track_tasks", o.cores_track_tasks);
  m.Set("early_release_frac", o.early_release_frac);
  m.Set("use_prompt_reduce", o.use_prompt_reduce);
  m.Set("unstable_queue_intervals", o.unstable_queue_intervals);
  SetCostKeys(o.cost, &m);
  m.Set("elasticity_enabled", o.elasticity_enabled);
  m.Set("elasticity.threshold", o.elasticity.threshold);
  m.Set("elasticity.step", o.elasticity.step);
  m.Set("elasticity.d", static_cast<int64_t>(o.elasticity.d));
  m.Set("elasticity.min_map_tasks",
        static_cast<uint64_t>(o.elasticity.min_map_tasks));
  m.Set("elasticity.min_reduce_tasks",
        static_cast<uint64_t>(o.elasticity.min_reduce_tasks));
  m.Set("elasticity.max_map_tasks",
        static_cast<uint64_t>(o.elasticity.max_map_tasks));
  m.Set("elasticity.max_reduce_tasks",
        static_cast<uint64_t>(o.elasticity.max_reduce_tasks));
  m.Set("elasticity.trend_lookback",
        static_cast<int64_t>(o.elasticity.trend_lookback));
  m.Set("adapt.enabled", o.adapt.enabled);
  m.Set("adapt.d", static_cast<int64_t>(o.adapt.d));
  SetAdaptThresholdKeys(o.adapt, &m);
  m.Set("adapt.candidates", CandidatesCsv(o.adapt.candidates));
  SetPartitionerAndObsKeys(o, &m);
  if (o.faults.enabled()) {
    m.Set("faults", FormatFaultSchedule(o.faults));
    // Policy knobs the spec grammar cannot express.
    m.Set("faults.max_task_retries",
          static_cast<uint64_t>(o.faults.max_task_retries));
    m.Set("faults.retry_backoff", static_cast<int64_t>(o.faults.retry_backoff));
    m.Set("faults.speculation_enabled", o.faults.speculation_enabled);
    m.Set("faults.speculation_multiplier", o.faults.speculation_multiplier);
  }
  m.Set("replicate_input", o.replicate_input);
  m.Set("cluster_enabled", o.cluster_enabled);
  m.Set("cluster.nodes", static_cast<uint64_t>(o.cluster.nodes));
  m.Set("cluster.cores_per_node",
        static_cast<uint64_t>(o.cluster.cores_per_node));
  m.Set("cluster.replication_factor",
        static_cast<uint64_t>(o.cluster.replication_factor));
  m.Set("cluster.remote_read_penalty", o.cluster.remote_read_penalty);
  SetStoreKeys(o.store, &m);
  m.Set("batch_resizing_enabled", o.batch_resizing_enabled);
  m.Set("resizer.min_interval",
        static_cast<int64_t>(o.batch_resizer.min_interval));
  m.Set("resizer.max_interval",
        static_cast<int64_t>(o.batch_resizer.max_interval));
  m.Set("resizer.target_ratio", o.batch_resizer.target_ratio);
  m.Set("resizer.lookback", static_cast<int64_t>(o.batch_resizer.lookback));
  m.Set("resizer.gain", o.batch_resizer.gain);
  SetIngestKeys(o.ingest, &m);
  return m;
}

/// The tenant-mode manifest (MultiOptionsFromManifest reads it back; the
/// tenant= lines are the specs' text form, which SpecsFromManifest parses):
/// total_slots is the core pool the scheduler divides, the adaptive
/// template is the adapt block.
JournalManifest BuildMultiManifest(const EngineOptions& o,
                                   const std::vector<std::string>& tenants) {
  JournalManifest m;
  m.Set("format", "prompt-journal-v1");
  m.Set("mode", "multi");
  m.Set("batch_interval", static_cast<int64_t>(o.batch_interval));
  m.Set("total_slots", static_cast<uint64_t>(o.cores));
  m.Set("map_tasks", static_cast<uint64_t>(o.map_tasks));
  m.Set("reduce_tasks", static_cast<uint64_t>(o.reduce_tasks));
  m.Set("exec_mode", o.mode == ExecutionMode::kReal ? "real" : "simulated");
  m.Set("use_prompt_reduce", o.use_prompt_reduce);
  m.Set("early_release_frac", o.early_release_frac);
  m.Set("unstable_queue_intervals", o.unstable_queue_intervals);
  SetCostKeys(o.cost, &m);
  m.Set("adapt.candidates", CandidatesCsv(o.adapt.candidates));
  SetAdaptThresholdKeys(o.adapt, &m);
  SetPartitionerAndObsKeys(o, &m);
  SetStoreKeys(o.store, &m);
  SetIngestKeys(o.ingest, &m);
  for (const std::string& tenant : tenants) m.Set("tenant", tenant);
  return m;
}

}  // namespace

double RunSummary::MeanW(size_t warmup) const {
  if (batches.size() <= warmup) return 0;
  double sum = 0;
  for (size_t i = warmup; i < batches.size(); ++i) sum += batches[i].w;
  return sum / static_cast<double>(batches.size() - warmup);
}

double RunSummary::MeanThroughputTuplesPerSec(TimeMicros interval,
                                              size_t warmup) const {
  if (batches.size() <= warmup || interval <= 0) return 0;
  uint64_t tuples = 0;
  for (size_t i = warmup; i < batches.size(); ++i) {
    tuples += batches[i].num_tuples;
  }
  const double seconds =
      ToSeconds(interval) * static_cast<double>(batches.size() - warmup);
  return static_cast<double>(tuples) / seconds;
}

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.batch_interval <= 0) {
    return Status::Invalid("batch_interval must be positive, got " +
                           std::to_string(options.batch_interval) + " us");
  }
  for (const auto& [name, value] :
       {std::pair<const char*, uint32_t>{"map_tasks", options.map_tasks},
        {"reduce_tasks", options.reduce_tasks},
        {"cores", options.cores}}) {
    if (value < 1 || value > kMaxEngineTasks) {
      return Status::Invalid(std::string(name) + " must be in [1, " +
                             std::to_string(kMaxEngineTasks) + "], got " +
                             std::to_string(value));
    }
  }
  // Written so that NaN fails too: it compares false both ways.
  if (!(options.early_release_frac >= 0 && options.early_release_frac < 1)) {
    return Status::Invalid("early_release_frac must be in [0, 1), got " +
                           std::to_string(options.early_release_frac));
  }
  return ValidateIngestOptions(options.ingest);
}

QueryContextOptions QueryOptionsFrom(const EngineOptions& options) {
  QueryContextOptions qc;
  qc.map_tasks = options.map_tasks;
  qc.reduce_tasks = options.reduce_tasks;
  qc.cost = options.cost;
  qc.mode = options.mode;
  qc.use_prompt_reduce = options.use_prompt_reduce;
  qc.elasticity_enabled = options.elasticity_enabled;
  qc.elasticity = options.elasticity;
  qc.batch_resizing_enabled = options.batch_resizing_enabled;
  qc.batch_resizer = options.batch_resizer;
  qc.adapt = options.adapt;
  return qc;
}

MicroBatchEngine::MicroBatchEngine(EngineOptions options, JobSpec job,
                                   std::unique_ptr<BatchPartitioner> partitioner,
                                   TupleSource* source)
    : MicroBatchEngine(
          options,
          [&] {
            std::vector<QuerySpec> queries(1);
            queries[0].id = "default";
            queries[0].options = QueryOptionsFrom(options);
            queries[0].job = std::move(job);
            queries[0].partitioner = std::move(partitioner);
            return queries;
          }(),
          /*scheduler=*/nullptr, source) {}

MicroBatchEngine::MicroBatchEngine(EngineOptions options,
                                   std::vector<QuerySpec> queries,
                                   std::unique_ptr<TenantScheduler> scheduler,
                                   TupleSource* source)
    : options_(std::move(options)),
      source_(source),
      scheduler_(std::move(scheduler)) {
  PROMPT_CHECK(source_ != nullptr);
  PROMPT_CHECK(!queries.empty());
  // Out-of-range options fail construction before any sink, pool, ring or
  // thread exists; the engine keeps only its query contexts (so accessors
  // stay valid), and RunQueries then refuses to run.
  init_status_ = ValidateEngineOptions(options_);
  if (!init_status_.ok()) {
    PROMPT_LOG(kError) << init_status_.ToString();
    options_.obs = ObservabilityOptions{};
  }
  const bool tenant_mode = scheduler_ != nullptr;
  if (std::any_of(queries.begin(), queries.end(), [](const QuerySpec& q) {
        return q.options.adapt.enabled;
      })) {
    // The controller's calm test reads block-load and split-key signals, so
    // the partition-metrics pass must run regardless of what the caller set.
    options_.obs.collect_partition_metrics = true;
  }
  obs_ = std::make_unique<Observability>(options_.obs);
  if (!obs_->init_status().ok()) {
    PROMPT_LOG(kWarn) << "observability sink setup failed: "
                      << obs_->init_status().ToString();
  }
  // Per-tenant time-series geometry mirrors what Observability derives for
  // its (shared) default store.
  TimeSeriesOptions ts;
  ts.capacity = options_.obs.timeseries_capacity;
  if (options_.obs.serve_port >= 0 && ts.capacity == 0) ts.capacity = 1024;
  ts.window = options_.obs.timeseries_window;
  ts.ewma_alpha = options_.obs.timeseries_alpha;
  MetricsRegistry* registry = obs_->registry();
  std::vector<std::string> spec_lines;
  for (QuerySpec& spec : queries) {
    spec_lines.push_back(std::move(spec.spec_line));
    Query q;
    q.filter = spec.filter;
    q.ctx = std::make_unique<QueryContext>(
        spec.id, spec.options, std::move(spec.job), std::move(spec.partitioner),
        registry,
        tenant_mode ? MetricLabels{{"tenant", spec.id}} : MetricLabels{});
    if (tenant_mode && ts.capacity > 0) {
      q.ctx->timeseries = std::make_unique<TimeSeriesStore>(ts);
      if (obs_->exporter() != nullptr) {
        obs_->exporter()->AddTimeSeries(spec.id, q.ctx->timeseries.get());
      }
    }
    if (tenant_mode && registry != nullptr) {
      const MetricLabels labels{{"tenant", spec.id}};
      q.batches_total = registry->GetCounter("prompt_batches_total", labels);
      q.tuples_total = registry->GetCounter("prompt_tuples_total", labels);
      q.latency_us = registry->GetHistogram("prompt_batch_latency_us", labels);
      q.slots_gauge = registry->GetGauge("prompt_tenant_slots", labels);
      q.w_gauge = registry->GetGauge("prompt_batch_w", labels);
    }
    queries_.push_back(std::move(q));
  }
  query_ = queries_[0].ctx.get();
  if (!init_status_.ok()) return;
  if (options_.mode == ExecutionMode::kReal) {
    pool_ = std::make_unique<ThreadPool>(options_.cores);
  }
  if (options_.store.enabled() && !tenant_mode) {
    // The durable tier backs the §8 BatchStore; no store without a cluster.
    // (Tenants log straight to the durable store, one owner namespace per
    // query.)
    options_.cluster_enabled = true;
  }
  if (options_.cluster_enabled) {
    cluster_ = std::make_unique<SimulatedCluster>(options_.cluster);
    store_ = std::make_unique<BatchStore>(cluster_.get());
  }
  if (options_.store.enabled()) {
    auto durable = DurableBlockStore::Open(options_.store);
    if (durable.ok()) {
      durable_ = std::move(durable).ValueUnsafe();
      durable_->BindMetrics(registry);
      if (store_ != nullptr) store_->AttachDurable(durable_.get(), /*owner=*/0);
      RecoverFromDurableStore();
    } else {
      // Durability was explicitly requested; running memory-only behind the
      // operator's back would mask real loss ("recovered 0 batches" looks
      // like a clean log). Surface a construction failure instead — the
      // caller must check init_status() before trusting this engine.
      init_status_ = Status::IOError("durable store " + options_.store.dir +
                                     " cannot be opened: " +
                                     durable.status().ToString());
      durable_recovery_.data_loss = true;
      PROMPT_LOG(kError) << init_status_.ToString();
    }
  }
  if (options_.faults.enabled()) {
    fault_ = std::make_unique<FaultInjector>(options_.faults);
    const bool has_node_events =
        options_.faults.random.enabled ||
        std::any_of(options_.faults.schedule.begin(),
                    options_.faults.schedule.end(), [](const FaultEvent& e) {
                      return e.kind == FaultKind::kKillNode ||
                             e.kind == FaultKind::kReviveNode;
                    });
    if (has_node_events && cluster_ == nullptr) {
      PROMPT_LOG(kWarn) << "fault schedule has node events but cluster mode "
                           "is off; kills/revives will be ignored";
    }
  }
  current_interval_ = options_.batch_interval;
  // Sketch mode needs the pipeline even at one shard: the partitioner's own
  // accumulator is exact, and only the pipeline swaps in the sketch kind.
  if (options_.ingest.shards > 1 ||
      options_.ingest.key_mode == KeyMode::kSketch) {
    ingest_ = std::make_unique<ParallelIngestPipeline>(options_.ingest);
    ingest_->BindMetrics(registry);
  }
  // Opened last, and only on an otherwise healthy construction, so a failed
  // store never leaves a stray journal behind.
  if (options_.journal.enabled() && init_status_.ok()) {
    auto journal = JournalWriter::Open(
        options_.journal,
        tenant_mode ? BuildMultiManifest(options_, spec_lines)
                    : BuildSingleManifest(options_, query_->job,
                                          query_->current_technique));
    if (journal.ok()) {
      journal_ = std::move(journal).ValueUnsafe();
    } else {
      // Recording was explicitly requested; running unrecorded would break
      // the operator's replay guarantee silently. Same contract as the
      // durable store: surface a construction failure.
      Status failed = Status::IOError(
          "journal " + options_.journal.dir + " cannot be opened: " +
          journal.status().ToString());
      PROMPT_LOG(kError) << failed.ToString();
      init_status_ = failed;
    }
  }
}

MicroBatchEngine::~MicroBatchEngine() = default;

void MicroBatchEngine::RecoverFromDurableStore() {
  const StoreRecovery& scan = durable_->recovery();
  durable_recovery_.torn_records = scan.torn_records;
  // A torn tail is a batch that was written but did not survive the crash:
  // report it as loss, never paper over it with a fabricated batch.
  durable_recovery_.data_loss = scan.torn_records > 0;

  const uint32_t cores = AvailableCores();
  for (uint32_t owner = 0; owner < queries_.size(); ++owner) {
    QueryContext& ctx = *queries_[owner].ctx;
    for (uint64_t id : durable_->LiveBatches(owner)) {
      Result<std::string> bytes = durable_->Get(owner, id);
      Result<PartitionedBatch> decoded =
          bytes.ok() ? DecodeBatch(*bytes)
                     : Result<PartitionedBatch>(bytes.status());
      if (!decoded.ok()) {
        PROMPT_LOG(kWarn) << "recovery: query " << ctx.id()
                          << ": cannot recover batch " << id << ": "
                          << decoded.status().ToString();
        durable_recovery_.data_loss = true;
        continue;
      }
      PartitionedBatch batch = std::move(decoded).ValueUnsafe();
      // Deterministic re-execution: partitioned input + the same reduce
      // logic give bit-identical per-key aggregates, so the recovered window
      // equals an uninterrupted run over the surviving batches.
      BatchExecution exec =
          ctx.executor->Execute(batch, ctx.reduce_tasks, cores, pool_.get());
      ctx.window->AddBatch(std::move(exec.output));
      if (store_ != nullptr) {
        // Memory-tier placement only — the log already holds this batch,
        // and re-appending on every restart would grow the segments
        // without bound.
        if (Result<uint32_t> placed = store_->Restore(batch); !placed.ok()) {
          PROMPT_LOG(kWarn) << "recovery: replica placement for batch " << id
                            << " failed: " << placed.status().ToString();
        }
        ctx.window_state_nodes.push_back(
            QueryContext::WindowReplica{id, PickStateNode(id)});
        while (ctx.window_state_nodes.size() > ctx.window->depth()) {
          ctx.window_state_nodes.pop_front();
        }
      }
      ++durable_recovery_.batches_recovered;
      durable_recovery_.first_recovered_batch =
          std::min(durable_recovery_.first_recovered_batch, id);
      durable_recovery_.last_recovered_batch =
          std::max(durable_recovery_.last_recovered_batch, id);
    }
  }
  if (durable_recovery_.batches_recovered > 0) {
    // Every query rides one heartbeat clock: resume it, and every query's
    // batch ids, past the newest recovered batch anywhere in the log.
    const uint64_t next = durable_recovery_.last_recovered_batch + 1;
    for (Query& q : queries_) q.ctx->next_batch_id = next;
    next_batch_start_ =
        static_cast<TimeMicros>(next) * options_.batch_interval;
    PROMPT_LOG(kInfo) << "recovered " << durable_recovery_.batches_recovered
                      << " batch(es) [" << durable_recovery_.first_recovered_batch
                      << ".." << durable_recovery_.last_recovered_batch
                      << "] from " << options_.store.dir
                      << (durable_recovery_.data_loss
                              ? " (torn tail truncated: data loss)"
                              : "");
  }
}

BatchReport MicroBatchEngine::ProcessBatch(size_t query,
                                           PartitionedBatch batch,
                                           TimeMicros interval,
                                           uint32_t slots) {
  QueryContext& ctx = *queries_[query].ctx;
  const uint32_t owner = static_cast<uint32_t>(query);
  BatchReport report;
  report.batch_id = batch.batch_id;
  report.batch_interval = interval;
  report.num_tuples = batch.num_tuples;
  report.num_keys = batch.num_keys;
  report.map_tasks = static_cast<uint32_t>(batch.blocks.size());
  report.reduce_tasks = ctx.reduce_tasks;
  report.partition_cost = batch.partition_cost;
  report.sketch = batch.sketch;
  ctx.MarkTechnique(&report);

  // Early Batch Release (§4.2): the partitioner worked during the slack
  // before the heartbeat; only the excess delays processing.
  const TimeMicros slack = static_cast<TimeMicros>(
      options_.early_release_frac * static_cast<double>(interval));
  const TimeMicros scaled_cost = static_cast<TimeMicros>(
      options_.cost.partition_cost_scale *
      static_cast<double>(batch.partition_cost));
  report.partition_overflow = std::max<TimeMicros>(0, scaled_cost - slack);

  if (options_.obs.collect_partition_metrics) {
    report.partition_metrics =
        ComputeBlockMetrics(batch, options_.obs.mpi_weights);
  }

  // §8: replicate the sealed input across nodes *before* any stage runs, so
  // a mid-stage failure can replay the batch from surviving copies. Copies
  // are only needed while the batch is inside the query window (evicted at
  // the end of this function).
  if (store_ != nullptr) {
    Result<uint32_t> copies = store_->Write(batch);
    if (!copies.ok()) {
      PROMPT_LOG(kWarn) << "batch replication failed: "
                        << copies.status().ToString();
    }
    if (durable_ != nullptr) {
      report.store_append_us = durable_->last_append_micros();
      report.store_bytes_appended = store_->last_write_bytes();
      report.store_spilled_copies = store_->last_spill_count();
    }
    // Gauge, not an event count: while the cluster is degraded every batch
    // reports how many in-window batches sit below the configured factor
    // (a later top-up in this same batch refreshes the field).
    report.under_replicated_batches =
        store_->UnderReplicatedCount(options_.cluster.replication_factor);
  } else if (durable_ != nullptr) {
    // Tenant mode has no cluster tier: the sealed batch goes straight to
    // the log, namespaced by query index.
    if (Status st = durable_->Put(owner, batch.batch_id, EncodeBatch(batch));
        !st.ok()) {
      PROMPT_LOG(kWarn) << "query " << ctx.id()
                        << ": durable append failed: " << st.ToString();
    }
  }

  // Failure-detection point 1: the batch boundary. Manual KillNode calls
  // made between runs are recovered here too.
  for (uint32_t node : pending_node_losses_) {
    RecoverFromNodeLoss(node, &report);
  }
  pending_node_losses_.clear();
  PollFaults(batch.batch_id, FaultPoint::kBatchStart, &report);
  if (crashed_) return report;  // the process died before any stage ran

  // The query's cores: its weighted-fair grant in tenant mode, else every
  // alive core (read after the batch-start poll, which may kill nodes).
  const uint32_t cores = scheduler_ != nullptr ? slots : AvailableCores();
  const uint32_t map_cores =
      options_.cores_track_tasks
          ? std::max<uint32_t>(1, static_cast<uint32_t>(batch.blocks.size()))
          : cores;
  const uint32_t reduce_cores =
      options_.cores_track_tasks ? std::max<uint32_t>(1, ctx.reduce_tasks)
                                 : cores;

  // Execute both stages (scheduler uses the smaller of the two core counts
  // internally per stage via two calls).
  BatchExecution exec;
  {
    // BatchExecutor schedules each stage with one core count; when the two
    // differ (elasticity), run it with map cores and rescale the reduce
    // stage below.
    exec = ctx.executor->Execute(batch, ctx.reduce_tasks, map_cores, pool_.get());
    if (reduce_cores != map_cores) {
      StageSchedule rs = ScheduleStage(exec.reduce_task_costs, reduce_cores);
      exec.reduce_makespan = rs.makespan;
      exec.reduce_completions = std::move(rs.completion);
    }
  }

  // Injected stragglers / transient task failures: retry + speculation
  // adjust the map-task durations before scheduling finalizes.
  const bool retry_exhausted =
      ApplyTaskPerturbations(batch.batch_id, map_cores, &exec, &report);

  if (cluster_ != nullptr) {
    // Re-schedule the Map stage with data locality over per-node cores:
    // every task prefers a node holding a replica of its block.
    auto placements =
        cluster_->PlaceBlocks(static_cast<uint32_t>(batch.blocks.size()));
    if (placements.ok()) {
      LocalityStageResult locality = ScheduleMapStageWithLocality(
          exec.map_task_costs, *placements, *cluster_);
      exec.map_makespan = locality.makespan;
      report.remote_map_tasks = locality.remote_tasks;
    }
  }

  // Failure-detection points 2 and 3: mid-stage. A node lost while a stage
  // runs discards that attempt's in-flight state; the attempted makespans
  // stay on the clock (the pipeline slot was spent) and the batch is redone
  // from replicated input on the survivors, charged to recovery_time.
  bool replay_current = retry_exhausted;
  replay_current |= PollFaults(batch.batch_id, FaultPoint::kMapStage, &report);
  replay_current |=
      PollFaults(batch.batch_id, FaultPoint::kReduceStage, &report);
  if (crashed_) return report;  // died mid-stage: this batch never completes
  if (replay_current) {
    Result<BatchExecution> redo =
        store_ != nullptr
            ? ReplayBatchFromStore(batch.batch_id, &report)
            : Result<BatchExecution>(
                  Status::Invalid("no replicated input to replay from"));
    if (redo.ok()) {
      exec.output = std::move(redo->output);
    } else {
      // Exactly-once is lost for this batch: no surviving replica (or no
      // store at all). Keep the original attempt's output so the stream
      // continues, but flag the loss.
      PROMPT_LOG(kWarn) << "batch " << batch.batch_id
                        << " unrecoverable: " << redo.status().ToString();
      report.unrecoverable = true;
    }
  }

  report.map_makespan = exec.map_makespan;
  report.reduce_makespan = exec.reduce_makespan;
  report.processing_time = report.partition_overflow + exec.map_makespan +
                           exec.reduce_makespan + report.recovery_time;
  report.w = static_cast<double>(report.processing_time) /
             static_cast<double>(interval);
  report.reduce_bucket_bsi = BucketSizeImbalance(exec.bucket_tuples);

  if (!exec.reduce_completions.empty()) {
    double sum = 0, lo = 1e300, hi = 0;
    for (TimeMicros c : exec.reduce_completions) {
      double ms = static_cast<double>(c) / 1000.0;
      sum += ms;
      lo = std::min(lo, ms);
      hi = std::max(hi, ms);
    }
    report.reduce_completion_mean_ms =
        sum / static_cast<double>(exec.reduce_completions.size());
    report.reduce_completion_min_ms = lo;
    report.reduce_completion_max_ms = hi;
  }

  // Extra queries run their Map/Reduce stages over the same blocks
  // sequentially (one shared cluster), extending the batch's processing
  // time the way consecutive Spark jobs on one context would.
  for (ExtraQuery& extra : extra_queries_) {
    BatchExecution extra_exec =
        extra.executor->Execute(batch, ctx.reduce_tasks, map_cores, pool_.get());
    report.processing_time +=
        extra_exec.map_makespan + extra_exec.reduce_makespan;
    extra.window->AddBatch(std::move(extra_exec.output));
  }
  if (!extra_queries_.empty()) {
    report.w = static_cast<double>(report.processing_time) /
               static_cast<double>(interval);
  }

  if (options_.replicate_input) {
    ctx.last_replica = std::make_unique<PartitionedBatch>(batch);
    ctx.last_output = exec.output;
  }
  if (batch.batch_id >= ctx.job.window_batches) {
    // §8 GC rule: a batch expiring from the window can never be replayed
    // again, so its replicas and its log record are dropped.
    const uint64_t expired = batch.batch_id - ctx.job.window_batches;
    if (store_ != nullptr) {
      store_->Evict(expired);
    } else if (durable_ != nullptr) {
      if (Status st = durable_->Evict(owner, expired); !st.ok()) {
        PROMPT_LOG(kWarn) << "query " << ctx.id()
                          << ": durable evict failed: " << st.ToString();
      }
    }
  }
  if (journal_ != nullptr) {
    // Commutative hash of the per-key window contribution, taken at the
    // exact hand-off into the window: equal hashes every batch imply equal
    // window aggregates between record and replay.
    report.output_hash = HashBatchOutput(exec.output);
  }
  ctx.window->AddBatch(std::move(exec.output));
  if (cluster_ != nullptr) {
    // Track which node hosts this batch's reduce-bucket state, mirroring the
    // window's retained history: losing that node later triggers a replay.
    ctx.window_state_nodes.push_back(QueryContext::WindowReplica{
        batch.batch_id, PickStateNode(batch.batch_id)});
    while (ctx.window_state_nodes.size() > ctx.window->depth()) {
      ctx.window_state_nodes.pop_front();
    }
  }
  return report;
}

Result<size_t> MicroBatchEngine::AddQuery(JobSpec job) {
  if (run_started_) {
    return Status::Invalid("AddQuery must be called before the first Run");
  }
  ExtraQuery extra;
  extra.executor = std::make_unique<BatchExecutor>(
      job, CostModel(options_.cost), query_->allocator.get(), options_.mode);
  extra.executor->BindMetrics(obs_->registry());
  extra.window = std::make_unique<WindowState>(job.reduce, job.window_batches);
  extra.job = std::move(job);
  extra_queries_.push_back(std::move(extra));
  return extra_queries_.size() - 1;
}

Result<const WindowState*> MicroBatchEngine::QueryWindow(
    size_t query_id) const {
  if (query_id >= extra_queries_.size()) {
    return Status::OutOfRange("no such query id");
  }
  return static_cast<const WindowState*>(extra_queries_[query_id].window.get());
}

Status MicroBatchEngine::KillNode(uint32_t node) {
  if (cluster_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_RETURN_NOT_OK(cluster_->KillNode(node));
  // The node's memory died with it: its replica copies are gone for good
  // (reviving later restores cores only). Recovery — replay of in-window
  // batches and the replication top-up — runs at the next batch boundary,
  // the engine's failure-detection point.
  store_->DropNode(node);
  pending_node_losses_.push_back(node);
  return Status::OK();
}

Status MicroBatchEngine::ReviveNode(uint32_t node) {
  if (cluster_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_RETURN_NOT_OK(cluster_->ReviveNode(node));
  FeedCapacityToElastic();
  return Status::OK();
}

std::vector<uint32_t> MicroBatchEngine::AliveNodes() const {
  std::vector<uint32_t> alive;
  if (cluster_ == nullptr) return alive;
  alive.reserve(cluster_->nodes());
  for (uint32_t n = 0; n < cluster_->nodes(); ++n) {
    if (cluster_->alive(n)) alive.push_back(n);
  }
  return alive;
}

uint32_t MicroBatchEngine::PickStateNode(uint64_t batch_id) const {
  const std::vector<uint32_t> alive = AliveNodes();
  if (alive.empty()) return 0;
  return alive[batch_id % alive.size()];
}

bool MicroBatchEngine::PollFaults(uint64_t batch_id, FaultPoint point,
                                  BatchReport* report) {
  if (fault_ == nullptr || cluster_ == nullptr) return false;
  bool killed = false;
  auto journal_fault = [&](const FaultEvent& event) {
    if (journal_ == nullptr) return;
    JournalFault jf;
    jf.batch_id = batch_id;
    jf.point = static_cast<uint8_t>(point);
    jf.kind = static_cast<uint8_t>(event.kind);
    jf.target = event.target;
    if (Status st = journal_->AppendFault(jf); !st.ok()) {
      PROMPT_LOG(kWarn) << "journal: fault append failed: " << st.ToString();
    }
  };
  for (const FaultEvent& event : fault_->Poll(batch_id, point, AliveNodes())) {
    if (event.kind == FaultKind::kCrash) {
      journal_fault(event);
      // The whole process dies: the durable store keeps only what was
      // fsynced (plus a torn tail for recovery to truncate); everything in
      // memory — window, replicas, this batch — is gone. The run stops.
      PROMPT_LOG(kWarn) << "fault injected: process crash at batch "
                        << batch_id;
      crashed_ = true;
      crashed_at_batch_ = batch_id;
      if (durable_ != nullptr) {
        if (Status st = durable_->SimulateCrash(/*tear_tail=*/true);
            !st.ok()) {
          PROMPT_LOG(kWarn) << "crash simulation failed: " << st.ToString();
        }
      }
      break;
    }
    if (event.kind == FaultKind::kRestart) {
      continue;  // consumed by scenario runners, not the engine itself
    }
    if (event.kind == FaultKind::kKillNode) {
      Status st = cluster_->KillNode(event.target);
      if (!st.ok()) continue;  // already dead / unknown node: no-op
      PROMPT_LOG(kWarn) << "fault injected: node " << event.target
                        << " killed at batch " << batch_id;
      journal_fault(event);
      store_->DropNode(event.target);
      RecoverFromNodeLoss(event.target, report);
      killed = true;
    } else if (event.kind == FaultKind::kReviveNode) {
      Status st = cluster_->ReviveNode(event.target);
      if (!st.ok()) continue;
      journal_fault(event);
      // The node rejoins with empty memory: capacity is back (the elastic
      // controller may scale out again) and the extra room lets the store
      // restore the replication factor.
      TopUpStoreReplication(report);
      FeedCapacityToElastic();
    }
  }
  return killed;
}

void MicroBatchEngine::RecoverFromNodeLoss(uint32_t node, BatchReport* report) {
  report->recovered_from_failure = true;
  // Replay every in-window batch whose reduce-bucket state lived on the dead
  // node: recompute from replicated input and patch its window contribution.
  for (size_t i = 0; i < query_->window_state_nodes.size(); ++i) {
    QueryContext::WindowReplica& wr = query_->window_state_nodes[i];
    if (wr.node != node) continue;
    Result<BatchExecution> redo = ReplayBatchFromStore(wr.batch_id, report);
    if (!redo.ok()) {
      PROMPT_LOG(kWarn) << "in-window batch " << wr.batch_id
                        << " unrecoverable: " << redo.status().ToString();
      report->unrecoverable = true;
      continue;
    }
    Status st = query_->window->ReplaceBatch(i, std::move(redo->output));
    if (!st.ok()) {
      PROMPT_LOG(kWarn) << "window patch failed for batch " << wr.batch_id
                        << ": " << st.ToString();
      continue;
    }
    wr.node = PickStateNode(wr.batch_id);  // re-home on a survivor
  }
  // Re-replicate under-replicated batches back toward the target factor.
  TopUpStoreReplication(report);
  // Alg. 4 capacity feed: the controller sees the reduced cluster now, not
  // d batches of degraded W later.
  FeedCapacityToElastic();
}

void MicroBatchEngine::FeedCapacityToElastic() {
  if (query_->elastic == nullptr) return;
  query_->elastic->OnCapacityChange(cluster_->total_alive_cores());
  query_->map_tasks = query_->elastic->map_tasks();
  query_->reduce_tasks = query_->elastic->reduce_tasks();
}

Result<BatchExecution> MicroBatchEngine::ReplayBatchFromStore(
    uint64_t batch_id, BatchReport* report) {
  if (store_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_ASSIGN_OR_RETURN(PartitionedBatch replica, store_->Read(batch_id));
  // Alg. 2-flavoured re-plan: the replica's block count assumed the original
  // cluster; repack to at most the cores that survive.
  const uint32_t cores = AvailableCores();
  RepackBlocks(&replica, cores);
  BatchExecution redo =
      query_->executor->Execute(replica, query_->reduce_tasks, cores, pool_.get());
  report->recovery_time += redo.map_makespan + redo.reduce_makespan;
  ++report->batches_replayed;
  return redo;
}

void MicroBatchEngine::TopUpStoreReplication(BatchReport* report) {
  if (store_ == nullptr) return;
  TopUpResult topup =
      store_->TopUpReplication(options_.cluster.replication_factor);
  report->under_replicated_batches = topup.under_replicated;
  report->recovery_time += static_cast<TimeMicros>(
      options_.cost.replicate_per_kib_us *
      static_cast<double>(topup.bytes_copied) / 1024.0);
}

bool MicroBatchEngine::ApplyTaskPerturbations(uint64_t batch_id,
                                              uint32_t map_cores,
                                              BatchExecution* exec,
                                              BatchReport* report) {
  if (fault_ == nullptr) return false;
  const TaskPerturbations faults = fault_->TaskFaults(batch_id);
  if (faults.empty()) return false;
  const std::vector<TimeMicros> clean = exec->map_task_costs;
  for (const auto& [task, delay] : faults.delays) {
    if (task < exec->map_task_costs.size()) {
      exec->map_task_costs[task] += delay;
    }
  }
  bool exhausted = false;
  for (const auto& [task, failures] : faults.failures) {
    if (task >= exec->map_task_costs.size()) continue;
    const RetryOutcome outcome = ApplyRetryPolicy(
        exec->map_task_costs[task], failures, options_.faults.max_task_retries,
        options_.faults.retry_backoff);
    exec->map_task_costs[task] = outcome.effective_cost;
    report->tasks_retried += outcome.retries;
    exhausted |= outcome.exhausted;
  }
  if (options_.faults.speculation_enabled) {
    SpeculationResult spec = ApplySpeculation(
        exec->map_task_costs, clean, options_.faults.speculation_multiplier);
    exec->map_task_costs = std::move(spec.costs);
    report->tasks_speculated += spec.speculated;
  }
  // Re-derive the map makespan from the perturbed durations (cluster mode
  // re-schedules once more with locality right after).
  StageSchedule ms = ScheduleStage(exec->map_task_costs, map_cores);
  exec->map_makespan = ms.makespan;
  return exhausted;
}

Result<std::vector<KV>> MicroBatchEngine::RecomputeBatchFromStore(
    uint64_t batch_id) {
  if (store_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_ASSIGN_OR_RETURN(PartitionedBatch batch, store_->Read(batch_id));
  BatchExecution redo = query_->executor->Execute(
      batch, query_->reduce_tasks, AvailableCores(), pool_.get());
  return std::move(redo.output);
}

RunSummary MicroBatchEngine::Run(uint32_t num_batches) {
  return std::move(RunQueries(num_batches)[0].summary);
}

std::vector<TenantRunResult> MicroBatchEngine::RunQueries(
    uint32_t num_batches) {
  run_started_ = true;
  std::vector<TenantRunResult> results(queries_.size());
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    results[qi].id = queries_[qi].ctx->id();
    results[qi].summary.batches.reserve(num_batches);
  }
  // An engine built from out-of-range options (init_status() says which)
  // has no pipeline, pool or cluster to run on.
  if (!ValidateEngineOptions(options_).ok()) return results;
  // A crashed engine refuses to run: no heartbeats, no run callbacks.
  const bool observe = !crashed_ && obs_->active();
  if (observe) obs_->OnRunStart(num_batches);

  for (uint32_t i = 0; i < num_batches && !crashed_; ++i) {
    const TimeMicros interval = current_interval_;
    const TimeMicros start = next_batch_start_;
    const TimeMicros end = start + interval;
    next_batch_start_ = end;

    // Weighted-fair slot shares for this heartbeat — decided before any
    // data is seen, from weights alone (demand can't shift shares).
    const std::vector<uint32_t> slots =
        scheduler_ != nullptr ? scheduler_->AllocateSlots()
                              : std::vector<uint32_t>(queries_.size(), 0);

    // --- Batching phase: one drain of the shared source, routed. ---
    for (Query& q : queries_) {
      q.ctx->partitioner->Begin(q.ctx->map_tasks, start, end);
    }
    if (ingest_ != nullptr) ingest_->BeginBatch(start, end);
    auto drain = [&](auto&& route) {
      // The flight-recorder tap: every consumed tuple, in consumption
      // order, before routing — replay re-forms identical batches from
      // `ts < end` at any shard count, and re-derives every query's slice.
      auto sink = [&](const Tuple& t) {
        if (journal_ != nullptr) journal_->RecordTuple(t);
        route(t);
      };
      if (have_pending_ && pending_.ts < end) {
        sink(pending_);
        have_pending_ = false;
      }
      if (!have_pending_) {
        Tuple t;
        while (source_->Next(&t)) {
          if (t.ts >= end) {
            pending_ = t;
            have_pending_ = true;
            break;
          }
          sink(t);
        }
      }
    };
    if (ingest_ != nullptr) {
      drain([this](const Tuple& t) { ingest_->Ingest(t); });
    } else if (queries_.size() == 1 &&
               queries_[0].filter.kind == KeyFilter::Kind::kAll) {
      BatchPartitioner* partitioner = query_->partitioner.get();
      drain([partitioner](const Tuple& t) { partitioner->OnTuple(t); });
    } else {
      drain([this](const Tuple& t) {
        for (Query& q : queries_) {
          if (q.filter.Matches(t.key)) q.ctx->partitioner->OnTuple(t);
        }
      });
    }
    const AccumulatedBatch* merged =
        ingest_ != nullptr ? &ingest_->SealBatch() : nullptr;
    if (journal_ != nullptr) {
      // One tuple record per heartbeat, stamped with the shared batch id
      // (every query's next_batch_id agrees — they ride one clock).
      if (Status st = journal_->AppendBatchTuples(query_->next_batch_id);
          !st.ok()) {
        PROMPT_LOG(kWarn) << "journal: tuple append failed: " << st.ToString();
      }
    }

    // --- Per-query seal + processing. ---
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      QueryContext& ctx = *queries_[qi].ctx;
      TenantRunResult& result = results[qi];
      RunSummary& summary = result.summary;
      const uint32_t owner = static_cast<uint32_t>(qi);

      PartitionedBatch batch;
      if (merged != nullptr) {
        batch = SealMerged(ctx.partitioner.get(), *merged, ctx.next_batch_id,
                           queries_[qi].filter);
        // The merge runs in the release slack alongside Alg. 2, on every
        // query's critical path toward the heartbeat — account it as
        // decision cost.
        batch.partition_cost += ingest_->last_metrics().merge_latency;
      } else {
        batch = ctx.partitioner->Seal(ctx.next_batch_id);
      }
      ++ctx.next_batch_id;

      // Flight recorder: journal the sealed batch's wall-clock inputs
      // *before* processing (settled after the merge-latency add, so the
      // recorded partition_cost is the final value a replay must
      // reproduce); under --replay the recorded inputs are injected here.
      const BatchEnv batch_env = SettleBatchEnv(
          options_.journal.inject, owner, &batch,
          ingest_ != nullptr ? &ingest_->last_metrics() : nullptr);
      if (journal_ != nullptr) {
        if (Status st = journal_->AppendEnv(owner, batch_env); !st.ok()) {
          PROMPT_LOG(kWarn) << "journal: env append failed: " << st.ToString();
        }
      }

      // --- Processing phase: starts at the heartbeat, or when this query's
      // pipeline frees if its earlier batches are still running (queueing;
      // one tenant's overflow queues behind its own slots only). ---
      const TimeMicros proc_start = std::max(end, ctx.pipeline_free_at);
      BatchReport report = ProcessBatch(qi, std::move(batch), interval,
                                        slots[qi]);
      if (crashed_) {
        // The process died inside this batch: its report is never published
        // (no window contribution, no feedback) — exactly what an external
        // SIGKILL leaves behind. The journal is the observer of the crash,
        // not its victim: flush so the crashed batch's tuples (already
        // appended above) survive for replay. An external SIGKILL would
        // lose the unsynced tail instead — and replay then runs exactly the
        // published batches, consistently.
        if (journal_ != nullptr) {
          if (Status st = journal_->Sync(); !st.ok()) {
            PROMPT_LOG(kWarn) << "journal: crash flush failed: "
                              << st.ToString();
          }
        }
        break;
      }
      report.queue_delay = proc_start - end;
      ctx.pipeline_free_at = proc_start + report.processing_time;
      report.latency = ctx.pipeline_free_at - start;
      if (ingest_ != nullptr) {
        // Fold the batching phase's per-shard stats into the report; this
        // embedded form is the only way callers see per-shard ingest state.
        report.ingest = ingest_->last_metrics();
        report.has_ingest = true;
        InjectIngestEnv(options_.journal.inject, owner, batch_env, &report);
      }

      // Fault-tolerance aggregates.
      summary.batches_replayed += report.batches_replayed;
      summary.tasks_retried += report.tasks_retried;
      summary.tasks_speculated += report.tasks_speculated;
      if (report.recovered_from_failure) ++summary.failures_recovered;
      summary.total_recovery_time += report.recovery_time;
      summary.max_recovery_time =
          std::max(summary.max_recovery_time, report.recovery_time);
      summary.data_loss |= report.unrecoverable;

      // Stability accounting (back-pressure would engage past the bound).
      if (static_cast<double>(report.queue_delay) >
          options_.unstable_queue_intervals * static_cast<double>(interval)) {
        summary.stable = false;
        summary.unstable_at_batch =
            std::min(summary.unstable_at_batch, report.batch_id);
      }

      // --- Feedback loops. ---
      // Receiver estimates for Alg. 1 (N_est, K_avg).
      ctx.ObserveBatchEstimates(report.num_tuples, report.num_keys);

      // Batch resizing baseline [12]: step the next interval toward the
      // fixed point processing_time = target * interval.
      if (ctx.resizer != nullptr) {
        current_interval_ =
            ctx.resizer->OnBatchCompleted(interval, report.processing_time);
      }

      // Alg. 4 elasticity.
      if (ctx.elastic != nullptr) {
        ctx.elastic->OnBatchCompleted(report.w, report.num_tuples,
                                      report.num_keys);
        ctx.map_tasks = ctx.elastic->map_tasks();
        ctx.reduce_tasks = ctx.elastic->reduce_tasks();
      }

      // The batch's verdict feeds the tenant autopsy stream, the adaptive
      // controller and the journal fingerprint. ExplainBatch is a pure
      // function of the report, so it runs once, and only when one of them
      // reads it.
      BatchAutopsy autopsy;
      if (scheduler_ != nullptr || ctx.adapt != nullptr || journal_ != nullptr) {
        autopsy = ExplainBatch(report, options_.obs.autopsy);
      }
      PublishBatch(qi, report, autopsy, interval, start, slots[qi]);
      if (scheduler_ != nullptr) {
        result.causes.push_back(autopsy.dominant);
        ++result.cause_counts[static_cast<size_t>(autopsy.dominant)];
        result.slots_granted += slots[qi];
      }

      // Telemetry → partitioning feedback (src/adapt/): an approved switch
      // is applied here — after Seal of this batch, before Begin of the
      // next — so no in-flight batch ever mixes techniques.
      if (ctx.adapt != nullptr) {
        const AdaptiveDecision decision =
            ctx.adapt->OnBatchCompleted(report, autopsy);
        if (decision.switch_now) {
          ctx.ApplyTechniqueSwitch(decision);
          summary.technique_switches.push_back(RunSummary::TechniqueSwitch{
              report.batch_id, decision.from, decision.to, decision.reason});
          if (std::string_view(decision.reason) == "skew") {
            ++summary.technique_switches_up;
          } else {
            ++summary.technique_switches_down;
          }
          if (journal_ != nullptr) {
            JournalSwitch js;
            js.owner = owner;
            js.after_batch = report.batch_id;
            js.from = static_cast<int32_t>(decision.from);
            js.to = static_cast<int32_t>(decision.to);
            js.reason = decision.reason;
            if (Status st = journal_->AppendSwitch(js); !st.ok()) {
              PROMPT_LOG(kWarn) << "journal: switch append failed: "
                                << st.ToString();
            }
          }
        }
      }

      if (journal_ != nullptr) {
        // The published batch's fingerprint: signals, verdict, output hash.
        if (Status st = journal_->AppendOutcome(owner,
                                                OutcomeFrom(report, autopsy));
            !st.ok()) {
          PROMPT_LOG(kWarn) << "journal: outcome append failed: "
                            << st.ToString();
        }
      }
      summary.batches.push_back(std::move(report));
    }
    if (crashed_) break;

    // Shared-ingest estimate feedback: the pipeline accumulates every
    // query's tuples, so its Alg. 1 estimates track the merged totals.
    if (ingest_ != nullptr) ingest_->ObserveSealedBatch();
    if (durable_ != nullptr && options_.store.fsync == FsyncPolicy::kBatch) {
      // The kBatch durability point: everything up to and including this
      // heartbeat's batches is on disk once this returns; a crash before it
      // loses only the current appends (torn).
      if (Status st = durable_->Sync(); !st.ok()) {
        PROMPT_LOG(kWarn) << "durable sync failed: " << st.ToString();
      }
    }
    if (journal_ != nullptr) {
      // Same cadence: one journal durability point per heartbeat.
      if (Status st = journal_->SyncBatch(); !st.ok()) {
        PROMPT_LOG(kWarn) << "journal: sync failed: " << st.ToString();
      }
    }
    if (HttpExporter* exporter = obs_->exporter(); exporter != nullptr) {
      HealthStatus health;
      health.data_loss = durable_recovery_.data_loss ||
                         std::any_of(results.begin(), results.end(),
                                     [](const TenantRunResult& r) {
                                       return r.summary.data_loss;
                                     });
      health.init_status =
          init_status_.ok() ? "ok" : init_status_.ToString();
      health.last_batch_id = static_cast<int64_t>(query_->next_batch_id) - 1;
      health.journal_lag_bytes =
          journal_ != nullptr ? journal_->unsynced_bytes() : 0;
      exporter->UpdateHealth(health);
    }
  }
  if (observe) obs_->OnRunEnd();
  if (crashed_) {
    for (TenantRunResult& result : results) {
      result.summary.crashed = true;
      result.summary.crashed_at_batch = crashed_at_batch_;
    }
  }
  return results;
}

void MicroBatchEngine::PublishBatch(size_t query, const BatchReport& report,
                                    const BatchAutopsy& autopsy,
                                    TimeMicros interval,
                                    TimeMicros batch_start, uint32_t slots) {
  if (scheduler_ == nullptr) {
    if (!obs_->active()) return;
    BatchTrace trace;
    if (obs_->tracing_active()) {
      RecordBatchTrace(report, interval, batch_start);
      trace = obs_->recorder()->EndBatch(report.num_tuples, report.num_keys,
                                         report.latency);
    }
    obs_->OnBatchComplete(report, trace);
    return;
  }
  // Tenant mode: a tenant-labeled autopsy row (so the per-tenant streams
  // stay separable in one JSONL file), time series and metrics.
  const Query& q = queries_[query];
  obs_->EmitAutopsy(autopsy, q.ctx->id());
  if (q.ctx->timeseries != nullptr) q.ctx->timeseries->Observe(report);
  if (q.batches_total != nullptr) {
    q.batches_total->Increment();
    q.tuples_total->Increment(report.num_tuples);
    q.latency_us->Observe(static_cast<double>(report.latency));
    q.slots_gauge->Set(slots);
    q.w_gauge->Set(report.w);
  }
}

uint32_t MicroBatchEngine::AvailableCores() const {
  return cluster_ != nullptr
             ? std::max<uint32_t>(1, cluster_->total_alive_cores())
             : options_.cores;
}

void MicroBatchEngine::RecordBatchTrace(const BatchReport& report,
                                        TimeMicros interval,
                                        TimeMicros batch_start) {
  TraceRecorder* rec = obs_->recorder();
  rec->BeginBatch(report.batch_id, batch_start);

  // Depth-0 spans tile the end-to-end latency:
  //   latency = interval + queue_delay + overflow + map + reduce (+ extras).
  rec->AddSpan("accumulate", 0, interval, 0);
  if (report.technique_switched) {
    // Annotation marking the first batch the switched-to technique sealed.
    std::string note = "adapt_switch:";
    note += report.switched_from >= 0
                ? PartitionerTypeName(
                      static_cast<PartitionerType>(report.switched_from))
                : "?";
    note += "->";
    note += report.technique >= 0
                ? PartitionerTypeName(
                      static_cast<PartitionerType>(report.technique))
                : "?";
    rec->AddSpan(note, 0, 0, 1);
  }
  if (report.has_ingest) {
    // Wall-clock annotations from the sharded batching phase, nested under
    // the accumulate interval (the barrier and merge run at the cut-off).
    rec->AddSpan("ingest_route", 0, report.ingest.ingest_wall, 1);
    rec->AddSpan("seal_barrier", interval, report.ingest.seal_barrier_latency,
                 1);
    rec->AddSpan("kway_merge", interval, report.ingest.merge_latency, 1);
  }
  if (report.sketch.sketch_mode) {
    // Annotation marking a heavy-hitter batch with its coverage (promille,
    // spans carry no float payload): sketch_mode:987 = 98.7% head coverage.
    std::string note = "sketch_mode:";
    note += std::to_string(
        static_cast<int>(report.sketch.head_coverage() * 1000.0));
    rec->AddSpan(note, 0, 0, 1);
  }
  if (report.store_append_us > 0) {
    // Durable-log append of the sealed batch, right at the cut-off (wall
    // clock, annotation depth: the virtual timeline is unaffected).
    rec->AddSpan("store_append", interval, report.store_append_us, 1);
  }
  // The B-BPFI plan runs inside the early-release slack; only its overflow
  // reaches the critical path (as the "plan_overflow" span below).
  const TimeMicros scaled_cost = static_cast<TimeMicros>(
      options_.cost.partition_cost_scale *
      static_cast<double>(report.partition_cost));
  const TimeMicros in_slack = scaled_cost - report.partition_overflow;
  if (in_slack > 0) rec->AddSpan("plan", interval - in_slack, in_slack, 1);

  TimeMicros cursor = interval;
  if (report.queue_delay > 0) {
    rec->AddSpan("queue", cursor, report.queue_delay, 0);
    cursor += report.queue_delay;
  }
  if (report.partition_overflow > 0) {
    rec->AddSpan("plan_overflow", cursor, report.partition_overflow, 0);
    cursor += report.partition_overflow;
  }
  rec->AddSpan("map", cursor, report.map_makespan, 0);
  cursor += report.map_makespan;
  rec->AddSpan("reduce", cursor, report.reduce_makespan, 0);
  cursor += report.reduce_makespan;
  // Recovery work (replays, re-replication) done while this batch held the
  // pipeline — modeled as running after the ordinary stages.
  if (report.recovery_time > 0) {
    rec->AddSpan("recovery", cursor, report.recovery_time, 0);
    cursor += report.recovery_time;
  }
  // Extra queries sharing the batching phase extend processing sequentially.
  const TimeMicros extras =
      report.processing_time -
      (report.partition_overflow + report.map_makespan +
       report.reduce_makespan + report.recovery_time);
  if (extras > 0) rec->AddSpan("extra_queries", cursor, extras, 0);
}

Status MicroBatchEngine::VerifyRecoveryOfLastBatch() {
  if (!options_.replicate_input) {
    return Status::Invalid("replication disabled; enable replicate_input");
  }
  if (query_->last_replica == nullptr) {
    return Status::Invalid("no batch has been processed yet");
  }
  // Recompute from the replicated input blocks, exactly as the recovery
  // path would after losing the batch's state (§8) — over the cores that
  // are actually alive now, not the configured total: recovery after a node
  // loss runs on the shrunken cluster.
  BatchExecution redo = query_->executor->Execute(
      *query_->last_replica, query_->reduce_tasks, AvailableCores(),
      pool_.get());
  last_verify_recovery_cost_ = redo.map_makespan + redo.reduce_makespan;
  std::unordered_map<KeyId, double> original;
  for (const KV& kv : query_->last_output) original[kv.key] = kv.value;
  if (redo.output.size() != query_->last_output.size()) {
    return Status::Unknown("recomputed output cardinality mismatch");
  }
  for (const KV& kv : redo.output) {
    auto it = original.find(kv.key);
    if (it == original.end()) {
      return Status::Unknown("recomputed output contains unexpected key");
    }
    if (std::abs(it->second - kv.value) > 1e-9 * std::max(1.0, std::abs(it->second))) {
      return Status::Unknown("recomputed aggregate differs (not exactly-once)");
    }
  }
  return Status::OK();
}

}  // namespace prompt
