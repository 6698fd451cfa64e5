#include "replay/replayer.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "core/accumulator_api.h"
#include "engine/engine.h"
#include "fault/fault_injector.h"
#include "model/job.h"
#include "query/multi_query.h"
#include "query/parser.h"
#include "store/block_store.h"
#include "tenant/multi_tenant_engine.h"

namespace prompt {
namespace {

namespace fs = std::filesystem;

// Manifest keys naming the Alg. 1 implementation. The engine writes "flat"
// to both; journals recorded while the implementation was selectable may say
// "legacy" (the HTable + count-tree transcription, now a test-only oracle).
// Its sealed batches were bit-identical to the flat accumulator's, so those
// journals replay on flat and their manifests are compared after one
// mapping (LegacyAccumulatorAsFlat).
JournalManifest LegacyAccumulatorAsFlat(const JournalManifest& m) {
  JournalManifest out;
  for (const auto& [key, value] : m.entries()) {
    const bool selector =
        key == "partitioner.accumulator" || key == "ingest.accumulator";
    out.Set(key, selector && value == "legacy" ? "flat" : value);
  }
  return out;
}

Status CheckAccumulatorKey(const JournalManifest& m, const std::string& key) {
  const std::string name = m.Get(key, "flat");
  if (name == "flat" || name == "legacy") return Status::OK();
  return Status::Invalid("replay: unknown " + key + " '" + name +
                         "' (expected 'flat' or 'legacy')");
}

/// A 32-bit count. Values past 32 bits saturate instead of wrapping into the
/// valid range. Range checks are the engine's (ValidateEngineOptions, run by
/// the engine constructor and MultiTenantEngine::Create before anything is
/// allocated), so a hostile manifest replays as Invalid, never as an abort
/// or a host-sized allocation.
uint32_t CountFromManifest(const JournalManifest& m, const std::string& key,
                           uint32_t fallback) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(m.GetUint(key, fallback), UINT32_MAX));
}

Result<std::vector<PartitionerType>> CandidatesFromCsv(const std::string& csv) {
  std::vector<PartitionerType> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    PROMPT_ASSIGN_OR_RETURN(PartitionerType t, PartitionerTypeFromName(item));
    out.push_back(t);
  }
  if (out.empty()) {
    return Status::Invalid("replay: empty adapt.candidates list");
  }
  return out;
}

CostModelParams CostFromManifest(const JournalManifest& m) {
  CostModelParams c;
  c.map_task_fixed_us = m.GetDouble("cost.map_task_fixed_us", c.map_task_fixed_us);
  c.map_per_tuple_us = m.GetDouble("cost.map_per_tuple_us", c.map_per_tuple_us);
  c.map_per_key_us = m.GetDouble("cost.map_per_key_us", c.map_per_key_us);
  c.reduce_task_fixed_us =
      m.GetDouble("cost.reduce_task_fixed_us", c.reduce_task_fixed_us);
  c.reduce_per_tuple_us =
      m.GetDouble("cost.reduce_per_tuple_us", c.reduce_per_tuple_us);
  c.reduce_per_cluster_us =
      m.GetDouble("cost.reduce_per_cluster_us", c.reduce_per_cluster_us);
  c.partition_cost_scale =
      m.GetDouble("cost.partition_cost_scale", c.partition_cost_scale);
  c.replicate_per_kib_us =
      m.GetDouble("cost.replicate_per_kib_us", c.replicate_per_kib_us);
  return c;
}

Result<PartitionerConfig> PartitionerConfigFromManifest(
    const JournalManifest& m) {
  PROMPT_RETURN_NOT_OK(CheckAccumulatorKey(m, "partitioner.accumulator"));
  PartitionerConfig config;
  config.prompt.post_sort = m.GetBool("partitioner.post_sort", false);
  config.cam_candidates = static_cast<uint32_t>(
      m.GetUint("partitioner.cam_candidates", config.cam_candidates));
  config.sketch_capacity = static_cast<size_t>(
      m.GetUint("partitioner.sketch_capacity", config.sketch_capacity));
  return config;
}

/// The adaptive block both engine modes record: thresholds, ladder and
/// partitioner config (enabled/d are single-mode keys).
Status AdaptFromManifest(const JournalManifest& m, AdaptiveOptions* a) {
  a->grace = static_cast<int>(m.GetInt("adapt.grace", a->grace));
  a->window = static_cast<uint32_t>(m.GetUint("adapt.window", a->window));
  a->calm_block_load_ratio =
      m.GetDouble("adapt.calm_block_load_ratio", a->calm_block_load_ratio);
  a->calm_split_key_frac =
      m.GetDouble("adapt.calm_split_key_frac", a->calm_split_key_frac);
  if (const std::string* csv = m.Find("adapt.candidates")) {
    PROMPT_ASSIGN_OR_RETURN(a->candidates, CandidatesFromCsv(*csv));
  }
  PROMPT_ASSIGN_OR_RETURN(a->config, PartitionerConfigFromManifest(m));
  return Status::OK();
}

Status IngestFromManifest(const JournalManifest& m, IngestOptions* ingest) {
  ingest->shards = CountFromManifest(m, "ingest.shards", 1);
  ingest->ring_capacity =
      static_cast<size_t>(m.GetUint("ingest.ring_capacity", 16 * 1024));
  PROMPT_RETURN_NOT_OK(CheckAccumulatorKey(m, "ingest.accumulator"));
  const std::string key_mode = m.Get("ingest.key_mode", "exact");
  if (!ParseKeyMode(key_mode, &ingest->key_mode)) {
    return Status::Invalid("replay: unknown ingest.key_mode '" + key_mode +
                           "'");
  }
  SketchSettings& sketch = ingest->accumulator_options.sketch;
  sketch.capacity = static_cast<uint32_t>(
      m.GetUint("ingest.sketch_capacity", sketch.capacity));
  sketch.tail_buckets = static_cast<uint32_t>(
      m.GetUint("ingest.tail_buckets", sketch.tail_buckets));
  return Status::OK();
}

Status ObsFromManifest(const JournalManifest& m, ObservabilityOptions* obs) {
  obs->collect_partition_metrics =
      m.GetBool("obs.collect_partition_metrics", false);
  obs->autopsy.min_excess_frac =
      m.GetDouble("obs.autopsy.min_excess_frac", obs->autopsy.min_excess_frac);
  obs->autopsy.min_excess_us = static_cast<TimeMicros>(
      m.GetInt("obs.autopsy.min_excess_us", obs->autopsy.min_excess_us));
  obs->autopsy.ring_pressure_threshold = m.GetDouble(
      "obs.autopsy.ring_pressure_threshold",
      obs->autopsy.ring_pressure_threshold);
  return Status::OK();
}

Status StoreFromManifest(const JournalManifest& m, const std::string& dir,
                         StoreOptions* store) {
  // Non-dir knobs parse even for store-less runs so the re-recorded
  // manifest round-trips byte-identically; the dir (and with it the store)
  // is only set when the recorded run actually had one.
  if (m.GetBool("store.enabled", false)) store->dir = dir;
  PROMPT_ASSIGN_OR_RETURN(
      store->fsync, ParseFsyncPolicy(m.Get("store.fsync", "batch")));
  store->memory_budget_bytes =
      static_cast<size_t>(m.GetUint("store.memory_budget_bytes", 0));
  store->retain_bytes = static_cast<size_t>(m.GetUint("store.retain_bytes", 0));
  store->retain_batches = m.GetUint("store.retain_batches", 0);
  return Status::OK();
}

Status FaultsFromManifest(const JournalManifest& m, FaultOptions* faults) {
  const std::string* spec = m.Find("faults");
  if (spec == nullptr) return Status::OK();
  PROMPT_ASSIGN_OR_RETURN(*faults, ParseFaultSchedule(*spec));
  faults->max_task_retries = static_cast<uint32_t>(
      m.GetUint("faults.max_task_retries", faults->max_task_retries));
  faults->retry_backoff = static_cast<TimeMicros>(
      m.GetInt("faults.retry_backoff", faults->retry_backoff));
  faults->speculation_enabled =
      m.GetBool("faults.speculation_enabled", faults->speculation_enabled);
  faults->speculation_multiplier = m.GetDouble(
      "faults.speculation_multiplier", faults->speculation_multiplier);
  return Status::OK();
}

/// Rebuilds the single-tenant EngineOptions the recorded run was constructed
/// with. Every key here mirrors one Set() in the engine's manifest builder;
/// the ReplayResult::manifest_match check catches any drift between the two.
Result<EngineOptions> SingleOptionsFromManifest(const JournalManifest& m,
                                                const std::string& store_dir) {
  EngineOptions o;
  o.batch_interval = m.GetInt("batch_interval", o.batch_interval);
  o.map_tasks = CountFromManifest(m, "map_tasks", o.map_tasks);
  o.reduce_tasks = CountFromManifest(m, "reduce_tasks", o.reduce_tasks);
  o.cores = CountFromManifest(m, "cores", o.cores);
  o.cores_track_tasks = m.GetBool("cores_track_tasks", o.cores_track_tasks);
  o.early_release_frac = m.GetDouble("early_release_frac", o.early_release_frac);
  o.cost = CostFromManifest(m);
  o.mode = m.Get("exec_mode", "simulated") == "real" ? ExecutionMode::kReal
                                                     : ExecutionMode::kSimulated;
  o.use_prompt_reduce = m.GetBool("use_prompt_reduce", o.use_prompt_reduce);
  o.unstable_queue_intervals =
      m.GetDouble("unstable_queue_intervals", o.unstable_queue_intervals);

  o.elasticity_enabled = m.GetBool("elasticity_enabled", false);
  ElasticityOptions& e = o.elasticity;
  e.threshold = m.GetDouble("elasticity.threshold", e.threshold);
  e.step = m.GetDouble("elasticity.step", e.step);
  e.d = static_cast<int>(m.GetInt("elasticity.d", e.d));
  e.min_map_tasks =
      static_cast<uint32_t>(m.GetUint("elasticity.min_map_tasks", e.min_map_tasks));
  e.min_reduce_tasks = static_cast<uint32_t>(
      m.GetUint("elasticity.min_reduce_tasks", e.min_reduce_tasks));
  e.max_map_tasks =
      static_cast<uint32_t>(m.GetUint("elasticity.max_map_tasks", e.max_map_tasks));
  e.max_reduce_tasks = static_cast<uint32_t>(
      m.GetUint("elasticity.max_reduce_tasks", e.max_reduce_tasks));
  e.trend_lookback =
      static_cast<int>(m.GetInt("elasticity.trend_lookback", e.trend_lookback));

  o.adapt.enabled = m.GetBool("adapt.enabled", false);
  o.adapt.d = static_cast<int>(m.GetInt("adapt.d", o.adapt.d));
  PROMPT_RETURN_NOT_OK(AdaptFromManifest(m, &o.adapt));

  PROMPT_RETURN_NOT_OK(ObsFromManifest(m, &o.obs));
  PROMPT_RETURN_NOT_OK(FaultsFromManifest(m, &o.faults));

  o.replicate_input = m.GetBool("replicate_input", o.replicate_input);
  o.cluster_enabled = m.GetBool("cluster_enabled", o.cluster_enabled);
  ClusterOptions& cl = o.cluster;
  cl.nodes = static_cast<uint32_t>(m.GetUint("cluster.nodes", cl.nodes));
  cl.cores_per_node =
      static_cast<uint32_t>(m.GetUint("cluster.cores_per_node", cl.cores_per_node));
  cl.replication_factor = static_cast<uint32_t>(
      m.GetUint("cluster.replication_factor", cl.replication_factor));
  cl.remote_read_penalty =
      m.GetDouble("cluster.remote_read_penalty", cl.remote_read_penalty);

  PROMPT_RETURN_NOT_OK(StoreFromManifest(m, store_dir, &o.store));

  o.batch_resizing_enabled = m.GetBool("batch_resizing_enabled", false);
  BatchResizerOptions& r = o.batch_resizer;
  r.min_interval = m.GetInt("resizer.min_interval", r.min_interval);
  r.max_interval = m.GetInt("resizer.max_interval", r.max_interval);
  r.target_ratio = m.GetDouble("resizer.target_ratio", r.target_ratio);
  r.lookback = static_cast<int>(m.GetInt("resizer.lookback", r.lookback));
  r.gain = m.GetDouble("resizer.gain", r.gain);

  PROMPT_RETURN_NOT_OK(IngestFromManifest(m, &o.ingest));
  return o;
}

Result<JobSpec> JobFromManifest(const JournalManifest& m) {
  const uint32_t window_batches =
      static_cast<uint32_t>(m.GetUint("window_batches", 10));
  if (const std::string* query = m.Find("query")) {
    PROMPT_ASSIGN_OR_RETURN(CompiledQuery compiled, ParseQuery(*query));
    JobSpec job = compiled.job;
    job.window_batches = window_batches;
    return job;
  }
  return JobSpec::WordCount(window_batches);
}

Result<MultiTenantEngineOptions> MultiOptionsFromManifest(
    const JournalManifest& m, const std::string& store_dir) {
  MultiTenantEngineOptions o;
  o.batch_interval = m.GetInt("batch_interval", o.batch_interval);
  o.total_slots = CountFromManifest(m, "total_slots", o.total_slots);
  o.map_tasks = CountFromManifest(m, "map_tasks", o.map_tasks);
  o.reduce_tasks = CountFromManifest(m, "reduce_tasks", o.reduce_tasks);
  o.cost = CostFromManifest(m);
  o.mode = m.Get("exec_mode", "simulated") == "real" ? ExecutionMode::kReal
                                                     : ExecutionMode::kSimulated;
  o.use_prompt_reduce = m.GetBool("use_prompt_reduce", o.use_prompt_reduce);
  o.early_release_frac = m.GetDouble("early_release_frac", o.early_release_frac);
  o.unstable_queue_intervals =
      m.GetDouble("unstable_queue_intervals", o.unstable_queue_intervals);

  PROMPT_RETURN_NOT_OK(AdaptFromManifest(m, &o.adapt_base));
  PROMPT_RETURN_NOT_OK(ObsFromManifest(m, &o.obs));
  PROMPT_RETURN_NOT_OK(StoreFromManifest(m, store_dir, &o.store));
  PROMPT_RETURN_NOT_OK(IngestFromManifest(m, &o.ingest));
  return o;
}

Result<std::vector<TenantQuerySpec>> SpecsFromManifest(const JournalManifest& m) {
  const std::vector<std::string> lines = m.GetAll("tenant");
  if (lines.empty()) {
    return Status::Invalid("replay: multi-tenant manifest has no tenant= lines");
  }
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return ParseQueryFile(text);
}

/// One recorded engine lifetime replayed: fresh engine over the attempt's
/// tuple stream, wall-clock inputs injected, re-recorded into the output
/// journal. Crashed attempts drive one extra heartbeat — the batch whose
/// crash fault (re-fired from the manifest schedule) ends the attempt.
Result<uint64_t> ReplaySingleAttempt(const JournalManifest& manifest,
                                     const JournalAttempt& attempt,
                                     const ReplayOptions& replay) {
  PROMPT_ASSIGN_OR_RETURN(
      EngineOptions options,
      SingleOptionsFromManifest(manifest, replay.output_dir + "/store"));
  PROMPT_ASSIGN_OR_RETURN(JobSpec job, JobFromManifest(manifest));

  const std::string technique_name = manifest.Get("technique", "");
  if (technique_name.empty() || technique_name == "custom") {
    return Status::Invalid(
        "replay: manifest technique '" + technique_name +
        "' does not name a factory partitioner; the run is not replayable");
  }
  PROMPT_ASSIGN_OR_RETURN(PartitionerType technique,
                          PartitionerTypeFromName(technique_name));

  options.journal.dir = replay.output_dir;
  options.journal.query = manifest.Get("query", "");
  options.journal.inject = std::make_shared<const ReplayEnv>(attempt.envs);

  JournalTupleSource source(attempt.tuples);
  MicroBatchEngine engine(options, job,
                          CreatePartitioner(technique, options.adapt.config),
                          &source);
  PROMPT_RETURN_NOT_OK(engine.init_status());

  const uint64_t heartbeats =
      attempt.published_batches() + (attempt.crashed() ? 1 : 0);
  engine.Run(static_cast<uint32_t>(heartbeats));
  return heartbeats;
}

Result<uint64_t> ReplayMultiAttempt(const JournalManifest& manifest,
                                    const JournalAttempt& attempt,
                                    const ReplayOptions& replay) {
  PROMPT_ASSIGN_OR_RETURN(
      MultiTenantEngineOptions options,
      MultiOptionsFromManifest(manifest, replay.output_dir + "/store"));
  PROMPT_ASSIGN_OR_RETURN(std::vector<TenantQuerySpec> specs,
                          SpecsFromManifest(manifest));

  options.journal.dir = replay.output_dir;
  options.journal.inject = std::make_shared<const ReplayEnv>(attempt.envs);

  JournalTupleSource source(attempt.tuples);
  PROMPT_ASSIGN_OR_RETURN(
      std::unique_ptr<MultiTenantEngine> engine,
      MultiTenantEngine::Create(options, std::move(specs), &source));

  const uint64_t heartbeats = attempt.published_batches();
  engine->Run(static_cast<uint32_t>(heartbeats));
  return heartbeats;
}

}  // namespace

Result<ReplayResult> ReplayJournal(const ReplayOptions& options) {
  if (options.journal_dir.empty() || options.output_dir.empty()) {
    return Status::Invalid("replay: journal_dir and output_dir are required");
  }
  std::error_code ec;
  if (fs::exists(options.output_dir, ec) &&
      !fs::is_empty(options.output_dir, ec)) {
    return Status::AlreadyExists("replay: output dir '" + options.output_dir +
                                 "' is not empty");
  }

  PROMPT_ASSIGN_OR_RETURN(JournalData recorded,
                          ReadJournal(options.journal_dir));
  recorded.manifest = LegacyAccumulatorAsFlat(recorded.manifest);
  for (JournalAttempt& attempt : recorded.attempts) {
    attempt.manifest = LegacyAccumulatorAsFlat(attempt.manifest);
  }

  ReplayResult result;
  result.mode = recorded.manifest.Get("mode", "single");
  if (result.mode != "single" && result.mode != "multi") {
    return Status::Invalid("replay: unknown manifest mode '" + result.mode +
                           "'");
  }

  for (const JournalAttempt& attempt : recorded.attempts) {
    ++result.attempts;
    // Replay each attempt under the manifest its own run journaled: a
    // lineage's restarts may legitimately change options (run 1 schedules
    // the crash fault, run 2 does not). Attempts synthesized from stray
    // records carry no manifest and fall back to the journal-level one.
    const JournalManifest& m = attempt.manifest.entries().empty()
                                   ? recorded.manifest
                                   : attempt.manifest;
    Result<uint64_t> ran = result.mode == "single"
                               ? ReplaySingleAttempt(m, attempt, options)
                               : ReplayMultiAttempt(m, attempt, options);
    PROMPT_RETURN_NOT_OK(ran.status());
    result.batches += *ran;
  }

  PROMPT_ASSIGN_OR_RETURN(JournalData replayed,
                          ReadJournal(options.output_dir));
  result.manifest_match =
      recorded.manifest.Serialize() == replayed.manifest.Serialize() &&
      recorded.attempts.size() == replayed.attempts.size();
  for (size_t i = 0; result.manifest_match && i < recorded.attempts.size();
       ++i) {
    result.manifest_match = recorded.attempts[i].manifest.Serialize() ==
                            replayed.attempts[i].manifest.Serialize();
  }
  result.diff = DiffJournals(recorded, replayed);
  if (!result.manifest_match) {
    result.diff.identical = false;
    result.diff.notes.push_back(
        "replayed manifest does not round-trip byte-identically "
        "(recorder/replayer schema drift)");
  }
  return result;
}

}  // namespace prompt
