#include "replay/journal.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/wire.h"
#include "fault/fault_injector.h"

namespace prompt {

namespace {

std::string EncodeTuples(const std::vector<Tuple>& tuples) {
  std::string body;
  // Worst case ~10B per varint; typical batches encode at 3-5B/tuple, so
  // one generous reservation beats per-append growth on the hot path.
  body.reserve(32 + tuples.size() * 12);
  wire::Writer w(&body);
  bool all_unit = true;
  for (const Tuple& t : tuples) {
    if (t.value != 1.0) {
      all_unit = false;
      break;
    }
  }
  w.U8(all_unit ? 1 : 0);
  w.Varint(tuples.size());
  // Key runs: adjacent same-key tuples collapse to one (key, count) pair.
  uint64_t run_count = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 0 || tuples[i].key != tuples[i - 1].key) ++run_count;
  }
  w.Varint(run_count);
  for (size_t i = 0; i < tuples.size();) {
    size_t j = i + 1;
    while (j < tuples.size() && tuples[j].key == tuples[i].key) ++j;
    w.Varint(tuples[i].key);
    w.Varint(j - i);
    i = j;
  }
  // Deltas wrap in unsigned arithmetic, so no timestamp pair (and, on
  // decode, no forged delta) can overflow a signed subtraction.
  uint64_t prev = 0;
  for (const Tuple& t : tuples) {
    w.ZigZag(static_cast<int64_t>(static_cast<uint64_t>(t.ts) - prev));
    prev = static_cast<uint64_t>(t.ts);
  }
  if (!all_unit) {
    for (const Tuple& t : tuples) w.F64(t.value);
  }
  return body;
}

Status DecodeTuples(std::string_view body, std::vector<Tuple>* out) {
  wire::Reader r(body);
  uint8_t flags = 0;
  uint64_t count = 0, runs = 0;
  if (!r.U8(&flags) || !r.Varint(&count) || !r.Varint(&runs)) {
    return Status::Invalid("journal: truncated tuple record header");
  }
  // Every tuple costs at least its ts-delta varint byte and every run its
  // key and length bytes: larger counts are forged and must not reach the
  // reserve() below.
  if (runs > count || !r.Count(count, 1) || !r.Count(runs, 2)) {
    return Status::Invalid("journal: implausible tuple record counts");
  }
  std::vector<Tuple> tuples;
  tuples.reserve(count);
  for (uint64_t run = 0; run < runs; ++run) {
    uint64_t key = 0, n = 0;
    if (!r.Varint(&key) || !r.Varint(&n)) {
      return Status::Invalid("journal: truncated key run");
    }
    if (n > count - tuples.size()) {
      return Status::Invalid("journal: key runs exceed tuple count");
    }
    tuples.resize(tuples.size() + n, Tuple{0, key, 1.0});
  }
  if (tuples.size() != count) {
    return Status::Invalid("journal: key runs short of tuple count");
  }
  uint64_t prev = 0;
  for (Tuple& t : tuples) {
    int64_t delta = 0;
    if (!r.ZigZag(&delta)) return Status::Invalid("journal: truncated ts delta");
    prev += static_cast<uint64_t>(delta);
    t.ts = static_cast<TimeMicros>(prev);
  }
  if ((flags & 1) == 0) {
    for (Tuple& t : tuples) {
      if (!r.F64(&t.value)) return Status::Invalid("journal: truncated value");
    }
  }
  out->insert(out->end(), tuples.begin(), tuples.end());
  return Status::OK();
}

std::string EncodeOutcome(const BatchOutcome& o) {
  std::string body;
  wire::Writer w(&body);
  w.U64(o.output_hash);
  for (double v : o.signals) w.F64(v);
  w.I64(o.map_makespan);
  w.I64(o.reduce_makespan);
  w.I64(o.partition_overflow);
  w.I32(o.technique);
  w.U8(o.technique_switched ? 1 : 0);
  w.I32(o.switched_from);
  w.U8(static_cast<uint8_t>(o.dominant));
  w.I64(o.total_excess);
  w.I64(o.threshold);
  for (TimeMicros e : o.excess) w.I64(e);
  return body;
}

Status DecodeOutcome(std::string_view body, uint64_t batch_id,
                     BatchOutcome* out) {
  wire::Reader r(body);
  BatchOutcome o;
  o.batch_id = batch_id;
  bool ok = r.U64(&o.output_hash);
  for (size_t s = 0; ok && s < kTimeSeriesSignals; ++s) ok = r.F64(&o.signals[s]);
  ok = ok && r.I64(&o.map_makespan) && r.I64(&o.reduce_makespan) &&
       r.I64(&o.partition_overflow) && r.I32(&o.technique);
  uint8_t switched = 0, dominant = 0;
  ok = ok && r.U8(&switched) && r.I32(&o.switched_from) && r.U8(&dominant) &&
       r.I64(&o.total_excess) && r.I64(&o.threshold);
  for (size_t e = 0; ok && e < kBatchCauses; ++e) ok = r.I64(&o.excess[e]);
  if (!ok || dominant >= kBatchCauses) {
    return Status::Invalid("journal: malformed outcome record");
  }
  o.technique_switched = switched != 0;
  o.dominant = static_cast<BatchCause>(dominant);
  *out = o;
  return Status::OK();
}

std::string EncodeEnv(const BatchEnv& env) {
  std::string body;
  wire::Writer w(&body);
  w.I64(env.partition_cost);
  w.I64(env.seal_barrier_latency);
  w.I64(env.merge_latency);
  w.U64(env.ring_high_water);
  w.U64(env.ring_capacity);
  return body;
}

Status DecodeEnv(std::string_view body, uint64_t batch_id, BatchEnv* out) {
  wire::Reader r(body);
  BatchEnv env;
  env.batch_id = batch_id;
  if (!r.I64(&env.partition_cost) || !r.I64(&env.seal_barrier_latency) ||
      !r.I64(&env.merge_latency) || !r.U64(&env.ring_high_water) ||
      !r.U64(&env.ring_capacity)) {
    return Status::Invalid("journal: malformed batch-env record");
  }
  *out = env;
  return Status::OK();
}

}  // namespace

// ---- JournalManifest ----

void JournalManifest::Set(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, value);
}
void JournalManifest::Set(const std::string& key, const char* value) {
  entries_.emplace_back(key, value);
}
void JournalManifest::Set(const std::string& key, uint64_t value) {
  Set(key, std::to_string(value));
}
void JournalManifest::Set(const std::string& key, int64_t value) {
  Set(key, std::to_string(value));
}
void JournalManifest::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Set(key, std::string(buf));
}
void JournalManifest::Set(const std::string& key, bool value) {
  Set(key, std::string(value ? "1" : "0"));
}

const std::string* JournalManifest::Find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JournalManifest::Get(const std::string& key,
                                 const std::string& fallback) const {
  const std::string* v = Find(key);
  return v != nullptr ? *v : fallback;
}

uint64_t JournalManifest::GetUint(const std::string& key,
                                  uint64_t fallback) const {
  const std::string* v = Find(key);
  if (v == nullptr) return fallback;
  try {
    return std::stoull(*v);
  } catch (...) {
    return fallback;
  }
}

int64_t JournalManifest::GetInt(const std::string& key, int64_t fallback) const {
  const std::string* v = Find(key);
  if (v == nullptr) return fallback;
  try {
    return std::stoll(*v);
  } catch (...) {
    return fallback;
  }
}

double JournalManifest::GetDouble(const std::string& key,
                                  double fallback) const {
  const std::string* v = Find(key);
  if (v == nullptr) return fallback;
  try {
    return std::stod(*v);
  } catch (...) {
    return fallback;
  }
}

bool JournalManifest::GetBool(const std::string& key, bool fallback) const {
  const std::string* v = Find(key);
  if (v == nullptr) return fallback;
  return *v == "1" || *v == "true";
}

std::vector<std::string> JournalManifest::GetAll(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [k, v] : entries_) {
    if (k == key) values.push_back(v);
  }
  return values;
}

std::string JournalManifest::Serialize() const {
  std::string text;
  for (const auto& [k, v] : entries_) {
    text += k;
    text += '=';
    text += v;
    text += '\n';
  }
  return text;
}

Result<JournalManifest> JournalManifest::Parse(const std::string& text) {
  JournalManifest manifest;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("journal manifest: line without '=': " + line);
    }
    manifest.Set(line.substr(0, eq), line.substr(eq + 1));
  }
  return manifest;
}

// ---- Outcome helpers ----

bool BatchOutcome::BitIdentical(const BatchOutcome& other) const {
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  if (batch_id != other.batch_id || output_hash != other.output_hash ||
      map_makespan != other.map_makespan ||
      reduce_makespan != other.reduce_makespan ||
      partition_overflow != other.partition_overflow ||
      technique != other.technique ||
      technique_switched != other.technique_switched ||
      switched_from != other.switched_from || dominant != other.dominant ||
      total_excess != other.total_excess || threshold != other.threshold ||
      excess != other.excess) {
    return false;
  }
  for (size_t s = 0; s < kTimeSeriesSignals; ++s) {
    if (bits(signals[s]) != bits(other.signals[s])) return false;
  }
  return true;
}

BatchOutcome OutcomeFrom(const BatchReport& report,
                         const BatchAutopsy& autopsy) {
  BatchOutcome o;
  o.batch_id = report.batch_id;
  o.output_hash = report.output_hash;
  o.signals = TimeSeriesStore::PointFrom(report).values;
  o.map_makespan = report.map_makespan;
  o.reduce_makespan = report.reduce_makespan;
  o.partition_overflow = report.partition_overflow;
  o.technique = report.technique;
  o.technique_switched = report.technique_switched;
  o.switched_from = report.switched_from;
  o.dominant = autopsy.dominant;
  o.total_excess = autopsy.total_excess;
  o.threshold = autopsy.threshold;
  o.excess = autopsy.excess;
  return o;
}

BatchEnv SettleBatchEnv(const std::shared_ptr<const ReplayEnv>& inject,
                        uint32_t owner, PartitionedBatch* batch,
                        const IngestMetrics* metrics) {
  BatchEnv env;
  env.batch_id = batch->batch_id;
  const BatchEnv* recorded = nullptr;
  if (inject != nullptr) {
    auto it = inject->find({owner, batch->batch_id});
    if (it != inject->end()) recorded = &it->second;
  }
  // The partitioner decision cost is Stopwatch-measured: the one wall-clock
  // quantity on the sealing path. Replay substitutes the recorded value so
  // partition_overflow — and everything downstream of it — is bit-identical
  // rather than merely close.
  if (recorded != nullptr) batch->partition_cost = recorded->partition_cost;
  env.partition_cost = batch->partition_cost;
  if (metrics != nullptr) {
    if (recorded != nullptr) {
      env.seal_barrier_latency = recorded->seal_barrier_latency;
      env.merge_latency = recorded->merge_latency;
      env.ring_high_water = recorded->ring_high_water;
      env.ring_capacity = recorded->ring_capacity;
    } else {
      env.seal_barrier_latency = metrics->seal_barrier_latency;
      env.merge_latency = metrics->merge_latency;
      // The worst shard's occupancy sample: the two integers whose division
      // is MaxRingOccupancyFrac (same comparison, so the same argmax).
      double worst = -1;
      for (const ShardIngestStats& s : metrics->shards) {
        if (s.ring_capacity == 0) continue;
        const double frac = static_cast<double>(s.ring_high_water) /
                            static_cast<double>(s.ring_capacity);
        if (frac > worst) {
          worst = frac;
          env.ring_high_water = s.ring_high_water;
          env.ring_capacity = s.ring_capacity;
        }
      }
    }
  }
  return env;
}

void InjectIngestEnv(const std::shared_ptr<const ReplayEnv>& inject,
                     uint32_t owner, const BatchEnv& env,
                     BatchReport* report) {
  if (inject == nullptr || !report->has_ingest) return;
  if (inject->find({owner, report->batch_id}) == inject->end()) return;
  // Replace the thread-timing-dependent ingest numbers with the recorded
  // ones. Per-shard ring samples collapse onto shard 0 — the max (the only
  // thing the backpressure signal and the verdict read) is preserved
  // exactly.
  report->ingest.seal_barrier_latency = env.seal_barrier_latency;
  report->ingest.merge_latency = env.merge_latency;
  for (ShardIngestStats& s : report->ingest.shards) s.ring_high_water = 0;
  if (report->ingest.shards.empty()) report->ingest.shards.resize(1);
  report->ingest.shards[0].ring_high_water = env.ring_high_water;
  report->ingest.shards[0].ring_capacity = env.ring_capacity;
}

uint64_t HashBatchOutput(const std::vector<KV>& output) {
  // XOR-combined per-entry mixes: commutative, so replica/block emission
  // order cannot matter, and a (key, value) change always flips the hash.
  uint64_t h = Mix64(output.size() ^ 0x9E3779B97F4A7C15ull);
  for (const KV& kv : output) {
    h ^= Mix64(kv.key ^ Mix64(std::bit_cast<uint64_t>(kv.value)));
  }
  return h;
}

// ---- JournalAttempt / JournalData ----

size_t JournalAttempt::published_batches() const {
  auto it = outcomes.find(0);
  return it != outcomes.end() ? it->second.size() : 0;
}

bool JournalAttempt::crashed() const {
  for (const JournalFault& f : faults) {
    if (f.kind == static_cast<uint8_t>(FaultKind::kCrash)) return true;
  }
  return false;
}

std::vector<Tuple> JournalData::AllTuples() const {
  std::vector<Tuple> all;
  for (const JournalAttempt& a : attempts) {
    all.insert(all.end(), a.tuples.begin(), a.tuples.end());
  }
  return all;
}

std::map<uint32_t, std::vector<BatchOutcome>> JournalData::AllOutcomes() const {
  std::map<uint32_t, std::vector<BatchOutcome>> all;
  for (const JournalAttempt& a : attempts) {
    for (const auto& [owner, outcomes] : a.outcomes) {
      all[owner].insert(all[owner].end(), outcomes.begin(), outcomes.end());
    }
  }
  return all;
}

std::vector<JournalSwitch> JournalData::AllSwitches() const {
  std::vector<JournalSwitch> all;
  for (const JournalAttempt& a : attempts) {
    all.insert(all.end(), a.switches.begin(), a.switches.end());
  }
  return all;
}

// ---- ReadJournal ----

Result<JournalData> ReadJournal(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::IOError("journal directory not found: " + dir);
  }
  PROMPT_ASSIGN_OR_RETURN(std::vector<SegmentFile> segments,
                          ListSegments(dir, "journal"));
  if (segments.empty()) {
    return Status::Invalid("no journal segments in " + dir);
  }
  JournalData data;
  bool have_manifest = false;
  JournalManifest pending_manifest;
  bool have_pending_manifest = false;
  JournalAttempt* attempt = nullptr;
  for (const auto& [id, path] : segments) {
    PROMPT_ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(path));
    if (!scan.header_ok) {
      PROMPT_LOG(kWarn) << "journal: skipping corrupt-header segment " << path;
      continue;
    }
    data.torn_records += scan.torn_records;
    for (const SegmentRecord& record : scan.records) {
      RecordPayload p;
      if (!ParsePayload(record.payload, &p)) {
        return Status::Invalid("journal: record shorter than payload header");
      }
      const auto kind = static_cast<JournalRecordKind>(p.kind);
      if (kind == JournalRecordKind::kManifest) {
        PROMPT_ASSIGN_OR_RETURN(pending_manifest,
                                JournalManifest::Parse(std::string(p.body)));
        have_pending_manifest = true;
        if (!have_manifest) {
          data.manifest = pending_manifest;
          have_manifest = true;
        }
        continue;
      }
      if (kind == JournalRecordKind::kRunStart) {
        attempt = &data.attempts.emplace_back();
        // Each Open appends its lifetime's manifest just before the
        // run-start marker; bind it to this attempt.
        if (have_pending_manifest) {
          attempt->manifest = std::move(pending_manifest);
          have_pending_manifest = false;
        }
        continue;
      }
      // Everything else belongs to the current attempt; stray records
      // before any run-start marker get a synthesized one.
      if (attempt == nullptr) attempt = &data.attempts.emplace_back();
      wire::Reader r(p.body);
      switch (kind) {
        case JournalRecordKind::kBatchTuples:
          PROMPT_RETURN_NOT_OK(DecodeTuples(p.body, &attempt->tuples));
          break;
        case JournalRecordKind::kOutcome: {
          BatchOutcome outcome;
          PROMPT_RETURN_NOT_OK(DecodeOutcome(p.body, p.batch_id, &outcome));
          attempt->outcomes[p.owner].push_back(outcome);
          break;
        }
        case JournalRecordKind::kSwitch: {
          JournalSwitch s;
          s.owner = p.owner;
          s.after_batch = p.batch_id;
          if (!r.I32(&s.from) || !r.I32(&s.to)) {
            return Status::Invalid("journal: malformed switch record");
          }
          s.reason = r.Rest();
          attempt->switches.push_back(std::move(s));
          break;
        }
        case JournalRecordKind::kFault: {
          JournalFault f;
          f.batch_id = p.batch_id;
          f.target = p.owner;
          if (!r.U8(&f.point) || !r.U8(&f.kind)) {
            return Status::Invalid("journal: malformed fault record");
          }
          attempt->faults.push_back(f);
          break;
        }
        case JournalRecordKind::kBatchEnv: {
          BatchEnv env;
          PROMPT_RETURN_NOT_OK(DecodeEnv(p.body, p.batch_id, &env));
          attempt->envs[{p.owner, p.batch_id}] = env;
          break;
        }
        default:
          return Status::Invalid("journal: unknown record kind " +
                                 std::to_string(p.kind) + " in " + path);
      }
    }
  }
  if (!have_manifest) {
    return Status::Invalid(dir + " has segments but no manifest record "
                                 "(not a journal directory?)");
  }
  return data;
}

// ---- JournalWriter ----

JournalWriter::JournalWriter(JournalOptions options)
    : options_(std::move(options)) {}

JournalWriter::~JournalWriter() = default;

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const JournalOptions& options, const JournalManifest& manifest) {
  if (!options.enabled()) {
    return Status::Invalid("journal: empty directory in options");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("journal: cannot create " + options.dir + ": " +
                           ec.message());
  }
  std::unique_ptr<JournalWriter> writer(new JournalWriter(options));
  PROMPT_ASSIGN_OR_RETURN(std::vector<SegmentFile> segments,
                          ListSegments(options.dir, "journal"));
  if (segments.empty()) {
    writer->fresh_ = true;
    PROMPT_ASSIGN_OR_RETURN(SegmentWriter * active, writer->ActiveSegment());
    (void)active;
  } else {
    // Resuming an existing journal (crash/restart lineage): truncate any
    // torn tail, then reopen the newest segment for append.
    uint64_t newest_bytes = 0;
    for (const auto& [id, path] : segments) {
      PROMPT_ASSIGN_OR_RETURN(SegmentScan scan,
                              RecoverSegmentFile(path, "journal"));
      if (!scan.header_ok) {
        return Status::IOError("journal: corrupt segment header in " + path);
      }
      writer->appended_bytes_ += scan.valid_bytes;
      newest_bytes = scan.valid_bytes;
    }
    PROMPT_ASSIGN_OR_RETURN(
        writer->active_,
        SegmentWriter::OpenExisting(segments.back().path, newest_bytes));
    writer->active_id_ = segments.back().id;
  }
  // One manifest + run-start marker per engine lifetime — resumed runs may
  // carry different options than the run they extend (a restart typically
  // drops the crash fault that ended its predecessor), so each attempt
  // journals its own configuration. Fsynced immediately so replay can
  // always partition attempts, whatever the append policy.
  PROMPT_RETURN_NOT_OK(writer->Append(
      JournalRecordKind::kManifest, 0, 0, manifest.Serialize()));
  PROMPT_RETURN_NOT_OK(
      writer->Append(JournalRecordKind::kRunStart, 0, 0, std::string()));
  PROMPT_RETURN_NOT_OK(writer->Sync());
  return writer;
}

Result<SegmentWriter*> JournalWriter::ActiveSegment() {
  if (active_ != nullptr && active_->size() < options_.segment_bytes) {
    return active_.get();
  }
  if (active_ != nullptr) {
    // Seal: everything in a rolled segment is durable before the roll.
    PROMPT_RETURN_NOT_OK(active_->Sync());
    ++active_id_;
  }
  const std::string path =
      (std::filesystem::path(options_.dir) / SegmentFileName(active_id_))
          .string();
  PROMPT_ASSIGN_OR_RETURN(active_, SegmentWriter::Create(path));
  if (Status st = SyncDir(options_.dir); !st.ok()) {
    PROMPT_LOG(kWarn) << "journal: directory sync failed: " << st.ToString();
  }
  return active_.get();
}

Status JournalWriter::Append(JournalRecordKind kind, uint32_t owner,
                             uint64_t batch_id, const std::string& body) {
  PROMPT_ASSIGN_OR_RETURN(SegmentWriter * segment, ActiveSegment());
  const std::string payload =
      MakePayload(static_cast<uint8_t>(kind), owner, batch_id, body);
  PROMPT_ASSIGN_OR_RETURN(uint64_t offset, segment->Append(payload));
  (void)offset;
  appended_bytes_ += kRecordHeaderBytes + payload.size();
  if (options_.fsync == FsyncPolicy::kAlways) {
    PROMPT_RETURN_NOT_OK(segment->Sync());
  }
  return Status::OK();
}

Status JournalWriter::AppendBatchTuples(uint64_t batch_id) {
  const std::string body = EncodeTuples(buffer_);
  buffer_.clear();
  return Append(JournalRecordKind::kBatchTuples, 0, batch_id, body);
}

Status JournalWriter::AppendOutcome(uint32_t owner,
                                    const BatchOutcome& outcome) {
  return Append(JournalRecordKind::kOutcome, owner, outcome.batch_id,
                EncodeOutcome(outcome));
}

Status JournalWriter::AppendSwitch(const JournalSwitch& decision) {
  std::string body;
  wire::Writer w(&body);
  w.I32(decision.from);
  w.I32(decision.to);
  w.Bytes(decision.reason);
  return Append(JournalRecordKind::kSwitch, decision.owner,
                decision.after_batch, body);
}

Status JournalWriter::AppendFault(const JournalFault& fault) {
  std::string body;
  wire::Writer w(&body);
  w.U8(fault.point);
  w.U8(fault.kind);
  return Append(JournalRecordKind::kFault, fault.target, fault.batch_id, body);
}

Status JournalWriter::AppendEnv(uint32_t owner, const BatchEnv& env) {
  return Append(JournalRecordKind::kBatchEnv, owner, env.batch_id,
                EncodeEnv(env));
}

Status JournalWriter::Sync() {
  if (active_ == nullptr) return Status::OK();
  return active_->Sync();
}

Status JournalWriter::SyncBatch() {
  if (options_.fsync != FsyncPolicy::kBatch) return Status::OK();
  return Sync();
}

uint64_t JournalWriter::unsynced_bytes() const {
  if (active_ == nullptr) return 0;
  return active_->size() - active_->synced_bytes();
}

// ---- JournalTupleSource ----

JournalTupleSource::JournalTupleSource(std::vector<Tuple> tuples)
    : tuples_(std::move(tuples)) {
  std::unordered_set<KeyId> keys;
  keys.reserve(tuples_.size());
  for (const Tuple& t : tuples_) keys.insert(t.key);
  cardinality_ = keys.size();
}

bool JournalTupleSource::Next(Tuple* out) {
  if (pos_ >= tuples_.size()) return false;
  *out = tuples_[pos_++];
  return true;
}

}  // namespace prompt
