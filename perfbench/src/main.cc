// perfbench: wall-clock benchmark of the micro-batch engine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--state_dir <dir>]
//
// --trace 0 runs the workload through the public engine API
// (MicroBatchEngine / MultiTenantEngine, simulated execution, observability
// off) in a closed loop: the next batch is offered when Run(1) returns, so
// tuples_per_s is the saturation rate. Inputs are generated from the seed
// one batch ahead of the engine, outside every timed section, and the
// engine's windows are checked against a reference computed from the
// generated stream (mid-run and at the end).
//
// --trace 1 runs the engine untraced for a stretch, then replays the same
// stream through the traced pipeline (traced_pipeline.h), which calls each layer
// itself with spans around the calls, checks that its windows equal the
// engine's, prints per-layer self time and writes the spans as JSON.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": batches, "failed": batches,
//    "metrics": {name: {"value": v, "unit": u}, ...}}
// Exit status: 0 when every check passed, 1 when a check failed (wrong
// window, engine init failure, unrecoverable batch), 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reference.h"
#include "stats.h"
#include "trace.h"
#include "traced_pipeline.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Batches that fill the window before anything is measured; part of setup.
constexpr uint32_t kWarmupBatches = kWindowBatches;
// Engine constructions (+ warm-up) per run; setup_s is their median.
constexpr size_t kSetupRepeats = 5;
constexpr size_t kMaxSetups = 8;
// Enough batches that >= 10 samples lie beyond p90.
const size_t kMinMeasuredBatches = MinSamplesFor(90.0);
constexpr size_t kMaxMeasuredBatches = 20000;
// Measured stretches are cut into blocks of this much timed Run wall.
constexpr double kBlockSeconds = 1.0;
// A block (or set-up) during which the hypervisor stole more than this share
// of the machine's CPU time is set aside: steal is the host preempting this
// machine, not work of the program, and on a shared host it comes in bursts
// of seconds that would otherwise dominate the run-to-run spread. Measuring
// goes on, up to kMaxStretch times the planned stretch, to replace set-aside
// blocks; short of clean blocks, the least-stolen ones are used.
constexpr double kMaxSteal = 0.01;
constexpr double kMaxStretch = 2.0;
// Share of --seconds spent on the untraced engine stretch of a traced run.
// (The serial ingest.shards=1 run of a sharded workload gets the full
// --seconds: single-thread speed drifts with the host's load, and a shorter
// stretch averages over too little of it.)
constexpr double kTracedEngineShare = 0.4;
constexpr size_t kMinTracedBatches = 30;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string state_dir = ".bench_build/perfbench-state";
};

bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &args->seed)) return false;
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n == 0 || n > 3600) return false;
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseU64(value, &n) || n > 1) return false;
      args->trace = static_cast<int>(n);
    } else if (flag == "--state_dir") {
      args->state_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Failure accounting: every batch run is attempted; a batch fails when the
/// engine reports it unrecoverable or short, and every failed window check
/// counts one more failed batch (capped at the batches attempted).
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  uint64_t failed_batches() const { return std::min(failed, attempted); }

  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

/// The seeded stream plus its reference windows, one per checked window.
struct Stream {
  BufferedSource source;
  std::vector<prompt::KeyFilter> filters;
  std::vector<ReferenceWindow> refs;
  uint64_t generated = 0;

  Stream(const WorkloadSpec& spec, uint64_t seed)
      : source(spec, seed), filters(WindowFilters(spec)) {
    refs.assign(filters.size(), ReferenceWindow(kWindowBatches));
  }

  /// Tops up the source's look-ahead and feeds the reference. Untimed.
  void Refill() {
    for (;;) {
      const std::vector<prompt::Tuple>* batch = source.Refill();
      if (batch == nullptr) return;
      for (size_t i = 0; i < filters.size(); ++i) {
        std::vector<KeyId> keys;
        keys.reserve(batch->size());
        for (const prompt::Tuple& t : *batch) {
          if (filters[i].Matches(t.key)) keys.push_back(t.key);
        }
        refs[i].AddBatch(generated, std::move(keys));
      }
      ++generated;
    }
  }

  /// Id of the newest batch the engine has completed (the source holds one
  /// batch of look-ahead).
  uint64_t engine_batch() const { return generated - 2; }
};

void CheckWindows(const EngineUnderTest& engine, const Stream& stream,
                  const char* when, Checks* checks) {
  const uint64_t b = stream.engine_batch();
  for (size_t i = 0; i < engine.num_windows(); ++i) {
    const std::string diff =
        DiffWindows(engine.window(i), stream.refs[i].WindowAt(b));
    if (!diff.empty()) {
      checks->Fail(std::string(when) + " window " + std::to_string(i) +
                   " at batch " + std::to_string(b) + ": " + diff);
    }
  }
}

struct BatchSamples {
  std::vector<double> wall_ms;
  std::vector<double> modeled_proc_ms;  // every tenant's report
  std::vector<double> bsi;              // every tenant's report
  int64_t wall_ns = 0;
};

/// Runs one engine batch (refilling the source first, untimed) and records
/// its wall time and reports.
void RunOneBatch(EngineUnderTest* engine, Stream* stream, Checks* checks,
                 BatchSamples* samples) {
  stream->Refill();
  std::vector<prompt::BatchReport> reports;
  const int64_t t0 = NowNs();
  engine->RunOne(&reports);
  const int64_t dt = NowNs() - t0;
  ++checks->attempted;
  samples->wall_ns += dt;
  samples->wall_ms.push_back(static_cast<double>(dt) * 1e-6);
  for (const prompt::BatchReport& r : reports) {
    samples->modeled_proc_ms.push_back(
        static_cast<double>(r.processing_time) * 1e-3);
    samples->bsi.push_back(r.reduce_bucket_bsi);
  }
  const size_t expect = engine->num_windows();
  bool bad = reports.size() != expect || stream->source.starved();
  for (const prompt::BatchReport& r : reports) bad |= r.unrecoverable;
  if (!reports.empty() && reports[0].num_tuples != kTuplesPerBatch) bad = true;
  if (bad) {
    checks->Fail("batch " + std::to_string(stream->engine_batch()) +
                 ": unrecoverable, short or missing report");
  }
}

/// A fresh per-run state directory (durable workloads only write there).
std::string FreshDir(const std::string& root, const std::string& leaf) {
  const std::filesystem::path dir = std::filesystem::path(root) / leaf;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

void PrintResult(const Args& args, const std::vector<Metric>& metrics,
                 const Checks& checks) {
  std::printf("perfbench %s seed=%llu trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace);
  std::printf("  %-34s %16s %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %-8s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("  %-34s %16.4f %-8s %8llu\n", "failed_batch_frac",
              checks.attempted == 0
                  ? 1.0
                  : static_cast<double>(checks.failed_batches()) /
                        static_cast<double>(checks.attempted),
              "ratio", static_cast<unsigned long long>(checks.attempted));
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed_batches());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// A measured stretch: the samples of the blocks kept, plus what was run.
struct Measured {
  BatchSamples kept;
  size_t blocks_kept = 0;
  size_t blocks_run = 0;
  double steal_kept = 0;     ///< mean steal share over kept blocks
  double steal_run = 0;      ///< mean steal share over all blocks
  size_t batches_run = 0;
  int64_t wall_ns_run = 0;  ///< timed Run wall of every batch run
};

/// Closed-loop measured run of `engine` in blocks of kBlockSeconds until
/// the blocks with steal <= kMaxSteal hold `budget_s` of timed Run wall and
/// `min_batches` batches (or kMaxStretch times both have run); keeps the
/// least-stolen blocks that reach both. `mid_check` batches in, the windows
/// are checked once; they are checked again at the end.
Measured Measure(EngineUnderTest* engine, Stream* stream, double budget_s,
                 size_t min_batches, size_t mid_check, Checks* checks) {
  std::vector<BatchSamples> samples;
  std::vector<Block> blocks;
  Measured out;
  double clean_s = 0;
  size_t clean_n = 0;
  auto done = [&] {
    if (clean_s >= budget_s && clean_n >= min_batches) return true;
    const double run_s = Seconds(out.wall_ns_run);
    return (run_s >= kMaxStretch * budget_s &&
            static_cast<double>(out.batches_run) >=
                kMaxStretch * static_cast<double>(min_batches)) ||
           out.batches_run >= kMaxMeasuredBatches;
  };
  while (!done()) {
    BatchSamples block;
    const CpuTicks before = ReadCpuTicks();
    while (Seconds(block.wall_ns) < kBlockSeconds &&
           out.batches_run < kMaxMeasuredBatches) {
      RunOneBatch(engine, stream, checks, &block);
      if (++out.batches_run == mid_check) {
        CheckWindows(*engine, *stream, "mid-run", checks);
      }
    }
    const double steal = StealShare(before, ReadCpuTicks());
    const double wall_s = Seconds(block.wall_ns);
    out.wall_ns_run += block.wall_ns;
    if (steal <= kMaxSteal) {
      clean_s += wall_s;
      clean_n += block.wall_ms.size();
    }
    blocks.push_back(Block{wall_s, block.wall_ms.size(), steal});
    samples.push_back(std::move(block));
  }
  CheckWindows(*engine, *stream, "final", checks);

  for (size_t i : LeastStolen(blocks, budget_s, min_batches)) {
    BatchSamples& b = samples[i];
    out.kept.wall_ns += b.wall_ns;
    out.kept.wall_ms.insert(out.kept.wall_ms.end(), b.wall_ms.begin(),
                            b.wall_ms.end());
    out.kept.modeled_proc_ms.insert(out.kept.modeled_proc_ms.end(),
                                    b.modeled_proc_ms.begin(),
                                    b.modeled_proc_ms.end());
    out.kept.bsi.insert(out.kept.bsi.end(), b.bsi.begin(), b.bsi.end());
    out.steal_kept += blocks[i].steal;
    ++out.blocks_kept;
  }
  out.blocks_run = blocks.size();
  for (const Block& b : blocks) out.steal_run += b.steal;
  out.steal_kept /= static_cast<double>(std::max<size_t>(1, out.blocks_kept));
  out.steal_run /= static_cast<double>(std::max<size_t>(1, out.blocks_run));
  return out;
}

void PrintKept(const char* what, const Measured& m) {
  std::printf("  %s: kept %zu of %zu blocks (%zu batches run); steal %.2f%% "
              "in kept blocks, %.2f%% overall\n",
              what, m.blocks_kept, m.blocks_run, m.batches_run,
              100.0 * m.steal_kept, 100.0 * m.steal_run);
}

/// Builds the engine over a fresh stream and runs the warm-up batches.
/// Returns the setup wall time (construction + warm-up) in seconds, or a
/// negative value when the engine failed to initialize.
double SetUp(const WorkloadSpec& spec, uint64_t seed, uint32_t shards,
             const std::string& dir, Checks* checks,
             std::unique_ptr<Stream>* stream,
             std::unique_ptr<EngineUnderTest>* engine) {
  engine->reset();
  *stream = std::make_unique<Stream>(spec, seed);
  (*stream)->Refill();
  const int64_t t0 = NowNs();
  *engine = MakeEngine(spec, shards, &(*stream)->source, dir);
  int64_t setup_ns = NowNs() - t0;
  if (!(*engine)->init_status().ok()) {
    ++checks->attempted;
    checks->Fail("engine init: " + (*engine)->init_status().ToString());
    return -1.0;
  }
  BatchSamples warm;
  for (uint32_t i = 0; i < kWarmupBatches; ++i) {
    RunOneBatch(engine->get(), stream->get(), checks, &warm);
  }
  setup_ns += warm.wall_ns;
  return Seconds(setup_ns);
}

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  Checks checks;
  std::vector<Metric> metrics;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<EngineUnderTest> engine;

  // Set-ups are steal-gated like measured blocks: up to kMaxSetups until
  // kSetupRepeats ran clean; setup_s is the median of the least stolen.
  std::vector<Block> setups;
  size_t clean_setups = 0;
  while (clean_setups < kSetupRepeats && setups.size() < kMaxSetups) {
    const std::string dir = FreshDir(args.state_dir, "engine");
    const CpuTicks before = ReadCpuTicks();
    const double s =
        SetUp(spec, args.seed, spec.shards, dir, &checks, &stream, &engine);
    if (s < 0) {
      PrintResult(args, metrics, checks);
      return 1;
    }
    const double steal = StealShare(before, ReadCpuTicks());
    if (steal <= kMaxSteal) ++clean_setups;
    setups.push_back(Block{s, 1, steal});
  }
  std::vector<double> setup_s;
  for (size_t i : LeastStolen(setups, 0.0, kSetupRepeats)) {
    setup_s.push_back(setups[i].wall_s);
  }

  const Measured measured =
      Measure(engine.get(), stream.get(), args.seconds, kMinMeasuredBatches,
              kMinMeasuredBatches / 2, &checks);
  const BatchSamples& main = measured.kept;
  engine.reset();
  const double tuples_per_s =
      static_cast<double>(main.wall_ms.size() * kTuplesPerBatch) /
      Seconds(main.wall_ns);

  // The best serial baseline: the same stream at ingest.shards=1. A 1-shard
  // workload's main run already is that configuration.
  double serial_tuples_per_s = tuples_per_s;
  size_t serial_batches = main.wall_ms.size();
  if (spec.shards > 1) {
    const std::string dir = FreshDir(args.state_dir, "serial");
    if (SetUp(spec, args.seed, 1, dir, &checks, &stream, &engine) < 0) {
      PrintResult(args, metrics, checks);
      return 1;
    }
    const Measured serial =
        Measure(engine.get(), stream.get(), args.seconds,
                kMinMeasuredBatches / 2, SIZE_MAX, &checks);
    engine.reset();
    PrintKept("serial run", serial);
    serial_batches = serial.kept.wall_ms.size();
    serial_tuples_per_s =
        static_cast<double>(serial_batches * kTuplesPerBatch) /
        Seconds(serial.kept.wall_ns);
  }
  stream.reset();
  std::error_code ec;
  std::filesystem::remove_all(args.state_dir, ec);

  const size_t n = main.wall_ms.size();
  metrics.push_back({"tuples_per_s", tuples_per_s, "1/s", n});
  metrics.push_back({"batch_wall_ms_p50", Percentile(main.wall_ms, 50), "ms", n});
  metrics.push_back({"batch_wall_ms_p90", Percentile(main.wall_ms, 90), "ms", n});
  metrics.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  metrics.push_back({"modeled_proc_ms_p90",
                     Percentile(main.modeled_proc_ms, 90), "ms",
                     main.modeled_proc_ms.size()});
  metrics.push_back(
      {"reduce_bsi_mean", Mean(main.bsi), "ratio", main.bsi.size()});
  metrics.push_back(
      {"serial_tuples_per_s", serial_tuples_per_s, "1/s", serial_batches});
  PrintKept("measured run", measured);
  std::printf("  set-ups: median of the %zu least stolen of %zu\n",
              setup_s.size(), setups.size());
  std::printf("  highest percentile with >= 10 samples beyond: p%g of %zu\n",
              HighestReportablePercentile(n), n);
  PrintResult(args, metrics, checks);
  return checks.failed == 0 ? 0 : 1;
}

/// One traced-pipeline pass over the seeded stream: warm-up plus `measured`
/// batches, spans recorded into `tracer`, layer self time summed over the
/// measured batches.
struct TracedPass {
  std::map<std::string, int64_t> self_ns;
  std::map<std::string, uint64_t> calls;
  LayerCounts counts;
  double wall_ns = 0;  ///< traced batch wall (root spans)
  uint64_t window_keys = 0;
};

bool RunTracedPass(const WorkloadSpec& spec, uint32_t shards, const Args& args,
                   uint64_t measured, const std::vector<WindowMap>& want,
                   Tracer* tracer, Checks* checks, TracedPass* pass) {
  TracedPipeline traced(spec, shards, FreshDir(args.state_dir, "traced"),
                        tracer);
  if (!traced.init_status().ok()) {
    ++checks->attempted;
    checks->Fail("traced pipeline init: " + traced.init_status().ToString());
    return false;
  }
  BatchGenerator gen(spec, args.seed);
  std::vector<prompt::Tuple> tuples;
  for (uint64_t b = 0; b < kWarmupBatches + measured; ++b) {
    {
      Tracer::Scope span(tracer, "workload.gen", b);
      gen.Next(&tuples);
    }
    if (b == kWarmupBatches) traced.ResetCounts();
    traced.RunBatch(b, tuples);
    ++checks->attempted;
  }
  if (traced.io_errors() != 0) {
    checks->Fail("traced pipeline: " + std::to_string(traced.io_errors()) +
                 " store/journal errors");
  }
  for (size_t i = 0; i < traced.num_windows(); ++i) {
    const std::string diff = DiffWindows(traced.window(i), want[i]);
    if (!diff.empty()) {
      checks->Fail("traced window " + std::to_string(i) + " (" +
                   std::to_string(shards) +
                   " shards) differs from the engine's: " + diff);
    }
  }
  pass->counts = traced.counts();
  pass->window_keys = traced.window(0).size();
  const std::vector<Span>& spans = tracer->spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].batch < kWarmupBatches) continue;
    pass->self_ns[spans[i].name] += self[i];
    ++pass->calls[spans[i].name];
    if (std::strcmp(spans[i].name, "batch") == 0) {
      pass->wall_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  return true;
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  Checks checks;
  std::vector<Metric> metrics;

  // Untraced engine stretch: the reference wall time and windows.
  std::unique_ptr<Stream> stream;
  std::unique_ptr<EngineUnderTest> engine;
  if (SetUp(spec, args.seed, spec.shards, FreshDir(args.state_dir, "engine"),
            &checks, &stream, &engine) < 0) {
    PrintResult(args, metrics, checks);
    return 1;
  }
  const Measured eng =
      Measure(engine.get(), stream.get(), args.seconds * kTracedEngineShare,
              kMinTracedBatches, SIZE_MAX, &checks);
  std::vector<WindowMap> engine_windows;
  for (size_t i = 0; i < engine->num_windows(); ++i) {
    engine_windows.push_back(engine->window(i));
  }
  engine.reset();
  stream.reset();
  // The traced pass replays every batch the engine ran, set-aside blocks
  // included, so that its windows are comparable.
  const uint64_t measured = eng.batches_run;

  // Traced pipeline over the same stream and the same number of batches.
  Tracer tracer;
  TracedPass pass;
  if (!RunTracedPass(spec, spec.shards, args, measured, engine_windows,
                     &tracer, &checks, &pass)) {
    PrintResult(args, metrics, checks);
    return 1;
  }
  // Sharded exact-key workloads also drive the same batches inline
  // (ingest.shards=1): inline accumulate, the layer the ring hop replaces,
  // measured on the same stream as ingest.route.
  if (spec.shards > 1 && !spec.sketch) {
    Tracer serial_tracer;
    TracedPass serial;
    if (!RunTracedPass(spec, 1, args, measured, engine_windows,
                       &serial_tracer, &checks, &serial)) {
      PrintResult(args, metrics, checks);
      return 1;
    }
    pass.self_ns["core.accumulate"] = serial.self_ns["core.accumulate"];
    pass.calls["core.accumulate"] = serial.calls["core.accumulate"];
    std::printf("core.accumulate is from a 1-shard pass over the same %llu "
                "batches; its share is of the sharded pass's wall\n",
                static_cast<unsigned long long>(measured));
  }
  const LayerCounts& counts = pass.counts;
  std::map<std::string, int64_t>& self_ns = pass.self_ns;
  const double traced_wall_ns = pass.wall_ns;
  // The spans go beside the state directory, which is removed.
  std::filesystem::path trace_dir =
      std::filesystem::path(args.state_dir).parent_path();
  if (trace_dir.empty()) trace_dir = ".";
  const std::string trace_path =
      (trace_dir / ("perfbench-trace-" + args.workload + "-" +
                    std::to_string(args.seed) + ".json"))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(args.state_dir, ec);
  if (!tracer.WriteJson(trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
  }

  const double tuples = static_cast<double>(std::max<uint64_t>(1, counts.tuples));
  const double batches =
      static_cast<double>(std::max<uint64_t>(1, counts.batches));
  auto ns_per_tuple = [&](const char* layer) {
    return static_cast<double>(self_ns[layer]) / tuples;
  };
  auto ms_per_batch = [&](const char* layer) {
    return static_cast<double>(self_ns[layer]) * 1e-6 / batches;
  };
  const size_t nb = counts.batches;
  metrics.push_back({"ingest.route_ns_per_tuple", ns_per_tuple("ingest.route"), "ns", nb});
  metrics.push_back({"ingest.seal_merge_ms_per_batch", ms_per_batch("ingest.seal_merge"), "ms", nb});
  metrics.push_back({"core.accumulate_ns_per_tuple", ns_per_tuple("core.accumulate"), "ns", nb});
  metrics.push_back({"core.seal_ns_per_tuple", ns_per_tuple("core.seal"), "ns", nb});
  metrics.push_back({"core.plan_ns_per_tuple", ns_per_tuple("core.plan"), "ns", nb});
  metrics.push_back({"core.reduce_alloc_ns_per_tuple", ns_per_tuple("core.reduce_alloc"), "ns", nb});
  metrics.push_back({"core.reduce_alloc_clusters_per_batch",
                     static_cast<double>(counts.reduce_alloc_clusters) / batches, "count", nb});
  metrics.push_back({"engine.execute_self_ns_per_tuple", ns_per_tuple("engine.execute"), "ns", nb});
  metrics.push_back({"engine.window_ns_per_tuple", ns_per_tuple("engine.window"), "ns", nb});
  metrics.push_back({"engine.window_keys", static_cast<double>(pass.window_keys), "count", 1});
  metrics.push_back({"engine.encode_ns_per_tuple", ns_per_tuple("engine.encode"), "ns", nb});
  metrics.push_back({"engine.encoded_bytes_per_tuple",
                     static_cast<double>(counts.encoded_bytes) / tuples, "B", nb});
  metrics.push_back({"store.put_ns_per_tuple", ns_per_tuple("store.put"), "ns", nb});
  metrics.push_back({"store.sync_ms_per_batch", ms_per_batch("store.sync"), "ms", nb});
  metrics.push_back({"replay.journal_ns_per_tuple", ns_per_tuple("replay.journal"), "ns", nb});
  metrics.push_back({"replay.journal_bytes_per_tuple",
                     static_cast<double>(counts.journal_bytes) / tuples, "B", nb});
  metrics.push_back({"tenant.replay_ns_per_tuple", ns_per_tuple("tenant.replay"), "ns", nb});
  metrics.push_back({"core.sketch_head_coverage",
                     counts.sketch_seals == 0
                         ? 0.0
                         : counts.sketch_coverage_sum /
                               static_cast<double>(counts.sketch_seals),
                     "ratio", counts.sketch_seals});
  metrics.push_back({"workload.gen_ns_per_tuple", ns_per_tuple("workload.gen"), "ns", nb});
  const double engine_wall_ns = static_cast<double>(eng.wall_ns_run);
  metrics.push_back({"trace.engine_gap_frac",
                     (traced_wall_ns - engine_wall_ns) / engine_wall_ns, "ratio", nb});

  // Per-layer self time, calls and share of the traced batch wall.
  std::printf("per-layer self time over %zu traced batches (%s):\n", nb,
              trace_path.c_str());
  std::printf("  %-22s %12s %8s %8s\n", "layer", "ns/tuple", "calls", "share");
  for (const auto& [name, ns] : self_ns) {
    if (name == "workload.gen") continue;
    std::printf("  %-22s %12.2f %8llu %7.2f%%\n",
                name == "batch" ? "traced.glue" : name.c_str(),
                static_cast<double>(ns) / tuples,
                static_cast<unsigned long long>(pass.calls[name]),
                100.0 * static_cast<double>(ns) / traced_wall_ns);
  }
  PrintResult(args, metrics, checks);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--state_dir <dir>]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace == 1 ? perfbench::RunTraced(args, *spec)
                         : perfbench::RunEndToEnd(args, *spec);
}
