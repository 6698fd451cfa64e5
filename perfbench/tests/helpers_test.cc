// Tests for the benchmark's own helpers: the percentile rule, steal-gated
// block selection, the reference window aggregator and span self time. Self-contained (no test framework):
//   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/window.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
    }                                                                  \
  } while (0)

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT(Percentile(v, 50) == 5);
  EXPECT(Percentile(v, 90) == 9);
  EXPECT(Percentile(v, 100) == 10);
  EXPECT(Percentile({}, 90) == 0);
  EXPECT(Median({3, 1, 2}) == 2);

  // "The highest percentile with at least ten samples beyond it."
  EXPECT(SamplesBeyond(100, 90) == 10);
  EXPECT(SamplesBeyond(99, 90) == 9);
  EXPECT(HighestReportablePercentile(19) == 0);
  EXPECT(HighestReportablePercentile(20) == 50);
  EXPECT(HighestReportablePercentile(99) == 50);
  EXPECT(HighestReportablePercentile(100) == 90);
  EXPECT(HighestReportablePercentile(999) == 90);
  EXPECT(HighestReportablePercentile(1000) == 99);
  EXPECT(HighestReportablePercentile(10000) == 99.9);
  EXPECT(MinSamplesFor(90) == 100);
  EXPECT(MinSamplesFor(50) == 20);
  EXPECT(MinSamplesFor(99) == 1000);
}

void TestLeastStolen() {
  const std::vector<Block> blocks = {
      {1.0, 10, 0.05}, {1.0, 10, 0.0}, {1.0, 10, 0.02}, {1.0, 10, 0.0},
  };
  // Least stolen first, ties in run order, returned in run order.
  EXPECT((LeastStolen(blocks, 2.0, 0) == std::vector<size_t>{1, 3}));
  EXPECT((LeastStolen(blocks, 1.0, 20) == std::vector<size_t>{1, 3}));
  EXPECT((LeastStolen(blocks, 2.5, 0) == std::vector<size_t>{1, 2, 3}));
  EXPECT((LeastStolen(blocks, 0.0, 25) == std::vector<size_t>{1, 2, 3}));
  // Not enough even together: everything.
  EXPECT((LeastStolen(blocks, 9.0, 0) == std::vector<size_t>{0, 1, 2, 3}));
  EXPECT(LeastStolen({}, 1.0, 1).empty());

  EXPECT(StealShare(CpuTicks{10, 1000}, CpuTicks{20, 1400}) == 10.0 / 400.0);
  EXPECT(StealShare(CpuTicks{10, 1000}, CpuTicks{10, 1000}) == 0.0);
  const CpuTicks now = ReadCpuTicks();
  EXPECT(now.steal <= now.total);
}

void TestReferenceWindowExpiry() {
  ReferenceWindow ref(/*window_batches=*/2);
  ref.AddBatch(0, {1, 1, 2});
  ref.AddBatch(1, {2, 3});
  EXPECT((ref.WindowAt(0) == WindowMap{{1, 2}, {2, 1}}));
  EXPECT((ref.WindowAt(1) == WindowMap{{1, 2}, {2, 2}, {3, 1}}));
  ref.AddBatch(2, {3});
  // Batch 0 expired: key 1 drops out entirely rather than reading 0.
  EXPECT((ref.WindowAt(2) == WindowMap{{2, 1}, {3, 2}}));
  // The window one batch back stays answerable...
  EXPECT((ref.WindowAt(1) == WindowMap{{1, 2}, {2, 2}, {3, 1}}));
  ref.AddBatch(3, {});
  // ...but not two back, nor a batch not yet seen.
  EXPECT(ref.WindowAt(1).empty());
  EXPECT(ref.WindowAt(4).empty());
  EXPECT((ref.WindowAt(3) == WindowMap{{3, 1}}));
}

void TestDiffWindows() {
  const WindowMap want{{1, 2}, {2, 1}};
  EXPECT(DiffWindows(want, want).empty());
  EXPECT(!DiffWindows(WindowMap{{1, 2}}, want).empty());
  EXPECT(!DiffWindows(WindowMap{{1, 2}, {2, 1}, {3, 1}}, want).empty());
  EXPECT(!DiffWindows(WindowMap{{1, 2}, {2, 2}}, want).empty());
}

// The reference must agree with the engine's own WindowState (WordCount,
// expiry by inverse reduce) on a random stream long enough to expire.
void TestReferenceMatchesWindowState() {
  constexpr uint32_t kWindow = 3;
  prompt::JobSpec job = prompt::JobSpec::WordCount(kWindow);
  prompt::WindowState state(job.reduce, kWindow);
  ReferenceWindow ref(kWindow);
  prompt::Rng rng(7);
  for (uint64_t b = 0; b < 12; ++b) {
    std::vector<KeyId> keys;
    WindowMap counts;
    for (int i = 0; i < 200; ++i) {
      const KeyId k = rng.NextBounded(40);
      keys.push_back(k);
      counts[k] += 1.0;
    }
    std::vector<prompt::KV> output;
    for (const auto& [k, c] : counts) output.push_back(prompt::KV{k, c});
    state.AddBatch(std::move(output));
    ref.AddBatch(b, std::move(keys));
    EXPECT(DiffWindows(state.Result(), ref.WindowAt(b)).empty());
  }
}

void TestSelfTimeNestedSpans() {
  // root [0,100] with children A [10,40] and B [30,60] (overlapping: union
  // 50) and C [90,120] (clipped to 10); A has a child [15,20].
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0},  {"A", 10, 40, 0, 0}, {"B", 30, 60, 0, 0},
      {"C", 90, 120, 0, 0},     {"A1", 15, 20, 1, 0},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 50 - 10);
  EXPECT(self[1] == 30 - 5);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 5);

  // Scopes nest under the innermost open span; AddChild attaches there too.
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "outer", 4);
    {
      Tracer::Scope inner(&tracer, "inner", 4);
    }
    tracer.AddChild("measured", 1, 2, 4);
  }
  Tracer::Scope sibling(&tracer, "sibling", 5);
  const std::vector<Span>& s = tracer.spans();
  EXPECT(s.size() == 4);
  EXPECT(s[0].parent == -1);
  EXPECT(s[1].parent == 0);
  EXPECT(s[2].parent == 0);
  EXPECT(s[3].parent == -1);
  EXPECT(s[3].batch == 5);
  EXPECT(s[1].end_ns >= s[1].start_ns && s[0].end_ns >= s[1].end_ns);
}

void TestGeneratorAndSource() {
  const WorkloadSpec& spec = *FindWorkload("zipf_sharded");
  BatchGenerator a(spec, 11);
  BatchGenerator b(spec, 11);
  BatchGenerator c(spec, 12);
  std::vector<prompt::Tuple> ta, tb, tc;
  EXPECT(a.Next(&ta) == 0 && b.Next(&tb) == 0 && c.Next(&tc) == 0);
  EXPECT(ta.size() == kTuplesPerBatch);
  bool same = true;
  bool differs = false;
  for (size_t i = 0; i < ta.size(); ++i) {
    same &= ta[i].key == tb[i].key && ta[i].ts == tb[i].ts;
    differs |= ta[i].key != tc[i].key;
  }
  EXPECT(same);
  EXPECT(differs);
  EXPECT(a.Next(&ta) == 1);
  EXPECT(ta.front().ts == kIntervalUs && ta.back().ts < 2 * kIntervalUs);

  // The source serves what Refill buffered and starves (never generates)
  // once the look-ahead runs dry.
  BufferedSource source(spec, 11);
  EXPECT(source.Refill() != nullptr);
  EXPECT(source.Refill() != nullptr);
  EXPECT(source.Refill() == nullptr);
  prompt::Tuple t;
  uint64_t n = 0;
  while (source.Next(&t)) ++n;
  EXPECT(n == 2 * kTuplesPerBatch);
  EXPECT(source.starved());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestLeastStolen();
  perfbench::TestReferenceWindowExpiry();
  perfbench::TestDiffWindows();
  perfbench::TestReferenceMatchesWindowState();
  perfbench::TestSelfTimeNestedSpans();
  perfbench::TestGeneratorAndSource();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench helper tests passed\n");
  return 0;
}
