#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace prompt {
namespace {

std::vector<uint32_t> FourNodes() { return {0, 1, 2, 3}; }

TEST(FaultScheduleParseTest, KillWithStageAndRevive) {
  auto options = ParseFaultSchedule("kill:2@5.map;revive:2@9");
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  ASSERT_EQ(options->schedule.size(), 2u);

  const FaultEvent& kill = options->schedule[0];
  EXPECT_EQ(kill.kind, FaultKind::kKillNode);
  EXPECT_EQ(kill.target, 2u);
  EXPECT_EQ(kill.batch_id, 5u);
  EXPECT_EQ(kill.point, FaultPoint::kMapStage);

  const FaultEvent& revive = options->schedule[1];
  EXPECT_EQ(revive.kind, FaultKind::kReviveNode);
  EXPECT_EQ(revive.target, 2u);
  EXPECT_EQ(revive.batch_id, 9u);
  EXPECT_EQ(revive.point, FaultPoint::kBatchStart);  // default stage
}

TEST(FaultScheduleParseTest, DelayAndFail) {
  auto options = ParseFaultSchedule("delay:3@2:15000;fail:1@4:2;fail:6@4");
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  ASSERT_EQ(options->schedule.size(), 3u);
  EXPECT_EQ(options->schedule[0].kind, FaultKind::kDelayTask);
  EXPECT_EQ(options->schedule[0].target, 3u);
  EXPECT_EQ(options->schedule[0].batch_id, 2u);
  EXPECT_EQ(options->schedule[0].delay, 15000);
  EXPECT_EQ(options->schedule[1].kind, FaultKind::kFailTask);
  EXPECT_EQ(options->schedule[1].times, 2u);
  EXPECT_EQ(options->schedule[2].times, 1u);  // default failure count
}

TEST(FaultScheduleParseTest, RandomMode) {
  auto options =
      ParseFaultSchedule("random:p=0.25,seed=7,max_kills=2,revive_after=3");
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_TRUE(options->random.enabled);
  EXPECT_DOUBLE_EQ(options->random.kill_prob, 0.25);
  EXPECT_EQ(options->random.seed, 7u);
  EXPECT_EQ(options->random.max_kills, 2u);
  EXPECT_EQ(options->random.revive_after, 3u);
}

TEST(FaultScheduleParseTest, RejectsMalformedSpecs) {
  EXPECT_TRUE(ParseFaultSchedule("").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("kill:2").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("kill:x@5").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("kill:2@5.shuffle").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("explode:2@5").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("delay:3@2").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("random:p=1.5").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("random:frequency=1").status().IsInvalid());
}

// Each value fits the text but not its field: a sign wrapped by the parse,
// a count truncated by the cast, or a NaN that passes a range test written
// with two comparisons.
TEST(FaultScheduleParseTest, RejectsValuesThatDoNotFitTheirField) {
  for (const char* spec :
       {"kill:4294967298@1", "kill:-1@1", "fail:1@1:4294967296",
        "random:p=0.5,max_kills=4294967296", "delay:1@1:-5000000",
        "random:p=nan", "random:p=0.5,revive_after=4294967296",
        "delay:1@1:9223372036854775808", "kill:+1@1", "kill: 1@1",
        "crash:18446744073709551616"}) {
    EXPECT_TRUE(ParseFaultSchedule(spec).status().IsInvalid()) << spec;
  }
  // The largest value of each field still parses, unchanged.
  auto edge = ParseFaultSchedule(
      "kill:4294967295@18446744073709551615;delay:1@1:9223372036854775807;"
      "fail:2@3:4294967295;random:p=1,max_kills=4294967295");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->schedule[0].target, UINT32_MAX);
  EXPECT_EQ(edge->schedule[0].batch_id, UINT64_MAX);
  EXPECT_EQ(edge->schedule[1].delay, INT64_MAX);
  EXPECT_EQ(edge->schedule[2].times, UINT32_MAX);
  EXPECT_EQ(edge->random.max_kills, UINT32_MAX);
}

bool SameSchedule(const FaultOptions& a, const FaultOptions& b) {
  auto event = [](const FaultEvent& e) {
    return std::tie(e.kind, e.target, e.batch_id, e.point, e.delay, e.times);
  };
  auto random = [](const RandomFaultOptions& r) {
    return std::tie(r.enabled, r.kill_prob, r.seed, r.max_kills,
                    r.revive_after);
  };
  if (a.schedule.size() != b.schedule.size()) return false;
  for (size_t i = 0; i < a.schedule.size(); ++i) {
    if (event(a.schedule[i]) != event(b.schedule[i])) return false;
  }
  return random(a.random) == random(b.random);
}

/// One grammar-aware edit of `spec`: drop a character, overwrite one with a
/// grammar character, swap a digit, or splice in a token (boundary numbers,
/// signs, NaN, stage and key names).
std::string MutateSpec(const std::string& spec, Rng* rng) {
  static const std::string kChars = "0123456789:@.;,=-+ ";
  static const std::vector<std::string> kTokens = {
      "4294967295", "4294967296", "18446744073709551615",
      "18446744073709551616", "9223372036854775808", "-1", "nan", "inf",
      "1e-3", "0x1p-2", "0", "7", ".map", ".reduce", ".start", ";kill:1@2",
      ";revive:0@3", ";delay:1@1:5", ";fail:2@2", ";crash:4", ";restart:4",
      ";random:p=0.5", ",seed=9", ",max_kills=3", ",revive_after=2", ";",
      "@", ":"};
  std::string out = spec;
  const size_t at = rng->NextBounded(out.size() + 1);
  switch (rng->NextBounded(4)) {
    case 0:
      if (at < out.size()) out.erase(at, 1);
      break;
    case 1:
      if (at < out.size()) out[at] = kChars[rng->NextBounded(kChars.size())];
      break;
    case 2:
      if (at < out.size() && std::isdigit(static_cast<unsigned char>(out[at]))) {
        out[at] = static_cast<char>('0' + rng->NextBounded(10));
      }
      break;
    default:
      out.insert(at, kTokens[rng->NextBounded(kTokens.size())]);
      break;
  }
  return out;
}

// Every input gets a Status, and every accepted spec survives the manifest's
// round trip: Parse(Format(Parse(s))) == Parse(s).
TEST(FaultScheduleParseTest, MutatedSpecsRoundTripOrAreInvalid) {
  const std::vector<std::string> seeds = {
      "kill:2@5.map;revive:2@9", "delay:3@2:15000;fail:1@4:2;fail:6@4",
      "random:p=0.25,seed=7,max_kills=2,revive_after=3",
      "crash:6.map;restart:6", "fail:1@2.reduce:3;kill:0@0;delay:4@1.map:9"};
  Rng rng(2027);
  int accepted = 0;
  for (int round = 0; round < 500; ++round) {
    std::string spec = seeds[rng.NextBounded(seeds.size())];
    const uint64_t edits = 1 + rng.NextBounded(2);
    for (uint64_t i = 0; i < edits; ++i) spec = MutateSpec(spec, &rng);
    auto parsed = ParseFaultSchedule(spec);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalid())
          << spec << ": " << parsed.status().ToString();
      continue;
    }
    ++accepted;
    const std::string formatted = FormatFaultSchedule(*parsed);
    auto reparsed = ParseFaultSchedule(formatted);
    ASSERT_TRUE(reparsed.ok())
        << spec << " -> " << formatted << ": " << reparsed.status().ToString();
    EXPECT_TRUE(SameSchedule(*reparsed, *parsed)) << spec << " -> " << formatted;
  }
  // The round trip is checked on a real share of the corpus.
  EXPECT_GT(accepted, 50);
}

TEST(FaultInjectorTest, ScheduledEventsFireExactlyAtTheirPoint) {
  auto options = ParseFaultSchedule("kill:2@5.map;revive:2@9");
  ASSERT_TRUE(options.ok());
  FaultInjector injector(*options);

  // Nothing before the scheduled batch, and nothing at other stages.
  for (uint64_t batch = 0; batch < 5; ++batch) {
    for (FaultPoint point : {FaultPoint::kBatchStart, FaultPoint::kMapStage,
                             FaultPoint::kReduceStage}) {
      EXPECT_TRUE(injector.Poll(batch, point, FourNodes()).empty());
    }
  }
  EXPECT_TRUE(injector.Poll(5, FaultPoint::kBatchStart, FourNodes()).empty());

  auto fired = injector.Poll(5, FaultPoint::kMapStage, FourNodes());
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, FaultKind::kKillNode);
  EXPECT_EQ(fired[0].target, 2u);

  auto revive = injector.Poll(9, FaultPoint::kBatchStart, {0, 1, 3});
  ASSERT_EQ(revive.size(), 1u);
  EXPECT_EQ(revive[0].kind, FaultKind::kReviveNode);
  EXPECT_EQ(revive[0].target, 2u);
}

TEST(FaultInjectorTest, TaskFaultsAccumulatePerBatch) {
  auto options = ParseFaultSchedule("delay:3@2:15000;delay:3@2:5000;fail:1@2:2");
  ASSERT_TRUE(options.ok());
  FaultInjector injector(*options);

  TaskPerturbations p = injector.TaskFaults(2);
  ASSERT_EQ(p.delays.size(), 1u);
  EXPECT_EQ(p.delays.at(3), 20000);  // repeated delays add up
  ASSERT_EQ(p.failures.size(), 1u);
  EXPECT_EQ(p.failures.at(1), 2u);
  EXPECT_TRUE(injector.TaskFaults(3).empty());
}

TEST(FaultInjectorTest, RandomModeIsReproducibleForAFixedSeed) {
  auto options = ParseFaultSchedule("random:p=0.3,seed=11,max_kills=2");
  ASSERT_TRUE(options.ok());

  auto run = [&]() {
    FaultInjector injector(*options);
    std::vector<std::pair<uint64_t, uint32_t>> kills;
    std::vector<uint32_t> alive = FourNodes();
    for (uint64_t batch = 0; batch < 50; ++batch) {
      for (const FaultEvent& e :
           injector.Poll(batch, FaultPoint::kMapStage, alive)) {
        if (e.kind == FaultKind::kKillNode) {
          kills.emplace_back(batch, e.target);
          alive.erase(std::find(alive.begin(), alive.end(), e.target));
        }
      }
    }
    return kills;
  };

  const auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_LE(first.size(), 2u);  // max_kills bound holds
}

TEST(FaultInjectorTest, RandomModeSchedulesRevives) {
  FaultOptions options;
  options.random.enabled = true;
  options.random.kill_prob = 1.0;  // kill at the first map-stage poll
  options.random.max_kills = 1;
  options.random.revive_after = 2;
  FaultInjector injector(options);

  auto kills = injector.Poll(0, FaultPoint::kMapStage, FourNodes());
  ASSERT_EQ(kills.size(), 1u);
  const uint32_t victim = kills[0].target;

  EXPECT_TRUE(injector.Poll(1, FaultPoint::kBatchStart, FourNodes()).empty());
  auto revives = injector.Poll(2, FaultPoint::kBatchStart, FourNodes());
  ASSERT_EQ(revives.size(), 1u);
  EXPECT_EQ(revives[0].kind, FaultKind::kReviveNode);
  EXPECT_EQ(revives[0].target, victim);
  // The revive fires once, not again on later polls.
  EXPECT_TRUE(injector.Poll(2, FaultPoint::kBatchStart, FourNodes()).empty());
}

TEST(FaultScheduleParseTest, CrashAndRestart) {
  auto options = ParseFaultSchedule("crash:6.map;restart:6");
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  ASSERT_EQ(options->schedule.size(), 2u);
  EXPECT_EQ(options->schedule[0].kind, FaultKind::kCrash);
  EXPECT_EQ(options->schedule[0].batch_id, 6u);
  EXPECT_EQ(options->schedule[0].point, FaultPoint::kMapStage);
  EXPECT_EQ(options->schedule[1].kind, FaultKind::kRestart);
  EXPECT_EQ(options->schedule[1].batch_id, 6u);
  EXPECT_EQ(options->schedule[1].point, FaultPoint::kBatchStart);

  // Default stage is the batch boundary, like every other event.
  auto boundary = ParseFaultSchedule("crash:3");
  ASSERT_TRUE(boundary.ok());
  EXPECT_EQ(boundary->schedule[0].point, FaultPoint::kBatchStart);
}

TEST(FaultScheduleParseTest, RejectsMalformedCrashSpecs) {
  // Crash kills the whole process; a node id makes no sense.
  EXPECT_TRUE(ParseFaultSchedule("crash:2@5").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("crash:x").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("crash:5.shuffle").status().IsInvalid());
  // Restart is a batch-boundary marker; it cannot take a stage.
  EXPECT_TRUE(ParseFaultSchedule("restart:5.map").status().IsInvalid());
  EXPECT_TRUE(ParseFaultSchedule("restart:").status().IsInvalid());
}

TEST(FaultInjectorTest, CrashFiresAtItsStageAndRestartOnlyAtBatchStart) {
  auto options = ParseFaultSchedule("crash:4.reduce;restart:4");
  ASSERT_TRUE(options.ok());
  FaultInjector injector(*options);

  // The restart marker must never leak into mid-stage polls.
  auto start = injector.Poll(4, FaultPoint::kBatchStart, FourNodes());
  ASSERT_EQ(start.size(), 1u);
  EXPECT_EQ(start[0].kind, FaultKind::kRestart);

  EXPECT_TRUE(injector.Poll(4, FaultPoint::kMapStage, FourNodes()).empty());
  auto reduce = injector.Poll(4, FaultPoint::kReduceStage, FourNodes());
  ASSERT_EQ(reduce.size(), 1u);
  EXPECT_EQ(reduce[0].kind, FaultKind::kCrash);
}

}  // namespace
}  // namespace prompt
