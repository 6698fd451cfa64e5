#include "fault/fault_injector.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>

namespace prompt {

namespace {

/// Parses a decimal integer in [0, max]: digits only, so a sign or a blank
/// is an error, and a value past `max` is refused rather than truncated into
/// the field it fills.
Result<uint64_t> ParseUint(const std::string& text, const char* what,
                           uint64_t max = UINT64_MAX) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) {
    return Status::Invalid(std::string("fault schedule: bad ") + what + " '" +
                           text + "' (want an integer in [0, " +
                           std::to_string(max) + "])");
  }
  return v;
}

Result<double> ParseProb(const std::string& text) {
  try {
    size_t pos = 0;
    const double v = std::stod(text, &pos);
    // Written so that NaN fails too: it compares false both ways.
    if (pos != text.size() || !(v >= 0.0 && v <= 1.0)) {
      return Status::Invalid("fault schedule: probability must be in [0,1], "
                             "got '" + text + "'");
    }
    return v;
  } catch (...) {
    return Status::Invalid("fault schedule: bad probability '" + text + "'");
  }
}

Result<FaultPoint> ParseStage(const std::string& text) {
  if (text == "start") return FaultPoint::kBatchStart;
  if (text == "map") return FaultPoint::kMapStage;
  if (text == "reduce") return FaultPoint::kReduceStage;
  return Status::Invalid("fault schedule: unknown stage '" + text +
                         "' (want start|map|reduce)");
}

/// Parses "<id>@<batch>[.<stage>]" into target/batch_id/point.
Status ParseTargetAt(const std::string& text, FaultEvent* event) {
  const size_t at = text.find('@');
  if (at == std::string::npos) {
    return Status::Invalid("fault schedule: expected <id>@<batch> in '" +
                           text + "'");
  }
  PROMPT_ASSIGN_OR_RETURN(
      uint64_t target, ParseUint(text.substr(0, at), "target id", UINT32_MAX));
  std::string rest = text.substr(at + 1);
  const size_t dot = rest.find('.');
  if (dot != std::string::npos) {
    PROMPT_ASSIGN_OR_RETURN(event->point, ParseStage(rest.substr(dot + 1)));
    rest = rest.substr(0, dot);
  }
  PROMPT_ASSIGN_OR_RETURN(uint64_t batch, ParseUint(rest, "batch id"));
  event->target = static_cast<uint32_t>(target);
  event->batch_id = batch;
  return Status::OK();
}

Status ParseRandomParams(const std::string& body, RandomFaultOptions* random) {
  random->enabled = true;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string kv = body.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("fault schedule: random expects key=value, got '" +
                             kv + "'");
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    if (key == "p") {
      PROMPT_ASSIGN_OR_RETURN(random->kill_prob, ParseProb(value));
    } else if (key == "seed") {
      PROMPT_ASSIGN_OR_RETURN(random->seed, ParseUint(value, "seed"));
    } else if (key == "max_kills") {
      PROMPT_ASSIGN_OR_RETURN(uint64_t n,
                              ParseUint(value, "max_kills", UINT32_MAX));
      random->max_kills = static_cast<uint32_t>(n);
    } else if (key == "revive_after") {
      PROMPT_ASSIGN_OR_RETURN(uint64_t n,
                              ParseUint(value, "revive_after", UINT32_MAX));
      random->revive_after = static_cast<uint32_t>(n);
    } else {
      return Status::Invalid("fault schedule: unknown random param '" + key +
                             "'");
    }
  }
  return Status::OK();
}

}  // namespace

Result<FaultOptions> ParseFaultSchedule(const std::string& spec) {
  FaultOptions options;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string item = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (item.empty()) continue;

    const size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return Status::Invalid("fault schedule: expected <kind>:... in '" +
                             item + "'");
    }
    const std::string kind = item.substr(0, colon);
    const std::string body = item.substr(colon + 1);

    if (kind == "random") {
      PROMPT_RETURN_NOT_OK(ParseRandomParams(body, &options.random));
      continue;
    }

    FaultEvent event;
    if (kind == "crash" || kind == "restart") {
      // No node id: the target is the whole process.
      event.kind = kind == "crash" ? FaultKind::kCrash : FaultKind::kRestart;
      std::string rest = body;
      const size_t dot = rest.find('.');
      if (dot != std::string::npos) {
        if (kind == "restart") {
          return Status::Invalid(
              "fault schedule: restart takes restart:<batch> (no stage)");
        }
        PROMPT_ASSIGN_OR_RETURN(event.point, ParseStage(rest.substr(dot + 1)));
        rest = rest.substr(0, dot);
      }
      PROMPT_ASSIGN_OR_RETURN(event.batch_id, ParseUint(rest, "batch id"));
      options.schedule.push_back(event);
      continue;
    }
    if (kind == "kill") {
      event.kind = FaultKind::kKillNode;
      PROMPT_RETURN_NOT_OK(ParseTargetAt(body, &event));
    } else if (kind == "revive") {
      event.kind = FaultKind::kReviveNode;
      PROMPT_RETURN_NOT_OK(ParseTargetAt(body, &event));
    } else if (kind == "delay") {
      event.kind = FaultKind::kDelayTask;
      const size_t amount = body.rfind(':');
      if (amount == std::string::npos) {
        return Status::Invalid(
            "fault schedule: delay expects delay:<task>@<batch>:<micros>");
      }
      PROMPT_RETURN_NOT_OK(ParseTargetAt(body.substr(0, amount), &event));
      PROMPT_ASSIGN_OR_RETURN(
          uint64_t micros,
          ParseUint(body.substr(amount + 1), "delay", INT64_MAX));
      event.delay = static_cast<TimeMicros>(micros);
    } else if (kind == "fail") {
      event.kind = FaultKind::kFailTask;
      std::string head = body;
      const size_t times = body.rfind(':');
      if (times != std::string::npos) {
        PROMPT_ASSIGN_OR_RETURN(
            uint64_t n, ParseUint(body.substr(times + 1), "times", UINT32_MAX));
        event.times = static_cast<uint32_t>(n);
        head = body.substr(0, times);
      }
      PROMPT_RETURN_NOT_OK(ParseTargetAt(head, &event));
    } else {
      return Status::Invalid("fault schedule: unknown event kind '" + kind +
                             "' (want kill|revive|delay|fail|random)");
    }
    options.schedule.push_back(event);
  }
  if (!options.enabled()) {
    return Status::Invalid("fault schedule: empty spec");
  }
  return options;
}

std::string FormatFaultSchedule(const FaultOptions& options) {
  if (!options.enabled()) return "";
  auto stage_suffix = [](FaultPoint point) -> const char* {
    switch (point) {
      case FaultPoint::kMapStage:
        return ".map";
      case FaultPoint::kReduceStage:
        return ".reduce";
      case FaultPoint::kBatchStart:
        break;
    }
    return "";  // `start` is the grammar's default
  };
  std::string spec;
  auto add = [&spec](const std::string& item) {
    if (!spec.empty()) spec += ';';
    spec += item;
  };
  for (const FaultEvent& e : options.schedule) {
    const std::string batch = std::to_string(e.batch_id);
    const std::string target = std::to_string(e.target);
    switch (e.kind) {
      case FaultKind::kCrash:
        add("crash:" + batch + stage_suffix(e.point));
        break;
      case FaultKind::kRestart:
        add("restart:" + batch);
        break;
      case FaultKind::kKillNode:
        add("kill:" + target + "@" + batch + stage_suffix(e.point));
        break;
      case FaultKind::kReviveNode:
        add("revive:" + target + "@" + batch + stage_suffix(e.point));
        break;
      case FaultKind::kDelayTask:
        add("delay:" + target + "@" + batch + stage_suffix(e.point) + ":" +
            std::to_string(e.delay));
        break;
      case FaultKind::kFailTask: {
        std::string item =
            "fail:" + target + "@" + batch + stage_suffix(e.point);
        if (e.times != 1) item += ":" + std::to_string(e.times);
        add(item);
        break;
      }
    }
  }
  if (options.random.enabled) {
    char prob[64];
    std::snprintf(prob, sizeof(prob), "%.17g", options.random.kill_prob);
    add("random:p=" + std::string(prob) +
        ",seed=" + std::to_string(options.random.seed) +
        ",max_kills=" + std::to_string(options.random.max_kills) +
        ",revive_after=" + std::to_string(options.random.revive_after));
  }
  return spec;
}

FaultInjector::FaultInjector(FaultOptions options)
    : options_(std::move(options)), rng_(options_.random.seed) {}

std::vector<FaultEvent> FaultInjector::Poll(
    uint64_t batch_id, FaultPoint point,
    const std::vector<uint32_t>& alive_nodes) {
  std::vector<FaultEvent> fired;
  for (const FaultEvent& e : options_.schedule) {
    if (e.batch_id != batch_id || e.point != point) continue;
    if (e.kind == FaultKind::kDelayTask || e.kind == FaultKind::kFailTask) {
      continue;  // task perturbations flow through TaskFaults()
    }
    if (e.kind == FaultKind::kRestart && point != FaultPoint::kBatchStart) {
      continue;  // restart markers fire once, at the batch boundary
    }
    fired.push_back(e);
  }

  if (options_.random.enabled) {
    // Randomly-killed nodes come back `revive_after` batches later.
    if (point == FaultPoint::kBatchStart) {
      auto [begin, end] = pending_revives_.equal_range(batch_id);
      for (auto it = begin; it != end; ++it) {
        FaultEvent revive;
        revive.kind = FaultKind::kReviveNode;
        revive.target = it->second;
        revive.batch_id = batch_id;
        fired.push_back(revive);
      }
      pending_revives_.erase(begin, end);
    }
    // One seeded Bernoulli draw per map stage keeps the kill sequence a pure
    // function of the seed regardless of how many nodes are alive.
    if (point == FaultPoint::kMapStage &&
        random_kills_ < options_.random.max_kills &&
        rng_.NextBool(options_.random.kill_prob) && !alive_nodes.empty()) {
      FaultEvent kill;
      kill.kind = FaultKind::kKillNode;
      kill.target = alive_nodes[rng_.NextBounded(alive_nodes.size())];
      kill.batch_id = batch_id;
      kill.point = point;
      fired.push_back(kill);
      ++random_kills_;
      if (options_.random.revive_after > 0) {
        pending_revives_.emplace(batch_id + options_.random.revive_after,
                                 kill.target);
      }
    }
  }
  return fired;
}

TaskPerturbations FaultInjector::TaskFaults(uint64_t batch_id) const {
  TaskPerturbations p;
  for (const FaultEvent& e : options_.schedule) {
    if (e.batch_id != batch_id) continue;
    if (e.kind == FaultKind::kDelayTask) {
      p.delays[e.target] += e.delay;
    } else if (e.kind == FaultKind::kFailTask) {
      p.failures[e.target] += e.times;
    }
  }
  return p;
}

}  // namespace prompt
