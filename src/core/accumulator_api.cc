#include "core/accumulator_api.h"

#include "core/flat_accumulator.h"
#include "core/sketch_accumulator.h"

namespace prompt {

const char* KeyModeName(KeyMode mode) {
  switch (mode) {
    case KeyMode::kExact:
      return "exact";
    case KeyMode::kSketch:
      return "sketch";
  }
  return "unknown";
}

bool ParseKeyMode(std::string_view name, KeyMode* out) {
  if (name == "exact") {
    *out = KeyMode::kExact;
    return true;
  }
  if (name == "sketch") {
    *out = KeyMode::kSketch;
    return true;
  }
  return false;
}

std::unique_ptr<Accumulator> MakeAccumulator(KeyMode mode,
                                             AccumulatorOptions options) {
  switch (mode) {
    case KeyMode::kExact:
      return std::make_unique<FlatAccumulator>(options);
    case KeyMode::kSketch:
      return std::make_unique<SketchAccumulator>(options);
  }
  PROMPT_CHECK_MSG(false, "unknown KeyMode");
  return nullptr;
}

}  // namespace prompt
