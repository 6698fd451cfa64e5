// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around calls into each engine layer, kept in memory,
// and written out as JSON once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< static string: the layer, e.g. "core.seal"
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index of the enclosing span, -1 for a root
  uint64_t batch;  ///< batch id the work belongs to
};

/// \brief Records nested spans on one thread.
class Tracer {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(const char* name, uint64_t batch);
  /// Closes span `index`, which must be the innermost open one.
  void End(int32_t index);

  /// Records an already-measured interval as a child of the innermost open
  /// span (e.g. a duration a layer measured itself).
  void AddChild(const char* name, int64_t start_ns, int64_t end_ns,
                uint64_t batch);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"spans":[{name,start_ns,end_ns,parent,batch},...]} to `path`.
  bool WriteJson(const std::string& path) const;

  /// \brief RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t batch)
        : tracer_(tracer), index_(tracer->Begin(name, batch)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it. Same indexing as `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench
