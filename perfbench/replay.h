// The traced run's instrumentation, kept entirely in the benchmark: an
// in-memory span recorder, and a replay of one request through each
// layer's public entry point with one span per call, so that every
// layer's self time can be read off the spans.
#ifndef CQCOUNT_PERFBENCH_REPLAY_H_
#define CQCOUNT_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "relational/structure.h"
#include "util/status.h"

namespace perfbench {

/// One call into a layer: name, start, end, the span that caused it (-1
/// for a request's root) and the request it belongs to.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// Spans of one thread, kept in memory until written out. A disabled
/// recorder records nothing and reads no clock, which gives the untraced
/// side of the tracing-overhead comparison.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open one; returns its id, or -1
  /// when disabled.
  int Begin(const char* name, uint64_t request);
  void End(int id);

  struct LayerTime {
    uint64_t calls = 0;
    /// Span durations, and durations minus the time child spans cover.
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name, over every recorded span.
  std::map<std::string, LayerTime> Layers() const;

  /// Writes one JSON object per span, one per line.
  cqcount::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t request)
      : recorder_(recorder), id_(recorder.Begin(name, request)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

/// Re-executes `request` against `db` the way CountingEngine::Count does
/// (same seeds, same (epsilon, delta) split, same plan), one span per
/// call: ParseQuery, CompileQuery, CanonicalQueryShape and BuildQueryPlan
/// per component, then the strategy's entry point (ExactCountAnswers-
/// BruteForce, ApproxCountAnswers or FprasCountCq). Returns the estimate.
/// Runs on one lane; estimates do not depend on the lane count.
cqcount::StatusOr<double> ReplayRequest(
    const cqcount::CountRequest& request, const cqcount::Database& db,
    const cqcount::EngineOptions& options, SpanRecorder& recorder,
    uint64_t request_id);

}  // namespace perfbench

#endif  // CQCOUNT_PERFBENCH_REPLAY_H_
