// The input and result contracts shared by every estimator in the stack.
//
// Inputs: ExecContext, ApproxOptions, DlmOptions and AcjrOptions derive
// from EstimateInputs — the (epsilon, delta) target, the seed, the worker
// pool and lane count, and the governor. Each layer hands them down with
// one base-class assignment and adds only its own tuning.
//
// Results: DlmResult, ApproxCountResult, FprasResult, AcjrResult, the
// engine's ExecOutcome and ComponentResult all derive from
// EstimateOutcome: the estimate, how it was reached (exact / converged /
// partial interval / stop reason), the outer-median run tally and the
// lane statistics. Each layer hands the record up with one base-class
// assignment and adds only its own counters, so a new field here reaches
// `count --json` without touching the layers in between.
#ifndef CQCOUNT_UTIL_ESTIMATE_OUTCOME_H_
#define CQCOUNT_UTIL_ESTIMATE_OUTCOME_H_

#include <cstdint>

#include "util/status.h"

namespace cqcount {

class Executor;
class ResourceGovernor;

/// True when `v` lies strictly inside (0, 1). Written as the positive
/// range test, so NaN fails it.
inline bool InOpenUnitInterval(double v) { return v > 0.0 && v < 1.0; }

/// What every estimate takes: the accuracy target, the randomness, and
/// how the work may run.
struct EstimateInputs {
  /// Target relative error of the (epsilon, delta) guarantee.
  double epsilon = 0.1;
  /// Target failure probability.
  double delta = 0.1;
  /// Seed controlling all randomness of the estimate.
  uint64_t seed = 0xC0FFEEULL;
  /// Worker pool for intra-estimate parallelism (not owned; null =
  /// inline) and the lanes the estimate may partition across (<= 1 =
  /// inline). Purely scheduling: fixed-seed estimates are bit-identical
  /// at every (pool, intra_threads) configuration (README "Parallel
  /// estimation & determinism model").
  Executor* pool = nullptr;
  int intra_threads = 1;
  /// Cooperative governance (not owned; null = ungoverned), polled at
  /// deterministic boundaries only. On expiry or cancellation an
  /// estimator returns its anytime partial answer, or the governor's
  /// typed CANCELLED/DEADLINE_EXCEEDED status when it has none.
  const ResourceGovernor* governor = nullptr;

  /// INVALID_ARGUMENT unless epsilon and delta both lie in (0, 1).
  Status ValidateAccuracy() const {
    if (!InOpenUnitInterval(epsilon) || !InOpenUnitInterval(delta)) {
      return Status::InvalidArgument("epsilon and delta must lie in (0, 1)");
    }
    return Status::Ok();
  }
};

/// Why an estimator stopped scheduling work. kNone covers computations
/// without a run/round schedule (exact results, trivial instances); every
/// sampling result carries a typed reason, so callers (and `count --json`
/// consumers) can distinguish "ran the full worst-case schedule" from the
/// adaptive scheduler's early termination and from resource stops.
enum class StopReason : uint8_t {
  kNone = 0,
  /// Every scheduled run executed (the non-adaptive default).
  kFullSchedule,
  /// CLT early stop: the empirical confidence interval over completed
  /// counter-seeded runs met the requested (epsilon, delta) target.
  kConfidence,
  /// Order-statistic early stop: the hard median bounds over completed
  /// runs pinched within epsilon, so the remaining runs cannot move the
  /// answer outside the target interval.
  kHardBounds,
  /// The oracle-call cap fired before the target interval (converged is
  /// false).
  kBudgetExhausted,
  /// Cooperative cancellation interrupted the schedule (partial result).
  kCancelled,
  /// The wall-clock deadline expired mid-schedule (partial result).
  kDeadlineExpired,
};

/// Stable lowercase name, the `stop_reason` enum of the JSON surfaces.
inline const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kFullSchedule: return "full_schedule";
    case StopReason::kConfidence: return "confidence";
    case StopReason::kHardBounds: return "hard_bounds";
    case StopReason::kBudgetExhausted: return "budget_exhausted";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadlineExpired: return "deadline_expired";
  }
  return "none";
}

/// Intra-query parallelism observability (informational: the numbers
/// describe scheduling, never the estimate).
struct ParallelStats {
  /// Lanes the estimate was partitioned across (1 = inline execution).
  int lanes = 1;
  /// Parallel task units spawned (index-space partitions).
  uint64_t tasks = 0;
  /// Task units executed by pool workers (the rest ran on the calling
  /// thread, including help-drained nested work).
  uint64_t worker_tasks = 0;

  void Merge(const ParallelStats& other) {
    if (other.lanes > lanes) lanes = other.lanes;
    tasks += other.tasks;
    worker_tasks += other.worker_tasks;
  }
};

/// What every estimate reports: the value and how it was reached.
struct EstimateOutcome {
  /// The (epsilon, delta)-estimate (exact value when `exact`).
  double estimate = 0.0;
  /// True when the computation involved no sampling error (exact phase
  /// completed, or the instance was trivially resolved).
  bool exact = false;
  /// False when a sampling cap was hit before the target interval.
  bool converged = true;
  /// True when a deadline/cancellation interrupted the computation and
  /// the estimate is an ANYTIME answer assembled from the work units
  /// completed before the checkpoint fired. The (epsilon, delta)
  /// guarantee does not apply; [lower_bound, upper_bound] brackets what
  /// the uninterrupted computation would have returned for the same seed
  /// (order-statistic bounds on the outer median, see dlm_counter.cc).
  bool partial = false;
  /// Anytime-answer interval. Meaningful only when `partial`; complete
  /// results carry [estimate, estimate].
  double lower_bound = 0.0;
  double upper_bound = 0.0;
  /// Why the estimator stopped scheduling work (kNone for computations
  /// without a run schedule).
  StopReason stop_reason = StopReason::kNone;
  /// Adaptive refinement rounds executed, summed over the runs that fed
  /// the result (0 for exact resolutions).
  int rounds_executed = 0;
  /// Outer-median runs that ran to completion / that were scheduled.
  /// Differ only on partial results (interrupted runs are discarded; the
  /// anytime interval brackets the full median over all scheduled runs).
  /// 0/0 for computations without run structure.
  int completed_runs = 0;
  int total_runs = 0;
  /// Intra-query parallelism observability (lanes, tasks spawned, tasks
  /// run by pool workers).
  ParallelStats parallel;
};

}  // namespace cqcount

#endif  // CQCOUNT_UTIL_ESTIMATE_OUTCOME_H_
