// Execution profiles (the "P" of the telemetry layer).
//
// A QueryProfile holds the phase durations of one Count()/CountBatch-item
// execution. It rides on EngineResult, whose ToJson() derives the rest of
// the `"profile"` object (plan-cache outcomes, oracle work, lane
// utilization, per-component breakdown) from the result's own component
// records. The plan cache accumulates a per-shape ShapeProfile across
// executions — the observed cost/variance substrate the adaptive accuracy
// scheduler consumes.
#ifndef CQCOUNT_OBS_PROFILE_H_
#define CQCOUNT_OBS_PROFILE_H_

#include <cstdint>
#include <string>

namespace cqcount {
namespace obs {

/// Phase durations of one execution (wall-clock milliseconds).
struct QueryProfile {
  double parse_millis = 0.0;
  double compile_millis = 0.0;
  double plan_millis = 0.0;
  double execute_millis = 0.0;
};

/// Observed execution history of one canonical shape, accumulated in the
/// plan cache across runs: the cost/variance signal the adaptive
/// scheduler reads (mean cost = total/runs, variance from sq_total).
struct ShapeProfile {
  uint64_t runs = 0;
  double total_exec_millis = 0.0;
  double sq_exec_millis = 0.0;  // Sum of squared per-run millis.
  double last_exec_millis = 0.0;
  double min_exec_millis = 0.0;
  double max_exec_millis = 0.0;
  uint64_t total_oracle_calls = 0;
  /// Estimator probes (DLM edge-free calls / membership tests), without
  /// the colour-coding hom queries. The scheduler's budget split reads
  /// this counter and trials budgeting reads the oracle-call tally; both
  /// are lane-invariant, so adaptive results stay reproducible at every
  /// lane count. Wall-clock fields drive scheduling-only decisions (lane
  /// grants).
  uint64_t total_estimator_calls = 0;
  uint64_t converged_runs = 0;
  double last_estimate = 0.0;

  void Observe(double exec_millis, uint64_t oracle_calls,
               uint64_t estimator_calls, double estimate, bool converged);
  double MeanExecMillis() const {
    return runs == 0 ? 0.0 : total_exec_millis / static_cast<double>(runs);
  }
  /// Mean deterministic estimator probes per execution (the scheduler's
  /// cost-per-execution signal; 0 before any observation).
  double MeanEstimatorCalls() const {
    return runs == 0 ? 0.0 : static_cast<double>(total_estimator_calls) /
                                 static_cast<double>(runs);
  }
  /// Mean oracle calls per execution — includes the colour-coding hom
  /// queries the estimator-call counter excludes. Lane-invariant and
  /// fixed-seed reproducible, so trials budgeting may read it without
  /// breaking the determinism contract.
  double MeanOracleCalls() const {
    return runs == 0 ? 0.0 : static_cast<double>(total_oracle_calls) /
                                 static_cast<double>(runs);
  }
  /// Population variance of the per-run execution time.
  double VarianceExecMillis() const;
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace cqcount

#endif  // CQCOUNT_OBS_PROFILE_H_
