// The adaptive accuracy scheduler (opt-in via EngineOptions::adaptive).
//
// Three levers, all driven by one learned cost model over the plan
// cache's per-shape ShapeProfile history:
//
//  1. Cost prediction. A shape with recorded executions predicts its
//     cost from the observed mean (deterministic estimator probes for
//     accuracy decisions, wall-clock millis for scheduling decisions);
//     a cold shape falls back to the planner's static cost estimate.
//  2. Marginal-cost budget splitting. The even eps/(2k) split of
//     SplitBudget is the equal-weight special case of: allocate
//     eps_i = floor_i + (eps/2 - sum floors) * w_i / sum_j w_j with
//     w_i = cbrt(predicted cost_i). Minimising total sampling work
//     sum c_i / eps_i^2 subject to sum eps_i = eps/2 gives exactly
//     eps_i proportional to c_i^{1/3} (Lagrange), i.e. expensive
//     components get a LOOSER target and cheap ones a tighter one. Any
//     allocation with sum eps_i = eps/2 preserves the product-error
//     guarantee — prod(1+eps_i) <= e^{eps/2} <= 1+eps and
//     prod(1-eps_i) >= 1 - eps/2 >= 1-eps for eps in (0, 1] — so the
//     reweighting is free. The delta/n union bound is unchanged.
//  3. Work gating. In automatic lane mode, estimated components' lane
//     grants use observed wall time instead of the static kMinFanoutCost
//     gate once a shape has history (exact components always read their
//     plan's join nodes), and the colour-coding trial budget is sized
//     against the PREDICTED oracle-call count (times kTrialsSafetyFactor)
//     rather than the 20M-call worst-case cap, shrinking the
//     log(1/per-call-failure) trial factor.
//
// The non-adaptive engine uses the same two entry points: SplitBudgets
// without weights returns SplitBudget's even shares bit for bit, and in
// automatic lane mode PlanLanes with a ColdPrediction is the static
// kMinFanoutCost gate.
//
// Determinism contract: every accuracy-relevant output (budget shares,
// trial budgets, early-stop arming) is a pure function of deterministic,
// lane-count-independent inputs (plan cost estimates and the profile's
// estimator-call and oracle-call counters). Wall-clock readings only
// ever influence lane counts, which are scheduling-only. Fixed-seed
// adaptive runs are therefore reproducible at any lane count; they do
// depend on the plan cache's observation history (a warm shape schedules
// less work than a cold one), which is itself deterministic for a fixed
// request sequence.
#ifndef CQCOUNT_ENGINE_SCHEDULER_H_
#define CQCOUNT_ENGINE_SCHEDULER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compile/compiled_query.h"
#include "engine/plan.h"
#include "obs/profile.h"
#include "util/estimate_outcome.h"

namespace cqcount {

/// Floor on the adaptive per-call failure probability's inverse: the
/// per-call failure is capped at this value so trial counts never
/// collapse entirely (ceil(ln 1/1e-3) ~ 7 trials minimum).
inline constexpr double kMaxPerCallFailure = 1e-3;
/// Observed mean execution time that justifies intra-query lanes in
/// automatic mode with EngineOptions::adaptive (replaces the static
/// kMinFanoutCost gate on warm shapes): fan-out setup costs ~sub-ms, so
/// only estimates observed to run at least this long get workers.
inline constexpr double kMinFanoutMillis = 5.0;
/// Planned cost (QueryPlan::cost_estimate, an estimator's coarse
/// n^(width+1) figure) at which an estimated component gets lanes in
/// automatic mode: every estimated component of the non-adaptive engine,
/// a cold shape of the adaptive one. Sized so fan-out setup (per-lane
/// oracle forks and solver contexts, ~sub-ms) is paid only on counts that
/// run long enough to amortise it; millisecond estimates stay inline.
/// Exact components have their own gate, kMinExactFanoutNodes.
inline constexpr double kMinFanoutCost = 1e8;
/// Join nodes (an exact plan's QueryPlan::cost_estimate, measured by the
/// planner's probe) at which an exact component with a free variable gets
/// lanes in automatic mode, adaptive or not: its count then runs as
/// kJoinWindows windows of the first search variable's values
/// (CountAnswersJoin), not as one descent. The fastest measured node
/// costs about 50 ns, so 10^4 nodes is about 0.5 ms, where fan-out stops
/// dominating. A force_exact component whose plan is not exact is past
/// the gate: its probe stopped at the cap or did not run.
inline constexpr double kMinExactFanoutNodes = 1e4;

/// Observed executions a shape needs before predictions switch from the
/// planner's static estimate to the profile history.
inline constexpr uint64_t kMinProfileRuns = 2;
/// The colour-coding per-call failure budget is delta / (2 * factor *
/// predicted calls): the union bound stays intact as long as the
/// execution issues at most `factor` times the predicted call count.
inline constexpr double kTrialsSafetyFactor = 8.0;
/// Every counting component keeps at least this fraction of its even
/// share: eps_i >= fraction * (eps/2)/k. Guards against one hugely
/// expensive component starving the rest to useless targets.
inline constexpr double kEpsFloorFraction = 0.25;

/// Where a cost prediction came from.
enum class CostSource : uint8_t { kPlanEstimate, kObservedProfile };

inline const char* CostSourceName(CostSource source) {
  switch (source) {
    case CostSource::kPlanEstimate: return "plan_estimate";
    case CostSource::kObservedProfile: return "observed_profile";
  }
  return "plan_estimate";
}

/// Predicted cost of executing one component once.
struct CostPrediction {
  /// Deterministic work scale: observed mean estimator probes per
  /// execution, or the planner's cost estimate for cold shapes. Drives
  /// the accuracy-relevant decisions (budget weights).
  double cost_units = 0.0;
  /// Predicted estimator oracle calls per execution (0 = unknown; only
  /// observed profiles provide it). Drives trial budgeting.
  double oracle_calls = 0.0;
  /// Predicted wall-clock cost (0 = unknown). Scheduling-only: drives
  /// lane grants, never accuracy.
  double millis = 0.0;
  CostSource source = CostSource::kPlanEstimate;
};

/// One component's scheduling input (parallel to the compiled
/// components).
struct SchedulerComponent {
  /// False for exact factors: they consume no accuracy budget.
  bool estimated = false;
  bool existential = false;
  CostPrediction cost;
};

// Cost-model-driven scheduling decisions: pure functions of their
// arguments, safe to call from concurrent batch workers.

/// Predicts the per-execution cost of `plan`'s component from the shape's
/// observed history (when it has at least kMinProfileRuns recorded
/// executions) or, like ColdPrediction, the planner's static estimate.
/// Counts the prediction in the scheduler.* metrics.
CostPrediction PredictCost(const QueryPlan& plan,
                           const std::optional<obs::ShapeProfile>& observed);

/// The prediction for a shape without history: the planner's static cost
/// estimate. The non-adaptive engine schedules every component from it.
CostPrediction ColdPrediction(const QueryPlan& plan);

/// (epsilon, delta) allocation across components. Exact factors get a
/// zero share; every estimated factor gets SplitBudget's share: the
/// delta/n union bound, the fixed loose epsilon for existential factors,
/// the full epsilon for a single counting factor and eps/(2k) for k > 1.
/// `weighted` (the adaptive scheduler) instead splits the counting
/// factors' eps/2 in proportion to cbrt(cost_units) above a floor, which
/// preserves the product guarantee (see the header comment).
std::vector<BudgetShare> SplitBudgets(
    double epsilon, double delta,
    const std::vector<SchedulerComponent>& components, bool weighted);

/// Lanes to grant one component that runs `strategy` under `plan`. An
/// exact component without a free variable gets 1: its count stops at the
/// first solution. Otherwise an explicit request (`requested_lanes` != 0)
/// gets clamp(requested_lanes, 1, pool_lanes). Automatic mode (0) grants
/// `pool_lanes` when the component is predicted to run long enough: an
/// exact one when its plan's join nodes reach kMinExactFanoutNodes; an
/// estimated one when its shape's observed mean wall time clears
/// kMinFanoutMillis, or, without history, its planned cost clears
/// kMinFanoutCost; otherwise 1. `reason` (may be null) receives why for
/// an exact component, as explain prints it: "no free variable",
/// "requested", "exact probe stopped at the cap" or "exact join of 57,835
/// nodes >= 10,000"; it is left alone for an estimated one.
int PlanLanes(Strategy strategy, const QueryPlan& plan,
              const CostPrediction& cost, int requested_lanes,
              int pool_lanes, std::string* reason = nullptr);

/// Adaptive colour-coding per-call failure budget: delta / (2 * safety *
/// predicted calls), capped at kMaxPerCallFailure. Returns 0 (keep the
/// module's worst-case default) when the prediction has no observed call
/// count.
double PerCallFailure(double delta, const CostPrediction& cost);

/// Feeds the scheduler.* outcome metrics after one adaptive component
/// execution (early stops, runs saved). Called by the engine, once per
/// executed component; cheap enough to sit off the hot path.
void RecordAdaptiveOutcome(StopReason stop_reason, int completed_runs,
                           int total_runs);

}  // namespace cqcount

#endif  // CQCOUNT_ENGINE_SCHEDULER_H_
