#include "engine/scheduler.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"

namespace cqcount {
namespace {

// Scheduler decision metrics, fed once per adaptive count / component —
// never inside sampling loops.
struct SchedulerMetrics {
  obs::Counter& profile_predictions = obs::MetricRegistry::Global().GetCounter(
      "scheduler.profile_predictions",
      "Cost predictions served from observed ShapeProfile history");
  obs::Counter& plan_predictions = obs::MetricRegistry::Global().GetCounter(
      "scheduler.plan_predictions",
      "Cost predictions that fell back to the planner's static estimate "
      "(cold shape)");
  obs::Counter& budget_splits = obs::MetricRegistry::Global().GetCounter(
      "scheduler.budget_splits",
      "Marginal-cost (epsilon, delta) allocations computed");
  obs::Counter& early_stops = obs::MetricRegistry::Global().GetCounter(
      "scheduler.early_stops",
      "Component executions terminated early by the CLT/hard-bounds rule");
  obs::Counter& runs_saved = obs::MetricRegistry::Global().GetCounter(
      "scheduler.runs_saved",
      "Outer-median runs scheduled but skipped by early termination");

  static SchedulerMetrics& Get() {
    static SchedulerMetrics* metrics = new SchedulerMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const SchedulerMetrics& kSchedulerMetricsInit =
    SchedulerMetrics::Get();

// `count` with its digits in groups of three: 57835 -> "57,835".
std::string GroupThousands(double count) {
  const std::string digits = std::to_string(static_cast<uint64_t>(count));
  std::string grouped;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i > 0 && (digits.size() - i) % 3 == 0) grouped += ',';
    grouped += digits[i];
  }
  return grouped;
}

}  // namespace

CostPrediction PredictCost(const QueryPlan& plan,
                           const std::optional<obs::ShapeProfile>& observed) {
  CostPrediction prediction;
  if (observed.has_value() && observed->runs >= kMinProfileRuns) {
    // Accuracy-relevant cost units come from the deterministic
    // estimator-call counter; the oracle-call mean (also lane-invariant)
    // sizes trials budgets and reporting; millis only ever drives lane
    // grants (scheduling-only), so timing noise cannot leak into the
    // arithmetic.
    prediction.oracle_calls = observed->MeanOracleCalls();
    prediction.cost_units = std::max(observed->MeanEstimatorCalls(), 1.0);
    prediction.millis = observed->MeanExecMillis();
    prediction.source = CostSource::kObservedProfile;
    SchedulerMetrics::Get().profile_predictions.Increment();
  } else {
    prediction = ColdPrediction(plan);
    SchedulerMetrics::Get().plan_predictions.Increment();
  }
  return prediction;
}

CostPrediction ColdPrediction(const QueryPlan& plan) {
  CostPrediction prediction;
  prediction.cost_units = std::max(plan.cost_estimate, 1.0);
  prediction.source = CostSource::kPlanEstimate;
  return prediction;
}

std::vector<BudgetShare> SplitBudgets(
    double epsilon, double delta,
    const std::vector<SchedulerComponent>& components, bool weighted) {
  if (weighted) SchedulerMetrics::Get().budget_splits.Increment();
  size_t estimated_total = 0;
  size_t counting = 0;
  double weight_sum = 0.0;
  for (const SchedulerComponent& c : components) {
    if (!c.estimated) continue;
    ++estimated_total;
    if (c.existential) continue;
    ++counting;
    weight_sum += std::cbrt(std::max(c.cost.cost_units, 1.0));
  }
  // Weights only move epsilon between two or more counting factors; the
  // even shares come from SplitBudget itself, so the unweighted split is
  // bitwise SplitBudget's (equal weights would not be: the floor
  // arithmetic rounds differently).
  weighted = weighted && counting > 1;
  // The counting factors share eps/2 (the product-guarantee budget), each
  // keeping a floor fraction of its even share.
  const double mass = epsilon / 2.0;
  const double floor =
      weighted ? kEpsFloorFraction * mass / static_cast<double>(counting) : 0.0;
  const double distributable = mass - floor * static_cast<double>(counting);
  std::vector<BudgetShare> shares(components.size());
  for (size_t i = 0; i < components.size(); ++i) {
    const SchedulerComponent& c = components[i];
    if (!c.estimated) continue;  // Zero share for exact factors.
    shares[i] = SplitBudget(epsilon, delta, counting, estimated_total,
                            c.existential);
    if (weighted && !c.existential) {
      const double weight = std::cbrt(std::max(c.cost.cost_units, 1.0));
      shares[i].epsilon = floor + distributable * weight / weight_sum;
    }
  }
  return shares;
}

int PlanLanes(Strategy strategy, const QueryPlan& plan,
              const CostPrediction& cost, int requested_lanes,
              int pool_lanes, std::string* reason) {
  // Only an exact component's reason is reported.
  const bool exact = strategy == Strategy::kExact;
  if (!exact) reason = nullptr;
  if (exact && plan.classification.num_free == 0) {
    if (reason != nullptr) *reason = "no free variable";
    return 1;
  }
  pool_lanes = std::max(1, pool_lanes);
  if (requested_lanes != 0) {
    if (reason != nullptr) *reason = "requested";
    return std::clamp(requested_lanes, 1, pool_lanes);
  }
  bool long_enough = false;
  if (exact && plan.strategy != Strategy::kExact) {
    if (reason != nullptr) *reason = "exact probe stopped at the cap";
    long_enough = true;
  } else if (exact) {
    // The gate reads the plan's measured join nodes: an observed profile
    // counts estimator calls, which an exact count makes none of.
    long_enough = plan.cost_estimate >= kMinExactFanoutNodes;
    if (reason != nullptr) {
      *reason = "exact join of " + GroupThousands(plan.cost_estimate) +
                (long_enough ? " nodes >= " : " nodes < ") +
                GroupThousands(kMinExactFanoutNodes);
    }
  } else {
    // Observed wall time replaces the static cost-unit gate once a shape
    // has history.
    long_enough = cost.source == CostSource::kObservedProfile
                      ? cost.millis >= kMinFanoutMillis
                      : cost.cost_units >= kMinFanoutCost;
  }
  return long_enough ? pool_lanes : 1;
}

double PerCallFailure(double delta, const CostPrediction& cost) {
  if (cost.source != CostSource::kObservedProfile || cost.oracle_calls <= 0.0) {
    return 0.0;  // Cold shape: keep the module's worst-case union bound.
  }
  const double predicted =
      std::max(cost.oracle_calls, 1.0) * kTrialsSafetyFactor;
  return std::min(delta / (2.0 * predicted), kMaxPerCallFailure);
}

void RecordAdaptiveOutcome(StopReason stop_reason, int completed_runs,
                           int total_runs) {
  SchedulerMetrics& metrics = SchedulerMetrics::Get();
  if (stop_reason == StopReason::kConfidence ||
      stop_reason == StopReason::kHardBounds) {
    metrics.early_stops.Increment();
    if (total_runs > completed_runs) {
      metrics.runs_saved.Add(static_cast<uint64_t>(total_runs - completed_runs));
    }
  }
}

}  // namespace cqcount
