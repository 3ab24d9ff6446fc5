// The adaptive accuracy scheduler: cost model, marginal-cost budget
// splitting, lane gating and the engine-level determinism contract.
//
// The load-bearing properties:
//   - adaptive OFF is byte-for-byte the pre-scheduler engine: estimates
//     AND oracle-call tallies are invariant to the lane count;
//   - adaptive ON is reproducible: a fixed seed and request sequence
//     gives bit-identical estimates and oracle calls at 1, 2 and 4
//     lanes (early-stop decisions are made from merged deterministic
//     state at run boundaries only);
//   - the split preserves the product guarantee: counting shares sum to
//     eps/2, every share keeps its floor, expensive components get
//     looser targets;
//   - on warm profiles the scheduler does strictly less oracle work.
#include "engine/scheduler.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/profile.h"

namespace cqcount {
namespace {

QueryPlan EstimatedPlan(double cost) {
  QueryPlan plan;
  plan.strategy = Strategy::kFptrasTreewidth;
  plan.cost_estimate = cost;
  return plan;
}

obs::ShapeProfile WarmProfile(int runs, double millis, uint64_t estimator_calls,
                              uint64_t oracle_calls = 0) {
  obs::ShapeProfile profile;
  for (int i = 0; i < runs; ++i) {
    profile.Observe(millis, oracle_calls ? oracle_calls : estimator_calls,
                    estimator_calls, 42.0, true);
  }
  return profile;
}

TEST(CostModelTest, ColdShapeUsesPlanEstimate) {
  CostPrediction cold = PredictCost(EstimatedPlan(5000.0), std::nullopt);
  EXPECT_EQ(cold.source, CostSource::kPlanEstimate);
  EXPECT_DOUBLE_EQ(cold.cost_units, 5000.0);
  EXPECT_EQ(cold.oracle_calls, 0.0);  // Unknown until observed.

  // One observation is below kMinProfileRuns (2): still cold.
  CostPrediction one_run =
      PredictCost(EstimatedPlan(5000.0), WarmProfile(1, 3.0, 900));
  EXPECT_EQ(one_run.source, CostSource::kPlanEstimate);
}

TEST(CostModelTest, WarmShapeUsesObservedHistory) {
  CostPrediction warm =
      PredictCost(EstimatedPlan(5000.0), WarmProfile(3, 7.0, 900, 1200));
  EXPECT_EQ(warm.source, CostSource::kObservedProfile);
  EXPECT_DOUBLE_EQ(warm.cost_units, 900.0);   // Mean estimator calls.
  EXPECT_DOUBLE_EQ(warm.oracle_calls, 1200.0);
  EXPECT_DOUBLE_EQ(warm.millis, 7.0);
}

TEST(BudgetSplitTest, CountingSharesSumToHalfEpsilonWithFloors) {
  std::vector<SchedulerComponent> components(3);
  for (auto& c : components) c.estimated = true;
  components[0].cost.cost_units = 1.0;      // Cheap: tight target.
  components[1].cost.cost_units = 1000.0;
  components[2].cost.cost_units = 1e6;      // Expensive: loose target.

  const double epsilon = 0.3;
  const double delta = 0.06;
  std::vector<BudgetShare> shares =
      SplitBudgets(epsilon, delta, components, /*weighted=*/true);
  ASSERT_EQ(shares.size(), components.size());

  double sum = 0.0;
  const double floor =
      kEpsFloorFraction * (epsilon / 2.0) / components.size();
  for (const BudgetShare& share : shares) {
    sum += share.epsilon;
    EXPECT_GE(share.epsilon, floor - 1e-12);
    // Union bound over components is untouched by the reweighting.
    EXPECT_DOUBLE_EQ(share.delta, delta / components.size());
  }
  // prod(1 +- eps_i) stays within (1 +- eps) exactly because the shares
  // sum to eps/2 (see scheduler.h); the allocation must not leak budget.
  EXPECT_NEAR(sum, epsilon / 2.0, 1e-12);
  // Marginal-cost ordering: eps_i grows with cbrt(cost).
  EXPECT_LT(shares[0].epsilon, shares[1].epsilon);
  EXPECT_LT(shares[1].epsilon, shares[2].epsilon);
}

TEST(BudgetSplitTest, SingleCountingComponentKeepsFullEpsilon) {
  std::vector<SchedulerComponent> components(2);
  components[0].estimated = true;
  components[0].cost.cost_units = 100.0;
  components[1].estimated = false;  // Exact factor: no budget share.
  std::vector<BudgetShare> shares =
      SplitBudgets(0.25, 0.1, components, /*weighted=*/true);
  // Matches SplitBudget's single-component pass-through: halving would
  // double the sampling work for nothing.
  EXPECT_DOUBLE_EQ(shares[0].epsilon, 0.25);
  EXPECT_DOUBLE_EQ(shares[1].epsilon, 0.0);
  EXPECT_DOUBLE_EQ(shares[1].delta, 0.0);
}

TEST(BudgetSplitTest, EvenCostsReduceToEvenSplit) {
  std::vector<SchedulerComponent> components(4);
  for (auto& c : components) {
    c.estimated = true;
    c.cost.cost_units = 777.0;
  }
  std::vector<BudgetShare> shares =
      SplitBudgets(0.4, 0.2, components, /*weighted=*/true);
  for (const BudgetShare& share : shares) {
    EXPECT_NEAR(share.epsilon, 0.4 / (2.0 * 4.0), 1e-12);
  }
}

// Without weights the split must be SplitBudget's bit for bit (the
// non-adaptive engine runs on it, and replays that call SplitBudget
// directly compare estimates bitwise). Equal weights through the
// weighted formula would not do: its floor arithmetic rounds differently.
TEST(BudgetSplitTest, UnweightedSplitIsSplitBudgetBitwise) {
  int mismatches = 0;
  std::string first_mismatch;
  for (size_t k = 1; k <= 8; ++k) {
    // k counting factors, optionally followed by one existential and one
    // exact factor.
    for (bool extras : {false, true}) {
      std::vector<SchedulerComponent> components(k + (extras ? 2 : 0));
      for (size_t i = 0; i < components.size(); ++i) {
        components[i].estimated = i < k + 1;
        components[i].existential = i == k;
        components[i].cost.cost_units = 1.0 + 97.0 * static_cast<double>(i);
      }
      const size_t total = extras ? k + 1 : k;
      for (int step = 1; step < 1000; ++step) {
        const double epsilon = step / 1000.0;
        const double delta = 0.05 + step / 4000.0;
        const std::vector<BudgetShare> shares = SplitBudgets(
            epsilon, delta, components, /*weighted=*/false);
        for (size_t i = 0; i < components.size(); ++i) {
          BudgetShare expected;  // Exact factors: zero share.
          if (components[i].estimated) {
            expected = SplitBudget(epsilon, delta, k, total,
                                   components[i].existential);
          }
          if (shares[i].epsilon != expected.epsilon ||
              shares[i].delta != expected.delta) {
            if (mismatches++ == 0) {
              first_mismatch = "k=" + std::to_string(k) +
                               " eps=" + std::to_string(epsilon) +
                               " component=" + std::to_string(i);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first_mismatch;
}

TEST(LaneGateTest, ObservedWallTimeReplacesStaticCostGate) {
  CostPrediction fast_warm;
  fast_warm.source = CostSource::kObservedProfile;
  fast_warm.millis = 0.5;  // Below kMinFanoutMillis: fan-out won't pay.
  ASSERT_LT(fast_warm.millis, kMinFanoutMillis);
  CostPrediction slow_warm = fast_warm;
  slow_warm.millis = 50.0;
  ASSERT_GE(slow_warm.millis, kMinFanoutMillis);
  CostPrediction cheap_cold;  // Plan-estimate fallback: static gate.
  cheap_cold.cost_units = 10.0;
  CostPrediction costly_cold;
  costly_cold.cost_units = 1e12;
  ASSERT_GE(costly_cold.cost_units, kMinFanoutCost);
  const QueryPlan plan = EstimatedPlan(0.0);  // Estimates read the cost.
  const Strategy tw = Strategy::kFptrasTreewidth;

  // Automatic mode (0): the gates decide.
  EXPECT_EQ(PlanLanes(tw, plan, fast_warm, 0, 4), 1);
  EXPECT_EQ(PlanLanes(tw, plan, slow_warm, 0, 4), 4);
  EXPECT_EQ(PlanLanes(tw, plan, cheap_cold, 0, 4), 1);
  EXPECT_EQ(PlanLanes(tw, plan, costly_cold, 0, 4), 4);

  // An explicit request skips both gates and is capped at the pool.
  EXPECT_EQ(PlanLanes(tw, plan, cheap_cold, 2, 4), 2);
  EXPECT_EQ(PlanLanes(tw, plan, fast_warm, 3, 4), 3);
  EXPECT_EQ(PlanLanes(tw, plan, cheap_cold, 1000, 4), 4);
  EXPECT_EQ(PlanLanes(tw, plan, costly_cold, 1, 4), 1);
  // Only an exact component's grant carries a reason.
  std::string reason = "untouched";
  EXPECT_EQ(PlanLanes(tw, plan, costly_cold, 0, 4, &reason), 4);
  EXPECT_EQ(reason, "untouched");
}

// An exact plan with `num_free` free variables whose probe visited
// `nodes` join nodes.
QueryPlan ExactPlan(double nodes, int num_free) {
  QueryPlan plan;
  plan.strategy = Strategy::kExact;
  plan.cost_estimate = nodes;
  plan.classification.num_free = num_free;
  return plan;
}

// Exact components get lanes from their plan's measured join nodes, in
// automatic mode whether or not the shape has history; a count without a
// free variable is never split.
TEST(LaneGateTest, ExactComponentsGateOnTheirJoinNodes) {
  const Strategy exact = Strategy::kExact;
  const CostPrediction cold = ColdPrediction(ExactPlan(57835, 1));
  const QueryPlan above = ExactPlan(57835, 1);
  const QueryPlan below = ExactPlan(4224, 1);
  const QueryPlan boolean = ExactPlan(1e6, 0);
  ASSERT_GE(above.cost_estimate, kMinExactFanoutNodes);
  ASSERT_LT(below.cost_estimate, kMinExactFanoutNodes);

  std::string reason;
  EXPECT_EQ(PlanLanes(exact, above, cold, 0, 4, &reason), 4);
  EXPECT_EQ(reason, "exact join of 57,835 nodes >= 10,000");
  EXPECT_EQ(PlanLanes(exact, below, cold, 0, 4, &reason), 1);
  EXPECT_EQ(reason, "exact join of 4,224 nodes < 10,000");
  EXPECT_EQ(PlanLanes(exact, boolean, cold, 0, 4, &reason), 1);
  EXPECT_EQ(reason, "no free variable");

  // An explicit request grants min(N, pool) to every exact component
  // with a free variable, below the gate too; never to one without.
  EXPECT_EQ(PlanLanes(exact, below, cold, 2, 4, &reason), 2);
  EXPECT_EQ(reason, "requested");
  EXPECT_EQ(PlanLanes(exact, below, cold, 1000, 4), 4);
  EXPECT_EQ(PlanLanes(exact, above, cold, 1, 4), 1);
  EXPECT_EQ(PlanLanes(exact, boolean, cold, 4, 4), 1);

  // A warm adaptive shape: its profile counts no estimator calls and its
  // observed time does not decide; the plan's join nodes still do.
  CostPrediction fast_warm;
  fast_warm.source = CostSource::kObservedProfile;
  fast_warm.cost_units = 1.0;
  fast_warm.millis = 0.5;
  CostPrediction slow_warm = fast_warm;
  slow_warm.millis = 50.0;
  EXPECT_EQ(PlanLanes(exact, above, fast_warm, 0, 4), 4);
  EXPECT_EQ(PlanLanes(exact, below, slow_warm, 0, 4), 1);

  // force_exact over a plan the probe left to an estimator is past the
  // gate.
  QueryPlan past_cap = EstimatedPlan(10.0);
  past_cap.classification.num_free = 1;
  EXPECT_EQ(PlanLanes(exact, past_cap, cold, 0, 4, &reason), 4);
  EXPECT_EQ(reason, "exact probe stopped at the cap");
  // A one-thread pool has one lane to give.
  EXPECT_EQ(PlanLanes(exact, above, cold, 0, 1), 1);
}

TEST(TrialBudgetTest, PerCallFailureScalesWithPredictedCalls) {
  CostPrediction cold;  // No observed call count: keep the module default.
  EXPECT_EQ(PerCallFailure(0.1, cold), 0.0);

  CostPrediction warm;
  warm.source = CostSource::kObservedProfile;
  warm.oracle_calls = 1e4;
  const double failure = PerCallFailure(0.1, warm);
  // delta / (2 * safety * calls), far below the 1e-3 cap here.
  EXPECT_DOUBLE_EQ(
      failure, 0.1 / (2.0 * kTrialsSafetyFactor * 1e4));

  warm.oracle_calls = 1.0;  // Tiny prediction: the cap keeps >= ~7 trials.
  EXPECT_DOUBLE_EQ(PerCallFailure(0.9, warm), kMaxPerCallFailure);
}

// ---------------------------------------------------------------------------
// Engine-level properties.

Database DenseDatabase() {
  Database db(8);
  EXPECT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 8; ++u) {
    for (Value v = 0; v < 8; ++v) {
      if ((u * 5 + v * 11 + 3) % 3 != 0) continue;
      EXPECT_TRUE(db.AddFact("E", {u, v}).ok());
    }
  }
  db.Canonicalize();
  return db;
}

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "ans(x, y) :- E(x, y), E(y, z), x != z.",
      "ans(x, y) :- E(x, y), E(x, z), y != z.",
      "ans(x, z) :- E(x, y), E(y, z).",
      "ans(x, y) :- E(x, y), !E(y, x).",
  };
  return queries;
}

struct Observed {
  double estimate = 0.0;
  uint64_t oracle_calls = 0;

  bool operator==(const Observed& o) const {
    return estimate == o.estimate && oracle_calls == o.oracle_calls;
  }
};

// Runs every query `reps` times (so adaptive engines cross the
// kMinProfileRuns threshold mid-sequence) and returns all observations.
std::vector<Observed> RunSequence(const EngineOptions& opts,
                                  const Database& db, int reps) {
  CountingEngine engine(opts);
  EXPECT_TRUE(engine.RegisterDatabase("g", db).ok());
  std::vector<Observed> observed;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& text : Queries()) {
      auto result = engine.Count(text, "g");
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      EXPECT_EQ(result->adaptive, opts.adaptive);
      observed.push_back({result->estimate, result->oracle_calls});
    }
  }
  return observed;
}

EngineOptions BaseOptions(int lanes) {
  EngineOptions opts;
  opts.epsilon = 0.3;
  opts.delta = 0.3;
  opts.seed = 20220607;
  opts.num_threads = 4;
  opts.intra_query_threads = lanes;
  // The 8-node database is below the planner's brute-force threshold;
  // force the estimated strategies so these properties exercise the run
  // schedule (oracle calls, stop reasons) rather than exact enumeration.
  opts.plan.exact_cost_limit = 0.0;
  return opts;
}

// Adaptive OFF must be the pre-scheduler engine exactly: results stay
// lane-invariant (estimates and the deterministic oracle-call accounting
// both).
TEST(AdaptiveEngineTest, AdaptiveOffIsLaneInvariant) {
  const Database db = DenseDatabase();
  std::optional<std::vector<Observed>> reference;
  for (int lanes : {1, 2, 4}) {
    std::vector<Observed> observed = RunSequence(BaseOptions(lanes), db, 2);
    if (!reference.has_value()) {
      reference = observed;
      continue;
    }
    ASSERT_EQ(observed.size(), reference->size());
    for (size_t i = 0; i < observed.size(); ++i) {
      EXPECT_TRUE(observed[i] == (*reference)[i])
          << "lanes=" << lanes << " call=" << i << ": estimate "
          << observed[i].estimate << " vs " << (*reference)[i].estimate
          << ", oracle_calls " << observed[i].oracle_calls << " vs "
          << (*reference)[i].oracle_calls;
    }
  }
}

// Adaptive ON: a fixed seed and request sequence is reproducible at any
// lane count — the early-stop rule reads merged run estimates at run
// boundaries, never partial lane state.
TEST(AdaptiveEngineTest, AdaptiveOnReproducibleAcrossLaneCounts) {
  const Database db = DenseDatabase();
  std::optional<std::vector<Observed>> reference;
  for (int lanes : {1, 2, 4}) {
    EngineOptions opts = BaseOptions(lanes);
    opts.adaptive = true;
    std::vector<Observed> observed = RunSequence(opts, db, 3);
    if (!reference.has_value()) {
      reference = observed;
      continue;
    }
    ASSERT_EQ(observed.size(), reference->size());
    for (size_t i = 0; i < observed.size(); ++i) {
      EXPECT_TRUE(observed[i] == (*reference)[i])
          << "lanes=" << lanes << " call=" << i << ": estimate "
          << observed[i].estimate << " vs " << (*reference)[i].estimate
          << ", oracle_calls " << observed[i].oracle_calls << " vs "
          << (*reference)[i].oracle_calls;
    }
  }
}

// On a warm profile the adaptive engine must do no more oracle work than
// the fixed schedule, and strictly less on a multi-run workload (delta
// 0.1 schedules 13 median runs; the CLT stop typically needs 3).
TEST(AdaptiveEngineTest, WarmAdaptiveCallsDoLessOracleWork) {
  const Database db = DenseDatabase();
  const std::string query = "ans(x, y) :- E(x, y), E(y, z), x != z.";

  auto third_call = [&](bool adaptive) {
    EngineOptions opts = BaseOptions(1);
    opts.epsilon = 0.25;
    opts.delta = 0.1;
    opts.adaptive = adaptive;
    CountingEngine engine(opts);
    EXPECT_TRUE(engine.RegisterDatabase("g", db).ok());
    for (int warm = 0; warm < 2; ++warm) {
      EXPECT_TRUE(engine.Count(query, "g").ok());
    }
    auto result = engine.Count(query, "g");
    EXPECT_TRUE(result.ok());
    return *result;
  };

  const EngineResult fixed = third_call(false);
  const EngineResult adaptive = third_call(true);
  EXPECT_LE(adaptive.oracle_calls, fixed.oracle_calls);
  ASSERT_EQ(adaptive.components.size(), 1u);
  ASSERT_EQ(fixed.components.size(), 1u);
  const ComponentResult& ac = adaptive.components[0];
  const ComponentResult& fc = fixed.components[0];
  EXPECT_EQ(ac.cost_source, CostSourceName(CostSource::kObservedProfile));
  EXPECT_GT(ac.predicted_oracle_calls, 0.0);
  if (!fc.exact && fc.total_runs > 1) {
    EXPECT_LT(adaptive.oracle_calls, fixed.oracle_calls)
        << "warm adaptive run saved nothing on a " << fc.total_runs
        << "-run schedule";
    EXPECT_TRUE(ac.stop_reason == StopReason::kConfidence ||
                ac.stop_reason == StopReason::kHardBounds ||
                ac.stop_reason == StopReason::kFullSchedule)
        << StopReasonName(ac.stop_reason);
  }
  // The fixed schedule reports its own typed reason when a run schedule
  // actually executed (exact-phase resolutions have no run structure,
  // even when a disequality keeps the `exact` flag off).
  if (fc.total_runs > 0) {
    EXPECT_TRUE(fc.stop_reason == StopReason::kFullSchedule ||
                fc.stop_reason == StopReason::kBudgetExhausted)
        << StopReasonName(fc.stop_reason);
  }
}

}  // namespace
}  // namespace cqcount
