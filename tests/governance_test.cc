// Engine-level resource-governance tests: request validation guard rails,
// deadline/cancellation anytime partials, typed governance statuses,
// batch cancellation granularity, and the governance-off determinism
// contract. Interruption points are made exact with the failpoint
// harness ("dlm.run_boundary", "engine.count") and ManualClock.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "app/graph_gen.h"
#include "app/workload.h"
#include "engine/engine.h"
#include "hom/backtracking.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace cqcount {
namespace {

// With EstimatorOptions the path query runs the FPTRAS. NOTE: the path
// query's answer set is sparse enough that the DLM frontier expansion
// resolves it into singletons (an exact resolution, zero sampling runs);
// good for validation / typed-status tests, NOT for run-boundary tests.
Database Social(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  return SocialNetworkDb(n, 5.0, 0.5, rng);
}

const char kApproxQuery[] = "ans(x, y) :- F(x, y), F(y, z), x != z.";

// The CI telemetry-smoke shape at test scale: a 4-cycle over a dense
// random graph. The 24^4 answer space cannot collapse into the DLM
// exact-enumeration or frontier phases, so the estimator always reaches
// its median-of-runs sampling loop and the "dlm.run_boundary" failpoint
// has boundaries to fire at.
Database CycleDb() {
  Rng rng(7);
  return GraphToDatabase(RandomGraphWithEdges(24, 100, rng), "F");
}

const char kSamplingQuery[] =
    "ans(a, b, c, d) :- F(a, b), F(b, c), F(c, d), F(d, a).";

// (epsilon, delta) used with kSamplingQuery: loose enough that a full
// fixed-seed count stays fast, tight enough for a many-run median.
CountRequest SamplingRequest() {
  CountRequest request;
  request.query = kSamplingQuery;
  request.database = "g";
  request.seed = 0xFEEDULL;
  request.epsilon = 0.45;
  request.delta = 0.1;
  return request;
}

// Engine options that keep every count on its estimator: no exact probe,
// so the typed statuses, run boundaries and lanes under test are reached.
EngineOptions EstimatorOptions() {
  EngineOptions opts;
  opts.plan.exact_cost_limit = 0.0;
  return opts;
}

class GovernanceTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(GovernanceTest, ValidationRejectsNonFiniteAccuracy) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(20, 1)).ok());
  CountRequest request;
  request.query = "ans(x) :- F(x, y).";
  request.database = "g";
  for (double bad : {std::nan(""), -0.1, 1.0, 1.5,
                     std::numeric_limits<double>::infinity()}) {
    request.epsilon = bad;
    request.delta = 0.0;
    auto by_epsilon = engine.Count(request);
    ASSERT_FALSE(by_epsilon.ok()) << "epsilon=" << bad;
    EXPECT_EQ(by_epsilon.status().code(), StatusCode::kInvalidArgument);
    request.epsilon = 0.0;
    request.delta = bad;
    auto by_delta = engine.Count(request);
    ASSERT_FALSE(by_delta.ok()) << "delta=" << bad;
    EXPECT_EQ(by_delta.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(GovernanceTest, ValidationRejectsEmptyDatabaseName) {
  CountingEngine engine;
  CountRequest request;
  request.query = "ans(x) :- F(x, y).";
  request.database = "";
  auto result = engine.Count(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GovernanceTest, ValidationRejectsOversizedQueryText) {
  EngineOptions opts;
  opts.max_query_bytes = 32;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(20, 1)).ok());
  CountRequest request;
  request.query = "ans(x) :- F(x, y), F(x, z), F(x, w), F(x, u), y != z.";
  request.database = "g";
  auto result = engine.Count(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("max_query_bytes"),
            std::string::npos);
  // Explain applies the same guard rail before planning.
  auto explained = engine.Explain(request.query, "g");
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(explained.status().message().find("max_query_bytes"),
            std::string::npos);
}

TEST_F(GovernanceTest, ValidationRejectsTooManyVariables) {
  EngineOptions opts;
  opts.max_query_vars = 2;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(20, 1)).ok());
  auto result = engine.Count("ans(x) :- F(x, y), F(y, z).", "g");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("max_query_vars"),
            std::string::npos);
  auto explained = engine.Explain("ans(x) :- F(x, y), F(y, z).", "g");
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(explained.status().message().find("max_query_vars"),
            std::string::npos);
}

TEST_F(GovernanceTest, PreCancelledTokenReturnsTypedCancelled) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(50, 2)).ok());
  CountRequest request;
  request.query = kApproxQuery;
  request.database = "g";
  request.cancel_token.Cancel();
  auto result = engine.Count(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernanceTest, OracleCallCapReturnsResourceExhausted) {
  CountingEngine engine(EstimatorOptions());
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(300, 4)).ok());
  CountRequest request;
  request.query = kApproxQuery;
  request.database = "g";
  request.seed = 0xFEEDULL;
  request.max_oracle_calls = 1;  // Consumed before any sampling run.
  auto result = engine.Count(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernanceTest, CancelAtRunBoundaryYieldsPartialWithBounds) {
  CountingEngine engine(EstimatorOptions());
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());
  CountRequest request = SamplingRequest();

  obs::Counter& partials = obs::MetricRegistry::Global().GetCounter(
      "engine.partial_results", "");
  obs::Counter& cancels =
      obs::MetricRegistry::Global().GetCounter("engine.cancelled", "");
  const uint64_t partials_before = partials.Value();
  const uint64_t cancels_before = cancels.Value();

  failpoint::Config config;
  config.skip = 1;  // Let one full sampling run complete first.
  config.max_fires = 1;
  config.on_fire = [token = request.cancel_token] { token.Cancel(); };
  failpoint::ScopedFailpoint fp("dlm.run_boundary", config);

  auto result = engine.Count(request);
  ASSERT_EQ(failpoint::FireCount("dlm.run_boundary"), 1u)
      << "query never reached the DLM sampling phase";
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  EXPECT_FALSE(result->exact);
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->partial_reason, "cancelled");
  EXPECT_TRUE(std::isfinite(result->lower_bound));
  EXPECT_TRUE(std::isfinite(result->upper_bound));
  EXPECT_LE(result->lower_bound, result->estimate);
  EXPECT_GE(result->upper_bound, result->estimate);
  EXPECT_GT(result->estimate, 0.0);
  ASSERT_EQ(result->components.size(), 1u);
  EXPECT_TRUE(result->components[0].partial);
  EXPECT_GE(result->components[0].completed_runs, 1);
  EXPECT_LT(result->components[0].completed_runs,
            result->components[0].total_runs);
  EXPECT_EQ(partials.Value(), partials_before + 1);
  EXPECT_EQ(cancels.Value(), cancels_before + 1);
}

TEST_F(GovernanceTest, ManualClockDeadlineYieldsPartialWithBounds) {
  CountingEngine engine(EstimatorOptions());
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());
  ManualClock clock(0);
  CountRequest request = SamplingRequest();
  request.time_budget_ms = 1000;
  request.clock = &clock;

  // The budget "expires" the instant the first sampling run finishes:
  // checkpoints are deterministic, so the interruption point is exact.
  failpoint::Config config;
  config.skip = 0;
  config.max_fires = 1;
  config.on_fire = [&clock] { clock.Advance(10'000); };
  failpoint::ScopedFailpoint fp("dlm.run_boundary", config);

  auto result = engine.Count(request);
  ASSERT_EQ(failpoint::FireCount("dlm.run_boundary"), 1u);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->partial_reason, "deadline_exceeded");
  EXPECT_TRUE(std::isfinite(result->lower_bound));
  EXPECT_TRUE(std::isfinite(result->upper_bound));
  EXPECT_LE(result->lower_bound, result->estimate);
  EXPECT_GE(result->upper_bound, result->estimate);
  ASSERT_EQ(result->components.size(), 1u);
  EXPECT_GE(result->components[0].completed_runs, 1);
}

TEST_F(GovernanceTest, ExpiredDeadlineBeforeAnyWorkIsTyped) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(50, 2)).ok());
  // Auto-stepping clock: the governor's construction reads 0 (deadline =
  // 10) and every checkpoint read afterwards sees >= 1000 — the very
  // first checkpoint observes an expired budget, before any component ran.
  ManualClock clock(0, 1000);
  CountRequest request;
  request.query = kApproxQuery;
  request.database = "g";
  request.time_budget_ms = 10;
  request.clock = &clock;
  auto result = engine.Count(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// An exact count checks its governor before each of its windows. Past
// the planner's cap (here 0) its length is unknown, so a force_exact count
// runs in windows at one lane too: a deadline that expires a few windows
// in returns the typed status, and a quiescent governor leaves the answer
// alone.
TEST_F(GovernanceTest, DeadlineStopsAnExactCountBetweenWindows) {
  const Database db = Social(300, 4);
  auto query = ParseQuery(kApproxQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const double reference = static_cast<double>(CountAnswersBrute(*query, db));
  for (int lanes : {1, 4}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    EngineOptions opts = EstimatorOptions();
    opts.num_threads = 4;
    opts.intra_query_threads = lanes;
    CountingEngine engine(opts);
    ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
    CountRequest request;
    request.query = kApproxQuery;
    request.database = "g";
    request.force_exact = true;
    for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 40}) {
      request.time_budget_ms = budget;
      auto quiet = engine.Count(request);
      ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
      EXPECT_FALSE(quiet->partial);
      EXPECT_EQ(quiet->estimate, reference);
      EXPECT_EQ(quiet->parallel.lanes, lanes);
      EXPECT_EQ(quiet->parallel.tasks, uint64_t{kJoinWindows});
    }

    // Auto-stepping clock: the governor's construction reads 0 (deadline
    // 5), the component boundary reads 1, and the windows read 2, 3, 4 and
    // then 5, which has expired: the remaining windows are skipped.
    ManualClock clock(0, 1);
    request.time_budget_ms = 5;
    request.clock = &clock;
    auto stopped = engine.Count(request);
    ASSERT_FALSE(stopped.ok());
    EXPECT_EQ(stopped.status().code(), StatusCode::kDeadlineExceeded);
    // In order on one lane, exactly three windows ran before the check
    // that fired; concurrent lanes may race a few more clock reads.
    if (lanes == 1) {
      EXPECT_EQ(clock.Peek(), 6u);
    } else {
      EXPECT_GE(clock.Peek(), 6u);
    }
  }
}

TEST_F(GovernanceTest, BatchCancellationDoesNotPoisonSiblings) {
  EngineOptions opts;
  opts.num_threads = 1;  // One lane: the batch runs in index order.
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(50, 2)).ok());
  // All three items share one token; the failpoint cancels it as item 1
  // enters Count(). Sequential execution makes the hit index exact.
  CancelToken shared;
  std::vector<CountRequest> requests(3);
  for (CountRequest& request : requests) {
    request.query = "ans(x) :- F(x, y).";
    request.database = "g";
    request.cancel_token = shared;
  }
  failpoint::Config config;
  config.skip = 1;
  config.max_fires = 1;
  config.on_fire = [shared] { shared.Cancel(); };
  failpoint::ScopedFailpoint fp("engine.count", config);

  auto results = engine.CountBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  // Item 0 ran before the cancellation: a full, valid result.
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_FALSE(results[0]->partial);
  // Item 1 was cancelled mid-request: its own typed status.
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kCancelled);
  // Item 2 never started: skipped with a typed status, not poisoned by a
  // sibling's error and not silently dropped.
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kCancelled);
  EXPECT_NE(results[2].status().message().find("skipped"), std::string::npos);
}

TEST_F(GovernanceTest, BatchItemsWithOwnTokensAreIndependent) {
  EngineOptions opts;
  opts.num_threads = 1;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(50, 2)).ok());
  std::vector<CountRequest> requests(3);
  for (CountRequest& request : requests) {
    request.query = "ans(x) :- F(x, y).";
    request.database = "g";
  }
  requests[1].cancel_token.Cancel();
  auto results = engine.CountBatch(requests);
  ASSERT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(results[2].ok());
  EXPECT_DOUBLE_EQ(results[0]->estimate, results[2]->estimate);
}

TEST_F(GovernanceTest, QuiescentGovernanceIsBitIdenticalAcrossLanes) {
  // The determinism contract: a governed-but-quiescent run (huge budget,
  // never-cancelled token) performs the same arithmetic as an ungoverned
  // one, at every lane count.
  Database db = Social(300, 4);
  double baseline = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int lanes : {1, 2, 4}) {
      EngineOptions opts = EstimatorOptions();
      opts.intra_query_threads = lanes;
      CountingEngine engine(opts);
      ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
      CountRequest request;
      request.query = kApproxQuery;
      request.database = "g";
      request.seed = 0xFEEDULL;
      if (pass == 1) request.time_budget_ms = 1ull << 40;
      auto result = engine.Count(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(result->partial);
      if (baseline == 0.0) {
        baseline = result->estimate;
      } else {
        EXPECT_DOUBLE_EQ(result->estimate, baseline)
            << "lanes=" << lanes << " pass=" << pass;
      }
    }
  }
}

TEST_F(GovernanceTest, RandomCancelPointsKeepAnytimeInvariants) {
  // Property sweep: wherever cancellation lands (k completed runs for
  // cut points spread across the run schedule), the partial's interval
  // contains both its own estimate and the uninterrupted same-seed
  // answer. Cut points at or past the last run boundary reproduce the
  // full answer bit for bit.
  CountingEngine engine(EstimatorOptions());
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());

  auto full = engine.Count(SamplingRequest());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->partial);
  ASSERT_EQ(full->components.size(), 1u);
  const int total_runs = full->components[0].total_runs;
  ASSERT_GT(total_runs, 2) << "workload no longer reaches the sampling phase";
  const double full_estimate = full->estimate;

  const std::vector<int> cuts = {0, 1, 2, (total_runs - 1) / 2,
                                 total_runs - 2, total_runs};
  for (int cut : cuts) {
    CountRequest request = SamplingRequest();  // Fresh token per item.
    failpoint::Config config;
    config.skip = static_cast<uint64_t>(cut);
    config.max_fires = 1;
    config.on_fire = [token = request.cancel_token] { token.Cancel(); };
    failpoint::ScopedFailpoint fp("dlm.run_boundary", config);
    auto result = engine.Count(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " cut=" << cut;
    if (cut >= total_runs - 1) {
      // Fired after the last run (or never): the full fixed-seed answer.
      EXPECT_FALSE(result->partial) << "cut=" << cut;
      EXPECT_DOUBLE_EQ(result->estimate, full_estimate) << "cut=" << cut;
      continue;
    }
    EXPECT_TRUE(result->partial) << "cut=" << cut;
    EXPECT_EQ(result->partial_reason, "cancelled") << "cut=" << cut;
    EXPECT_EQ(result->components[0].completed_runs, cut + 1) << "cut=" << cut;
    EXPECT_EQ(result->components[0].total_runs, total_runs) << "cut=" << cut;
    EXPECT_TRUE(std::isfinite(result->upper_bound)) << "cut=" << cut;
    EXPECT_LE(result->lower_bound, result->estimate) << "cut=" << cut;
    EXPECT_GE(result->upper_bound, result->estimate) << "cut=" << cut;
    // The anytime interval must contain the uninterrupted same-seed
    // answer (the whole point of the hard bounds).
    EXPECT_LE(result->lower_bound, full_estimate) << "cut=" << cut;
    EXPECT_GE(result->upper_bound, full_estimate) << "cut=" << cut;
  }
}

TEST_F(GovernanceTest, CancelWinsOverArmedEarlyStop) {
  // Adaptive scheduling arms the CLT early stop on the same run-boundary
  // loop the governor checkpoints. A cancellation landing at a boundary
  // BEFORE the stop rule can fire (min_early_stop_runs = 3, the failpoint
  // fires after run 1) must still produce the PR-style hard-bounded
  // partial with "cancelled" as the typed first cause — not an adaptive
  // stop reason, and not a lost interval.
  EngineOptions opts = EstimatorOptions();
  opts.adaptive = true;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());
  CountRequest request = SamplingRequest();

  failpoint::Config config;
  config.skip = 1;  // One completed run: below min_early_stop_runs.
  config.max_fires = 1;
  config.on_fire = [token = request.cancel_token] { token.Cancel(); };
  failpoint::ScopedFailpoint fp("dlm.run_boundary", config);

  auto result = engine.Count(request);
  ASSERT_EQ(failpoint::FireCount("dlm.run_boundary"), 1u)
      << "query never reached the DLM sampling phase";
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->adaptive);
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->partial_reason, "cancelled");
  EXPECT_TRUE(std::isfinite(result->lower_bound));
  EXPECT_TRUE(std::isfinite(result->upper_bound));
  EXPECT_LE(result->lower_bound, result->estimate);
  EXPECT_GE(result->upper_bound, result->estimate);
  ASSERT_EQ(result->components.size(), 1u);
  const ComponentResult& component = result->components[0];
  EXPECT_TRUE(component.partial);
  EXPECT_EQ(component.stop_reason, StopReason::kCancelled)
      << StopReasonName(component.stop_reason);
  EXPECT_GE(component.completed_runs, 1);
  EXPECT_LT(component.completed_runs, component.total_runs);
}

TEST_F(GovernanceTest, DeadlineWinsOverArmedEarlyStop) {
  EngineOptions opts = EstimatorOptions();
  opts.adaptive = true;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());
  ManualClock clock(0);
  CountRequest request = SamplingRequest();
  request.time_budget_ms = 1000;
  request.clock = &clock;

  failpoint::Config config;
  config.skip = 0;  // Expire right after the first run completes.
  config.max_fires = 1;
  config.on_fire = [&clock] { clock.Advance(10'000); };
  failpoint::ScopedFailpoint fp("dlm.run_boundary", config);

  auto result = engine.Count(request);
  ASSERT_EQ(failpoint::FireCount("dlm.run_boundary"), 1u);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->partial_reason, "deadline_exceeded");
  EXPECT_TRUE(std::isfinite(result->lower_bound));
  EXPECT_TRUE(std::isfinite(result->upper_bound));
  EXPECT_LE(result->lower_bound, result->estimate);
  EXPECT_GE(result->upper_bound, result->estimate);
  ASSERT_EQ(result->components.size(), 1u);
  EXPECT_EQ(result->components[0].stop_reason, StopReason::kDeadlineExpired)
      << StopReasonName(result->components[0].stop_reason);
  EXPECT_GE(result->components[0].completed_runs, 1);
}

TEST_F(GovernanceTest, RegisterDatabaseFailpointInjectsErrors) {
  failpoint::Config config;
  config.inject_error = true;
  config.error_code = StatusCode::kFailedPrecondition;
  config.error_message = "injected registration outage";
  failpoint::ScopedFailpoint fp("engine.register_database", config);
  CountingEngine engine;
  Status status = engine.RegisterDatabase("g", Social(20, 1));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cqcount
