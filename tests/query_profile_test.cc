// QueryProfile on EngineResult and the plan cache's per-shape observed
// history (ShapeProfile): the profiling substrate `count --json`,
// `explain` and the adaptive scheduler read.
#include <gtest/gtest.h>

#include <string>

#include "engine/engine.h"
#include "obs/profile.h"

namespace cqcount {
namespace {

Database SixCycleDatabase() {
  Database db(6);
  EXPECT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 6; ++u) {
    EXPECT_TRUE(db.AddFact("E", {u, (u + 1) % 6}).ok());
  }
  db.Canonicalize();
  return db;
}

TEST(QueryProfileTest, CountPopulatesPhasesAndComponents) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", SixCycleDatabase()).ok());
  auto result = engine.Count("ans(x, y) :- E(x, y), x != y.", "g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const obs::QueryProfile& profile = result->profile;
  EXPECT_GE(profile.parse_millis, 0.0);
  EXPECT_GE(profile.compile_millis, 0.0);
  EXPECT_GE(profile.plan_millis, 0.0);
  EXPECT_GE(profile.execute_millis, 0.0);
  ASSERT_EQ(result->components.size(), 1u);
  const ComponentResult& c = result->components[0];
  EXPECT_FALSE(c.shape_key.empty());
  EXPECT_TRUE(c.executed);
  EXPECT_GE(c.exec_millis, 0.0);
  EXPECT_EQ(c.oracle_calls, result->oracle_calls);
  // A fresh engine: the single component's plan was built, not cached.
  EXPECT_FALSE(c.plan_cache_hit);

  // The same shape again: now a cache hit.
  auto again = engine.Count("ans(a, b) :- E(a, b), a != b.", "g");
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->components.size(), 1u);
  EXPECT_TRUE(again->components[0].plan_cache_hit);
}

// The "profile" object of EngineResult::ToJson() is derived from the
// result's own records: phase times from QueryProfile, cache outcomes,
// oracle work and lanes from the components.
TEST(QueryProfileTest, ProfileJsonIsDerivedFromTheResult) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", SixCycleDatabase()).ok());
  auto result = engine.Count("ans(x, y) :- E(x, y), x != y.", "g");
  ASSERT_TRUE(result.ok());
  const std::string json = result->ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  const size_t profile = json.find("\"profile\":{\"phases\":{");
  ASSERT_NE(profile, std::string::npos) << json;
  const std::string tail = json.substr(profile);
  for (const std::string& entry :
       {std::string("\"plan_cache_hits\":0"),
        std::string("\"plan_cache_misses\":1"),
        "\"oracle_calls\":" + std::to_string(result->oracle_calls),
        std::string("\"execute_ms\""), std::string("\"shape_key\""),
        std::string("\"strategy\""), std::string("\"lanes\"")}) {
    EXPECT_NE(tail.find(entry), std::string::npos) << "missing " << entry;
  }
}

TEST(QueryProfileTest, ExplainExposesObservedShapeHistory) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", SixCycleDatabase()).ok());
  const std::string query = "ans(x, y) :- E(x, y), x != y.";

  // Before any Count, Explain sees a plan but no observed history.
  auto cold = engine.Explain(query, "g");
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->components.size(), 1u);
  EXPECT_FALSE(cold->components[0].observed.has_value());

  const int kRuns = 3;
  uint64_t total_oracle_calls = 0;
  double last_estimate = 0.0;
  for (int i = 0; i < kRuns; ++i) {
    auto result = engine.Count(query, "g");
    ASSERT_TRUE(result.ok());
    total_oracle_calls += result->oracle_calls;
    last_estimate = result->estimate;
  }

  auto warm = engine.Explain(query, "g");
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->components.size(), 1u);
  ASSERT_TRUE(warm->components[0].observed.has_value());
  const obs::ShapeProfile& observed = *warm->components[0].observed;
  EXPECT_EQ(observed.runs, static_cast<uint64_t>(kRuns));
  EXPECT_EQ(observed.total_oracle_calls, total_oracle_calls);
  EXPECT_EQ(observed.last_estimate, last_estimate);
  EXPECT_GE(observed.max_exec_millis, observed.min_exec_millis);
  EXPECT_GE(observed.MeanExecMillis(), 0.0);
  EXPECT_GE(observed.VarianceExecMillis(), 0.0);
  EXPECT_LE(observed.converged_runs, observed.runs);
}

TEST(QueryProfileTest, ShapeProfileAccumulatesObservations) {
  obs::ShapeProfile profile;
  profile.Observe(2.0, 10, 8, 42.0, true);
  profile.Observe(4.0, 20, 12, 43.0, false);
  EXPECT_EQ(profile.runs, 2u);
  EXPECT_DOUBLE_EQ(profile.MeanExecMillis(), 3.0);
  EXPECT_DOUBLE_EQ(profile.VarianceExecMillis(), 1.0);
  EXPECT_EQ(profile.min_exec_millis, 2.0);
  EXPECT_EQ(profile.max_exec_millis, 4.0);
  EXPECT_EQ(profile.total_oracle_calls, 30u);
  EXPECT_EQ(profile.total_estimator_calls, 20u);
  EXPECT_DOUBLE_EQ(profile.MeanEstimatorCalls(), 10.0);
  EXPECT_EQ(profile.converged_runs, 1u);
  EXPECT_EQ(profile.last_estimate, 43.0);
  const std::string json = profile.ToJson();
  for (const char* key :
       {"\"runs\"", "\"mean_exec_ms\"", "\"total_oracle_calls\"",
        "\"total_estimator_calls\"", "\"converged_runs\"",
        "\"last_estimate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace cqcount
