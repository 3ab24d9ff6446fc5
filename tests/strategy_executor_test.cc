#include "engine/strategy_executor.h"

#include <gtest/gtest.h>

#include <string>

#include "app/graph_gen.h"
#include "app/workload.h"
#include "automata/fpras.h"
#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "query/parser.h"

namespace cqcount {
namespace {

struct Fixture {
  Query query;
  Database db;
  CanonicalShape shape;
  QueryPlan plan;

  Fixture(const std::string& text, Database database)
      : db(std::move(database)) {
    auto parsed = ParseQuery(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    query = *parsed;
    shape = CanonicalQueryShape(query);
    plan = BuildQueryPlan(query, shape, db, PlanOptions{});
  }

  ExecContext Context(double epsilon = 0.2, double delta = 0.2,
                      uint64_t seed = 0xFEEDULL) const {
    ExecContext ctx;
    ctx.query = &query;
    ctx.db = &db;
    ctx.plan = &plan;
    ctx.shape = &shape;
    ctx.epsilon = epsilon;
    ctx.delta = delta;
    ctx.seed = seed;
    return ctx;
  }
};

Database Social(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  return SocialNetworkDb(n, 5.0, 0.5, rng);
}

TEST(StrategyExecutorTest, DispatchesAllFourStrategies) {
  Fixture f("ans(x) :- F(x, y).", Social(30, 5));
  const double exact =
      static_cast<double>(ExactCountAnswersBruteForce(f.query, f.db));
  ASSERT_GT(exact, 0.0);
  const Strategy all[] = {Strategy::kExact, Strategy::kFptrasTreewidth,
                          Strategy::kFptrasFhw, Strategy::kAutomataFpras};
  for (Strategy strategy : all) {
    auto outcome = ExecuteStrategy(strategy, f.Context());
    ASSERT_TRUE(outcome.ok())
        << StrategyName(strategy) << ": " << outcome.status().ToString();
    // Each case reaches its own estimator: only the brute force does no
    // oracle work, and only the fptras pipeline adds colour-coding hom
    // queries on top of its estimator calls.
    if (strategy == Strategy::kExact) {
      EXPECT_EQ(outcome->oracle_calls, 0u);
    } else {
      EXPECT_GT(outcome->oracle_calls, 0u) << StrategyName(strategy);
    }
    EXPECT_EQ(outcome->oracle_calls == outcome->estimator_calls,
              strategy != Strategy::kFptrasTreewidth &&
                  strategy != Strategy::kFptrasFhw)
        << StrategyName(strategy);
    EXPECT_NEAR(outcome->estimate, exact, 0.5 * exact) << StrategyName(strategy);
  }
}

TEST(StrategyExecutorTest, ExactMatchesBruteForce) {
  Fixture f("ans(x) :- F(x, y), F(x, z), y != z.", Social(30, 1));
  auto outcome = ExecuteStrategy(Strategy::kExact, f.Context());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->exact);
  EXPECT_DOUBLE_EQ(outcome->estimate,
                   static_cast<double>(ExactCountAnswersBruteForce(f.query, f.db)));
}

TEST(StrategyExecutorTest, FptrasMatchesDirectPipelineBitwise) {
  Fixture f("ans(x) :- F(x, y), F(x, z), y != z.", Social(120, 2));
  auto outcome = ExecuteStrategy(Strategy::kFptrasTreewidth, f.Context());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  ApproxOptions direct;
  direct.epsilon = 0.2;
  direct.delta = 0.2;
  direct.seed = 0xFEEDULL;
  direct.objective = f.plan.objective;
  FWidthResult instantiated = f.plan.decomposition;
  instantiated.decomposition = InstantiateDecomposition(
      f.plan.decomposition.decomposition, f.shape.to_canonical);
  instantiated.order.clear();
  direct.precomputed_decomposition = &instantiated;
  auto via_pipeline = ApproxCountAnswers(f.query, f.db, direct);
  ASSERT_TRUE(via_pipeline.ok());
  // Same budget, same seed, same decomposition: the dispatch is a pure
  // adapter, so the estimate is bitwise identical.
  EXPECT_EQ(outcome->estimate, via_pipeline->estimate);
  EXPECT_EQ(outcome->exact, via_pipeline->exact);
}

TEST(StrategyExecutorTest, AutomataFprasMatchesDirectPipelineBitwise) {
  Fixture f("ans(x) :- F(x, y), F(y, z).", Social(60, 4));
  auto outcome = ExecuteStrategy(Strategy::kAutomataFpras,
                                 f.Context(0.15, 0.2, 0xBEEFULL));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  FprasOptions direct;
  direct.acjr.epsilon = 0.15;
  direct.acjr.delta = 0.2;
  direct.acjr.seed = 0xBEEFULL;
  direct.objective = f.plan.objective;
  FWidthResult instantiated = f.plan.decomposition;
  instantiated.decomposition = InstantiateDecomposition(
      f.plan.decomposition.decomposition, f.shape.to_canonical);
  instantiated.order.clear();
  direct.precomputed_decomposition = &instantiated;
  auto via_pipeline = FprasCountCq(f.query, f.db, direct);
  ASSERT_TRUE(via_pipeline.ok()) << via_pipeline.status().ToString();
  // The existential z forces Karp-Luby union estimates, so the seed
  // matters: same budget, seed and decomposition give the same bits.
  EXPECT_FALSE(via_pipeline->exact);
  EXPECT_EQ(outcome->estimate, via_pipeline->estimate);
  EXPECT_EQ(outcome->exact, via_pipeline->exact);
  EXPECT_EQ(outcome->oracle_calls, via_pipeline->membership_tests);
}

TEST(StrategyExecutorTest, AutomataFprasRunsOnPureCq) {
  Fixture f("ans(x, y) :- F(x, y).", Social(40, 3));
  auto outcome = ExecuteStrategy(Strategy::kAutomataFpras, f.Context(0.15, 0.2));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const double exact =
      static_cast<double>(ExactCountAnswersBruteForce(f.query, f.db));
  EXPECT_GT(outcome->estimate, 0.0);
  // Loose sanity bound: the FPRAS ran with epsilon 0.15; allow slack for
  // the delta failure mass instead of asserting the exact interval.
  EXPECT_NEAR(outcome->estimate, exact, 0.5 * exact + 1.0);
}

}  // namespace
}  // namespace cqcount
