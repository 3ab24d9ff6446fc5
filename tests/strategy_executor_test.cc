#include "engine/strategy_executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/graph_gen.h"
#include "app/workload.h"
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
    ctx.budget = {epsilon, delta, seed};
    return ctx;
  }
};

Database Social(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  return SocialNetworkDb(n, 5.0, 0.5, rng);
}

TEST(ExecutorRegistryTest, DefaultRegistersAllFourStrategies) {
  const ExecutorRegistry& registry = ExecutorRegistry::Default();
  const Strategy all[] = {Strategy::kExact, Strategy::kFptrasTreewidth,
                          Strategy::kFptrasFhw, Strategy::kAutomataFpras};
  for (Strategy strategy : all) {
    const StrategyExecutor* executor = registry.Find(strategy);
    ASSERT_NE(executor, nullptr) << StrategyName(strategy);
    EXPECT_EQ(executor->strategy(), strategy);
  }
  EXPECT_EQ(registry.RegisteredStrategies().size(), 4u);
}

TEST(ExecutorRegistryTest, RegisterReplacesByStrategy) {
  class StubExecutor : public StrategyExecutor {
   public:
    Strategy strategy() const override { return Strategy::kExact; }
    StatusOr<ExecOutcome> Execute(const ExecContext&) const override {
      ExecOutcome outcome;
      outcome.estimate = 42.0;
      return outcome;
    }
  };
  ExecutorRegistry registry;
  registry.Register(std::make_unique<StubExecutor>());
  registry.Register(std::make_unique<StubExecutor>());
  EXPECT_EQ(registry.RegisteredStrategies().size(), 1u);
  auto outcome = registry.Find(Strategy::kExact)->Execute(ExecContext{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->estimate, 42.0);
}

TEST(StrategyExecutorTest, ExactMatchesBruteForce) {
  Fixture f("ans(x) :- F(x, y), F(x, z), y != z.", Social(30, 1));
  auto outcome =
      ExecutorRegistry::Default().Find(Strategy::kExact)->Execute(f.Context());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->exact);
  EXPECT_DOUBLE_EQ(outcome->estimate,
                   static_cast<double>(ExactCountAnswersBruteForce(f.query, f.db)));
}

TEST(StrategyExecutorTest, FptrasMatchesDirectPipelineBitwise) {
  Fixture f("ans(x) :- F(x, y), F(x, z), y != z.", Social(120, 2));
  auto outcome = ExecutorRegistry::Default()
                     .Find(Strategy::kFptrasTreewidth)
                     ->Execute(f.Context());
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
  // Same budget, same seed, same decomposition: the executor is a pure
  // adapter, so the estimate is bitwise identical.
  EXPECT_EQ(outcome->estimate, via_pipeline->estimate);
  EXPECT_EQ(outcome->exact, via_pipeline->exact);
}

TEST(StrategyExecutorTest, AutomataFprasRunsOnPureCq) {
  Fixture f("ans(x, y) :- F(x, y).", Social(40, 3));
  auto outcome = ExecutorRegistry::Default()
                     .Find(Strategy::kAutomataFpras)
                     ->Execute(f.Context(0.15, 0.2));
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
