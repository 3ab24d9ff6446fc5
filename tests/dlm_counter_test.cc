#include "counting/dlm_counter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "app/graph_gen.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqcount {
namespace {

using testing_util::RandomDatabaseFor;
using testing_util::RandomQuery;
using testing_util::RandomQueryOptions;

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

TEST(DlmCounterTest, ZeroEdges) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db(4);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());  // Empty relation.
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({4, 4}, oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
  EXPECT_TRUE(result->exact);
}

TEST(DlmCounterTest, ExactPhaseOnSmallAnswerSets) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(CycleGraph(5));
  BruteForceEdgeFreeOracle oracle(q, db);
  DlmOptions opts;
  auto result = DlmCountEdges({5, 5}, oracle, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->estimate, 10.0);  // 2 directions x 5 edges.
}

TEST(DlmCounterTest, SinglePartCounting) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(64);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  for (Value v = 0; v < 64; v += 2) ASSERT_TRUE(db.AddFact("R", {v}).ok());
  db.Canonicalize();
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({64}, oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 32.0);
}

TEST(DlmCounterTest, EstimationPhaseWithinEpsilon) {
  // Force the estimation path with a tiny exact budget; the estimate must
  // still land within epsilon (seeded determinism).
  Query q = Parse("ans(x, y) :- E(x, y).");
  Rng rng(42);
  SimpleGraph g = ErdosRenyi(40, 0.3, rng);
  Database db = GraphToDatabase(g);
  BruteForceEdgeFreeOracle truth(q, db);
  const double exact = static_cast<double>(truth.answers().size());
  ASSERT_GT(exact, 100.0);

  DlmOptions opts;
  opts.exact_enumeration_budget = 8;
  opts.max_frontier = 64;
  opts.epsilon = 0.1;
  opts.delta = 0.2;
  opts.seed = 7;
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({40, 40}, oracle, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_NEAR(result->estimate, exact, opts.epsilon * exact * 1.5);
  EXPECT_GT(result->oracle_calls, 0u);
}

TEST(DlmCounterTest, InvalidParametersRejected) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  BruteForceEdgeFreeOracle oracle(q, db);
  DlmOptions opts;
  opts.epsilon = 0.0;
  EXPECT_FALSE(DlmCountEdges({2}, oracle, opts).ok());
  opts.epsilon = 0.1;
  opts.delta = 1.5;
  EXPECT_FALSE(DlmCountEdges({2}, oracle, opts).ok());
  EXPECT_FALSE(DlmCountEdges({}, oracle, {}).ok());
  for (const EstimateInputs& bad : testing_util::BadAccuracyInputs()) {
    static_cast<EstimateInputs&>(opts) = bad;
    EXPECT_EQ(DlmCountEdges({2}, oracle, opts).status().code(),
              StatusCode::kInvalidArgument)
        << "epsilon " << bad.epsilon << " delta " << bad.delta;
  }
}

TEST(DlmCounterTest, ZeroSizedPartMeansZeroEdges) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.AddFact("R", {0}).ok());
  db.Canonicalize();
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({0}, oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
}

// Property sweep: estimation stays within 2*epsilon of the truth across
// seeds and query shapes (using the brute-force oracle for ground truth).
class DlmAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(DlmAccuracyTest, EstimateWithinTolerance) {
  Rng rng(GetParam() * 53 + 29);
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.forced_num_free = 2;
  Query q = RandomQuery(rng, qopts);
  Database db = RandomDatabaseFor(q, 8, 0.5, rng);
  BruteForceEdgeFreeOracle truth(q, db);
  const double exact = static_cast<double>(truth.answers().size());

  DlmOptions opts;
  opts.exact_enumeration_budget = 4;  // Force estimation when nontrivial.
  opts.max_frontier = 32;
  opts.epsilon = 0.15;
  opts.delta = 0.2;
  opts.seed = GetParam();
  BruteForceEdgeFreeOracle oracle(q, db);
  auto result = DlmCountEdges({8, 8}, oracle, opts);
  ASSERT_TRUE(result.ok());
  if (exact == 0.0) {
    EXPECT_DOUBLE_EQ(result->estimate, 0.0);
  } else {
    EXPECT_NEAR(result->estimate, exact, 2.0 * opts.epsilon * exact + 1e-9)
        << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DlmAccuracyTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace cqcount
