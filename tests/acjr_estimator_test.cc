#include "automata/acjr_estimator.h"

#include <gtest/gtest.h>

#include "app/graph_gen.h"
#include "counting/exact_count.h"
#include "decomposition/elimination_order.h"
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

NiceTreeDecomposition MakeNice(const Query& q) {
  Hypergraph h = q.BuildHypergraph();
  TreeDecomposition td = DecompositionFromOrder(h, MinFillOrder(h));
  return NiceTreeDecomposition::FromTreeDecomposition(h, td);
}

TEST(AcjrTest, QuantifierFreeQueriesAreExact) {
  Query q = Parse("ans(x, y, z) :- E(x, y), E(y, z).");
  Database db = GraphToDatabase(CycleGraph(5));
  auto result = AcjrCountAnswers(q, db, MakeNice(q), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->estimate,
                   static_cast<double>(ExactCountAnswersBruteForce(q, db)));
}

TEST(AcjrTest, ExistentialProjectionCounted) {
  // ans(x) over E(x,y): distinct first components.
  Query q = Parse("ans(x) :- E(x, y).");
  Database db(4);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  ASSERT_TRUE(db.AddFact("E", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("E", {0, 2}).ok());
  ASSERT_TRUE(db.AddFact("E", {3, 1}).ok());
  db.Canonicalize();
  auto result = AcjrCountAnswers(q, db, MakeNice(q), {});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 2.0, 0.3);
}

TEST(AcjrTest, EmptyAnswerSet) {
  Query q = Parse("ans(x) :- E(x, y).");
  Database db(3);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  auto result = AcjrCountAnswers(q, db, MakeNice(q), {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
  EXPECT_TRUE(result->exact);
}

TEST(AcjrTest, RejectsExtendedQueries) {
  Query q = Parse("ans(x) :- E(x, y), x != y.");
  Database db = GraphToDatabase(PathGraph(3));
  EXPECT_FALSE(AcjrCountAnswers(q, db, MakeNice(q), {}).ok());
}

TEST(AcjrTest, RejectsOutOfRangeAccuracy) {
  Query q = Parse("ans(x) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(3));
  const NiceTreeDecomposition nice = MakeNice(q);
  AcjrOptions opts;
  ASSERT_TRUE(AcjrCountAnswers(q, db, nice, opts).ok());
  for (const EstimateInputs& bad : testing_util::BadAccuracyInputs()) {
    static_cast<EstimateInputs&>(opts) = bad;
    EXPECT_EQ(AcjrCountAnswers(q, db, nice, opts).status().code(),
              StatusCode::kInvalidArgument)
        << "epsilon " << bad.epsilon << " delta " << bad.delta;
  }
}

TEST(AcjrTest, BooleanQuery) {
  Query q = Parse("ans() :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(2));
  auto result = AcjrCountAnswers(q, db, MakeNice(q), {});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 1.0, 0.1);
}

TEST(AcjrTest, UnionEstimatesReported) {
  Query q = Parse("ans(x) :- E(x, y).");
  Database db = GraphToDatabase(CycleGraph(5));
  auto result = AcjrCountAnswers(q, db, MakeNice(q), {});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->union_estimates, 0u);
  EXPECT_GT(result->membership_tests, 0u);
  EXPECT_NEAR(result->estimate, 5.0, 1.0);
}

// Accuracy sweep on random CQs with existential variables.
class AcjrAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(AcjrAccuracyTest, EstimateWithinTolerance) {
  Rng rng(GetParam() * 173 + 7);
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.max_atoms = 3;
  Query q = RandomQuery(rng, qopts);
  Database db = RandomDatabaseFor(q, 5, 0.5, rng);
  const double exact =
      static_cast<double>(ExactCountAnswersBruteForce(q, db));
  AcjrOptions opts;
  opts.epsilon = 0.15;
  opts.sketch_size = 128;
  opts.seed = GetParam();
  auto result = AcjrCountAnswers(q, db, MakeNice(q), opts);
  ASSERT_TRUE(result.ok()) << q.ToString();
  if (exact == 0.0) {
    EXPECT_DOUBLE_EQ(result->estimate, 0.0) << q.ToString();
  } else {
    EXPECT_NEAR(result->estimate, exact, 0.3 * exact + 1e-9)
        << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcjrAccuracyTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace cqcount
