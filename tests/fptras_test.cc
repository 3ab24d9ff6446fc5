#include "counting/fptras.h"

#include <gtest/gtest.h>

#include "app/graph_gen.h"
#include "counting/exact_count.h"
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

ApproxOptions TestOptions(uint64_t seed, double epsilon = 0.1) {
  ApproxOptions opts;
  opts.epsilon = epsilon;
  opts.delta = 0.1;
  opts.seed = seed;
  return opts;
}

TEST(FptrasTest, FriendsQueryOnPath) {
  // The intro's query (1): vertices with two distinct neighbours.
  Query q = Parse("ans(x) :- F(x, y), F(x, z), y != z.");
  Database db = GraphToDatabase(PathGraph(5), "F");
  auto result = ApproxCountAnswers(q, db, TestOptions(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Exact: the 3 interior vertices.
  EXPECT_NEAR(result->estimate, 3.0, 0.5);
}

TEST(FptrasTest, SmallAnswerSetsAreExact) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(CycleGraph(6));
  auto result = ApproxCountAnswers(q, db, TestOptions(2));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->estimate, 12.0);
}

TEST(FptrasTest, BooleanEcqDecision) {
  Query q = Parse("ans() :- E(x, y), E(y, z), x != z.");
  Database db = GraphToDatabase(PathGraph(3));
  auto result = ApproxCountAnswers(q, db, TestOptions(3));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 1.0);

  Database empty(3);
  ASSERT_TRUE(empty.DeclareRelation("E", 2).ok());
  auto zero = ApproxCountAnswers(q, empty, TestOptions(4));
  ASSERT_TRUE(zero.ok());
  EXPECT_DOUBLE_EQ(zero->estimate, 0.0);
}

TEST(FptrasTest, NegatedAtomsSupported) {
  // Distinct ordered non-adjacent pairs (ECQ with negation).
  Query q = Parse("ans(x, y) :- V(x), V(y), !E(x, y), x != y.");
  Database db = GraphToDatabase(PathGraph(4));
  ASSERT_TRUE(db.DeclareRelation("V", 1).ok());
  for (Value v = 0; v < 4; ++v) ASSERT_TRUE(db.AddFact("V", {v}).ok());
  db.Canonicalize();
  const double exact =
      static_cast<double>(ExactCountAnswersBruteForce(q, db));
  auto result = ApproxCountAnswers(q, db, TestOptions(5));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, exact, 0.2 * exact + 0.5);
}

TEST(FptrasTest, RejectsInvalidParameters) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ApproxOptions opts = TestOptions(1);
  opts.epsilon = 2.0;
  EXPECT_FALSE(ApproxCountAnswers(q, db, opts).ok());
  for (const EstimateInputs& bad : testing_util::BadAccuracyInputs()) {
    static_cast<EstimateInputs&>(opts) = bad;
    EXPECT_EQ(ApproxCountAnswers(q, db, opts).status().code(),
              StatusCode::kInvalidArgument)
        << "epsilon " << bad.epsilon << " delta " << bad.delta;
  }
}

TEST(FptrasTest, RejectsSignatureMismatch) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(2);
  EXPECT_FALSE(ApproxCountAnswers(q, db, TestOptions(1)).ok());
}

TEST(FptrasTest, EmptyUniverse) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(0);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  auto result = ApproxCountAnswers(q, db, TestOptions(6));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
}

TEST(FptrasTest, FhwObjectiveForUnboundedArity) {
  // Theorem 13 regime: a large-arity acyclic (hyperpath) DCQ.
  Query q = Parse(
      "ans(a, b) :- R(a, b, c, d), S(c, d, e, f), a != b, e != f.");
  Rng rng(9);
  Database db = RandomDatabaseFor(q, 5, 0.3, rng);
  ApproxOptions opts = TestOptions(7, 0.15);
  opts.objective = WidthObjective::kFractionalHypertreewidth;
  const double exact =
      static_cast<double>(ExactCountAnswersBruteForce(q, db));
  auto result = ApproxCountAnswers(q, db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, exact, 0.3 * exact + 1.0);
}

// End-to-end property: the FPTRAS lands within tolerance of brute force
// across random ECQs (small instances; exact phase often kicks in, which
// is fine -- that's part of the contract).
class FptrasAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(FptrasAccuracyTest, EstimateWithinTolerance) {
  Rng rng(GetParam() * 101 + 43);
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.max_atoms = 3;
  qopts.disequality_probability = 0.25;
  qopts.negated_probability = 0.2;
  Query q = RandomQuery(rng, qopts);
  Database db = RandomDatabaseFor(q, 5, 0.5, rng);
  const double exact =
      static_cast<double>(ExactCountAnswersBruteForce(q, db));
  auto result = ApproxCountAnswers(q, db, TestOptions(GetParam(), 0.12));
  ASSERT_TRUE(result.ok()) << q.ToString();
  if (exact == 0.0) {
    EXPECT_DOUBLE_EQ(result->estimate, 0.0) << q.ToString();
  } else {
    EXPECT_NEAR(result->estimate, exact, 0.25 * exact + 1e-9)
        << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FptrasAccuracyTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace cqcount
