#include "hom/backtracking.h"

#include <gtest/gtest.h>

#include <string>

#include "app/graph_gen.h"
#include "query/parser.h"
#include "test_util.h"
#include "util/executor.h"

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

TEST(BacktrackingTest, CountsEdgeSolutions) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(3));  // Edges {0,1},{1,2} both ways.
  EXPECT_EQ(CountSolutionsBrute(q, db), 4u);
  EXPECT_EQ(CountAnswersBrute(q, db), 4u);
  EXPECT_TRUE(DecideSolutionBrute(q, db));
}

TEST(BacktrackingTest, ProjectionDeduplicates) {
  // ans(x) over E(x,y) on the path: 3 distinct x values.
  Query q = Parse("ans(x) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(3));
  EXPECT_EQ(CountSolutionsBrute(q, db), 4u);
  EXPECT_EQ(CountAnswersBrute(q, db), 3u);
}

TEST(BacktrackingTest, DisequalityFiltersSolutions) {
  // Friends query: people with two distinct neighbours on a path of 3:
  // only the middle vertex.
  Query q = Parse("ans(x) :- E(x, y), E(x, z), y != z.");
  Database db = GraphToDatabase(PathGraph(3));
  EXPECT_EQ(CountAnswersBrute(q, db), 1u);
}

TEST(BacktrackingTest, HamiltonPathCount) {
  // Observation 10 encoding: Hamiltonian paths of K3 = 3! = 6 directed
  // labellings; on the 3-path graph there are exactly 2.
  Query q = Parse(
      "ans(a, b, c) :- E(a, b), E(b, c), a != b, a != c, b != c.");
  EXPECT_EQ(CountAnswersBrute(q, GraphToDatabase(CliqueGraph(3))), 6u);
  EXPECT_EQ(CountAnswersBrute(q, GraphToDatabase(PathGraph(3))), 2u);
}

TEST(BacktrackingTest, NegatedAtomCountsNonEdges) {
  // Ordered non-adjacent distinct pairs in P3: pairs (0,2),(2,0) plus
  // loops excluded via disequality.
  Query q = Parse("ans(x, y) :- V(x), V(y), !E(x, y), x != y.");
  Database db = GraphToDatabase(PathGraph(3));
  ASSERT_TRUE(db.DeclareRelation("V", 1).ok());
  for (Value v = 0; v < 3; ++v) ASSERT_TRUE(db.AddFact("V", {v}).ok());
  db.Canonicalize();
  EXPECT_EQ(CountAnswersBrute(q, db), 2u);
}

TEST(BacktrackingTest, EarlyStopOnDecision) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(CliqueGraph(6));
  EXPECT_TRUE(DecideSolutionBrute(q, db));
}

TEST(BacktrackingTest, ExistentialWitnessRequired) {
  Query q = Parse("ans(x) :- E(x, y), F(y).");
  Database db = GraphToDatabase(PathGraph(3));
  ASSERT_TRUE(db.DeclareRelation("F", 1).ok());
  ASSERT_TRUE(db.AddFact("F", {2}).ok());
  db.Canonicalize();
  // x must have a neighbour in F = {2}: only x = 1.
  EXPECT_EQ(CountAnswersBrute(q, db), 1u);
}

// The split count of (q, db) against its unsplit count: the same answers
// and nodes at 1, 2 and 4 lanes of a 4-thread pool. With a free variable
// it runs kJoinWindows windows, whose answers and nodes therefore sum to
// the unsplit ones; without one it is never split.
void ExpectSplitCountMatches(const Query& q, const Database& db,
                             const JoinCount& unsplit) {
  static Executor pool(4);
  for (int lanes : {1, 2, 4}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    ParallelStats parallel;
    const JoinCount split =
        CountAnswersJoinSplit(q, db, &pool, lanes, nullptr, &parallel);
    EXPECT_TRUE(split.complete);
    EXPECT_EQ(split.answers, unsplit.answers);
    EXPECT_EQ(split.nodes, unsplit.nodes);
    const bool windows = q.num_free() > 0;
    EXPECT_EQ(parallel.lanes, windows ? lanes : 1);
    EXPECT_EQ(parallel.tasks, windows ? uint64_t{kJoinWindows} : 0u);
    EXPECT_LE(parallel.worker_tasks, parallel.tasks);
  }
}

// The budget contract of CountAnswersJoin on one (q, db): the count is
// complete exactly when its node count is within the budget, a repeated
// run visits the same nodes, and a budget that stops the join still
// reports the node that stopped it.
void ExpectJoinCountMatchesBruteForce(const Query& q, const Database& db,
                                      Rng& rng) {
  SCOPED_TRACE(q.ToString());
  const JoinCount count = CountAnswersJoin(q, db);
  EXPECT_TRUE(count.complete);
  EXPECT_EQ(count.answers, CountAnswersBrute(q, db));
  EXPECT_EQ(CountAnswersJoin(q, db).nodes, count.nodes);
  const uint64_t budgets[] = {0, count.nodes > 0 ? count.nodes - 1 : 0,
                              count.nodes, rng.UniformInt(count.nodes + 1)};
  for (uint64_t budget : budgets) {
    const JoinCount capped = CountAnswersJoin(q, db, budget);
    EXPECT_EQ(capped.complete, count.nodes <= budget) << "budget " << budget;
    EXPECT_EQ(capped.complete, capped.nodes <= budget) << "budget " << budget;
    EXPECT_EQ(capped.nodes, capped.complete ? count.nodes : budget + 1)
        << "budget " << budget;
    EXPECT_LE(capped.answers, count.answers) << "budget " << budget;
    if (capped.complete) {
      EXPECT_EQ(capped.answers, count.answers) << "budget " << budget;
    }
  }
  ExpectSplitCountMatches(q, db, count);
}

TEST(CountAnswersJoinTest, BooleanQueryStopsAtItsFirstSolution) {
  Query q = Parse("ans() :- E(x, y), E(y, z), x != z.");
  Database db = GraphToDatabase(CliqueGraph(6));
  const JoinCount count = CountAnswersJoin(q, db);
  EXPECT_TRUE(count.complete);
  EXPECT_EQ(count.answers, 1u);
  // One value per level reaches the first solution (x = 0, y = 1, z = 2
  // after z = 0 fails x != z): four nodes, not the 120 solutions.
  EXPECT_EQ(count.nodes, 4u);
  EXPECT_EQ(CountSolutionsBrute(q, db), 120u);
}

TEST(CountAnswersJoinTest, EachAnswerCostsOneWitness) {
  // Every vertex of K6 has 5 * 4 two-step walks to a different vertex;
  // the join stops at the first one, so it tries 6 values of x, not the
  // 120 solutions.
  Query q = Parse("ans(x) :- E(x, y), E(y, z), x != z.");
  Database db = GraphToDatabase(CliqueGraph(6));
  const JoinCount count = CountAnswersJoin(q, db);
  EXPECT_EQ(count.answers, 6u);
  EXPECT_LT(count.nodes, 6u * 4);
}

TEST(CountAnswersJoinTest, EdgeCasesMatchBruteForce) {
  Rng rng(3);
  Database db = GraphToDatabase(PathGraph(4));
  ASSERT_TRUE(db.DeclareRelation("Empty", 1).ok());
  ASSERT_TRUE(db.DeclareRelation("T", 3).ok());
  for (Value v = 0; v < 4; ++v) {
    ASSERT_TRUE(db.AddFact("T", {v, (v + 1) % 4, v}).ok());
    ASSERT_TRUE(db.AddFact("T", {v, v, (v + 2) % 4}).ok());
  }
  db.Canonicalize();
  for (const char* text : {
           // y is bound only by a disequality: an unconstrained level.
           "ans(x, y) :- E(x, z), x != y.",
           "ans(x) :- E(x, z), z != y.",
           "ans(y) :- E(x, z), y != x, y != z.",
           // An empty relation, positive and negated.
           "ans(x) :- E(x, y), Empty(y).",
           "ans(x) :- E(x, y), !Empty(y).",
           "ans() :- E(x, y), Empty(x).",
           // Repeated variables.
           "ans(x) :- E(x, x).",
           "ans(x, y) :- T(x, y, x).",
           "ans(x) :- T(x, x, y), !T(y, y, x).",
           // Disequalities between free and existential variables.
           "ans(a, b) :- E(a, c), E(c, b), a != c, b != c.",
       }) {
    ExpectJoinCountMatchesBruteForce(Parse(text), db, rng);
  }
}

// Property: the output-sensitive join, unsplit and split into windows on
// lanes, equals the enumerate-and-deduplicate reference on random ECQs
// (negated atoms, disequalities, repeated variables), cycling through no
// free variables, all variables free and random projections.
class CountAnswersJoinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CountAnswersJoinPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam() * 131 + 5);
  RandomQueryOptions qopts;
  qopts.negated_probability = 0.25;
  qopts.disequality_probability = 0.3;
  qopts.min_vars = qopts.max_vars = 2 + GetParam() % 4;
  switch (GetParam() % 3) {
    case 0:
      qopts.forced_num_free = 0;
      break;
    case 1:
      qopts.forced_num_free = qopts.max_vars;
      break;
    default:
      break;  // Uniform in [0, vars].
  }
  Query q = RandomQuery(rng, qopts);
  Database db = RandomDatabaseFor(q, 5, 0.4, rng);
  ExpectJoinCountMatchesBruteForce(q, db, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountAnswersJoinPropertyTest,
                         ::testing::Range(0, 90));

}  // namespace
}  // namespace cqcount
