#include "automata/fpras.h"

#include <gtest/gtest.h>

#include "app/graph_gen.h"
#include "counting/exact_count.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqcount {
namespace {

using testing_util::RandomDatabaseFor;

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

TEST(FprasTest, CountsTwoPathsInCycle) {
  // ans(x, z) over E(x,y), E(y,z) on C5 (symmetric): exact via extension.
  Query q = Parse("ans(x, z) :- E(x, y), E(y, z).");
  Database db = GraphToDatabase(CycleGraph(5));
  auto exact = ExactCountAnswersExtension(q, db);
  ASSERT_TRUE(exact.ok());
  FprasOptions opts;
  opts.acjr.epsilon = 0.12;
  opts.acjr.seed = 11;
  auto result = FprasCountCq(q, db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, static_cast<double>(*exact),
              0.25 * static_cast<double>(*exact));
  EXPECT_GE(result->fhw, 1.0);
}

TEST(FprasTest, RejectsDcqAndEcq) {
  Database db = GraphToDatabase(PathGraph(3));
  FprasOptions opts;
  EXPECT_FALSE(FprasCountCq(Parse("ans(x) :- E(x, y), x != y."), db, opts)
                   .ok());
  Query ecq = Parse("ans(x) :- E(x, y), !E(y, y).");
  EXPECT_FALSE(FprasCountCq(ecq, db, opts).ok());
}

TEST(FprasTest, RejectsOutOfRangeAccuracy) {
  Database db = GraphToDatabase(PathGraph(3));
  Query q = Parse("ans(x) :- E(x, y).");
  FprasOptions opts;
  ASSERT_TRUE(FprasCountCq(q, db, opts).ok());
  for (const EstimateInputs& bad : testing_util::BadAccuracyInputs()) {
    static_cast<EstimateInputs&>(opts.acjr) = bad;
    EXPECT_EQ(FprasCountCq(q, db, opts).status().code(),
              StatusCode::kInvalidArgument)
        << "epsilon " << bad.epsilon << " delta " << bad.delta;
  }
}

TEST(FprasTest, LargerDatabaseStaysAccurate) {
  // The FPRAS's reason to exist: N too big for brute force over
  // solutions but fine for the extension-based exact counter.
  Query q = Parse("ans(x) :- E(x, y), E(y, z).");
  Rng rng(31);
  SimpleGraph g = ErdosRenyi(60, 0.05, rng);
  Database db = GraphToDatabase(g);
  auto exact = ExactCountAnswersExtension(q, db);
  ASSERT_TRUE(exact.ok());
  FprasOptions opts;
  opts.acjr.epsilon = 0.15;
  opts.acjr.sketch_size = 96;
  opts.acjr.seed = 13;
  auto result = FprasCountCq(q, db, opts);
  ASSERT_TRUE(result.ok());
  if (*exact == 0) {
    EXPECT_DOUBLE_EQ(result->estimate, 0.0);
  } else {
    EXPECT_NEAR(result->estimate, static_cast<double>(*exact),
                0.3 * static_cast<double>(*exact));
  }
}

TEST(FprasTest, BoundedFhwLargeArityQuery) {
  // Unbounded-arity regime: one wide atom keeps fhw at 1.
  Query q = Parse("ans(a, e) :- R(a, b, c, d), S(d, e).");
  Rng rng(17);
  Database db = RandomDatabaseFor(q, 6, 0.15, rng);
  auto exact = ExactCountAnswersExtension(q, db);
  ASSERT_TRUE(exact.ok());
  FprasOptions opts;
  opts.acjr.seed = 19;
  auto result = FprasCountCq(q, db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->fhw, 2.0 + 1e-9);
  if (*exact > 0) {
    EXPECT_NEAR(result->estimate, static_cast<double>(*exact),
                0.3 * static_cast<double>(*exact) + 1.0);
  }
}

}  // namespace
}  // namespace cqcount
