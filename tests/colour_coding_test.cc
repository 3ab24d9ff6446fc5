#include "counting/colour_coding.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "app/graph_gen.h"
#include "decomposition/elimination_order.h"
#include "decomposition/width_measures.h"
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

std::unique_ptr<DecompositionHomOracle> MakeHom(const Query& q,
                                                const Database& db) {
  Hypergraph h = q.BuildHypergraph();
  FWidthResult w = ComputeDecomposition(h, WidthObjective::kTreewidth);
  return std::make_unique<DecompositionHomOracle>(q, db, w.decomposition);
}

// Answers as `inner` does and counts the decisions made through it (on
// the default lane).
class CountingHomOracle : public HomOracle {
 public:
  explicit CountingHomOracle(const HomOracle& inner) : inner_(inner) {}

  bool Decide(const VarDomains& domains) const override {
    decides_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Decide(domains);
  }

  uint64_t decides() const { return decides_.load(std::memory_order_relaxed); }

 private:
  const HomOracle& inner_;
  mutable std::atomic<uint64_t> decides_{0};
};

// Lemma 30 / Lemma 22 validation: the colour-coding oracle must agree
// with ground truth. "Edge present" answers are always sound; "edge free"
// answers fail with probability <= per_call_failure, so with a tight
// failure budget the agreement should be total on these small instances.
class ColourCodingAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ColourCodingAgreementTest, MatchesBruteForceOracle) {
  Rng rng(GetParam() * 271 + 17);
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.disequality_probability = 0.35;
  qopts.negated_probability = 0.2;
  qopts.forced_num_free = 2;
  Query q = RandomQuery(rng, qopts);
  if (q.num_free() > q.num_vars()) return;
  Database db = RandomDatabaseFor(q, 4, 0.5, rng);

  auto hom = MakeHom(q, db);
  ColourCodingOptions opts;
  opts.per_call_failure = 1e-6;
  opts.seed = GetParam();
  ColourCodingEdgeFreeOracle simulated(q, hom.get(), 4, opts);
  BruteForceEdgeFreeOracle truth(q, db);

  for (int trial = 0; trial < 10; ++trial) {
    PartiteSubset parts;
    parts.parts = {rng.RandomMask(4, 0.6), rng.RandomMask(4, 0.6)};
    const bool expected = truth.IsEdgeFree(parts);
    const bool actual = simulated.IsEdgeFree(parts);
    if (expected) {
      // One-sided: "edge free" must never be contradicted spuriously --
      // a found homomorphism is a real witness.
      EXPECT_TRUE(actual) << q.ToString();
    } else {
      // Miss probability is ~1e-6 per call; treat a miss as failure.
      EXPECT_FALSE(actual) << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColourCodingAgreementTest,
                         ::testing::Range(0, 25));

TEST(ColourCodingTest, NoDisequalitiesMeansSingleHomQuery) {
  Query q = Parse("ans(x) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(4));
  auto hom = MakeHom(q, db);
  CountingHomOracle counting(*hom);
  ColourCodingOptions opts;
  ColourCodingEdgeFreeOracle oracle(q, &counting, 4, opts);
  PartiteSubset parts;
  parts.parts = {Bitset(4, true)};
  EXPECT_FALSE(oracle.IsEdgeFree(parts));
  EXPECT_EQ(counting.decides(), 1u);
  EXPECT_EQ(oracle.hom_queries(), 1u);
  EXPECT_EQ(oracle.trials_per_call(), 1u);
}

TEST(ColourCodingTest, TrialsScaleWithDisequalities) {
  Query q1 = Parse("ans(x) :- E(x, y), E(x, z), y != z.");
  Query q2 = Parse(
      "ans(x) :- E(x, y), E(x, z), E(x, w), y != z, y != w, z != w.");
  Database db = GraphToDatabase(StarGraph(4));
  auto hom1 = MakeHom(q1, db);
  auto hom2 = MakeHom(q2, db);
  ColourCodingOptions opts;
  ColourCodingEdgeFreeOracle o1(q1, hom1.get(), 5, opts);
  ColourCodingEdgeFreeOracle o2(q2, hom2.get(), 5, opts);
  // Q = ceil(ln(1/delta')) * 4^{|Delta|}.
  EXPECT_EQ(o2.trials_per_call(), o1.trials_per_call() * 16);
}

TEST(ColourCodingTest, EmptyPartShortCircuits) {
  Query q = Parse("ans(x) :- E(x, y), x != y.");
  Database db = GraphToDatabase(PathGraph(3));
  auto hom = MakeHom(q, db);
  CountingHomOracle counting(*hom);
  ColourCodingOptions opts;
  ColourCodingEdgeFreeOracle oracle(q, &counting, 3, opts);
  PartiteSubset parts;
  parts.parts = {Bitset(3, false)};
  EXPECT_TRUE(oracle.IsEdgeFree(parts));
  EXPECT_EQ(counting.decides(), 0u);
}

// A hom oracle for `ans(x, y) :- E(x, y), x != y` whose trial verdict is
// a fixed function of the colouring: a witness iff x's red mask holds 0, 1
// and 2. Counts its decisions.
class ColouringHomOracle : public HomOracle {
 public:
  bool Decide(const VarDomains& domains) const override {
    decides_.fetch_add(1, std::memory_order_relaxed);
    // x's base domain is the whole universe, so its overlaid domain is
    // the trial's red mask.
    const Bitset& x = domains.allowed[0];
    return x.Test(0) && x.Test(1) && x.Test(2);
  }

  uint64_t decides() const { return decides_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> decides_{0};
};

// A call's trials run in index order and stop at the first witness: the
// oracle decides, and charges to hom_queries(), exactly the trials up to
// and including it.
TEST(ColourCodingTest, ChargesTrialsUpToFirstWitness) {
  Query q = Parse("ans(x, y) :- E(x, y), x != y.");
  const uint32_t universe = 8;
  PartiteSubset parts;
  parts.parts = {Bitset(universe, true), Bitset(universe, true)};
  ColourCodingOptions opts;
  opts.per_call_failure = 1e-12;  // 112 trials: a dozen witnesses.

  ColouringHomOracle hom;
  ColourCodingEdgeFreeOracle oracle(q, &hom, universe, opts);
  ASSERT_EQ(oracle.trials_per_call(), 112u);
  EXPECT_FALSE(oracle.IsEdgeFree(parts));
  EXPECT_LT(oracle.hom_queries(), oracle.trials_per_call());
  EXPECT_EQ(oracle.hom_queries(), hom.decides());
}

TEST(DecideAnySolutionTest, BooleanQueries) {
  Query yes = Parse("ans() :- E(x, y), E(y, z), x != z.");
  Query no = Parse("ans() :- E(x, y), E(y, x), x != y.");
  Database db = GraphToDatabase(PathGraph(3));
  // A path 0-1-2 viewed as symmetric edges: E(x,y),E(y,z),x!=z is
  // satisfied by 0-1-2. E(x,y),E(y,x),x!=y is satisfied too (symmetric
  // storage!), so use a directed database for the negative case.
  {
    auto hom = MakeHom(yes, db);
    Rng rng(5);
    EXPECT_TRUE(
        DecideAnySolution(yes, hom.get(), 3, VarDomains{}, 1e-6, rng));
  }
  Database directed(3);
  ASSERT_TRUE(directed.DeclareRelation("E", 2).ok());
  ASSERT_TRUE(directed.AddFact("E", {0, 1}).ok());
  directed.Canonicalize();
  {
    auto hom = MakeHom(no, directed);
    Rng rng(6);
    EXPECT_FALSE(
        DecideAnySolution(no, hom.get(), 3, VarDomains{}, 1e-6, rng));
  }
}

}  // namespace
}  // namespace cqcount
