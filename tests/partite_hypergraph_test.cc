#include "counting/partite_hypergraph.h"

#include <gtest/gtest.h>

#include "app/graph_gen.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqcount {
namespace {

using testing_util::MaskOf;

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

PartiteSubset FullParts(int l, uint32_t n) {
  PartiteSubset s;
  s.parts.assign(l, Bitset(n, true));
  return s;
}

TEST(BruteForceOracleTest, Observation25Bijection) {
  // The hyperedges of H(phi, D) are exactly the answers.
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(3));
  BruteForceEdgeFreeOracle oracle(q, db);
  EXPECT_EQ(oracle.answers().size(), 4u);
  EXPECT_FALSE(oracle.IsEdgeFree(FullParts(2, 3)));
}

TEST(BruteForceOracleTest, RestrictedPartsDetectEmptiness) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(3));  // Edges 0-1, 1-2.
  BruteForceEdgeFreeOracle oracle(q, db);
  PartiteSubset s = FullParts(2, 3);
  // V_0 = {0}, V_1 = {2}: no edge from 0 to 2.
  s.parts[0] = MaskOf({true, false, false});
  s.parts[1] = MaskOf({false, false, true});
  EXPECT_TRUE(oracle.IsEdgeFree(s));
  // V_0 = {0}, V_1 = {1}: edge exists.
  s.parts[1] = MaskOf({false, true, false});
  EXPECT_FALSE(oracle.IsEdgeFree(s));
}

TEST(BruteForceOracleTest, EmptyPartIsEdgeFree) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.AddFact("R", {0}).ok());
  db.Canonicalize();
  BruteForceEdgeFreeOracle oracle(q, db);
  PartiteSubset s;
  s.parts = {Bitset(2, false)};
  EXPECT_TRUE(oracle.IsEdgeFree(s));
}

TEST(GeneralAdapterTest, PermutationReductionMatchesDirect) {
  // Lemma 22's l!-permutation trick: unaligned parts resolve correctly.
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(PathGraph(3));
  BruteForceEdgeFreeOracle aligned(q, db);
  GeneralEdgeFreeAdapter adapter(&aligned, 2, 3);

  // W_1 = {(value 0, position 0), (value 1, position 1)},
  // W_2 = {(value 1, position 0), (value 2, position 1)}.
  // Under the identity permutation: V_0 = {0}, V_1 = {2} (no edge);
  // under the swap: V_0 = {1}, V_1 = {1} -- but (1,1) is not an edge
  // either (no loop). However W_1 x W_2 also admits 0->1 via identity?
  // V_0 from W_1 = {0}, V_1 from W_2 = {2}: no. Swap: V_0 from W_2 =
  // {1}, V_1 from W_1 = {1}: no loop. Hence edge-free.
  GeneralPartiteSubset w;
  w.parts = {{0 * 3 + 0, 1 * 3 + 1}, {0 * 3 + 1, 1 * 3 + 2}};
  EXPECT_TRUE(adapter.IsEdgeFree(w));

  // Now include (value 1, position 1) in W_2: identity gives V_0 = {0},
  // V_1 = {1}: the edge 0-1 appears.
  w.parts[1].push_back(1 * 3 + 1);
  EXPECT_FALSE(adapter.IsEdgeFree(w));
}

TEST(GeneralAdapterTest, AgreesWithAlignedOnAlignedInputs) {
  Query q = Parse("ans(x, y) :- E(x, y).");
  Database db = GraphToDatabase(CycleGraph(4));
  BruteForceEdgeFreeOracle aligned(q, db);
  GeneralEdgeFreeAdapter adapter(&aligned, 2, 4);
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    PartiteSubset s = FullParts(2, 4);
    s.parts[0] = rng.RandomMask(4, 0.5);
    s.parts[1] = rng.RandomMask(4, 0.5);
    GeneralPartiteSubset w;
    w.parts.resize(2);
    for (int i = 0; i < 2; ++i) {
      for (uint32_t v = 0; v < 4; ++v) {
        if (s.parts[i].Test(v)) {
          w.parts[i].push_back(static_cast<uint64_t>(i) * 4 + v);
        }
      }
    }
    BruteForceEdgeFreeOracle fresh(q, db);
    EXPECT_EQ(adapter.IsEdgeFree(w), fresh.IsEdgeFree(s));
  }
}

}  // namespace
}  // namespace cqcount
