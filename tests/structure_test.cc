#include "relational/structure.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace cqcount {
namespace {

TEST(StructureTest, DeclareAndAdd) {
  Structure s(10);
  EXPECT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_TRUE(s.AddFact("R", {1, 2}).ok());
  s.Canonicalize();
  EXPECT_TRUE(s.HasRelation("R"));
  EXPECT_EQ(s.Arity("R"), 2);
  EXPECT_EQ(s.relation("R").size(), 1u);
}

TEST(StructureTest, RedeclareSameArityIsIdempotent) {
  Structure s(5);
  EXPECT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_FALSE(s.DeclareRelation("R", 3).ok());
}

TEST(StructureTest, AllowsZeroArityRejectsNegative) {
  Structure s(5);
  // Arity 0 backs nullary guard atoms R(): the relation holds at most the
  // empty tuple.
  EXPECT_TRUE(s.DeclareRelation("R", 0).ok());
  EXPECT_TRUE(s.AddFact("R", {}).ok());
  s.Canonicalize();
  EXPECT_EQ(s.relation("R").size(), 1u);
  EXPECT_FALSE(s.DeclareRelation("S", -1).ok());
}

TEST(StructureTest, AddFactValidation) {
  Structure s(3);
  ASSERT_TRUE(s.DeclareRelation("R", 2).ok());
  EXPECT_FALSE(s.AddFact("S", {0, 1}).ok());       // Undeclared.
  EXPECT_FALSE(s.AddFact("R", {0}).ok());          // Wrong arity.
  EXPECT_FALSE(s.AddFact("R", {0, 3}).ok());       // Outside universe.
  EXPECT_TRUE(s.AddFact("R", {0, 2}).ok());
  s.Canonicalize();
}

TEST(StructureTest, SizeFormula) {
  // ||A|| = |sig| + |U| + sum |R| * ar(R)  (Section 2.2).
  Structure s(7);
  ASSERT_TRUE(s.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(s.DeclareRelation("S", 3).ok());
  ASSERT_TRUE(s.AddFact("R", {0, 1}).ok());
  ASSERT_TRUE(s.AddFact("R", {1, 2}).ok());
  ASSERT_TRUE(s.AddFact("S", {0, 1, 2}).ok());
  s.Canonicalize();
  EXPECT_EQ(s.Size(), 2u + 7u + 2u * 2u + 1u * 3u);
  EXPECT_EQ(s.NumFacts(), 3u);
}

TEST(StructureTest, RelationNamesSorted) {
  Structure s(2);
  ASSERT_TRUE(s.DeclareRelation("Zeta", 1).ok());
  ASSERT_TRUE(s.DeclareRelation("Alpha", 1).ok());
  EXPECT_EQ(s.RelationNames(),
            (std::vector<std::string>{"Alpha", "Zeta"}));
}

// R over universe 6: (0,1,1) (1,3,3) (2,0,5) (2,1,5) (4,4,0).
Structure ProjectionFixture() {
  Structure s(6);
  EXPECT_TRUE(s.DeclareRelation("R", 3).ok());
  for (const Tuple& t : {Tuple{0, 1, 1}, Tuple{2, 0, 5}, Tuple{1, 3, 3},
                         Tuple{4, 4, 0}, Tuple{2, 1, 5}}) {
    EXPECT_TRUE(s.AddFact("R", t).ok());
  }
  s.Canonicalize();
  return s;
}

TEST(StructureProjectionTest, PermutationSubsetFilterAndEmpty) {
  const Structure s = ProjectionFixture();
  EXPECT_EQ(*s.Projection("R", {2, 0, 1}, {}),
            Relation(3, {1, 0, 1, 3, 1, 3, 5, 2, 0, 5, 2, 1, 0, 4, 4}));
  EXPECT_EQ(*s.Projection("R", {1}, {}), Relation(1, {1, 3, 0, 1, 4}));
  // R(x, y, y) read as (y, x): rows whose columns 1 and 2 agree.
  EXPECT_EQ(*s.Projection("R", {1, 0}, {0, 1, 1}), Relation(2, {1, 0, 3, 1}));
  // R(x, y, x): no row has column 0 equal to column 2.
  const auto none = s.Projection("R", {0}, {0, 1, 0});
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(none->arity(), 1);
}

TEST(StructureProjectionTest, RepeatedRequestReturnsTheSameObject) {
  const Structure s = ProjectionFixture();
  const auto reversed = s.Projection("R", {2, 0}, {});
  EXPECT_EQ(s.Projection("R", {2, 0}, {}), reversed);
  EXPECT_NE(s.Projection("R", {2, 1}, {}), reversed);
  EXPECT_NE(s.Projection("R", {2, 0}, {0, 1, 1}), reversed);
}

TEST(StructureProjectionTest, MutatingACopyStartsAFreshMemo) {
  Structure a = ProjectionFixture();
  const auto reversed = a.Projection("R", {2, 1, 0}, {});
  Structure b = a;
  EXPECT_EQ(b.Projection("R", {2, 1, 0}, {}), reversed);  // Shared memo.
  ASSERT_TRUE(b.AddFact("R", {5, 5, 5}).ok());
  b.Canonicalize();
  const auto grown = b.Projection("R", {2, 1, 0}, {});
  EXPECT_NE(grown, reversed);
  EXPECT_EQ(*grown, b.relation("R").Project({2, 1, 0}));
  EXPECT_EQ(grown->size(), reversed->size() + 1);
  // The unmutated copy keeps its entry, and the entry its rows.
  EXPECT_EQ(a.Projection("R", {2, 1, 0}, {}), reversed);
  EXPECT_EQ(*reversed, a.relation("R").Project({2, 1, 0}));
}

TEST(StructureProjectionTest, ProjectionPastTheBoundIsBuiltAndNotKept) {
  // One 6-ary relation: every column order charges rows x 6 values.
  Structure s(3);
  ASSERT_TRUE(s.DeclareRelation("E", 6).ok());
  for (Value i = 0; i < 40; ++i) {
    ASSERT_TRUE(s.AddFact("E", {i % 3, i / 3 % 3, i / 9 % 3, i % 2, (i + 1) % 3,
                                i / 27})
                    .ok());
  }
  s.Canonicalize();
  const Relation& e = s.relation("E");
  const uint64_t charge = e.size() * 6;
  const uint64_t kept = kProjectionMemoFactor * s.Size() / charge;
  ASSERT_GE(kept, 1u);
  std::vector<int> order = {0, 1, 2, 3, 4, 5};
  for (uint64_t i = 0; i <= kept; ++i) {
    ASSERT_TRUE(std::next_permutation(order.begin(), order.end()));
    const auto first = s.Projection("E", order, {});
    EXPECT_EQ(*first, e.Project(order));
    // Entries within the bound are kept; the first one past it is not.
    const auto again = s.Projection("E", order, {});
    EXPECT_EQ(again == first, i < kept) << "permutation " << i;
    EXPECT_EQ(*again, *first);
  }
}

}  // namespace
}  // namespace cqcount
