#include "query/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.h"

namespace cqcount {
namespace {

TEST(ParserTest, ParsesFriendsQuery) {
  auto q = ParseQuery("ans(x) :- F(x, y), F(x, z), y != z.");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_free(), 1);
  EXPECT_EQ(q->num_vars(), 3);
  EXPECT_EQ(q->atoms().size(), 2u);
  EXPECT_EQ(q->disequalities().size(), 1u);
  EXPECT_EQ(q->Kind(), QueryKind::kDcq);
}

TEST(ParserTest, ParsesNegatedAtoms) {
  auto q = ParseQuery("ans(x, y) :- R(x, y), !S(y, x).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->Kind(), QueryKind::kEcq);
  EXPECT_EQ(q->NumNegatedAtoms(), 1);
}

TEST(ParserTest, BooleanQueryHasNoFreeVariables) {
  auto q = ParseQuery("ans() :- R(x, y).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_free(), 0);
  EXPECT_EQ(q->num_vars(), 2);
}

TEST(ParserTest, TrailingPeriodOptional) {
  EXPECT_TRUE(ParseQuery("ans(x) :- R(x)").ok());
}

TEST(ParserTest, FreeVariablesComeFirst) {
  auto q = ParseQuery("ans(a, b) :- R(z, a), S(b, z).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->var_name(0), "a");
  EXPECT_EQ(q->var_name(1), "b");
  EXPECT_EQ(q->var_name(2), "z");
}

TEST(ParserTest, EqualityMergesVariables) {
  // x = z merges the two; the query becomes R(x, y), S(x).
  auto q = ParseQuery("ans(x) :- R(x, y), S(z), x = z.");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_vars(), 2);
  EXPECT_EQ(q->num_free(), 1);
  // Both atoms now reference variable 0.
  EXPECT_EQ(q->atoms()[1].vars[0], 0);
}

TEST(ParserTest, EqualityChainMerges) {
  auto q = ParseQuery("ans() :- R(a, b), a = b, b = c, R(b, c).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_vars(), 1);
}

TEST(ParserTest, MergedFreeVariableStaysFree) {
  auto q = ParseQuery("ans(x) :- R(y), x = y.");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_free(), 1);
  EXPECT_EQ(q->num_vars(), 1);
  EXPECT_EQ(q->var_name(0), "x");
}

TEST(ParserTest, ContradictionAfterMergeRejected) {
  auto q = ParseQuery("ans() :- R(x, y), x = y, x != y.");
  EXPECT_FALSE(q.ok());
}

TEST(ParserTest, RejectsDuplicateHeadVariable) {
  EXPECT_FALSE(ParseQuery("ans(x, x) :- R(x).").ok());
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseQuery("ans(x)").ok());
  EXPECT_FALSE(ParseQuery("ans(x) :- ").ok());
  EXPECT_FALSE(ParseQuery("ans(x) :- R(x), !y != z.").ok());
  EXPECT_FALSE(ParseQuery("ans(x) :- R(x,).").ok());
  EXPECT_FALSE(ParseQuery("ans(x) :- R(x)) .").ok());
  EXPECT_FALSE(ParseQuery("ans(x) : R(x).").ok());
}

TEST(ParserTest, RejectsHeadVariableMissingFromBody) {
  EXPECT_FALSE(ParseQuery("ans(w) :- R(x, y).").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const std::string text = "ans(x) :- F(x, y), F(x, z), !B(y, z), y != z.";
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok());
  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->ToString(), q->ToString());
  EXPECT_EQ(q2->num_vars(), q->num_vars());
  EXPECT_EQ(q2->PhiSize(), q->PhiSize());
}

TEST(ParserTest, ErrorsCarryTokenAndPosition) {
  // Unexpected ')' after the malformed argument list: the message must
  // name the offending token and its byte offset.
  auto q = ParseQuery("ans(x) :- R(x,).");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("offset 14"), std::string::npos)
      << q.status().message();
  EXPECT_NE(q.status().message().find("')'"), std::string::npos)
      << q.status().message();

  // Truncated input: the error points at the end of the text.
  auto truncated = ParseQuery("ans(x) :- R(x,");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("offset 14"), std::string::npos)
      << truncated.status().message();
  EXPECT_NE(truncated.status().message().find("end of input"),
            std::string::npos)
      << truncated.status().message();

  // Lexer-level error: bad ':' reports its offset.
  auto colon = ParseQuery("ans(x) : R(x).");
  ASSERT_FALSE(colon.ok());
  EXPECT_NE(colon.status().message().find("offset 7"), std::string::npos)
      << colon.status().message();

  // Trailing garbage names the first unconsumed token.
  auto trailing = ParseQuery("ans(x) :- R(x) S(x)");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("offset 15"), std::string::npos)
      << trailing.status().message();
  EXPECT_NE(trailing.status().message().find("'S'"), std::string::npos)
      << trailing.status().message();
}

TEST(ParserTest, RoundTripMixedNegationAndDisequality) {
  // The ISSUE's exemplar shape: a negated atom next to a disequality.
  const std::string text = "ans(x, y) :- R(x, y), !T(x, y), x != y.";
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->Kind(), QueryKind::kEcq);
  EXPECT_EQ(q->NumNegatedAtoms(), 1);
  ASSERT_EQ(q->disequalities().size(), 1u);

  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->ToString(), q->ToString());
  EXPECT_EQ(q2->Kind(), QueryKind::kEcq);
  EXPECT_EQ(q2->NumNegatedAtoms(), q->NumNegatedAtoms());
  EXPECT_EQ(q2->disequalities(), q->disequalities());
  EXPECT_EQ(q2->num_free(), q->num_free());
  EXPECT_EQ(q2->PhiSize(), q->PhiSize());
}

TEST(ParserTest, RepeatedVariableInsideAtom) {
  auto q = ParseQuery("ans(x) :- E(x, x).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_vars(), 1);
  EXPECT_EQ(q->atoms()[0].vars, (std::vector<int>{0, 0}));
}

TEST(ParserTest, PrimedIdentifiersAllowed) {
  auto q = ParseQuery("ans(x') :- R(x', y_1).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->var_name(0), "x'");
}

// Seeded mutation test over query text (untrusted input): every
// truncation, byte-flip and splice mutant of the seed queries either fails
// with INVALID_ARGUMENT or parses into a query that validates, with no
// memory error (run under the sanitizers).
TEST(ParserTest, MutantsFailTypedOrParse) {
  const std::vector<std::string> seeds = {
      "ans(x) :- F(x, y), F(x, z), y != z.",
      "ans(x, y) :- Adult(x), R(x, y, z), !S(y, z), G(), x != y.",
      "ans() :- E(a, b), E(b, c), E(c, a), !Adult(a)",
  };
  constexpr uint64_t kMutantsPerSeed = 5000;
  uint64_t parsed = 0;
  for (const std::string& seed : seeds) {
    for (uint64_t m = 0; m < kMutantsPerSeed; ++m) {
      const std::string text = testing_util::MutateText(seed, m);
      SCOPED_TRACE("mutant " + std::to_string(m) + ": " + text);
      auto q = ParseQuery(text);
      if (!q.ok()) {
        EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
            << q.status().ToString();
        continue;
      }
      ++parsed;
      EXPECT_TRUE(q->Validate().ok()) << q->Validate().ToString();
    }
  }
  EXPECT_GE(parsed, kMutantsPerSeed / 20);
}

}  // namespace
}  // namespace cqcount
