#include "relational/database_io.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "test_util.h"

namespace cqcount {
namespace {

TEST(DatabaseIoTest, ParseSimpleDatabase) {
  auto db = ParseDatabase(R"(
# A small database
universe 10
relation E 2
0 1
1 2
end
relation Name 1
3
end
)");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->universe_size(), 10u);
  EXPECT_EQ(db->relation("E").size(), 2u);
  EXPECT_TRUE(db->relation("E").Contains({0, 1}));
  EXPECT_EQ(db->relation("Name").size(), 1u);
}

TEST(DatabaseIoTest, RoundTrip) {
  Database db(5);
  ASSERT_TRUE(db.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(db.DeclareRelation("G", 0).ok());
  ASSERT_TRUE(db.DeclareRelation("Empty", 3).ok());
  ASSERT_TRUE(db.AddFact("R", {4, 0}).ok());
  ASSERT_TRUE(db.AddFact("R", {1, 3}).ok());
  ASSERT_TRUE(db.AddFact("G", {}).ok());
  db.Canonicalize();
  const std::string text = FormatDatabase(db);
  auto parsed = ParseDatabase(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->universe_size(), 5u);
  EXPECT_EQ(parsed->relation("R"), db.relation("R"));
  EXPECT_EQ(FormatDatabase(*parsed), text);
}

TEST(DatabaseIoTest, RejectsMissingUniverse) {
  auto db = ParseDatabase("relation R 1\n0\nend\n");
  EXPECT_FALSE(db.ok());
}

TEST(DatabaseIoTest, RejectsArityMismatch) {
  auto db = ParseDatabase("universe 4\nrelation R 2\n0 1 2\nend\n");
  EXPECT_FALSE(db.ok());
}

TEST(DatabaseIoTest, RejectsValueOutsideUniverse) {
  auto db = ParseDatabase("universe 2\nrelation R 1\n5\nend\n");
  EXPECT_FALSE(db.ok());
}

TEST(DatabaseIoTest, RejectsUnterminatedBlock) {
  auto db = ParseDatabase("universe 2\nrelation R 1\n0\n");
  EXPECT_FALSE(db.ok());
}

StatusCode ParseCode(const std::string& text) {
  return ParseDatabase(text).status().code();
}

bool MessageHasLine(const std::string& text, int line) {
  return ParseDatabase(text).status().message().find(
             "line " + std::to_string(line) + ":") != std::string::npos;
}

TEST(DatabaseIoTest, RejectsSecondUniverseLine) {
  // A later universe line would shrink the universe below stored values.
  const std::string text =
      "universe 100\nrelation R 1\n50\n60\nend\nuniverse 10\n";
  EXPECT_EQ(ParseCode(text), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageHasLine(text, 6));
  EXPECT_EQ(ParseCode("universe 10\nuniverse 10\n"),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseIoTest, RejectsSizesAndValuesPast32Bits) {
  // Each used to be truncated to 32 bits (or wrapped, for the sign).
  for (const char* text : {
           "universe 4294967297\n",
           "universe -5\n",
           "universe 10\nrelation R 1\n4294967297\nend\n",
           "universe 10\nrelation R 1\n-1\nend\n",
       }) {
    EXPECT_EQ(ParseCode(text), StatusCode::kInvalidArgument) << text;
  }
  EXPECT_TRUE(
      MessageHasLine("universe 10\nrelation R 1\n4294967297\nend\n", 3));
  // The largest 32-bit universe is fine.
  auto db = ParseDatabase("universe 4294967295\n");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->universe_size(), 4294967295u);
}

TEST(DatabaseIoTest, RejectsTrailingTokensInTuples) {
  const std::string text = "universe 10\nrelation R 2\n1 2 x\nend\n";
  EXPECT_EQ(ParseCode(text), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageHasLine(text, 3));
  EXPECT_EQ(ParseCode("universe 10\nrelation R 2\n1 2x\nend\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCode("universe 10\nrelation G 0\n() 1\nend\n"),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseIoTest, RejectsArityAbove2To20) {
  // Every tuple line of such a relation used to reserve arity values.
  const std::string text = "universe 10\nrelation R 2000000000\nend\n";
  EXPECT_EQ(ParseCode(text), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageHasLine(text, 2));
  EXPECT_EQ(ParseCode("universe 10\nrelation R 1048577\nend\n"),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseDatabase("universe 10\nrelation R 1048576\nend\n").ok());
}

// Seeded mutation test over the text format (untrusted input): every
// truncation, byte-flip and splice mutant of the seed texts either fails
// with INVALID_ARGUMENT or parses into a database that keeps the
// Structure invariant (every value below the universe) and counts a query
// through the engine without a memory error (run under the sanitizers).
TEST(DatabaseIoTest, MutantsFailTypedOrParseIntoValidDatabases) {
  const std::vector<std::string> seeds = {
      "# a small graph\n"
      "universe 12\n"
      "relation E 2\n0 1\n1 2\n2 3\n3 0\n4 5\n5 11\nend\n"
      "relation Adult 1\n1\n3\nend\n"
      "relation G 0\n()\nend\n",
      "universe 9\nrelation E 2\n8 0\n0 8\nend\nrelation T 3\n1 2 3\nend\n",
  };
  constexpr uint64_t kMutantsPerSeed = 6000;
  CountingEngine engine;
  uint64_t parsed = 0;
  for (const std::string& seed : seeds) {
    for (uint64_t m = 0; m < kMutantsPerSeed; ++m) {
      const std::string text = testing_util::MutateText(seed, m);
      SCOPED_TRACE("mutant " + std::to_string(m) + ":\n" + text);
      auto db = ParseDatabase(text);
      if (!db.ok()) {
        EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument)
            << db.status().ToString();
        continue;
      }
      ++parsed;
      for (const std::string& name : db->RelationNames()) {
        for (TupleView t : db->relation(name)) {
          for (size_t i = 0; i < t.size(); ++i) {
            ASSERT_LT(t[i], db->universe_size()) << name;
          }
        }
      }
      ASSERT_TRUE(engine.RegisterDatabase("m", *std::move(db)).ok());
      CountRequest request;
      request.query = "ans(x) :- E(x, y), E(y, z), x != z.";
      request.database = "m";
      request.seed = m + 1;
      (void)engine.Count(request);
    }
  }
  // Comment, whitespace and digit mutants still parse and reach the
  // engine.
  EXPECT_GE(parsed, kMutantsPerSeed / 20);
}

TEST(DatabaseIoTest, FileRoundTrip) {
  Database db(3);
  ASSERT_TRUE(db.DeclareRelation("T", 3).ok());
  ASSERT_TRUE(db.AddFact("T", {0, 1, 2}).ok());
  db.Canonicalize();
  const std::string path = ::testing::TempDir() + "/cqcount_io_test.db";
  ASSERT_TRUE(WriteDatabaseFile(db, path).ok());
  auto loaded = ReadDatabaseFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->relation("T").Contains({0, 1, 2}));
}

TEST(DatabaseIoTest, MissingFileReported) {
  auto db = ReadDatabaseFile("/nonexistent/path/to.db");
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cqcount
