// Storage-backend determinism: the engine's estimates must be bitwise
// identical whether a database is registered in-memory or opened from a
// packed mmap'd segment, whichever SIMD level the kernels run at, and at
// every intra-query lane count. The segment preserves canonical order
// exactly, the SIMD kernels are exact algorithms, and lane
// scheduling derives per-task seeds deterministically — so any drift here
// is a real bug, not noise.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "relational/segment.h"
#include "relational/simd.h"
#include "relational/structure.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace cqcount {
namespace {

Database BuildDatabase() {
  Rng rng(777);
  Database db(40);
  (void)db.DeclareRelation("E", 2);
  (void)db.DeclareRelation("F", 2);
  (void)db.DeclareRelation("L", 1);
  for (int i = 0; i < 300; ++i) {
    (void)db.AddFact("E", {static_cast<Value>(rng.UniformInt(40)),
                           static_cast<Value>(rng.UniformInt(40))});
    (void)db.AddFact("F", {static_cast<Value>(rng.UniformInt(40)),
                           static_cast<Value>(rng.UniformInt(40))});
  }
  for (Value v = 0; v < 40; v += 2) (void)db.AddFact("L", {v});
  db.Canonicalize();
  return db;
}

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> kQueries = {
      "ans(x) :- E(x, y), F(y, z), y != z.",
      "ans(x, y) :- E(x, y), L(x), !F(y, x).",
      "ans() :- E(x, y), F(y, z), x != z.",
  };
  return kQueries;
}

struct RunOutput {
  std::vector<double> estimates;
  std::vector<unsigned long long> oracle_calls;
};

// One full fixed-seed run: a count per query plus a batch over all of
// them, against the named registration.
RunOutput RunAll(CountingEngine& engine) {
  RunOutput out;
  for (const std::string& q : Queries()) {
    CountRequest request;
    request.query = q;
    request.database = "db";
    auto result = engine.Count(request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    out.estimates.push_back(result->estimate);
    out.oracle_calls.push_back(result->oracle_calls);
  }
  std::vector<CountRequest> batch;
  for (const std::string& q : Queries()) {
    CountRequest request;
    request.query = q;
    request.database = "db";
    batch.push_back(request);
  }
  auto results = engine.CountBatch(batch);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok());
    if (!r.ok()) continue;
    out.estimates.push_back(r->estimate);
    out.oracle_calls.push_back(r->oracle_calls);
  }
  return out;
}

// `lanes` sizes the pool, so it is both the batch's lane count and the
// intra-query lane request.
CountingEngine MakeEngine(int lanes) {
  EngineOptions opts;
  opts.num_threads = lanes;
  opts.intra_query_threads = lanes;
  return CountingEngine(opts);
}

class StorageBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cqseg_backend_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".seg";
    db_ = BuildDatabase();
    ASSERT_TRUE(WriteSegmentDatabase(db_, path_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    simd::SetLevelForTesting(simd::MaxSupportedLevel());
  }

  RunOutput RunInMemory(int lanes) {
    CountingEngine engine = MakeEngine(lanes);
    EXPECT_TRUE(engine.RegisterDatabase("db", BuildDatabase()).ok());
    return RunAll(engine);
  }
  RunOutput RunMapped(int lanes) {
    CountingEngine engine = MakeEngine(lanes);
    EXPECT_TRUE(engine.RegisterDatabaseFile("db", path_).ok());
    return RunAll(engine);
  }

  std::string path_;
  Database db_;
};

TEST_F(StorageBackendTest, MappedMatchesInMemoryBitwiseAtEveryLaneCount) {
  for (int lanes : {1, 2, 4}) {
    const RunOutput memory = RunInMemory(lanes);
    const RunOutput mapped = RunMapped(lanes);
    ASSERT_EQ(memory.estimates.size(), mapped.estimates.size());
    for (size_t i = 0; i < memory.estimates.size(); ++i) {
      // Bitwise: exact double equality, not approximate.
      EXPECT_EQ(memory.estimates[i], mapped.estimates[i])
          << "lanes=" << lanes << " run " << i;
      EXPECT_EQ(memory.oracle_calls[i], mapped.oracle_calls[i])
          << "lanes=" << lanes << " run " << i;
    }
  }
}

TEST_F(StorageBackendTest, SimdLevelsAgreeBitwiseOnBothBackends) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::MaxSupportedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  simd::SetLevelForTesting(levels[0]);
  const RunOutput ref_memory = RunInMemory(2);
  const RunOutput ref_mapped = RunMapped(2);
  for (size_t li = 1; li < levels.size(); ++li) {
    simd::SetLevelForTesting(levels[li]);
    const RunOutput memory = RunInMemory(2);
    const RunOutput mapped = RunMapped(2);
    ASSERT_EQ(memory.estimates.size(), ref_memory.estimates.size());
    ASSERT_EQ(mapped.estimates.size(), ref_mapped.estimates.size());
    for (size_t i = 0; i < memory.estimates.size(); ++i) {
      EXPECT_EQ(memory.estimates[i], ref_memory.estimates[i])
          << "level=" << simd::LevelName(levels[li]) << " run " << i;
      EXPECT_EQ(memory.oracle_calls[i], ref_memory.oracle_calls[i])
          << "level=" << simd::LevelName(levels[li]) << " run " << i;
    }
    for (size_t i = 0; i < mapped.estimates.size(); ++i) {
      EXPECT_EQ(mapped.estimates[i], ref_mapped.estimates[i])
          << "level=" << simd::LevelName(levels[li]) << " run " << i;
      EXPECT_EQ(mapped.oracle_calls[i], ref_mapped.oracle_calls[i])
          << "level=" << simd::LevelName(levels[li]) << " run " << i;
    }
  }
}

}  // namespace
}  // namespace cqcount
