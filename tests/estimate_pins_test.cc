// Fixed-seed answer pins. The estimators are randomised, so the safety
// net for a refactor is a set of answers that must stay bit-identical at
// fixed seeds: each row pins an estimate, its `exact` flag and the
// deterministic work counters behind it, at every lane count and on
// every storage configuration that must not change them. A change that
// moves a value here changes answers, not just speed. Re-record a pin
// only on purpose, and say why in the change that does it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "app/workload.h"
#include "counting/fptras.h"
#include "engine/engine.h"
#include "hom/backtracking.h"
#include "query/parser.h"
#include "relational/segment.h"
#include "relational/simd.h"
#include "relational/structure.h"
#include "util/executor.h"
#include "util/random.h"

namespace cqcount {
namespace {

constexpr const char* kSixCycle =
    "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a).";

Database Social(uint32_t universe, double degree, uint64_t seed) {
  Rng rng(seed);
  return SocialNetworkDb(universe, degree, 0.5, rng);
}

Query MustParse(const char* text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q.ok() ? *q : Query();
}

// Every test starts and ends at the widest SIMD level, whatever
// CQCOUNT_SIMD says.
class EstimatePinsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    simd::SetLevelForTesting(simd::MaxSupportedLevel());
  }
  void TearDown() override {
    simd::SetLevelForTesting(simd::MaxSupportedLevel());
  }
};

// One ApproxCountAnswers row: the FPTRAS pipeline (Theorem 5) called
// directly, with its colour-coding work counters.
struct FptrasPin {
  const char* name;
  const char* query;
  double estimate;
  bool exact;
  uint64_t edgefree_calls;
  uint64_t hom_queries;
  uint64_t dp_prepared_decides;
  uint64_t colouring_trials_per_call;
};

TEST_F(EstimatePinsTest, FptrasRowsAtEveryLaneCountAndSimdLevel) {
  const Database db = Social(24, 4.0, 7);
  // Q = ceil(ln 1/1e-3) * 4^|Delta| = 28 with one disequality; a query
  // without disequalities makes one decide per EdgeFree call (Lemma 22
  // needs no colouring), so its Q is 1.
  const FptrasPin pins[] = {
      {"star-diseq", "ans(x) :- F(x, y), F(x, z), y != z.", 24, false, 47,
       53, 53, 28},
      {"six-cycle", kSixCycle, 566, true, 1147, 1147, 1147, 1},
      {"path-diseq", "ans(x) :- F(x, y), F(y, z), x != z.", 24, false, 47,
       76, 76, 28},
  };
  Executor pool(4);
  for (simd::Level level : {simd::Level::kScalar, simd::MaxSupportedLevel()}) {
    simd::SetLevelForTesting(level);
    for (const FptrasPin& pin : pins) {
      const Query q = MustParse(pin.query);
      for (int lanes : {1, 2, 4}) {
        SCOPED_TRACE(std::string(pin.name) + " simd=" +
                     simd::LevelName(level) +
                     " lanes=" + std::to_string(lanes));
        ApproxOptions opts;
        opts.epsilon = 0.25;
        opts.delta = 0.2;
        opts.seed = 12345;
        opts.per_call_failure_override = 1e-3;
        opts.pool = &pool;
        opts.intra_threads = lanes;
        auto result = ApproxCountAnswers(q, db, opts);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->estimate, pin.estimate);
        EXPECT_EQ(result->exact, pin.exact);
        EXPECT_EQ(result->edgefree_calls, pin.edgefree_calls);
        EXPECT_EQ(result->hom_queries, pin.hom_queries);
        EXPECT_EQ(result->dp_prepared_decides, pin.dp_prepared_decides);
        EXPECT_EQ(result->colouring_trials_per_call,
                  pin.colouring_trials_per_call);
      }
    }
  }
}

// The one row whose estimate depends on DLM's sampling draws: at delta
// 0.6 the estimator's half (0.3) schedules a single run, so the median
// does not absorb a change in how many samples a box draws.
TEST_F(EstimatePinsTest, SamplingRowAtEveryLaneCount) {
  const Database db = Social(80, 5.0, 2024);
  const Query q = MustParse(kSixCycle);
  Executor pool(4);
  for (int lanes : {1, 4}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ApproxOptions opts;
    opts.epsilon = 0.2;
    opts.delta = 0.6;
    opts.seed = 20220808;
    opts.per_call_failure_override = 1e-3;
    opts.pool = &pool;
    opts.intra_threads = lanes;
    auto result = ApproxCountAnswers(q, db, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->estimate, 5108);
    EXPECT_FALSE(result->exact);
    EXPECT_EQ(result->edgefree_calls, 53528u);
    EXPECT_EQ(result->total_runs, 1);
    EXPECT_EQ(result->rounds_executed, 1);
  }
}

// One CountingEngine row: estimate, exact flag and EngineResult's
// oracle-call tally.
struct EnginePin {
  const char* name;
  const char* query;
  double estimate;
  bool exact;
  uint64_t oracle_calls;
};

void ExpectEnginePin(CountingEngine& engine, const EnginePin& pin) {
  SCOPED_TRACE(pin.name);
  CountRequest request;
  request.query = pin.query;
  request.database = "db";
  auto result = engine.Count(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->estimate, pin.estimate);
  EXPECT_EQ(result->exact, pin.exact);
  EXPECT_EQ(result->oracle_calls, pin.oracle_calls);
}

// An engine row and the node cap of the engine that counts it. A cap of
// 0 runs no exact probe, which keeps a row on its estimator.
struct CappedEnginePin {
  EnginePin pin;
  double exact_cost_limit;
};

// The scheduler's adaptive-off path through the engine, with the lane
// gate opened so the 4-lane run really fans out. Under the default node
// cap the six-cycle plans exact and equals brute force.
TEST_F(EstimatePinsTest, EngineRowsAtEveryLaneCount) {
  const Database db = Social(48, 5.0, 2024);
  const double default_cap = PlanOptions{}.exact_cost_limit;
  const double six_cycle_answers =
      static_cast<double>(CountAnswersBrute(MustParse(kSixCycle), db));
  const CappedEnginePin rows[] = {
      {{"six-cycle", kSixCycle, 2095, false, 46904}, 0.0},
      {{"path-diseq", "ans(x) :- F(x, y), F(y, z), x != z.", 48, true, 0},
       default_cap},
      {{"six-cycle exact", kSixCycle, six_cycle_answers, true, 0},
       default_cap},
  };
  for (int lanes : {1, 4}) {
    SCOPED_TRACE("intra_query_threads=" + std::to_string(lanes));
    for (const CappedEnginePin& row : rows) {
      EngineOptions opts;
      opts.epsilon = 0.2;
      opts.delta = 0.2;
      opts.seed = 20220808;
      opts.num_threads = 4;
      opts.intra_query_threads = lanes;
      opts.adaptive = false;
      opts.plan.exact_cost_limit = row.exact_cost_limit;
      CountingEngine engine(opts);
      ASSERT_TRUE(engine.RegisterDatabase("db", db).ok());
      ExpectEnginePin(engine, row.pin);
    }
  }
}

Database StorageDatabase() {
  constexpr uint32_t kUniverse = 400;
  Rng rng(777);
  Database db(kUniverse);
  (void)db.DeclareRelation("E", 2);
  (void)db.DeclareRelation("F", 2);
  (void)db.DeclareRelation("L", 1);
  for (int i = 0; i < 8000; ++i) {
    (void)db.AddFact("E", {static_cast<Value>(rng.UniformInt(kUniverse)),
                           static_cast<Value>(rng.UniformInt(kUniverse))});
    (void)db.AddFact("F", {static_cast<Value>(rng.UniformInt(kUniverse)),
                           static_cast<Value>(rng.UniformInt(kUniverse))});
  }
  for (Value v = 0; v < kUniverse; v += 2) (void)db.AddFact("L", {v});
  db.Canonicalize();
  return db;
}

class StoragePinsTest : public EstimatePinsTest {
 protected:
  void SetUp() override {
    EstimatePinsTest::SetUp();
    path_ = ::testing::TempDir() + "cqseg_estimate_pins.seg";
    ASSERT_TRUE(WriteSegmentDatabase(StorageDatabase(), path_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    EstimatePinsTest::TearDown();
  }

  // Default EngineOptions, except that the estimated rows run with no
  // exact probe, so they keep the estimator paths they pin; the last row
  // forces the FPTRAS oracle path.
  void ExpectPins(bool mapped) {
    const double default_cap = PlanOptions{}.exact_cost_limit;
    const CappedEnginePin rows[] = {
        {{"path2", "ans(x) :- E(x, y), F(y, z), y != z.", 400, false, 1598},
         0.0},
        {{"negation", "ans(x, y) :- E(x, y), L(x), !F(y, x).", 3716, true, 0},
         default_cap},
        {{"boolean", "ans() :- E(x, y), F(y, z), x != z.", 1, false, 1}, 0.0},
        {{"fptras", "ans(x) :- E(x, y), E(x, z), y != z.", 400, false, 1598},
         0.0},
    };
    for (const CappedEnginePin& row : rows) {
      EngineOptions opts;
      opts.plan.exact_cost_limit = row.exact_cost_limit;
      CountingEngine engine(opts);
      ASSERT_TRUE((mapped ? engine.RegisterDatabaseFile("db", path_)
                          : engine.RegisterDatabase("db", StorageDatabase()))
                      .ok());
      ExpectEnginePin(engine, row.pin);
    }
  }

  std::string path_;
};

TEST_F(StoragePinsTest, InMemoryAtMaxSimdLevel) {
  ExpectPins(/*mapped=*/false);
}

TEST_F(StoragePinsTest, SegmentPackAtMaxSimdLevel) {
  ExpectPins(/*mapped=*/true);
}

TEST_F(StoragePinsTest, InMemoryAtScalarLevel) {
  simd::SetLevelForTesting(simd::Level::kScalar);
  ExpectPins(/*mapped=*/false);
}

}  // namespace
}  // namespace cqcount
