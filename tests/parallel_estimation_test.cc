// Cross-thread determinism of the intra-query parallel estimation stack.
//
// The contract under test: a fixed-seed estimate is a pure function of the
// request — bit-identical whether the DLM sampling runs inline, on 2
// lanes, or on 4, and regardless of how many batch workers share the
// pool. Covers the fptras-tw, fptras-fhw and sampler paths at the module
// level, the raw DLM estimator against a forked brute-force oracle, and
// the engine end to end over a 1/2/4-intra x 1/2/4-batch grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/workload.h"
#include "counting/dlm_counter.h"
#include "counting/fptras.h"
#include "counting/sampler.h"
#include "engine/engine.h"
#include "test_util.h"
#include "util/executor.h"

namespace cqcount {
namespace {

using testing_util::RandomDatabaseFor;
using testing_util::RandomQuery;
using testing_util::RandomQueryOptions;

constexpr uint32_t kUniverse = 6;

Query RandomEstimationQuery(Rng& rng, int num_diseq) {
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.negated_probability = 0.15;
  qopts.forced_num_free = 2;
  Query q = RandomQuery(rng, qopts);
  for (int attempt = 0, added = 0; attempt < 20 && added < num_diseq;
       ++attempt) {
    const int u = static_cast<int>(rng.UniformInt(q.num_vars()));
    const int w = static_cast<int>(rng.UniformInt(q.num_vars()));
    if (u == w) continue;
    q.AddDisequality(std::min(u, w), std::max(u, w));
    ++added;
  }
  return q;
}

// ~50 random queries (the suite-level property): each estimator path must
// report the same estimate/exact/converged/oracle_calls triple at 1, 2
// and 4 intra-query lanes.
class IntraQueryDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(IntraQueryDeterminismTest, FptrasTwAndFhwAndSamplerPaths) {
  const int seed = GetParam();
  Rng rng(seed * 271 + 13);
  Query q = RandomEstimationQuery(rng, seed % 3);
  Database db = RandomDatabaseFor(q, kUniverse, 0.5, rng);

  struct Observed {
    double estimate;
    bool exact;
    bool converged;
    uint64_t oracle_calls;
    std::vector<Tuple> samples;
  };
  auto run_all = [&](Executor* pool, int lanes) -> Observed {
    Observed obs{};
    ApproxOptions opts;
    opts.epsilon = 0.3;
    opts.delta = 0.2;
    opts.seed = static_cast<uint64_t>(seed) * 7919 + 1;
    // A small exact budget forces the sampling phases on non-trivial
    // instances (the interesting path for determinism).
    opts.dlm.exact_enumeration_budget = 8;
    opts.pool = pool;
    opts.intra_threads = lanes;

    auto tw = ApproxCountAnswers(q, db, opts);
    EXPECT_TRUE(tw.ok()) << tw.status().ToString();
    obs.estimate = tw->estimate;
    obs.exact = tw->exact;
    obs.converged = tw->converged;
    obs.oracle_calls = tw->edgefree_calls;

    opts.objective = WidthObjective::kFractionalHypertreewidth;
    auto fhw = ApproxCountAnswers(q, db, opts);
    EXPECT_TRUE(fhw.ok()) << fhw.status().ToString();
    obs.estimate += fhw->estimate;
    obs.exact = obs.exact && fhw->exact;

    // Sampler path: the drawn answers exercise each sample's whole-box
    // count on the lanes and must be identical tuples at every lane
    // count.
    SamplerOptions sopts;
    sopts.approx = opts;
    sopts.approx.objective = WidthObjective::kTreewidth;
    auto sampler = AnswerSampler::Create(q, db, sopts);
    if (sampler.ok()) {
      auto samples = (*sampler)->Sample(3);
      if (samples.ok()) obs.samples = *samples;
    }
    return obs;
  };

  std::optional<Observed> reference;
  for (int lanes : {1, 2, 4}) {
    std::unique_ptr<Executor> pool;
    if (lanes > 1) pool = std::make_unique<Executor>(lanes);
    Observed obs = run_all(pool.get(), lanes);
    if (!reference.has_value()) {
      reference = obs;
      continue;
    }
    EXPECT_EQ(obs.estimate, reference->estimate)
        << q.ToString() << " lanes=" << lanes;
    EXPECT_EQ(obs.exact, reference->exact) << q.ToString();
    EXPECT_EQ(obs.converged, reference->converged) << q.ToString();
    EXPECT_EQ(obs.oracle_calls, reference->oracle_calls)
        << q.ToString() << " lanes=" << lanes
        << " (oracle-call accounting must be deterministic)";
    EXPECT_EQ(obs.samples, reference->samples) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntraQueryDeterminismTest,
                         ::testing::Range(0, 50));

// Raw DLM over a forked brute-force oracle: the partitioned estimator's
// result (and its deterministic call accounting) must not depend on the
// lane count even without the colour-coding stack in between.
TEST(DlmParallelTest, PartitionedEstimateIndependentOfLanes) {
  for (int instance = 0; instance < 8; ++instance) {
    Rng rng(instance * 97 + 5);
    RandomQueryOptions qopts;
    qopts.forced_num_free = 2;
    Query q = RandomQuery(rng, qopts);
    Database db = RandomDatabaseFor(q, kUniverse, 0.55, rng);
    BruteForceEdgeFreeOracle oracle(q, db);

    DlmOptions opts;
    opts.epsilon = 0.25;
    opts.delta = 0.1;  // Several median runs.
    opts.exact_enumeration_budget = 4;
    opts.seed = instance * 31 + 7;
    std::vector<uint32_t> part_sizes(q.num_free(), kUniverse);

    auto reference = DlmCountEdges(part_sizes, oracle, opts);
    ASSERT_TRUE(reference.ok());
    for (int lanes : {2, 4}) {
      Executor pool(lanes);
      DlmOptions popts = opts;
      popts.pool = &pool;
      popts.intra_threads = lanes;
      auto parallel = DlmCountEdges(part_sizes, oracle, popts);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->estimate, reference->estimate)
          << q.ToString() << " lanes=" << lanes;
      EXPECT_EQ(parallel->exact, reference->exact);
      EXPECT_EQ(parallel->converged, reference->converged);
      EXPECT_EQ(parallel->oracle_calls, reference->oracle_calls);
      if (!reference->exact) {
        EXPECT_EQ(parallel->parallel.lanes, lanes);
      }
    }
  }
}

// Engine end to end: estimates pinned over the full intra-query lanes x
// pool size grid (batch items and their intra-query tasks share one pool —
// the saturation case the help-draining executor exists for).
TEST(EngineIntraQueryTest, EstimatesPinnedAcrossIntraAndBatchThreads) {
  std::vector<std::string> queries = {
      "ans(x, y) :- E(x, y), E(y, z), x != z.",
      "ans(x, y) :- E(x, y), E(x, z), y != z.",
      "ans(x, z) :- E(x, y), E(y, z).",
      "ans(x, y) :- E(x, y), !E(y, x).",
  };
  Database db(8);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 8; ++u) {
    for (Value v = 0; v < 8; ++v) {
      if ((u * 5 + v * 11 + 3) % 3 != 0) continue;
      ASSERT_TRUE(db.AddFact("E", {u, v}).ok());
    }
  }
  db.Canonicalize();

  std::vector<CountRequest> batch;
  for (const std::string& text : queries) {
    CountRequest request;
    request.query = text;
    request.database = "g";
    batch.push_back(request);
  }

  std::optional<std::vector<double>> reference;
  for (int intra : {1, 2, 4}) {
    for (int threads : {1, 2, 4}) {
      EngineOptions opts;
      opts.epsilon = 0.3;
      opts.delta = 0.3;
      opts.num_threads = threads;  // Batch lanes; intra lanes capped here.
      opts.intra_query_threads = intra;
      // The 8-node database is below the planner's brute-force threshold;
      // force the estimator so the grid reaches DLM and its lanes.
      opts.plan.exact_cost_limit = 0.0;
      CountingEngine engine(opts);
      ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
      auto results = engine.CountBatch(batch);
      std::vector<double> estimates;
      for (const auto& r : results) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->strategy, Strategy::kFptrasTreewidth);
        EXPECT_GT(r->oracle_calls, 0u);
        for (const ComponentResult& c : r->components) {
          EXPECT_EQ(c.parallel.lanes, std::min(intra, threads))
              << "intra=" << intra << " threads=" << threads;
        }
        estimates.push_back(r->estimate);
      }
      if (!reference.has_value()) {
        reference = estimates;
      } else {
        EXPECT_EQ(estimates, *reference)
            << "intra=" << intra << " threads=" << threads;
      }
    }
  }
}

// The automatic cost model keeps cheap components inline: this exact
// component's join is far below kMinExactFanoutNodes, and estimated
// components get lanes only past kMinFanoutCost.
TEST(EngineIntraQueryTest, CostModelKeepsCheapComponentsInline) {
  EngineOptions opts;
  opts.intra_query_threads = 0;  // Automatic: the cost gate decides.
  CountingEngine engine(opts);
  Database db(6);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 6; ++u) {
    ASSERT_TRUE(db.AddFact("E", {u, (u + 1) % 6}).ok());
  }
  db.Canonicalize();
  ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
  auto result = engine.Count("ans(x, y) :- E(x, y), x != y.", "g");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->parallel.lanes, 1);
  EXPECT_EQ(result->parallel.tasks, 0u);
}

// An explicit lane request is honoured for every estimated component, even
// one the automatic cost gate keeps inline, and capped at the pool size.
// The answer and its work counter are those of the inline run.
TEST(EngineIntraQueryTest, ExplicitLaneRequestIsHonouredAndCapped) {
  Rng rng(60);
  const Database db = SocialNetworkDb(40, 8.0, 0.5, rng);
  const std::string query =
      "ans(a, c) :- F(a, b), F(b, c), F(c, d), F(d, a), a != c, b != d.";
  auto count = [&](int lanes) {
    EngineOptions opts;
    opts.epsilon = 0.3;
    opts.delta = 0.1;
    opts.num_threads = 4;
    opts.intra_query_threads = lanes;
    opts.plan.exact_cost_limit = 0.0;  // Keep the count on DLM's lanes.
    CountingEngine engine(opts);
    EXPECT_TRUE(engine.RegisterDatabase("g", db).ok());
    auto result = engine.Count(query, "g");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : EngineResult{};
  };

  {
    // The premise: an estimated component below the automatic gate.
    EngineOptions opts;
    opts.plan.exact_cost_limit = 0.0;
    CountingEngine engine(opts);
    ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
    auto explanation = engine.Explain(query, "g");
    ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
    ASSERT_EQ(explanation->components.size(), 1u);
    EXPECT_EQ(explanation->plan.strategy, Strategy::kFptrasTreewidth);
    EXPECT_LT(explanation->plan.cost_estimate, kMinFanoutCost);
  }

  const EngineResult inline_run = count(1);
  EXPECT_EQ(inline_run.parallel.lanes, 1);
  for (const auto& [requested, granted] : {std::pair{2, 2}, std::pair{16, 4}}) {
    SCOPED_TRACE("intra_query_threads=" + std::to_string(requested));
    const EngineResult result = count(requested);
    EXPECT_EQ(result.parallel.lanes, granted);
    EXPECT_EQ(result.estimate, inline_run.estimate);
    EXPECT_EQ(result.oracle_calls, inline_run.oracle_calls);
  }
}

}  // namespace
}  // namespace cqcount
