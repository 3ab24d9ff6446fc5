#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "app/graph_gen.h"
#include "app/workload.h"
#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "hom/backtracking.h"
#include "query/parser.h"

namespace cqcount {
namespace {

Database Social(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  return SocialNetworkDb(n, 5.0, 0.5, rng);
}

TEST(EngineTest, UnknownDatabaseIsNotFound) {
  CountingEngine engine;
  auto result = engine.Count("ans(x) :- F(x, y).", "nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, ParseErrorsPropagate) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(20, 1)).ok());
  auto result = engine.Count("ans(x) :- F(x,", "g");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ExactStrategyMatchesBruteForce) {
  CountingEngine engine;
  Database db = Social(30, 2);
  ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());

  const std::string query = "ans(x) :- F(x, y), F(x, z), y != z.";
  auto result = engine.CountExact(query, "g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->exact);
  EXPECT_EQ(result->strategy, Strategy::kExact);

  auto parsed = ParseQuery(query);
  ASSERT_TRUE(parsed.ok());
  const uint64_t exact = ExactCountAnswersBruteForce(*parsed, db);
  EXPECT_DOUBLE_EQ(result->estimate, static_cast<double>(exact));
}

TEST(EngineTest, SmallInstancePlansChooseExact) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(30, 3)).ok());
  auto result = engine.Count("ans(x) :- F(x, y), F(x, z), y != z.", "g");
  ASSERT_TRUE(result.ok());
  // The exact join visits about a hundred nodes, far below the node cap:
  // the planner picks the exact strategy and the answer is exact.
  EXPECT_EQ(result->strategy, Strategy::kExact);
  EXPECT_TRUE(result->exact);
}

TEST(EngineTest, ApproxPathMatchesDirectPipelineBitwise) {
  // No exact probe: the planner runs the FPTRAS.
  Database db = Social(300, 4);
  EngineOptions opts;
  opts.plan.exact_cost_limit = 0.0;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());

  const std::string query = "ans(x) :- F(x, y), F(x, z), y != z.";
  CountRequest request;
  request.query = query;
  request.database = "g";
  request.seed = 0xFEEDULL;
  auto via_engine = engine.Count(request);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
  EXPECT_EQ(via_engine->strategy, Strategy::kFptrasTreewidth);

  auto parsed = ParseQuery(query);
  ASSERT_TRUE(parsed.ok());
  ApproxOptions direct;
  direct.epsilon = engine.options().epsilon;
  direct.delta = engine.options().delta;
  direct.seed = 0xFEEDULL;
  direct.objective = WidthObjective::kTreewidth;
  direct.exact_decomposition_limit =
      engine.options().plan.exact_decomposition_limit;
  auto via_pipeline = ApproxCountAnswers(*parsed, db, direct);
  ASSERT_TRUE(via_pipeline.ok()) << via_pipeline.status().ToString();

  // Same seed, same decomposition, same estimator: bitwise identical.
  EXPECT_EQ(via_engine->estimate, via_pipeline->estimate);
  EXPECT_EQ(via_engine->exact, via_pipeline->exact);
}

TEST(EngineTest, WarmCacheSkipsDecompositionRecomputation) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(40, 5)).ok());

  const std::string query = "ans(x) :- F(x, y), F(x, z), y != z.";
  auto cold = engine.Count(query, "g");
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->plan_cache_hit);
  PlanCacheStats after_cold = engine.CacheStats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_EQ(after_cold.misses, 1u);
  EXPECT_EQ(after_cold.insertions, 1u);

  auto warm = engine.Count(query, "g");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  PlanCacheStats after_warm = engine.CacheStats();
  // The hit is exactly the decomposition-recomputation skip: no new plan
  // was inserted, so ComputeDecomposition ran only once.
  EXPECT_EQ(after_warm.hits, 1u);
  EXPECT_EQ(after_warm.insertions, 1u);
  EXPECT_EQ(warm->estimate, cold->estimate);
}

TEST(EngineTest, IsomorphicQueriesShareOnePlan) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(40, 6)).ok());

  auto first = engine.Count("ans(x) :- F(x, y), F(x, z), y != z.", "g");
  ASSERT_TRUE(first.ok());
  auto renamed = engine.Count("ans(a) :- F(a, b), F(a, c), b != c.", "g");
  ASSERT_TRUE(renamed.ok());

  EXPECT_TRUE(renamed->plan_cache_hit);
  EXPECT_EQ(first->shape_key, renamed->shape_key);
  EXPECT_EQ(engine.CacheStats().insertions, 1u);
  // Same database and strategy: the counts must agree exactly.
  EXPECT_EQ(first->estimate, renamed->estimate);
}

TEST(EngineTest, DatabasesScopePlansIndependently) {
  // A node cap between the two databases' exact joins of the query (119
  // nodes on the small one, 1,176 on the large one).
  EngineOptions opts;
  opts.plan.exact_cost_limit = 500.0;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("small", Social(30, 7)).ok());
  ASSERT_TRUE(engine.RegisterDatabase("large", Social(300, 8)).ok());

  const std::string query = "ans(x) :- F(x, y), F(x, z), y != z.";
  auto small = engine.Count(query, "small");
  auto large = engine.Count(query, "large");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  // Same shape, different databases: plans are scoped per database and
  // may select different strategies.
  EXPECT_EQ(engine.CacheStats().insertions, 2u);
  EXPECT_EQ(small->strategy, Strategy::kExact);
  EXPECT_EQ(large->strategy, Strategy::kFptrasTreewidth);
}

TEST(EngineTest, ExplainReportsVerdictAndPlan) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(40, 9)).ok());

  auto explanation =
      engine.Explain("ans(x, y) :- F(x, y), !Adult(x), x != y.", "g");
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_EQ(explanation->plan.classification.kind, QueryKind::kEcq);
  EXPECT_TRUE(explanation->plan.classification.fptras_bounded_arity);
  EXPECT_NE(explanation->text.find("Theorem 5"), std::string::npos);
  EXPECT_NE(explanation->text.find("strategy:"), std::string::npos);

  // Explain shares the plan cache with Count.
  auto again = engine.Explain("ans(x, y) :- F(x, y), !Adult(x), x != y.", "g");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
}

TEST(EngineTest, FprasStrategyRunsForPureCqs) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(30, 10)).ok());
  auto result = engine.Count("ans(x, y) :- F(x, y).", "g");
  ASSERT_TRUE(result.ok());
  // Tiny instance: exact; the classification must still note the FPRAS.
  EXPECT_NE(result->verdict.find("FPRAS"), std::string::npos);
}

TEST(EngineTest, WidePureCqVerdictNamesTheFprasItRuns) {
  // A 6-ary atom: tw 5 puts the query outside the Theorem 5 regime, fhw 1
  // inside Theorem 16's, so the planner runs the automaton FPRAS and the
  // verdict has to say so.
  Database db(30);
  ASSERT_TRUE(db.DeclareRelation("Event", 6).ok());
  Rng rng(61);
  for (int i = 0; i < 90; ++i) {
    Tuple t;
    for (int k = 0; k < 6; ++k) {
      t.push_back(static_cast<Value>(rng.UniformInt(30)));
    }
    ASSERT_TRUE(db.AddFact("Event", std::move(t)).ok());
  }
  db.Canonicalize();
  EngineOptions opts;
  opts.plan.exact_cost_limit = 0.0;  // No exact probe.
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("events", std::move(db)).ok());
  const std::string query = "ans(a, b, c) :- Event(a, b, c, d, e, f).";
  auto explanation = engine.Explain(query, "events");
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  const Classification& cls = explanation->plan.classification;
  EXPECT_EQ(explanation->plan.strategy, Strategy::kAutomataFpras);
  EXPECT_FALSE(cls.fptras_bounded_arity);
  EXPECT_TRUE(cls.fpras);
  EXPECT_NE(cls.verdict.find("FPRAS"), std::string::npos) << cls.verdict;
}

TEST(EngineTest, DatabaseFreeClassificationMatchesThePlan) {
  // `cli classify` and the classify_queries example print ClassifyQuery;
  // `explain` prints the plan's classification. One query per Figure-1
  // row: they must agree.
  CountingEngine engine;
  Database db(12);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  ASSERT_TRUE(db.DeclareRelation("Event", 6).ok());
  ASSERT_TRUE(db.DeclareRelation("Adult", 1).ok());
  ASSERT_TRUE(db.DeclareRelation("G", 0).ok());
  db.Canonicalize();
  ASSERT_TRUE(engine.RegisterDatabase("g", std::move(db)).ok());
  for (const char* text : {
           "ans(x, z) :- E(x, y), E(y, z).",
           // The planner sees this without its guard: a pure CQ.
           "ans(x, z) :- E(x, y), E(y, z), !G().",
           "ans(x) :- E(x, y), E(x, z), y != z.",
           "ans(x, y) :- E(x, y), !Adult(x), x != y.",
           "ans(a, b, c) :- Event(a, b, c, d, e, f).",
           "ans(a, b) :- Event(a, b, c, d, e, f), a != c.",
           "ans(a, b, c, d, e, f) :- E(a, b), E(a, c), E(a, d), E(a, e), "
           "E(a, f), E(b, c), E(b, d), E(b, e), E(b, f), E(c, d), E(c, e), "
           "E(c, f), E(d, e), E(d, f), E(e, f), !Adult(a).",
       }) {
    SCOPED_TRACE(text);
    auto parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    auto explanation = engine.Explain(text, "g");
    ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
    const Classification cls = ClassifyQuery(*parsed, PlanOptions{});
    const Classification& planned = explanation->plan.classification;
    EXPECT_EQ(cls.verdict, planned.verdict);
    EXPECT_EQ(cls.kind, planned.kind);
    EXPECT_EQ(cls.treewidth, planned.treewidth);
    EXPECT_EQ(cls.fhw, planned.fhw);
    EXPECT_EQ(cls.phi_size, planned.phi_size);
  }
}

TEST(EngineTest, ReregistrationInvalidatesCachedPlans) {
  // A node cap between the two databases' exact joins of the query (119
  // and 1,179 nodes).
  EngineOptions opts;
  opts.plan.exact_cost_limit = 500.0;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(30, 12)).ok());
  const std::string query = "ans(x) :- F(x, y), F(x, z), y != z.";
  auto small = engine.Count(query, "g");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->strategy, Strategy::kExact);

  // Replace the contents under the same name with a database the planner
  // must treat differently: the stale exact plan must not be reused.
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(300, 13)).ok());
  auto large = engine.Count(query, "g");
  ASSERT_TRUE(large.ok());
  EXPECT_FALSE(large->plan_cache_hit);
  EXPECT_EQ(large->strategy, Strategy::kFptrasTreewidth);

  // And the new plan is cached under the new generation.
  auto warm = engine.Count(query, "g");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
}

TEST(EngineTest, DisconnectedQueryFactorsIntoComponents) {
  CountingEngine engine;
  Database db = Social(30, 20);
  ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());

  // Two Gaifman components {x, a} and {y, b}: planned as two sub-plans
  // whose counts multiply.
  const std::string query = "ans(x, y) :- F(x, a), F(y, b).";
  auto result = engine.Count(query, "g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_components, 2);
  ASSERT_EQ(result->components.size(), 2u);
  EXPECT_TRUE(result->exact);

  auto parsed = ParseQuery(query);
  ASSERT_TRUE(parsed.ok());
  const double exact =
      static_cast<double>(ExactCountAnswersBruteForce(*parsed, db));
  EXPECT_DOUBLE_EQ(result->estimate, exact);
  EXPECT_DOUBLE_EQ(result->components[0].estimate *
                       result->components[1].estimate,
                   exact);

  // The two components are isomorphic: the second one hits the plan the
  // first one just built, within a single cold Count.
  EXPECT_EQ(result->components[0].shape_key, result->components[1].shape_key);
  EXPECT_FALSE(result->components[0].plan_cache_hit);
  EXPECT_TRUE(result->components[1].plan_cache_hit);
  EXPECT_EQ(engine.CacheStats().insertions, 1u);
}

TEST(EngineTest, FactoringLowersPlannedCost) {
  // 14,400 answers monolithically (43,320 join nodes, past the cap) vs
  // two components of 120 answers (240 nodes each): factoring turns an
  // estimation workload back into two cheap exact counts.
  Database db = Social(120, 21);
  EngineOptions factored_opts;
  factored_opts.plan.exact_cost_limit = 10'000.0;
  CountingEngine factored(factored_opts);
  ASSERT_TRUE(factored.RegisterDatabase("g", db).ok());
  EngineOptions monolithic_opts = factored_opts;
  monolithic_opts.compile.factor_components = false;
  CountingEngine monolithic(monolithic_opts);
  ASSERT_TRUE(monolithic.RegisterDatabase("g", db).ok());

  const std::string query = "ans(x, y) :- F(x, a), F(y, b).";
  auto factored_result = factored.Count(query, "g");
  ASSERT_TRUE(factored_result.ok());
  EXPECT_EQ(factored_result->num_components, 2);
  EXPECT_EQ(factored_result->strategy, Strategy::kExact);
  EXPECT_TRUE(factored_result->exact);

  auto monolithic_result = monolithic.Count(query, "g");
  ASSERT_TRUE(monolithic_result.ok());
  EXPECT_EQ(monolithic_result->num_components, 1);
  EXPECT_NE(monolithic_result->strategy, Strategy::kExact);

  // The approximate monolithic estimate must agree with the factored
  // exact product within its accuracy target (generous slack for delta).
  EXPECT_NEAR(monolithic_result->estimate, factored_result->estimate,
              0.5 * factored_result->estimate + 1.0);
}

TEST(EngineTest, ExistentialComponentCollapsesToBooleanFactor) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(30, 22)).ok());

  auto with_existential =
      engine.Count("ans(x) :- F(x, y), F(u, v), u != v.", "g");
  ASSERT_TRUE(with_existential.ok()) << with_existential.status().ToString();
  ASSERT_EQ(with_existential->num_components, 2);
  EXPECT_FALSE(with_existential->components[0].existential);
  EXPECT_TRUE(with_existential->components[1].existential);

  // The satisfiable existential factor contributes exactly 1: the count
  // equals the plain single-component query's.
  auto plain = engine.Count("ans(x) :- F(x, y).", "g");
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(with_existential->estimate, plain->estimate);
}

TEST(EngineTest, ComponentBudgetSplitIsRecorded) {
  // A node cap between the exact joins of the two component shapes on
  // this database: 360 nodes for F(x, a), F(a, b), 240 for F(y, c).
  EngineOptions opts;
  opts.plan.exact_cost_limit = 300.0;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(120, 23)).ok());

  // Two estimated counting components (each past the node cap):
  // epsilon/(2k) each, delta/k each.
  CountRequest request;
  request.query = "ans(x, y) :- F(x, a), F(a, b), F(y, c), F(c, d).";
  request.database = "g";
  request.epsilon = 0.4;
  request.delta = 0.2;
  auto result = engine.Count(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->components.size(), 2u);
  ASSERT_NE(result->components[0].strategy, Strategy::kExact);
  EXPECT_DOUBLE_EQ(result->components[0].epsilon, 0.1);
  EXPECT_DOUBLE_EQ(result->components[1].epsilon, 0.1);
  EXPECT_DOUBLE_EQ(result->components[0].delta, 0.1);

  // Mixed exact + estimated: the exact factor consumes no budget (zero
  // share) and the estimated one keeps the FULL epsilon.
  CountRequest mixed;
  mixed.query = "ans(x, y) :- F(x, a), F(a, b), F(y, c).";
  mixed.database = "g";
  mixed.epsilon = 0.4;
  mixed.delta = 0.2;
  auto mixed_result = engine.Count(mixed);
  ASSERT_TRUE(mixed_result.ok()) << mixed_result.status().ToString();
  ASSERT_EQ(mixed_result->components.size(), 2u);
  ASSERT_NE(mixed_result->components[0].strategy, Strategy::kExact);
  ASSERT_EQ(mixed_result->components[1].strategy, Strategy::kExact);
  EXPECT_DOUBLE_EQ(mixed_result->components[0].epsilon, 0.4);
  EXPECT_DOUBLE_EQ(mixed_result->components[0].delta, 0.2);
  EXPECT_DOUBLE_EQ(mixed_result->components[1].epsilon, 0.0);
  EXPECT_DOUBLE_EQ(mixed_result->components[1].delta, 0.0);
}

// Every pool size yields bitwise-identical batch estimates. Each thread
// count gets its own engine of that many threads (CountBatch runs one lane
// per pool thread), so every run also starts from a cold plan cache.
void ExpectBatchDeterministic(EngineOptions opts, const Database& db,
                              const std::vector<std::string>& queries,
                              int copies) {
  std::vector<CountRequest> requests;
  for (int c = 0; c < copies; ++c) {
    for (const std::string& text : queries) {
      CountRequest request;
      request.query = text;
      request.database = "g";
      requests.push_back(request);
    }
  }
  std::vector<double> reference;
  for (int threads : {1, 2, 4, 8}) {
    opts.num_threads = threads;
    CountingEngine engine(opts);
    ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
    auto results = engine.CountBatch(requests);
    std::vector<double> estimates;
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      estimates.push_back(r->estimate);
    }
    if (reference.empty()) {
      reference = estimates;
    } else {
      EXPECT_EQ(estimates, reference) << "threads=" << threads;
    }
  }
}

TEST(EngineTest, FactoredBatchesStayDeterministicAcrossThreadCounts) {
  ExpectBatchDeterministic(EngineOptions(), Social(120, 24),
                           {
                               "ans(x, y) :- F(x, a), F(y, b).",
                               "ans(x) :- F(x, y), F(u, v), u != v.",
                               "ans(x) :- F(x, y), F(x, z), y != z.",
                               "ans(p, q) :- F(p, a), F(q, b).",
                           },
                           /*copies=*/1);

  // A mixed batch: renamed isomorphic shapes share plans, the last two
  // factor into two Gaifman components each.
  EngineOptions opts;
  opts.epsilon = 0.2;
  opts.delta = 0.2;
  ExpectBatchDeterministic(opts, Social(80, 2024),
                           {
                               "ans(x) :- F(x, y), F(x, z), y != z.",
                               "ans(a) :- F(a, b), F(a, c), b != c.",
                               "ans(x, y) :- F(x, y), Adult(x).",
                               "ans(p, q) :- F(p, q), Adult(p).",
                               "ans(x) :- F(x, y), Adult(y), x != y.",
                               "ans(x, y) :- F(x, y), !Adult(y).",
                               "ans(x) :- F(x, y), F(y, z), x != z.",
                               "ans(x) :- F(x, y).",
                               "ans(x, y) :- F(x, a), F(y, b).",
                               "ans(u) :- F(u, w), F(p, q), p != q.",
                           },
                           /*copies=*/2);
}

// Exact components past the join-node gate run in windows across the
// pool's lanes: at every pool size and lane request the count is the
// brute-force one, and the lanes granted are min(N or pool, pool).
TEST(EngineTest, ExactCountsOnLanesMatchBruteForce) {
  Rng rng(7);
  const Database db = GraphToDatabase(RandomGraphWithEdges(60, 500, rng), "F");
  for (const char* text : {
           "ans(a, d) :- F(a, b), F(b, c), F(c, d), !F(a, d), a != c.",
           "ans(a, c) :- F(a, b), F(b, c), F(c, d), F(d, a), a != c, b != d.",
       }) {
    SCOPED_TRACE(text);
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const double brute = static_cast<double>(CountAnswersBrute(*q, db));
    {
      // The premise: an exact plan past the gate.
      CountingEngine engine;
      ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
      auto explanation = engine.Explain(text, "g");
      ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
      ASSERT_EQ(explanation->plan.strategy, Strategy::kExact);
      ASSERT_GE(explanation->plan.cost_estimate, kMinExactFanoutNodes);
    }
    for (int threads : {1, 2, 4, 8}) {
      for (int intra : {0, 1, 3, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " intra=" + std::to_string(intra));
        EngineOptions opts;
        opts.num_threads = threads;
        opts.intra_query_threads = intra;
        CountingEngine engine(opts);
        ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
        auto result = engine.Count(text, "g");
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(result->exact);
        EXPECT_EQ(result->estimate, brute);
        const int lanes = intra == 0 ? threads : std::min(intra, threads);
        EXPECT_EQ(result->parallel.lanes, lanes);
        EXPECT_EQ(result->parallel.tasks,
                  lanes > 1 ? uint64_t{kJoinWindows} : 0u);
      }
    }
  }
}

TEST(EngineTest, ExplainShowsPerComponentBreakdown) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("g", Social(40, 25)).ok());
  auto explanation =
      engine.Explain("ans(x, y) :- F(x, a), F(y, b).", "g");
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  ASSERT_EQ(explanation->components.size(), 2u);
  EXPECT_NE(explanation->text.find("components: 2"), std::string::npos);
  EXPECT_NE(explanation->text.find("component 0"), std::string::npos);
  EXPECT_NE(explanation->text.find("component 1"), std::string::npos);
  EXPECT_NE(explanation->text.find("strategy:"), std::string::npos);
  EXPECT_NE(explanation->text.find("budget:"), std::string::npos);
}

TEST(EngineTest, CacheEvictionKeepsCountsCorrect) {
  EngineOptions opts;
  opts.plan_cache_capacity = 2;
  CountingEngine engine(opts);
  Database db = Social(25, 11);
  ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());

  const std::vector<std::string> queries = {
      "ans(x) :- F(x, y).",
      "ans(x) :- F(x, y), F(y, z).",
      "ans(x) :- F(x, y), F(x, z), y != z.",
  };
  std::vector<double> first_pass;
  for (const auto& q : queries) {
    auto r = engine.Count(q, "g");
    ASSERT_TRUE(r.ok());
    first_pass.push_back(r->estimate);
  }
  EXPECT_GE(engine.CacheStats().evictions, 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = engine.Count(queries[i], "g");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->estimate, first_pass[i]) << queries[i];
  }
}

}  // namespace
}  // namespace cqcount
