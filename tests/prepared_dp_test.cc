// Property tests for the prepare/evaluate DP split (the colour-coding
// trial-reuse hot path): prepared decisions must be indistinguishable
// from the monolithic DP, and the full estimator pipeline must produce
// bit-identical estimates under fixed seeds regardless of which oracle
// evaluation path serves the trials.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "counting/colour_coding.h"
#include "counting/dlm_counter.h"
#include "decomposition/elimination_order.h"
#include "engine/engine.h"
#include "hom/hom_oracle.h"
#include "query/parser.h"
#include "test_util.h"
#include "util/executor.h"
#include "util/failpoint.h"

namespace cqcount {
namespace {

using testing_util::MergeOverlay;
using testing_util::RandomDatabaseFor;
using testing_util::RandomQuery;
using testing_util::RandomQueryOptions;

constexpr uint32_t kUniverse = 5;

// A random query with exactly `num_diseq` disequalities over distinct
// variable pairs (when the variable count allows).
Query RandomQueryWithDisequalities(Rng& rng, int num_diseq) {
  RandomQueryOptions qopts;
  qopts.min_vars = 2;
  qopts.max_vars = 4;
  qopts.negated_probability = 0.2;
  qopts.disequality_probability = 0.0;
  Query q = RandomQuery(rng, qopts);
  int added = 0;
  for (int attempt = 0; attempt < 20 && added < num_diseq; ++attempt) {
    const int u = static_cast<int>(rng.UniformInt(q.num_vars()));
    const int w = static_cast<int>(rng.UniformInt(q.num_vars()));
    if (u == w) continue;
    q.AddDisequality(std::min(u, w), std::max(u, w));
    ++added;
  }
  return q;
}

VarDomains RandomBaseDomains(const Query& q, Rng& rng) {
  VarDomains base;
  base.allowed.resize(q.num_vars());
  for (int v = 0; v < q.num_vars(); ++v) {
    if (rng.Bernoulli(0.5)) {
      base.allowed[v] = rng.RandomMask(kUniverse, 0.7);
    }
  }
  return base;
}

// Core property over ~100 random (query, database, base, trials)
// instances with 0-3 disequalities: DecidePrepared(ctx, extra) ==
// monolithic Decide(base merged with extra), for both the cached-rows
// path and the cache-cap fallback (forced through the dp.bag_cache_build
// failpoint, the transition the row cap takes).
class PreparedDpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PreparedDpPropertyTest, PreparedMatchesMonolithic) {
  const int seed = GetParam();
  Rng rng(seed * 617 + 29);
  const int num_diseq = seed % 4;  // 0..3 disequalities.
  Query q = RandomQueryWithDisequalities(rng, num_diseq);
  Database db = RandomDatabaseFor(q, kUniverse, 0.45, rng);
  Hypergraph h = q.BuildHypergraph();

  // Overlay vars = disequality endpoints, as in the colour-coding loop.
  std::vector<int> overlay_vars;
  for (const Disequality& d : q.disequalities()) {
    overlay_vars.push_back(d.lhs);
    overlay_vars.push_back(d.rhs);
  }
  std::sort(overlay_vars.begin(), overlay_vars.end());
  overlay_vars.erase(std::unique(overlay_vars.begin(), overlay_vars.end()),
                     overlay_vars.end());

  DecompositionSolver reference(q, db,
                                DecompositionFromOrder(h, MinFillOrder(h)));
  DecompositionSolver prepared_solver(
      q, db, DecompositionFromOrder(h, MinFillOrder(h)));
  DecompositionSolver fallback_solver(
      q, db, DecompositionFromOrder(h, MinFillOrder(h)));

  SolverEvalContext prepared_ctx;
  SolverEvalContext fallback_ctx;
  {
    // The first Prepare builds the solver's cache; a failed build leaves
    // it disabled for the solver's lifetime.
    failpoint::ScopedFailpoint no_cache("dp.bag_cache_build", {});
    fallback_solver.Prepare(VarDomains{}, overlay_vars, fallback_ctx);
  }
  for (int call = 0; call < 3; ++call) {
    const VarDomains base = RandomBaseDomains(q, rng);
    prepared_solver.Prepare(base, overlay_vars, prepared_ctx);
    fallback_solver.Prepare(base, overlay_vars, fallback_ctx);

    for (int trial = 0; trial < 6; ++trial) {
      std::vector<Bitset> masks;
      masks.reserve(overlay_vars.size());
      for (size_t k = 0; k < overlay_vars.size(); ++k) {
        masks.push_back(rng.RandomMask(kUniverse, 0.5));
      }
      std::vector<DomainRestriction> extra;
      for (size_t k = 0; k < overlay_vars.size(); ++k) {
        extra.push_back({overlay_vars[k], &masks[k]});
      }
      const VarDomains merged = MergeOverlay(q, base, extra);
      const bool expected = reference.Decide(&merged);
      EXPECT_EQ(prepared_solver.DecidePrepared(prepared_ctx, extra), expected)
          << q.ToString() << " call " << call << " trial " << trial;
      EXPECT_EQ(fallback_solver.DecidePrepared(fallback_ctx, extra), expected)
          << q.ToString() << " (fallback) call " << call << " trial "
          << trial;
    }
  }
  EXPECT_TRUE(prepared_solver.dp_stats().prepared_path);
  EXPECT_FALSE(fallback_solver.dp_stats().prepared_path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedDpPropertyTest,
                         ::testing::Range(0, 100));

// End-to-end: the same DLM estimation run, same seeds, once with the
// decomposition oracle (lanes on the trial-reuse DP) and once with the
// backtracking oracle (the default lane: copy-restore overlay around a
// full Decide). Identical IsEdgeFree verdicts imply bit-identical
// estimates. Every Hom oracle has lanes, so both paths also fork onto 4
// lanes, where the estimate and its work must equal the inline run's.
class EstimatePathEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EstimatePathEquivalenceTest, EstimatesBitIdenticalAcrossOraclePaths) {
  const int seed = GetParam();
  Rng rng(seed * 131 + 7);
  const int num_diseq = seed % 3;
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
  if (q.num_free() > q.num_vars()) return;
  Database db = RandomDatabaseFor(q, kUniverse, 0.5, rng);
  Hypergraph h = q.BuildHypergraph();

  DecompositionHomOracle dp_hom(q, db,
                                DecompositionFromOrder(h, MinFillOrder(h)));
  BacktrackingHomOracle bt_hom(q, db);

  ColourCodingOptions cc;
  cc.per_call_failure = 1e-4;
  cc.seed = static_cast<uint64_t>(seed) * 0x9E37u + 11u;
  ColourCodingEdgeFreeOracle dp_oracle(q, &dp_hom, kUniverse, cc);
  ColourCodingEdgeFreeOracle bt_oracle(q, &bt_hom, kUniverse, cc);

  DlmOptions dlm;
  dlm.epsilon = 0.3;
  dlm.delta = 0.3;
  dlm.exact_enumeration_budget = 64;
  dlm.seed = static_cast<uint64_t>(seed) + 1;
  std::vector<uint32_t> part_sizes(q.num_free(), kUniverse);
  auto dp_result = DlmCountEdges(part_sizes, dp_oracle, dlm);
  auto bt_result = DlmCountEdges(part_sizes, bt_oracle, dlm);
  ASSERT_TRUE(dp_result.ok());
  ASSERT_TRUE(bt_result.ok());
  EXPECT_EQ(dp_result->estimate, bt_result->estimate) << q.ToString();
  EXPECT_EQ(dp_result->exact, bt_result->exact);
  EXPECT_EQ(dp_result->oracle_calls, bt_result->oracle_calls);

  Executor pool(4);
  DlmOptions on_lanes = dlm;
  on_lanes.pool = &pool;
  on_lanes.intra_threads = 4;
  auto expect_same_on_lanes = [&](ColourCodingEdgeFreeOracle& oracle,
                                  const DlmResult& inline_result) {
    auto result = DlmCountEdges(part_sizes, oracle, on_lanes);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimate, inline_result.estimate) << q.ToString();
    EXPECT_EQ(result->exact, inline_result.exact);
    EXPECT_EQ(result->oracle_calls, inline_result.oracle_calls);
    EXPECT_EQ(result->parallel.lanes, 4);
  };
  expect_same_on_lanes(dp_oracle, *dp_result);
  expect_same_on_lanes(bt_oracle, *bt_result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatePathEquivalenceTest,
                         ::testing::Range(0, 30));

// Seed determinism through the engine: the same fptras-heavy batch must
// produce bitwise-identical estimates at 1, 2 and 4 worker threads (the
// prepared-DP state is per-execution, never shared across workers).
TEST(PreparedDpDeterminismTest, BatchEstimatesPinnedAcrossThreadCounts) {
  EngineOptions opts;
  opts.epsilon = 0.3;
  opts.delta = 0.3;
  Database db(6);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 6; ++u) {
    for (Value v = 0; v < 6; ++v) {
      if ((u * 7 + v * 3) % 4 != 0) continue;
      ASSERT_TRUE(db.AddFact("E", {u, v}).ok());
    }
  }
  db.Canonicalize();

  std::vector<CountRequest> batch;
  for (const char* text : {
           "ans(x) :- E(x, y), E(x, z), y != z.",
           "ans(x, y) :- E(x, y), x != y.",
           "ans(x) :- E(x, y), E(y, z), x != z.",
           "ans(x, y) :- E(x, y).",
       }) {
    CountRequest request;
    request.query = text;
    request.database = "g";
    batch.push_back(request);
  }

  std::vector<double> reference;
  for (int threads : {1, 2, 4}) {
    opts.num_threads = threads;  // CountBatch runs one lane per thread.
    CountingEngine engine(opts);
    ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
    auto results = engine.CountBatch(batch);
    ASSERT_EQ(results.size(), batch.size());
    std::vector<double> estimates;
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      estimates.push_back(r->estimate);
    }
    if (reference.empty()) {
      reference = estimates;
    } else {
      EXPECT_EQ(estimates, reference) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace cqcount
