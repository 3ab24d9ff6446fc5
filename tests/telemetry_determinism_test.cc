// Property: telemetry is invisible to the counting math. A fixed-seed
// engine count returns bit-identical estimates and oracle-call tallies
// whether span tracing is off or on, at 1, 2 and 4 intra-query lanes.
//
// This is the contract stated in obs/trace.h: spans read clocks, metrics
// do bulk adds at deterministic boundaries, and neither ever touches RNG
// state or merge order. The oracle-call tallies include the colour-coding
// hom queries: each EdgeFree call is charged the trials up to its first
// witness, the same at every lane count (cc.nondet.hom_queries keeps its
// historical name only for the readers that look it up).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cqcount {
namespace {

Database DenseDatabase() {
  Database db(8);
  EXPECT_TRUE(db.DeclareRelation("E", 2).ok());
  for (Value u = 0; u < 8; ++u) {
    for (Value v = 0; v < 8; ++v) {
      if ((u * 5 + v * 11 + 3) % 3 != 0) continue;
      EXPECT_TRUE(db.AddFact("E", {u, v}).ok());
    }
  }
  db.Canonicalize();
  return db;
}

struct Observed {
  double estimate = 0.0;
  bool exact = false;
  bool converged = false;
  uint64_t oracle_calls = 0;

  bool operator==(const Observed& o) const {
    // Bitwise estimate comparison (operator== on double is exactly that;
    // the suite never produces NaN estimates).
    return estimate == o.estimate && exact == o.exact &&
           converged == o.converged && oracle_calls == o.oracle_calls;
  }
};

TEST(TelemetryDeterminismTest, TracingNeverPerturbsEstimates) {
  const Database db = DenseDatabase();
  const std::vector<std::string> queries = {
      "ans(x, y) :- E(x, y), E(y, z), x != z.",
      "ans(x, y) :- E(x, y), E(x, z), y != z.",
      "ans(x, z) :- E(x, y), E(y, z).",
      "ans(x, y) :- E(x, y), !E(y, x).",
  };

  std::optional<std::vector<Observed>> reference;
  for (int lanes : {1, 2, 4}) {
    for (bool traced : {false, true}) {
      if (traced) {
        obs::TraceSink::Global().Enable();
      } else {
        obs::TraceSink::Global().Disable();
      }
      EngineOptions opts;
      opts.epsilon = 0.3;
      opts.delta = 0.3;
      opts.seed = 20220607;
      opts.num_threads = 4;
      opts.intra_query_threads = lanes;
      CountingEngine engine(opts);
      ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());

      std::vector<Observed> observed;
      for (const std::string& text : queries) {
        auto result = engine.Count(text, "g");
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        observed.push_back({result->estimate, result->exact,
                            result->converged, result->oracle_calls});
      }
      if (traced) {
        // The run actually produced spans (the toggle was not a no-op).
        EXPECT_GT(obs::TraceSink::Global().event_count(), 0u);
        obs::TraceSink::Global().Disable();
        obs::TraceSink::Global().Clear();
      }

      if (!reference.has_value()) {
        reference = observed;
        continue;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_TRUE(observed[i] == (*reference)[i])
            << queries[i] << " lanes=" << lanes << " traced=" << traced
            << ": estimate " << observed[i].estimate << " vs "
            << (*reference)[i].estimate << ", oracle_calls "
            << observed[i].oracle_calls << " vs "
            << (*reference)[i].oracle_calls;
      }
    }
  }
}

// Metric snapshots taken mid-run must also be invisible: a second engine
// pass with a concurrent snapshot storm gives the same answers.
TEST(TelemetryDeterminismTest, MetricSnapshotsAreInvisible) {
  const Database db = DenseDatabase();
  const std::string query = "ans(x, y) :- E(x, y), E(y, z), x != z.";

  auto run = [&](bool storm) {
    EngineOptions opts;
    opts.epsilon = 0.3;
    opts.delta = 0.3;
    opts.seed = 777;
    opts.intra_query_threads = 2;
    CountingEngine engine(opts);
    EXPECT_TRUE(engine.RegisterDatabase("g", db).ok());
    if (storm) {
      for (int i = 0; i < 8; ++i) (void)obs::MetricRegistry::Global().ToJson();
    }
    auto result = engine.Count(query, "g");
    EXPECT_TRUE(result.ok());
    return result.ok() ? std::make_pair(result->estimate, result->oracle_calls)
                       : std::make_pair(-1.0, uint64_t{0});
  };

  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace cqcount
