// The `count --json` and `explain --json` documents: EngineResult::ToJson()
// and Explanation::ToJson() over a fixed case set. Every document's key
// paths must equal the checked-in lists below (a key that appears,
// disappears or moves fails the test), every stop_reason must name a
// StopReason, and every partial interval must contain its estimate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "app/graph_gen.h"
#include "app/workload.h"
#include "engine/engine.h"
#include "hom/backtracking.h"
#include "query/parser.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace cqcount {
namespace {

// Key paths in first-appearance order; array elements share the path
// segment "[]".
const std::vector<std::string> kCountKeyPaths = {
    "estimate", "exact", "converged", "partial", "lower_bound",
    "upper_bound", "partial_reason", "adaptive", "strategy", "kind", "width",
    "verdict", "shape_key", "oracle_calls", "plan_cache_hit",
    "num_components", "guards_evaluated", "plan_ms", "exec_ms", "components",
    "components[].estimate", "components[].exact", "components[].converged",
    "components[].partial", "components[].lower_bound",
    "components[].upper_bound", "components[].stop_reason",
    "components[].rounds_executed", "components[].completed_runs",
    "components[].total_runs", "components[].executed",
    "components[].strategy", "components[].verdict",
    "components[].shape_key", "components[].width", "components[].num_vars",
    "components[].num_free", "components[].existential",
    "components[].plan_cache_hit", "components[].oracle_calls",
    "components[].estimator_calls", "components[].cost_source",
    "components[].predicted_ms", "components[].predicted_oracle_calls",
    "components[].dp_prepared_decides", "components[].dp_prepared_path",
    "components[].colouring_trials_per_call", "components[].epsilon",
    "components[].delta", "components[].exec_ms", "components[].lanes",
    "profile", "profile.phases", "profile.phases.parse_ms",
    "profile.phases.compile_ms", "profile.phases.plan_ms",
    "profile.phases.execute_ms", "profile.plan_cache_hits",
    "profile.plan_cache_misses", "profile.guards_evaluated",
    "profile.oracle_calls", "profile.dp_prepared_decides", "profile.lanes",
    "profile.tasks", "profile.worker_tasks", "profile.components",
    "profile.components[].shape_key", "profile.components[].strategy",
    "profile.components[].exec_ms", "profile.components[].plan_cache_hit",
    "profile.components[].executed", "profile.components[].oracle_calls",
    "profile.components[].dp_prepared_decides",
    "profile.components[].colouring_trials_per_call",
    "profile.components[].lanes", "profile.components[].tasks",
    "profile.components[].worker_tasks",
};

// An Explain over a warm shape (observed history present, no guards).
const std::vector<std::string> kWarmExplainKeyPaths = {
    "strategy", "verdict", "shape_key", "cost_estimate", "plan_cache_hit",
    "plan_ms", "pass_stats", "pass_stats.atoms_deduped",
    "pass_stats.guards_extracted", "pass_stats.variables_pruned", "guards",
    "components", "components[].strategy", "components[].verdict",
    "components[].shape_key", "components[].cost_estimate",
    "components[].plan_cache_hit", "components[].existential",
    "components[].variables", "components[].epsilon", "components[].delta",
    "components[].planned_lanes", "components[].cost_source",
    "components[].predicted_ms", "components[].predicted_oracle_calls",
    "components[].observed", "components[].observed.runs",
    "components[].observed.mean_exec_ms", "components[].observed.var_exec_ms",
    "components[].observed.last_exec_ms", "components[].observed.min_exec_ms",
    "components[].observed.max_exec_ms",
    "components[].observed.total_oracle_calls",
    "components[].observed.total_estimator_calls",
    "components[].observed.converged_runs",
    "components[].observed.last_estimate",
};

// A parsed document: key paths in first-appearance order, and every leaf
// by its indexed path ("components[0].stop_reason"; strings unquoted).
struct JsonDoc {
  std::vector<std::string> key_paths;
  std::map<std::string, std::string> leaves;

  double Number(const std::string& path) const {
    auto it = leaves.find(path);
    return it == leaves.end() ? std::nan("")
                              : std::strtod(it->second.c_str(), nullptr);
  }
  std::string Text(const std::string& path) const {
    auto it = leaves.find(path);
    return it == leaves.end() ? "<missing>" : it->second;
  }
  // Elements of the array at `path`, counted by their leaves.
  int Count(const std::string& path) const {
    for (int n = 0;; ++n) {
      const std::string prefix = path + "[" + std::to_string(n) + "]";
      auto it = leaves.lower_bound(prefix);
      if (it == leaves.end() ||
          it->first.compare(0, prefix.size(), prefix) != 0) {
        return n;
      }
    }
  }
};

// Just enough of a JSON parser to walk the writer's output (no unicode
// escapes); fails on malformed input.
class KeyPathParser {
 public:
  explicit KeyPathParser(const std::string& text) : s_(text) {}

  bool Parse(JsonDoc* doc) {
    doc_ = doc;
    return Value("", "") && (SkipWs(), pos_ == s_.size());
  }

 private:
  // `path` indexes array elements, `shape` does not.
  bool Value(const std::string& path, const std::string& shape) {
    SkipWs();
    if (Eat('{')) {
      if (SkipWs(), Eat('}')) return true;
      do {
        std::string key;
        if (!(SkipWs(), String(&key)) || !(SkipWs(), Eat(':'))) return false;
        const std::string sub = shape.empty() ? key : shape + "." + key;
        if (seen_.insert(sub).second) doc_->key_paths.push_back(sub);
        if (!Value(path.empty() ? key : path + "." + key, sub)) return false;
      } while (SkipWs(), Eat(','));
      return Eat('}');
    }
    if (Eat('[')) {
      if (SkipWs(), Eat(']')) return true;
      int i = 0;
      do {
        if (!Value(path + "[" + std::to_string(i++) + "]", shape + "[]")) {
          return false;
        }
      } while (SkipWs(), Eat(','));
      return Eat(']');
    }
    std::string leaf;
    if (pos_ < s_.size() && s_[pos_] == '"') {
      if (!String(&leaf)) return false;
    } else {
      const size_t start = pos_;
      while (pos_ < s_.size() && std::string(",]} \n").find(s_[pos_]) ==
                                     std::string::npos) {
        ++pos_;
      }
      leaf = s_.substr(start, pos_ - start);
      char* end = nullptr;
      std::strtod(leaf.c_str(), &end);
      const bool number = !leaf.empty() && *end == '\0';
      if (!number && leaf != "true" && leaf != "false" && leaf != "null") {
        return false;
      }
    }
    doc_->leaves[path] = leaf;
    return true;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      if (pos_ < s_.size()) out->push_back(s_[pos_++]);
    }
    return Eat('"');
  }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n')) ++pos_;
  }
  bool Eat(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
  JsonDoc* doc_ = nullptr;
  std::set<std::string> seen_;
};

JsonDoc Parse(const std::string& json) {
  JsonDoc doc;
  EXPECT_TRUE(KeyPathParser(json).Parse(&doc)) << "malformed JSON: " << json;
  return doc;
}

// The checks a consumer of `count --json` relies on: the key paths, typed
// stop reasons, and the anytime contract — a partial result names its
// reason and its interval contains the estimate; a complete one has the
// degenerate interval [estimate, estimate].
JsonDoc CheckCountJson(const StatusOr<EngineResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  const JsonDoc doc = Parse(result->ToJson());
  EXPECT_EQ(doc.key_paths, kCountKeyPaths);

  const std::set<std::string> stop_reasons = {
      "none", "full_schedule", "confidence", "hard_bounds",
      "budget_exhausted", "cancelled", "deadline_expired"};
  const int components = doc.Count("components");
  EXPECT_EQ(components, static_cast<int>(result->components.size()));
  EXPECT_EQ(doc.Count("profile.components"), components);
  for (int i = 0; i < components; ++i) {
    const std::string reason =
        doc.Text("components[" + std::to_string(i) + "].stop_reason");
    EXPECT_EQ(stop_reasons.count(reason), 1u) << "stop_reason " << reason;
  }

  const double estimate = doc.Number("estimate");
  const double lower = doc.Number("lower_bound");
  const double upper = doc.Number("upper_bound");
  if (doc.Text("partial") == "true") {
    EXPECT_NE(doc.Text("partial_reason"), "");
    EXPECT_LE(lower, estimate);
    EXPECT_LE(estimate, upper);
  } else {
    EXPECT_EQ(lower, estimate);
    EXPECT_EQ(upper, estimate);
  }
  return doc;
}

Database Social(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  return SocialNetworkDb(n, 5.0, 0.5, rng);
}

// A 4-cycle over a small dense random graph: with estimation forced, the
// DLM estimator reaches its median-of-runs sampling loop in tens of ms.
Database CycleDb() {
  Rng rng(7);
  return GraphToDatabase(RandomGraphWithEdges(12, 40, rng), "F");
}

const char kSamplingQuery[] =
    "ans(a, b, c, d) :- F(a, b), F(b, c), F(c, d), F(d, a).";

EngineOptions SamplingOptions() {
  EngineOptions opts;
  opts.plan.exact_cost_limit = 0.0;
  return opts;
}

CountRequest SamplingRequest(double delta) {
  CountRequest request;
  request.query = kSamplingQuery;
  request.database = "g";
  request.seed = 0xFEEDULL;
  request.epsilon = 0.5;
  request.delta = delta;
  return request;
}

class ResultJsonTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(ResultJsonTest, SamplingFptrasComponent) {
  CountingEngine engine(SamplingOptions());
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());
  const JsonDoc doc = CheckCountJson(engine.Count(SamplingRequest(0.5)));
  EXPECT_EQ(doc.Text("components[0].strategy"), "fptras-tw");
  EXPECT_EQ(doc.Text("components[0].stop_reason"), "full_schedule");
  EXPECT_GE(doc.Number("components[0].total_runs"), 1.0);
  EXPECT_EQ(doc.Number("components[0].completed_runs"),
            doc.Number("components[0].total_runs"));
  EXPECT_GT(doc.Number("components[0].dp_prepared_decides"), 0.0);
}

TEST_F(ResultJsonTest, FactoredQueryWithExistentialComponent) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("s", Social(120, 2)).ok());
  const JsonDoc doc = CheckCountJson(
      engine.Count("ans(x) :- F(x, y), F(u, v), F(v, w), u != w.", "s"));
  EXPECT_EQ(doc.Number("num_components"), 2.0);
  EXPECT_EQ(doc.Text("components[0].existential") +
                doc.Text("components[1].existential"),
            "falsetrue");
}

TEST_F(ResultJsonTest, FalseNullaryGuardSkipsExecution) {
  CountingEngine engine;
  Database db = Social(30, 3);
  ASSERT_TRUE(db.DeclareRelation("G", 0).ok());
  ASSERT_TRUE(engine.RegisterDatabase("s", std::move(db)).ok());
  const JsonDoc doc = CheckCountJson(engine.Count("ans(x) :- F(x, y), G().", "s"));
  EXPECT_EQ(doc.Number("estimate"), 0.0);
  EXPECT_EQ(doc.Number("guards_evaluated"), 1.0);
  EXPECT_EQ(doc.Text("components[0].executed"), "false");
  EXPECT_EQ(doc.Text("profile.components[0].executed"), "false");
}

TEST_F(ResultJsonTest, ForceExact) {
  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("s", Social(120, 2)).ok());
  const JsonDoc doc = CheckCountJson(
      engine.CountExact("ans(x) :- F(x, y), F(x, z), y != z.", "s"));
  EXPECT_EQ(doc.Text("exact"), "true");
  EXPECT_EQ(doc.Text("components[0].strategy"), "exact");
  EXPECT_EQ(doc.Number("components[0].epsilon"), 0.0);
}

// An exact plan's cost estimate is the join nodes the planner's probe
// visited; explain prints them against the cap, and says where the probe
// stopped for a component it left to an estimator.
TEST_F(ResultJsonTest, ExactPlanCostIsItsJoinNodes) {
  const Database db = Social(120, 2);
  const char* text = "ans(x) :- F(x, y), F(x, z), y != z.";
  auto query = ParseQuery(text);
  ASSERT_TRUE(query.ok());
  const JoinCount probe = CountAnswersJoin(
      CanonicalQuery(*query, CanonicalQueryShape(*query)), db);
  ASSERT_GT(probe.nodes, 0u);

  CountingEngine engine;
  ASSERT_TRUE(engine.RegisterDatabase("s", db).ok());
  auto explanation = engine.Explain(text, "s");
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  const JsonDoc explain = Parse(explanation->ToJson());
  EXPECT_EQ(explain.Text("strategy"), "exact");
  EXPECT_EQ(explain.Number("cost_estimate"), static_cast<double>(probe.nodes));
  EXPECT_EQ(explain.Number("components[0].cost_estimate"),
            static_cast<double>(probe.nodes));
  EXPECT_NE(explanation->text.find("exact probe: " +
                                   std::to_string(probe.nodes) +
                                   " join nodes (cap 1e+06)"),
            std::string::npos)
      << explanation->text;
  // Below the lane gate, which explain says.
  ASSERT_LT(probe.nodes, kMinExactFanoutNodes);
  EXPECT_NE(explanation->text.find("intra-query lanes: 1 (exact join of "),
            std::string::npos)
      << explanation->text;
  EXPECT_NE(explanation->text.find(" nodes < 10,000)"), std::string::npos)
      << explanation->text;
  const JsonDoc count = CheckCountJson(engine.Count(text, "s"));
  EXPECT_EQ(count.Number("estimate"), static_cast<double>(probe.answers));
  EXPECT_EQ(count.Number("oracle_calls"), 0.0);

  // A cap below the probe's nodes leaves the component to the FPTRAS.
  EngineOptions capped;
  capped.plan.exact_cost_limit = static_cast<double>(probe.nodes - 1);
  CountingEngine estimator(capped);
  ASSERT_TRUE(estimator.RegisterDatabase("s", db).ok());
  auto estimated = estimator.Explain(text, "s");
  ASSERT_TRUE(estimated.ok()) << estimated.status().ToString();
  EXPECT_EQ(Parse(estimated->ToJson()).Text("strategy"), "fptras-tw");
  EXPECT_NE(estimated->text.find("exact probe: stopped at the cap of "),
            std::string::npos)
      << estimated->text;
}

// An exact count past the join-node gate reports its split in the
// `parallel` fields: the pool's lanes and one task per window, in the
// profile and per component. Explain gives each exact component's lane
// reason.
TEST_F(ResultJsonTest, SplitExactCount) {
  Rng rng(7);
  const Database db = GraphToDatabase(RandomGraphWithEdges(60, 500, rng), "F");
  const char* text = "ans(a, d) :- F(a, b), F(b, c), F(c, d), !F(a, d), a != c.";
  EngineOptions opts;
  opts.num_threads = 4;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
  const JsonDoc doc = CheckCountJson(engine.Count(text, "g"));
  EXPECT_EQ(doc.Text("components[0].strategy"), "exact");
  EXPECT_EQ(doc.Number("components[0].lanes"), 4.0);
  EXPECT_EQ(doc.Number("profile.lanes"), 4.0);
  EXPECT_EQ(doc.Number("profile.tasks"), kJoinWindows);
  EXPECT_EQ(doc.Number("profile.components[0].lanes"), 4.0);
  EXPECT_EQ(doc.Number("profile.components[0].tasks"), kJoinWindows);
  EXPECT_LE(doc.Number("profile.components[0].worker_tasks"), kJoinWindows);

  auto split = engine.Explain(text, "g");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_GE(split->plan.cost_estimate, kMinExactFanoutNodes);
  EXPECT_NE(split->text.find("intra-query lanes: 4 (exact join of "),
            std::string::npos)
      << split->text;
  EXPECT_NE(split->text.find(" nodes >= 10,000)"), std::string::npos)
      << split->text;
  auto boolean = engine.Explain("ans() :- F(a, b), F(b, c), a != c.", "g");
  ASSERT_TRUE(boolean.ok()) << boolean.status().ToString();
  EXPECT_NE(boolean->text.find("intra-query lanes: 1 (no free variable)"),
            std::string::npos)
      << boolean->text;
}

TEST_F(ResultJsonTest, PartialResultFromManualClockDeadline) {
  CountingEngine engine(SamplingOptions());
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());
  ManualClock clock(0);
  CountRequest request = SamplingRequest(0.3);
  request.time_budget_ms = 1000;
  request.clock = &clock;
  // The budget expires the instant the first sampling run finishes.
  failpoint::Config config;
  config.skip = 0;
  config.max_fires = 1;
  config.on_fire = [&clock] { clock.Advance(10'000); };
  failpoint::ScopedFailpoint fp("dlm.run_boundary", config);

  const JsonDoc doc = CheckCountJson(engine.Count(request));
  ASSERT_EQ(failpoint::FireCount("dlm.run_boundary"), 1u);
  EXPECT_EQ(doc.Text("partial"), "true");
  EXPECT_EQ(doc.Text("components[0].stop_reason"), "deadline_expired");
  EXPECT_LT(doc.Number("components[0].completed_runs"),
            doc.Number("components[0].total_runs"));
}

TEST_F(ResultJsonTest, WarmAdaptiveCountAndExplain) {
  EngineOptions opts = SamplingOptions();
  opts.adaptive = true;
  CountingEngine engine(opts);
  ASSERT_TRUE(engine.RegisterDatabase("g", CycleDb()).ok());
  for (int cold = 0; cold < 2; ++cold) {
    CheckCountJson(engine.Count(SamplingRequest(0.3)));
  }
  const JsonDoc warm = CheckCountJson(engine.Count(SamplingRequest(0.3)));
  EXPECT_EQ(warm.Text("adaptive"), "true");
  EXPECT_EQ(warm.Text("components[0].cost_source"),
            CostSourceName(CostSource::kObservedProfile));

  auto explanation = engine.Explain(kSamplingQuery, "g");
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  const JsonDoc explain = Parse(explanation->ToJson());
  EXPECT_EQ(explain.key_paths, kWarmExplainKeyPaths);
  EXPECT_EQ(explain.Number("components[0].observed.runs"), 3.0);
  EXPECT_EQ(explain.Text("components[0].cost_source"),
            CostSourceName(CostSource::kObservedProfile));
}

}  // namespace
}  // namespace cqcount
