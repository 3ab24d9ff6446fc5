// EXP-SCHED: adaptive accuracy scheduler A/B.
//
// Measures what EngineOptions::adaptive buys on warm repeated queries:
// the cost model predicts per-component work from ShapeProfile history,
// the budget splitter reallocates epsilon by marginal cost, and the CLT
// early-stop rule terminates the DLM run schedule once the confidence
// target is met. Each workload runs two arms on identical databases and
// seeds:
//   adaptive_off — the exact pre-scheduler behaviour (even eps split,
//                  full run schedule); its answers at a fixed size are
//                  pinned by tests/estimate_pins_test.cc;
//   adaptive_on  — cost-model budgets + early stop, measured on the
//                  third call so two prior calls have warmed the shape
//                  profile past kMinProfileRuns.
// The headline number is oracle_call_reduction = off/on; the six-cycle
// fptras-tw workload is expected to show >= 2x in full mode.
// Writes BENCH_scheduler.json (or argv[1]).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "app/workload.h"
#include "bench_util.h"
#include "engine/engine.h"
#include "util/estimate_outcome.h"
#include "util/timer.h"

namespace cqcount {
namespace {

struct Workload {
  const char* name;
  const char* query;
};

constexpr Workload kWorkloads[] = {
    {"six-cycle",
     "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a)."},
    {"path-diseq", "ans(x) :- F(x, y), F(y, z), x != z."},
};

constexpr uint64_t kEngineSeed = 20220808;
constexpr double kEpsilon = 0.2;
constexpr double kDelta = 0.2;

/// One arm's measured (third, profile-warm) call.
struct ArmPoint {
  double estimate = 0.0;
  uint64_t oracle_calls = 0;
  uint64_t estimator_calls = 0;
  double millis = 0.0;
  const char* stop_reason = "none";
  std::string cost_source;
  int completed_runs = 0;
  int total_runs = 0;
};

bool RunArm(const Database& db, const char* query, bool adaptive,
            ArmPoint* point) {
  EngineOptions opts;
  opts.epsilon = kEpsilon;
  opts.delta = kDelta;
  opts.seed = kEngineSeed;
  opts.num_threads = 4;
  opts.intra_query_threads = 1;
  opts.adaptive = adaptive;
  // No exact probe: both arms measure the estimators, which is where the
  // adaptive scheduler acts.
  opts.plan.exact_cost_limit = 0.0;
  CountingEngine engine(opts);
  Status s = engine.RegisterDatabase("g", db);
  if (!s.ok()) {
    std::fprintf(stderr, "register: %s\n", s.ToString().c_str());
    return false;
  }
  // Two warm-up calls: the first fills the plan cache, the second pushes
  // the shape profile past kMinProfileRuns so the measured call runs on
  // observed costs (cost_source = observed_profile) in the adaptive arm.
  for (int warm = 0; warm < 2; ++warm) {
    auto r = engine.Count(query, "g");
    if (!r.ok()) {
      std::fprintf(stderr, "warm count: %s\n", r.status().ToString().c_str());
      return false;
    }
  }
  WallTimer timer;
  auto result = engine.Count(query, "g");
  point->millis = timer.Millis();
  if (!result.ok()) {
    std::fprintf(stderr, "count: %s\n", result.status().ToString().c_str());
    return false;
  }
  point->estimate = result->estimate;
  point->oracle_calls = result->oracle_calls;
  for (const ComponentResult& c : result->components) {
    point->estimator_calls += c.estimator_calls;
    if (!c.executed) continue;
    // Report the run structure of the dominant estimated component (these
    // workloads are connected: exactly one).
    if (c.total_runs > 0) {
      point->stop_reason = StopReasonName(c.stop_reason);
      point->cost_source = c.cost_source;
      point->completed_runs = c.completed_runs;
      point->total_runs = c.total_runs;
    }
  }
  return true;
}

}  // namespace

int Run(const std::string& json_path) {
  bench::Header("EXP-SCHED", "adaptive scheduler: oracle work vs accuracy");
  const unsigned hardware = std::thread::hardware_concurrency();

  // The A/B itself, at bench-sized universes.
  const uint32_t universe = bench::Sized(240u, 48u);
  Database db;
  {
    Rng rng(2024);
    db = SocialNetworkDb(universe, 5.0, 0.5, rng);
  }
  struct WorkloadResult {
    const char* name;
    ArmPoint off, on;
    double reduction = 1.0;
    double rel_gap = 0.0;
  };
  std::vector<WorkloadResult> results;
  bench::Row("\nwarm third-call A/B (universe %u, eps %.2f, delta %.2f)",
             universe, kEpsilon, kDelta);
  bench::Row("%12s %9s %12s %12s %10s %8s %14s %10s", "workload", "arm",
             "oracle", "est_calls", "millis", "runs", "stop", "estimate");
  for (const Workload& w : kWorkloads) {
    WorkloadResult wr;
    wr.name = w.name;
    if (!RunArm(db, w.query, /*adaptive=*/false, &wr.off)) return 1;
    if (!RunArm(db, w.query, /*adaptive=*/true, &wr.on)) return 1;
    wr.reduction = wr.on.oracle_calls > 0
                       ? static_cast<double>(wr.off.oracle_calls) /
                             static_cast<double>(wr.on.oracle_calls)
                       : 1.0;
    wr.rel_gap = bench::RelativeError(wr.on.estimate, wr.off.estimate);
    for (const ArmPoint* arm : {&wr.off, &wr.on}) {
      bench::Row("%12s %9s %12llu %12llu %10.2f %5d/%-2d %14s %10.1f",
                 w.name, arm == &wr.off ? "off" : "adaptive",
                 static_cast<unsigned long long>(arm->oracle_calls),
                 static_cast<unsigned long long>(arm->estimator_calls),
                 arm->millis, arm->completed_runs, arm->total_runs,
                 arm->stop_reason, arm->estimate);
    }
    bench::Row("%12s oracle-call reduction %.2fx, estimate gap %.1f%%",
               w.name, wr.reduction, 100.0 * wr.rel_gap);
    results.push_back(wr);
  }

  bool ok = true;
  for (const WorkloadResult& wr : results) {
    if (wr.reduction < 1.0) {
      std::fprintf(stderr, "%s: adaptive arm did MORE oracle work (%.2fx)\n",
                   wr.name, wr.reduction);
      ok = false;
    }
  }
  // The headline acceptance target (full mode only: smoke-sized instances
  // finish in the exact phase where there is nothing to save).
  if (!bench::SmokeMode() && results[0].reduction < 2.0) {
    std::fprintf(stderr,
                 "six-cycle oracle-call reduction %.2fx below the 2x target\n",
                 results[0].reduction);
    ok = false;
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  auto write_arm = [&](const char* name, const ArmPoint& arm,
                       const char* trailer) {
    std::fprintf(out,
                 "     \"%s\": {\"estimate\": %.6f, \"oracle_calls\": %llu, "
                 "\"estimator_calls\": %llu, \"millis\": %.2f, "
                 "\"stop_reason\": \"%s\", \"cost_source\": \"%s\", "
                 "\"completed_runs\": %d, \"total_runs\": %d}%s\n",
                 name, arm.estimate,
                 static_cast<unsigned long long>(arm.oracle_calls),
                 static_cast<unsigned long long>(arm.estimator_calls),
                 arm.millis, arm.stop_reason, arm.cost_source.c_str(),
                 arm.completed_runs, arm.total_runs, trailer);
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"scheduler\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n",
               bench::SmokeMode() ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hardware);
  std::fprintf(out, "  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& wr = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"universe\": %u, \"seed\": %llu, "
                 "\"epsilon\": %.2f, \"delta\": %.2f,\n",
                 wr.name, universe,
                 static_cast<unsigned long long>(kEngineSeed), kEpsilon,
                 kDelta);
    write_arm("adaptive_off", wr.off, ",");
    write_arm("adaptive_on", wr.on, ",");
    std::fprintf(out,
                 "     \"oracle_call_reduction\": %.4f, "
                 "\"estimate_rel_gap\": %.6f}%s\n",
                 wr.reduction, wr.rel_gap,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"note\": \"workloads measure the third profile-warm "
               "call so the adaptive arm runs on observed costs; smoke-sized "
               "workloads may finish in the exact phase, so the 2x six-cycle "
               "target is asserted in full mode only\"\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  bench::Row("wrote %s", json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace cqcount

int main(int argc, char** argv) {
  return cqcount::Run(argc > 1 ? argv[1] : "BENCH_scheduler.json");
}
