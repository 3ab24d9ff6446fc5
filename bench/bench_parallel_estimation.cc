// EXP-PAR: intra-query parallel estimation scaling.
//
// Measures what EngineOptions::intra_query_threads buys on a single
// Count call (the batch path already scales across queries):
//   (a) the warm six-cycle fptras-tw workload — the engine's heaviest
//       single-query DLM estimation — at 1/2/4 intra-query lanes;
//   (b) a mixed warm workload (every estimated shape of the engine
//       bench) at the same lane counts;
// with a determinism check: every lane count must produce bitwise
// identical estimates (the counter-derived seed tree makes lanes a pure
// scheduling knob).
//
// CPU-bound scaling is capped by the runner's hardware threads — the
// recorded hardware_threads field is the ceiling to read the speedups
// against, exactly as BENCH_relation.json documents for its scan rows.
// Writes BENCH_parallel.json (or argv[1]).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "app/workload.h"
#include "bench_util.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace cqcount {
namespace {

const char* kSixCycle =
    "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a).";

std::vector<std::string> MixedTemplates() {
  return {
      "ans(x) :- F(x, y), F(x, z), y != z.",
      "ans(x) :- F(x, y), Adult(y), x != y.",
      "ans(x) :- F(x, y), F(y, z), x != z.",
      "ans(x, y) :- F(x, y), !Adult(y).",
      "ans(u) :- F(u, w), F(p, q), p != q.",
  };
}

struct LanePoint {
  int intra = 0;
  double warm_ms = 0.0;
  double speedup = 1.0;
  double estimate = 0.0;
  int lanes = 1;
  uint64_t tasks = 0;
  uint64_t worker_tasks = 0;
  // Work accounting: oracle calls must be lane-count invariant (the
  // determinism contract extends beyond estimates); dp_decides shows how
  // much the exact DP layer handled per configuration.
  uint64_t oracle_calls = 0;
  uint64_t dp_decides = 0;
};

}  // namespace

int Run(const std::string& json_path) {
  bench::Header("EXP-PAR", "intra-query parallel estimation scaling");

  const uint32_t universe = bench::Sized(240u, 80u);
  const int warm_reps = bench::Sized(2, 1);
  const unsigned hardware = std::thread::hardware_concurrency();
  Database db;
  {
    Rng rng(2024);
    db = SocialNetworkDb(universe, 5.0, 0.5, rng);
  }

  obs::Counter& dp_decides_metric = obs::MetricRegistry::Global().GetCounter(
      "dp.prepared_decides", "prepared-DP decide calls");
  auto run_config = [&](const std::string& query, int intra,
                        LanePoint* point) -> bool {
    EngineOptions opts;
    opts.epsilon = 0.2;
    opts.delta = 0.2;
    opts.num_threads = 4;
    opts.intra_query_threads = intra;
    // No exact probe: lanes exist only in the estimators.
    opts.plan.exact_cost_limit = 0.0;
    CountingEngine engine(opts);
    Status s = engine.RegisterDatabase("g", db);
    if (!s.ok()) {
      std::fprintf(stderr, "register: %s\n", s.ToString().c_str());
      return false;
    }
    auto cold = engine.Count(query, "g");  // Warm the plan cache.
    if (!cold.ok()) {
      std::fprintf(stderr, "count: %s\n", cold.status().ToString().c_str());
      return false;
    }
    double total_ms = 0.0;
    for (int rep = 0; rep < warm_reps; ++rep) {
      const uint64_t dp_before = dp_decides_metric.Value();
      WallTimer timer;
      auto warm = engine.Count(query, "g");
      total_ms += timer.Millis();
      if (!warm.ok()) {
        std::fprintf(stderr, "count: %s\n",
                     warm.status().ToString().c_str());
        return false;
      }
      point->estimate = warm->estimate;
      point->lanes = warm->parallel.lanes;
      point->tasks = warm->parallel.tasks;
      point->worker_tasks = warm->parallel.worker_tasks;
      point->oracle_calls = warm->oracle_calls;
      point->dp_decides = dp_decides_metric.Value() - dp_before;
    }
    point->intra = intra;
    point->warm_ms = total_ms / warm_reps;
    return true;
  };

  // (a) six-cycle fptras-tw.
  bench::Row("\n(a) warm six-cycle fptras-tw (universe %u)", universe);
  bench::Row("%6s %10s %9s %10s %8s %12s %14s %12s", "intra", "warm_ms",
             "speedup", "estimate", "lanes", "tasks", "oracle_calls",
             "dp_decides");
  std::vector<LanePoint> six_cycle;
  bool deterministic = true;
  for (int intra : {1, 2, 4}) {
    LanePoint point;
    if (!run_config(kSixCycle, intra, &point)) return 1;
    if (!six_cycle.empty()) {
      point.speedup = six_cycle.front().warm_ms / point.warm_ms;
      deterministic = deterministic &&
                      point.estimate == six_cycle.front().estimate &&
                      point.oracle_calls == six_cycle.front().oracle_calls;
    }
    bench::Row("%6d %10.2f %9.2f %10.1f %8d %12llu %14llu %12llu",
               point.intra, point.warm_ms, point.speedup, point.estimate,
               point.lanes, static_cast<unsigned long long>(point.tasks),
               static_cast<unsigned long long>(point.oracle_calls),
               static_cast<unsigned long long>(point.dp_decides));
    six_cycle.push_back(point);
  }

  // (b) mixed estimated workload: sum of warm per-call latencies.
  bench::Row("\n(b) mixed estimated workload (%zu shapes)",
             MixedTemplates().size());
  bench::Row("%6s %10s %9s", "intra", "warm_ms", "speedup");
  std::vector<LanePoint> mixed;
  for (int intra : {1, 2, 4}) {
    LanePoint total;
    total.intra = intra;
    double sum_estimate = 0.0;
    for (const std::string& query : MixedTemplates()) {
      LanePoint point;
      if (!run_config(query, intra, &point)) return 1;
      total.warm_ms += point.warm_ms;
      total.lanes = std::max(total.lanes, point.lanes);
      total.tasks += point.tasks;
      total.worker_tasks += point.worker_tasks;
      total.oracle_calls += point.oracle_calls;
      total.dp_decides += point.dp_decides;
      sum_estimate += point.estimate;
    }
    total.estimate = sum_estimate;
    if (!mixed.empty()) {
      total.speedup = mixed.front().warm_ms / total.warm_ms;
      deterministic = deterministic &&
                      total.estimate == mixed.front().estimate &&
                      total.oracle_calls == mixed.front().oracle_calls;
    }
    bench::Row("%6d %10.2f %9.2f", total.intra, total.warm_ms,
               total.speedup);
    mixed.push_back(total);
  }
  bench::Row("\ndeterministic across lane counts: %s",
             deterministic ? "yes" : "NO (BUG)");

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  auto write_points = [&](const char* name,
                          const std::vector<LanePoint>& points) {
    std::fprintf(out, "  \"%s\": [\n", name);
    for (size_t i = 0; i < points.size(); ++i) {
      const LanePoint& p = points[i];
      std::fprintf(out,
                   "    {\"intra\": %d, \"warm_ms\": %.2f, \"speedup\": "
                   "%.2f, \"estimate\": %.6f, \"lanes\": %d, \"tasks\": "
                   "%llu, \"worker_tasks\": %llu, \"oracle_calls\": %llu, "
                   "\"dp_decides\": %llu}%s\n",
                   p.intra, p.warm_ms, p.speedup, p.estimate, p.lanes,
                   static_cast<unsigned long long>(p.tasks),
                   static_cast<unsigned long long>(p.worker_tasks),
                   static_cast<unsigned long long>(p.oracle_calls),
                   static_cast<unsigned long long>(p.dp_decides),
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"parallel_estimation\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n",
               bench::SmokeMode() ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hardware);
  if (hardware <= 1) {
    // A single-hardware-thread runner cannot demonstrate wall-clock
    // scaling at all; say so explicitly rather than letting ~1.0x
    // speedups read as a parallelism regression.
    std::fprintf(out,
                 "  \"scaling_note\": \"scaling unproven on this runner: "
                 "1 hardware thread — speedup columns measure overhead, "
                 "not scaling; lanes/tasks columns show the fan-out\",\n");
  }
  std::fprintf(out, "  \"universe\": %u,\n", universe);
  write_points("six_cycle_fptras_tw", six_cycle);
  write_points("mixed_workload", mixed);
  std::fprintf(out, "  \"deterministic\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(out,
               "  \"note\": \"speedup is warm_ms(intra=1)/warm_ms(intra=N); "
               "CPU-bound scaling is capped by hardware_threads (a "
               "1-hardware-thread runner cannot show wall-clock gains — "
               "read the lanes/tasks columns for the fan-out evidence, as "
               "BENCH_relation.json does for its scan rows); estimates are "
               "asserted bitwise identical across lane counts\"\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  bench::Row("wrote %s", json_path.c_str());
  return deterministic ? 0 : 1;
}

}  // namespace cqcount

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  return cqcount::Run(json_path);
}
