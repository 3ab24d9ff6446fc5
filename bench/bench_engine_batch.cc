// EXP-ENG: engine-layer performance baseline.
//
// Measures what the CountingEngine adds on top of the raw pipeline:
//   (a) cold vs. warm-plan-cache latency per Count call (the warm path
//       skips decomposition search entirely);
//   (b) CountBatch throughput at 1/2/4/8 worker threads over a mixed
//       workload, with a determinism check (every thread count must
//       produce bitwise-identical estimates);
//   (d) Gaifman-component factoring: a disconnected query (two disjoint
//       triangles) against its connected control (one 6-cycle), factored
//       engine vs the monolithic-plan baseline
//       (compile.factor_components = false).
// Writes the measurements as JSON (default BENCH_engine.json, or argv[1])
// so future PRs have a perf trajectory to compare against.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "app/workload.h"
#include "bench_util.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "util/executor.h"
#include "util/timer.h"

namespace cqcount {
namespace {

std::vector<CountRequest> MixedWorkload(int copies) {
  // Mixed shapes; several entries are isomorphic renamings of each other
  // so the plan cache has real sharing to exploit.
  const std::vector<std::string> templates = {
      "ans(x) :- F(x, y), F(x, z), y != z.",
      "ans(a) :- F(a, b), F(a, c), b != c.",
      "ans(x, y) :- F(x, y), Adult(x).",
      "ans(p, q) :- F(p, q), Adult(p).",
      "ans(x) :- F(x, y), Adult(y), x != y.",
      "ans(x, y) :- F(x, y), !Adult(y).",
      "ans(x) :- F(x, y), F(y, z), x != z.",
      "ans(x) :- F(x, y).",
      // Disconnected shapes: exercised through the compile pipeline's
      // Gaifman factoring (two components each).
      "ans(x, y) :- F(x, a), F(y, b).",
      "ans(u) :- F(u, w), F(p, q), p != q.",
  };
  std::vector<CountRequest> requests;
  for (int c = 0; c < copies; ++c) {
    for (const std::string& t : templates) {
      CountRequest request;
      request.query = t;
      request.database = "g";
      requests.push_back(request);
    }
  }
  return requests;
}

struct BatchPoint {
  int threads = 0;
  double millis = 0.0;
  double queries_per_sec = 0.0;
  // Work accounting: oracle calls are part of the determinism contract
  // (must match across thread counts); dp_decides tracks how much of the
  // batch the exact DP layer absorbed.
  uint64_t oracle_calls = 0;
  uint64_t dp_decides = 0;
};

/// One engine configuration's measurements for one factoring query.
struct FactoringPoint {
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double estimate = 0.0;
  int components = 0;
  const char* strategy = "";
  uint64_t cold_cache_hits = 0;
  uint64_t cold_cache_misses = 0;
};

}  // namespace

int Run(const std::string& json_path) {
  bench::Header("EXP-ENG", "engine: plan-cache latency and batch throughput");

  const uint32_t universe = bench::Sized(400u, 80u);
  EngineOptions opts;
  opts.epsilon = 0.2;
  opts.delta = 0.2;
  CountingEngine engine(opts);
  {
    Rng rng(2024);
    Status s =
        engine.RegisterDatabase("g", SocialNetworkDb(universe, 5.0, 0.5, rng));
    if (!s.ok()) {
      std::fprintf(stderr, "register: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // (a) cold vs warm per-call latency over the distinct shapes.
  const std::vector<CountRequest> shapes = MixedWorkload(1);
  double cold_plan_ms = 0.0, cold_total_ms = 0.0;
  double warm_plan_ms = 0.0, warm_total_ms = 0.0;
  int cold_hits = 0, warm_hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const CountRequest& request : shapes) {
      WallTimer timer;
      auto result = engine.Count(request);
      const double total = timer.Millis();
      if (!result.ok()) {
        std::fprintf(stderr, "count: %s\n", result.status().ToString().c_str());
        return 1;
      }
      if (pass == 0) {
        cold_plan_ms += result->plan_millis;
        cold_total_ms += total;
        cold_hits += result->plan_cache_hit ? 1 : 0;
      } else {
        warm_plan_ms += result->plan_millis;
        warm_total_ms += total;
        warm_hits += result->plan_cache_hit ? 1 : 0;
      }
    }
  }
  const double n_shapes = static_cast<double>(shapes.size());
  bench::Row("\n(a) per-call latency over %d queries (avg ms)",
             static_cast<int>(shapes.size()));
  bench::Row("%8s %12s %12s %12s", "pass", "plan_ms", "call_ms", "cache_hits");
  bench::Row("%8s %12.3f %12.3f %12d", "cold", cold_plan_ms / n_shapes,
             cold_total_ms / n_shapes, cold_hits);
  bench::Row("%8s %12.3f %12.3f %12d", "warm", warm_plan_ms / n_shapes,
             warm_total_ms / n_shapes, warm_hits);

  // (b) batch throughput vs thread count; estimates must be identical.
  const std::vector<CountRequest> batch = MixedWorkload(bench::Sized(8, 2));
  std::vector<BatchPoint> points;
  std::vector<double> reference;
  bool deterministic = true;
  obs::Counter& dp_decides_metric = obs::MetricRegistry::Global().GetCounter(
      "dp.prepared_decides", "prepared-DP decide calls");
  bench::Row("\n(b) CountBatch over %d queries", static_cast<int>(batch.size()));
  bench::Row("%8s %12s %14s %14s %12s", "threads", "millis", "queries/s",
             "oracle_calls", "dp_decides");
  for (int threads : {1, 2, 4, 8}) {
    const uint64_t dp_before = dp_decides_metric.Value();
    WallTimer timer;
    auto results = engine.CountBatch(batch, threads);
    BatchPoint point;
    point.threads = threads;
    point.millis = timer.Millis();
    point.queries_per_sec = 1e3 * batch.size() / point.millis;
    point.dp_decides = dp_decides_metric.Value() - dp_before;
    std::vector<double> estimates;
    for (const auto& r : results) {
      estimates.push_back(r.ok() ? r->estimate : -1.0);
      if (r.ok()) point.oracle_calls += r->oracle_calls;
    }
    points.push_back(point);
    if (reference.empty()) {
      reference = estimates;
    } else if (estimates != reference) {
      deterministic = false;
    }
    bench::Row("%8d %12.2f %14.1f %14llu %12llu", threads, point.millis,
               point.queries_per_sec,
               static_cast<unsigned long long>(point.oracle_calls),
               static_cast<unsigned long long>(point.dp_decides));
  }
  bench::Row("determinism across thread counts: %s",
             deterministic ? "OK (bitwise identical)" : "VIOLATED");

  // (c) pool serialization probe. CPU-bound batch scaling is capped by
  // hardware_concurrency (1 on single-core runners), so this isolates the
  // executor itself: sleep-bound tasks scale with threads unless a shared
  // lock serialises dispatch/completion. The CALLER is lane 0 and claims
  // tasks too, so the probe gives an N-thread pool N+1 lanes: expect 8
  // tasks at 1t in ~4 sleeps (2 lanes) and at 4t in ~2 sleeps (5 lanes,
  // ceil(8/5)).
  constexpr int kProbeTasks = 8;
  constexpr int kProbeSleepMs = 25;
  auto probe = [&](int threads) {
    Executor pool(threads);
    WallTimer timer;
    pool.ParallelForLanes(kProbeTasks, threads + 1, [&](int, size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kProbeSleepMs));
    });
    return timer.Millis();
  };
  const double probe_1t = probe(1);
  const double probe_4t = probe(4);
  const double pool_speedup = probe_1t / probe_4t;
  bench::Row("\n(c) executor probe: %d sleep(%dms) tasks, 1t=%.1fms "
             "4t=%.1fms speedup=%.2fx",
             kProbeTasks, kProbeSleepMs, probe_1t, probe_4t, pool_speedup);

  PlanCacheStats stats = engine.CacheStats();
  bench::Row("plan cache: %llu hits, %llu misses, %llu evictions",
             static_cast<unsigned long long>(stats.hits),
             static_cast<unsigned long long>(stats.misses),
             static_cast<unsigned long long>(stats.evictions));

  // (d) Gaifman-component factoring. The disjoint-triangles query has two
  // 3-variable components (each cheap enough for exact counting); the
  // 6-cycle control is connected, so both configurations plan it
  // identically. The monolithic baseline disables factoring and must plan
  // the disjoint query as one 6-variable shape (estimation territory).
  const uint32_t factoring_universe = bench::Sized(60u, 24u);
  const char* factoring_names[2] = {"disjoint-triangles", "six-cycle"};
  const std::string factoring_queries[2] = {
      "ans(a, d) :- F(a, b), F(b, c), F(c, a), F(d, e), F(e, f), F(f, d).",
      "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a).",
  };
  FactoringPoint factoring[2][2];  // [query][0 = factored, 1 = monolithic]
  {
    Database db;
    {
      Rng rng(77);
      db = SocialNetworkDb(factoring_universe, 6.0, 0.5, rng);
    }
    for (int config = 0; config < 2; ++config) {
      EngineOptions factoring_opts;
      factoring_opts.epsilon = 0.25;
      factoring_opts.delta = 0.2;
      factoring_opts.compile.factor_components = config == 0;
      CountingEngine factoring_engine(factoring_opts);
      Status s = factoring_engine.RegisterDatabase("g", db);
      if (!s.ok()) {
        std::fprintf(stderr, "register: %s\n", s.ToString().c_str());
        return 1;
      }
      for (int qi = 0; qi < 2; ++qi) {
        FactoringPoint& point = factoring[qi][config];
        const PlanCacheStats before = factoring_engine.CacheStats();
        WallTimer timer;
        auto cold = factoring_engine.Count(factoring_queries[qi], "g");
        point.cold_ms = timer.Millis();
        if (!cold.ok()) {
          std::fprintf(stderr, "factoring count: %s\n",
                       cold.status().ToString().c_str());
          return 1;
        }
        const PlanCacheStats after = factoring_engine.CacheStats();
        point.cold_cache_hits = after.hits - before.hits;
        point.cold_cache_misses = after.misses - before.misses;
        // Warm time averaged over adaptive repeats: sub-millisecond
        // queries need several reps for a stable number, slow ones stop
        // after the first.
        int warm_reps = 0;
        double warm_total_ms = 0.0;
        while (warm_reps < 16 && (warm_reps == 0 || warm_total_ms < 400.0)) {
          timer.Reset();
          auto warm = factoring_engine.Count(factoring_queries[qi], "g");
          warm_total_ms += timer.Millis();
          ++warm_reps;
          if (!warm.ok() || warm->estimate != cold->estimate) {
            std::fprintf(stderr, "factoring warm path diverged\n");
            return 1;
          }
        }
        point.warm_ms = warm_total_ms / warm_reps;
        point.estimate = cold->estimate;
        point.components = cold->num_components;
        point.strategy = StrategyName(cold->strategy);
      }
    }
  }
  bench::Row("\n(d) component factoring (universe %u, warm = cached plans)",
             factoring_universe);
  bench::Row("%20s %12s %6s %10s %10s %12s %12s", "query", "config", "comps",
             "cold_ms", "warm_ms", "estimate", "cache h/m");
  for (int qi = 0; qi < 2; ++qi) {
    for (int config = 0; config < 2; ++config) {
      const FactoringPoint& point = factoring[qi][config];
      bench::Row("%20s %12s %6d %10.2f %10.2f %12.1f %7llu/%llu",
                 factoring_names[qi],
                 config == 0 ? "factored" : "monolithic", point.components,
                 point.cold_ms, point.warm_ms, point.estimate,
                 static_cast<unsigned long long>(point.cold_cache_hits),
                 static_cast<unsigned long long>(point.cold_cache_misses));
    }
  }
  const double factoring_speedup =
      factoring[0][0].warm_ms > 0.0
          ? factoring[0][1].warm_ms / factoring[0][0].warm_ms
          : 0.0;
  bench::Row("disjoint-triangles warm speedup (monolithic/factored): %.1fx",
             factoring_speedup);

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"engine_batch\",\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() <= 1) {
    std::fprintf(out,
                 "  \"scaling_note\": \"scaling unproven on this runner: "
                 "1 hardware thread — batch throughput vs thread count "
                 "measures overhead, not scaling\",\n");
  }
  std::fprintf(out, "  \"universe\": %u,\n", universe);
  std::fprintf(out, "  \"distinct_queries\": %d,\n",
               static_cast<int>(shapes.size()));
  std::fprintf(out, "  \"cold\": {\"plan_ms\": %.4f, \"call_ms\": %.4f},\n",
               cold_plan_ms / n_shapes, cold_total_ms / n_shapes);
  std::fprintf(out, "  \"warm\": {\"plan_ms\": %.4f, \"call_ms\": %.4f},\n",
               warm_plan_ms / n_shapes, warm_total_ms / n_shapes);
  std::fprintf(out, "  \"batch_queries\": %d,\n",
               static_cast<int>(batch.size()));
  std::fprintf(out, "  \"batch\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %d, \"millis\": %.2f, "
                 "\"queries_per_sec\": %.1f, \"oracle_calls\": %llu, "
                 "\"dp_decides\": %llu}%s\n",
                 points[i].threads, points[i].millis,
                 points[i].queries_per_sec,
                 static_cast<unsigned long long>(points[i].oracle_calls),
                 static_cast<unsigned long long>(points[i].dp_decides),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"pool_probe\": {\"tasks\": %d, \"task_sleep_ms\": %d, "
               "\"millis_1t\": %.1f, \"millis_4t\": %.1f, "
               "\"speedup_4t\": %.2f},\n",
               kProbeTasks, kProbeSleepMs, probe_1t, probe_4t, pool_speedup);
  std::fprintf(out, "  \"deterministic\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(out, "  \"factoring\": {\n");
  std::fprintf(out, "    \"universe\": %u,\n", factoring_universe);
  std::fprintf(out, "    \"queries\": [\n");
  for (int qi = 0; qi < 2; ++qi) {
    std::fprintf(out, "      {\"query\": \"%s\",\n", factoring_names[qi]);
    for (int config = 0; config < 2; ++config) {
      const FactoringPoint& point = factoring[qi][config];
      std::fprintf(out,
                   "       \"%s\": {\"components\": %d, \"strategy\": "
                   "\"%s\", \"cold_ms\": %.2f, \"warm_ms\": %.2f, "
                   "\"estimate\": %.1f, \"cold_cache_hits\": %llu, "
                   "\"cold_cache_misses\": %llu}%s\n",
                   config == 0 ? "factored" : "monolithic", point.components,
                   point.strategy, point.cold_ms, point.warm_ms,
                   point.estimate,
                   static_cast<unsigned long long>(point.cold_cache_hits),
                   static_cast<unsigned long long>(point.cold_cache_misses),
                   config == 0 ? "," : "");
    }
    std::fprintf(out, "      }%s\n", qi == 0 ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out,
               "    \"disjoint_warm_speedup_monolithic_over_factored\": "
               "%.2f\n",
               factoring_speedup);
  std::fprintf(out, "  },\n");
  std::fprintf(out,
               "  \"note\": \"CPU-bound batch scaling is capped by "
               "hardware_threads; pool_probe isolates executor dispatch "
               "(sleep-bound tasks) from that ceiling — the help-draining "
               "ParallelFor adds the caller as a lane, so N threads = N+1 "
               "lanes (1t: ceil(8/2)=4 sleeps, 4t: ceil(8/5)=2)\",\n");
  std::fprintf(out,
               "  \"plan_cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"evictions\": %llu}\n",
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses),
               static_cast<unsigned long long>(stats.evictions));
  std::fprintf(out, "}\n");
  std::fclose(out);
  bench::Row("wrote %s", json_path.c_str());
  return deterministic ? 0 : 1;
}

}  // namespace cqcount

int main(int argc, char** argv) {
  return cqcount::Run(argc > 1 ? argv[1] : "BENCH_engine.json");
}
