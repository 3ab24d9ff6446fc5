// EXP-HOM: hom-oracle / prepared-DP microbenchmarks.
//
// Isolates the cost structure behind the colour-coding FPTRAS hot path
// (cost model: DLM oracle calls x colouring trials x per-trial DP):
//   (a) prepared (trial-reuse) vs monolithic DP decisions as a function
//       of trial count, for 0/1/2-disequality queries — the tentpole
//       prepare/evaluate split measured in isolation;
//   (b) ColourCodingEdgeFreeOracle::IsEdgeFree end-to-end per-call cost;
//   (c) BacktrackingHomOracle::Decide throughput (its BagJoiner is built
//       once at construction, not per call).
// Writes BENCH_fptras.json (argv[1] overrides). The fixed-seed answers of
// this pipeline are pinned by tests/estimate_pins_test.cc.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "app/workload.h"
#include "bench_util.h"
#include "counting/colour_coding.h"
#include "decomposition/width_measures.h"
#include "hom/hom_oracle.h"
#include "query/parser.h"
#include "util/random.h"
#include "util/timer.h"

namespace cqcount {
namespace {

// Keeps the optimiser from discarding a decision verdict.
volatile bool g_sink = false;
void benchmark_do_not_optimize(bool v) { g_sink = v; }

struct PreparedPoint {
  const char* name = "";
  int diseqs = 0;
  int trials = 0;
  double monolithic_ms = 0.0;
  double prepared_ms = 0.0;
  double speedup = 0.0;
};

Query MustParse(const std::string& text) {
  auto q = ParseQuery(text);
  if (!q.ok()) {
    std::fprintf(stderr, "parse: %s\n", q.status().ToString().c_str());
    std::exit(1);
  }
  return *q;
}

std::vector<int> EndpointVars(const Query& q) {
  std::vector<int> vars;
  for (const Disequality& d : q.disequalities()) {
    vars.push_back(d.lhs);
    vars.push_back(d.rhs);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

// One simulated EdgeFree call: fixed random V_i base domains, `trials`
// colourings. Returns (monolithic_ms, prepared_ms) over `reps` calls.
PreparedPoint MeasurePrepared(const char* name, const std::string& text,
                              const Database& db, uint32_t universe,
                              int trials, int reps) {
  Query q = MustParse(text);
  Hypergraph h = q.BuildHypergraph();
  FWidthResult width = ComputeDecomposition(h, WidthObjective::kTreewidth);
  DecompositionSolver monolithic(q, db, width.decomposition);
  DecompositionSolver prepared_solver(q, db, width.decomposition);
  SolverEvalContext ctx;
  const std::vector<int> endpoints = EndpointVars(q);

  PreparedPoint point;
  point.name = name;
  point.diseqs = static_cast<int>(q.disequalities().size());
  point.trials = trials;

  // Identical base domains and colourings for both paths. The prepared
  // side pays its own one-time bag-join cache build: warm it outside the
  // timed region so the comparison is steady-state per-call cost (the
  // cache is per solver, amortised over the thousands of calls of one
  // DLM estimation in real use).
  {
    VarDomains warm_base;
    warm_base.allowed.resize(q.num_vars());
    prepared_solver.Prepare(warm_base, endpoints, ctx);
    benchmark_do_not_optimize(prepared_solver.DecidePrepared(ctx, {}));
  }
  auto run = [&](bool use_prepared) {
    Rng rng(0xBEEF);
    WallTimer timer;
    for (int rep = 0; rep < reps; ++rep) {
      VarDomains base;
      base.allowed.resize(q.num_vars());
      for (int i = 0; i < q.num_free(); ++i) {
        base.allowed[i] = rng.RandomMask(universe, 0.5);
      }
      std::vector<Bitset> masks(endpoints.size());
      if (use_prepared) {
        prepared_solver.Prepare(base, endpoints, ctx);
        std::vector<DomainRestriction> extra;
        for (int trial = 0; trial < trials; ++trial) {
          extra.clear();
          for (size_t k = 0; k < endpoints.size(); ++k) {
            masks[k] = rng.RandomMask(universe, 0.5);
            extra.push_back({endpoints[k], &masks[k]});
          }
          benchmark_do_not_optimize(
              prepared_solver.DecidePrepared(ctx, extra));
        }
      } else {
        for (int trial = 0; trial < trials; ++trial) {
          VarDomains merged = base;
          for (size_t k = 0; k < endpoints.size(); ++k) {
            masks[k] = rng.RandomMask(universe, 0.5);
            Bitset& domain = merged.allowed[endpoints[k]];
            if (domain.empty()) {
              domain = masks[k];
            } else {
              domain.IntersectWith(masks[k]);
            }
          }
          benchmark_do_not_optimize(monolithic.Decide(&merged));
        }
      }
    }
    return timer.Millis();
  };

  point.monolithic_ms = run(false);
  point.prepared_ms = run(true);
  point.speedup =
      point.prepared_ms > 0.0 ? point.monolithic_ms / point.prepared_ms : 0.0;
  return point;
}

}  // namespace

int Run(const std::string& json_path) {
  bench::Header("EXP-HOM", "hom oracle: prepared vs monolithic DP");

  const uint32_t universe = bench::Sized(120u, 24u);
  const int reps = bench::Sized(20, 2);
  Database db;
  {
    Rng rng(42);
    db = SocialNetworkDb(universe, 6.0, 0.5, rng);
  }

  // (a) prepared-vs-monolithic sweep.
  const char* kNames[3] = {"six-cycle-0diseq", "star-1diseq", "star-2diseq"};
  const std::string kQueries[3] = {
      "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a).",
      "ans(x) :- F(x, y), F(x, z), y != z.",
      "ans(x) :- F(x, y), F(x, z), F(x, w), y != z, z != w.",
  };
  std::vector<PreparedPoint> points;
  bench::Row("\n(a) decision cost vs trial count (universe %u, %d reps)",
             universe, reps);
  bench::Row("%18s %7s %7s %14s %12s %9s", "query", "diseqs", "trials",
             "monolithic_ms", "prepared_ms", "speedup");
  for (int qi = 0; qi < 3; ++qi) {
    for (int trials : bench::Sweep(std::vector<int>{1, 8, 64}, 2)) {
      PreparedPoint point =
          MeasurePrepared(kNames[qi], kQueries[qi], db, universe, trials,
                          reps);
      bench::Row("%18s %7d %7d %14.2f %12.2f %8.1fx", point.name,
                 point.diseqs, point.trials, point.monolithic_ms,
                 point.prepared_ms, point.speedup);
      points.push_back(point);
    }
  }

  // (b) end-to-end EdgeFree call cost (the DLM estimator's unit of work).
  double edgefree_ms = 0.0;
  uint64_t edgefree_calls = 0;
  {
    Query q = MustParse(kQueries[1]);
    Hypergraph h = q.BuildHypergraph();
    FWidthResult width = ComputeDecomposition(h, WidthObjective::kTreewidth);
    DecompositionHomOracle hom(q, db, width.decomposition);
    ColourCodingOptions cc;
    cc.per_call_failure = 1e-3;
    ColourCodingEdgeFreeOracle oracle(q, &hom, universe, cc);
    Rng rng(7);
    const int calls = bench::Sized(200, 10);
    WallTimer timer;
    for (int i = 0; i < calls; ++i) {
      PartiteSubset parts;
      parts.parts = {rng.RandomMask(universe, 0.5)};
      benchmark_do_not_optimize(oracle.IsEdgeFree(parts));
    }
    edgefree_ms = timer.Millis() / calls;
    edgefree_calls = static_cast<uint64_t>(calls);
    bench::Row("\n(b) IsEdgeFree (1 diseq, %llu trials/call): %.3f ms/call",
               static_cast<unsigned long long>(oracle.trials_per_call()),
               edgefree_ms);
  }

  // (c) backtracking oracle throughput (joiner hoisted to construction).
  double backtracking_us = 0.0;
  {
    Query q = MustParse(kQueries[1]);
    BacktrackingHomOracle oracle(q, db);
    Rng rng(9);
    const int calls = bench::Sized(2000, 50);
    VarDomains domains;
    domains.allowed.resize(q.num_vars());
    WallTimer timer;
    for (int i = 0; i < calls; ++i) {
      domains.allowed[0] = rng.RandomMask(universe, 0.3);
      benchmark_do_not_optimize(oracle.Decide(domains));
    }
    backtracking_us = timer.Millis() * 1e3 / calls;
    bench::Row("(c) BacktrackingHomOracle::Decide: %.1f us/call",
               backtracking_us);
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"hom_oracle\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n",
               bench::SmokeMode() ? "true" : "false");
  std::fprintf(out, "  \"universe\": %u,\n", universe);
  std::fprintf(out, "  \"prepared_vs_monolithic\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const PreparedPoint& p = points[i];
    std::fprintf(out,
                 "    {\"query\": \"%s\", \"diseqs\": %d, \"trials\": %d, "
                 "\"monolithic_ms\": %.2f, \"prepared_ms\": %.2f, "
                 "\"speedup\": %.2f}%s\n",
                 p.name, p.diseqs, p.trials, p.monolithic_ms, p.prepared_ms,
                 p.speedup, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"edgefree_ms_per_call\": %.3f,\n", edgefree_ms);
  std::fprintf(out, "  \"edgefree_calls\": %llu,\n",
               static_cast<unsigned long long>(edgefree_calls));
  std::fprintf(out, "  \"backtracking_us_per_call\": %.1f,\n",
               backtracking_us);
  std::fprintf(out,
               "  \"note\": \"perf rows scale with CQCOUNT_BENCH_SMOKE\"\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  bench::Row("wrote %s", json_path.c_str());
  return 0;
}

}  // namespace cqcount

int main(int argc, char** argv) {
  return cqcount::Run(argc > 1 ? argv[1] : "BENCH_fptras.json");
}
