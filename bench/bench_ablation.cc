// EXP-ABL: ablations of three FPTRAS design choices (dlm_counter.h
// documents the estimator's exact phase and stratified splits; Lemma 48
// motivates the fhw objective).
//
//  (a) DLM estimator: stratified box splitting vs sample-doubling only
//      (same oracle, same epsilon target) — splits should reach the
//      target with far fewer oracle calls.
//  (b) Decomposition objective for the Hom oracle: treewidth-optimal vs
//      fhw-optimal bags on a wide-atom DCQ — the fhw objective keeps bag
//      relations polynomial (Lemma 48's point).
//  (c) Exact-enumeration budget: 0 (estimate everything) vs default —
//      the fast path is what makes small answer sets exact and cheap.
#include "app/graph_gen.h"
#include "bench_util.h"
#include "counting/dlm_counter.h"
#include "counting/fptras.h"
#include "counting/partite_hypergraph.h"
#include "query/parser.h"
#include "util/timer.h"

namespace cqcount {

int Run() {
  bench::Header("EXP-ABL", "ablations: estimator and oracle design choices");

  // (a) stratified splitting.
  {
    auto q = ParseQuery("ans(x, y) :- E(x, y).");
    Rng rng(42);
    const uint32_t n = bench::Sized(96u, 32u);
    Database db = GraphToDatabase(ErdosRenyi(n, 0.15, rng));
    BruteForceEdgeFreeOracle truth(*q, db);
    const double exact = static_cast<double>(truth.answers().size());
    bench::Row("(a) DLM stratified splits vs sampling only (exact=%d)",
               static_cast<int>(exact));
    bench::Row("%-18s %12s %10s %14s %10s", "variant", "estimate",
               "rel.err", "oracle calls", "converged");
    for (bool splits : {true, false}) {
      BruteForceEdgeFreeOracle oracle(*q, db);
      DlmOptions opts;
      opts.epsilon = 0.08;
      opts.delta = 0.2;
      opts.exact_enumeration_budget = 16;  // Force the estimation path.
      opts.max_frontier = 32;  // Few, deep boxes: variance reduction counts.
      opts.enable_stratified_splits = splits;
      opts.seed = 7;
      auto result = DlmCountEdges({n, n}, oracle, opts);
      if (!result.ok()) continue;
      bench::Row("%-18s %12.1f %10.4f %14llu %10s",
                 splits ? "with splits" : "samples only", result->estimate,
                 bench::RelativeError(result->estimate, exact),
                 static_cast<unsigned long long>(result->oracle_calls),
                 result->converged ? "yes" : "no");
    }
  }

  // (b) decomposition objective.
  {
    auto q = ParseQuery(
        "ans(a, e) :- R(a, b, c, d), S(b, c, d, e), a != e.");
    Database final_db(12);
    Status s = final_db.DeclareRelation("R", 4);
    (void)s;
    s = final_db.DeclareRelation("S", 4);
    Rng tuple_rng(17);
    for (int i = 0; i < bench::Sized(250, 60); ++i) {
      Tuple t(4);
      for (int j = 0; j < 4; ++j) {
        t[j] = static_cast<Value>(tuple_rng.UniformInt(12));
      }
      (void)final_db.AddFact("R", t);
      for (int j = 0; j < 4; ++j) {
        t[j] = static_cast<Value>(tuple_rng.UniformInt(12));
      }
      (void)final_db.AddFact("S", std::move(t));
    }
    final_db.Canonicalize();
    bench::Row("\n(b) Hom-oracle decomposition objective (wide-atom DCQ)");
    bench::Row("%-22s %10s %12s %12s", "objective", "width", "estimate",
               "ms");
    for (auto objective : {WidthObjective::kTreewidth,
                           WidthObjective::kFractionalHypertreewidth}) {
      ApproxOptions opts;
      opts.epsilon = 0.2;
      opts.delta = 0.25;
      opts.seed = 19;
      opts.objective = objective;
      opts.exact_decomposition_limit = 10;
      opts.per_call_failure_override = 0.02;
      WallTimer timer;
      auto result = ApproxCountAnswers(*q, final_db, opts);
      const double ms = timer.Millis();
      bench::Row("%-22s %10.2f %12.1f %12.2f",
                 objective == WidthObjective::kTreewidth
                     ? "treewidth"
                     : "fractional htw",
                 result.ok() ? result->width : -1.0,
                 result.ok() ? result->estimate : -1.0, ms);
    }
  }

  // (c) exact-enumeration budget.
  {
    auto q = ParseQuery("ans(x, y) :- E(x, y).");
    Database db = GraphToDatabase(CycleGraph(16));
    bench::Row("\n(c) exact-enumeration fast path (answer set = 32)");
    bench::Row("%-18s %12s %14s %8s", "budget", "estimate",
               "oracle calls", "exact");
    for (uint64_t budget : {0ull, 1024ull}) {
      BruteForceEdgeFreeOracle oracle(*q, db);
      DlmOptions opts;
      opts.exact_enumeration_budget = budget;
      opts.epsilon = 0.15;
      opts.delta = 0.25;
      opts.seed = 23;
      auto result = DlmCountEdges({16, 16}, oracle, opts);
      if (!result.ok()) continue;
      bench::Row("%-18llu %12.1f %14llu %8s",
                 static_cast<unsigned long long>(budget), result->estimate,
                 static_cast<unsigned long long>(result->oracle_calls),
                 result->exact ? "yes" : "no");
    }
  }
  bench::Row("%s",
             "\nshape: both estimator variants meet the epsilon target (splits "
             "help most when variance concentrates in few boxes); "
             "fhw-guided bags keep wide-atom oracles polynomial; the "
             "enumeration fast path makes small counts exact.");
  return 0;
}

}  // namespace cqcount

int main() { return cqcount::Run(); }
