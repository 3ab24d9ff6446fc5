#include "counting/fptras.h"

#include <cmath>
#include <memory>

#include "counting/colour_coding.h"
#include "counting/partite_hypergraph.h"
#include "hom/hom_oracle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/random.h"

namespace cqcount {
namespace {

// One bulk add per FPTRAS invocation (the pipeline around the DLM
// estimator); nothing here runs inside a sampling loop.
struct FptrasMetrics {
  obs::Counter& invocations = obs::MetricRegistry::Global().GetCounter(
      "fptras.invocations", "ApproxCountAnswers pipeline executions");
  // hom_queries counts each EdgeFree call's colouring trials up to and
  // including the first witness (all of them when there is none) — the
  // decisions the in-order trial loop makes — so the tally is the same at
  // every lane count. The name keeps its historical `.nondet.` segment
  // because external readers look it up by name.
  obs::Counter& hom_queries = obs::MetricRegistry::Global().GetCounter(
      "cc.nondet.hom_queries",
      "Hom-oracle queries charged to colour-coding trials: per EdgeFree "
      "call, the trials up to and including the first witness. Lane-"
      "invariant despite the historical name");
  obs::Counter& colouring_trials = obs::MetricRegistry::Global().GetCounter(
      "cc.colouring_trials_per_call",
      "Colouring trials budgeted per edge-free oracle call, summed over "
      "invocations");
  obs::Counter& prepared_decides = obs::MetricRegistry::Global().GetCounter(
      "dp.prepared_decides",
      "Trial decisions charged to the prepared (trial-reuse) DP split; "
      "lane-invariant like the hom-query tally");
  obs::Counter& cached_bag_rows = obs::MetricRegistry::Global().GetCounter(
      "dp.cached_bag_rows",
      "Bag-join cache rows shared across an invocation's oracle calls");
  obs::Counter& monolithic = obs::MetricRegistry::Global().GetCounter(
      "dp.monolithic_fallbacks",
      "Invocations where the bag-join cache cap forced the per-call DP");

  static FptrasMetrics& Get() {
    static FptrasMetrics* metrics = new FptrasMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const FptrasMetrics& kFptrasMetricsInit = FptrasMetrics::Get();

void RecordPipelineMetrics(const ApproxCountResult& result) {
  FptrasMetrics& metrics = FptrasMetrics::Get();
  metrics.invocations.Increment();
  metrics.hom_queries.Add(result.hom_queries);
  metrics.colouring_trials.Add(result.colouring_trials_per_call);
  metrics.prepared_decides.Add(result.dp_prepared_decides);
  metrics.cached_bag_rows.Add(result.dp_cached_bag_rows);
  if (!result.dp_prepared_path) metrics.monolithic.Increment();
}

}  // namespace

StatusOr<ApproxCountResult> ApproxCountAnswers(const Query& q,
                                               const Database& db,
                                               const ApproxOptions& opts) {
  Status valid = q.Validate();
  if (!valid.ok()) return valid;
  valid = q.CheckAgainstDatabase(db);
  if (!valid.ok()) return valid;
  valid = opts.ValidateAccuracy();
  if (!valid.ok()) return valid;
  if (db.universe_size() == 0) {
    ApproxCountResult r;
    r.exact = true;
    return r;
  }

  // Decomposition of H(phi) (= H(A-hat) up to harmless singleton edges,
  // proof of Theorem 5).
  Hypergraph h = q.BuildHypergraph();
  FWidthResult width;
  if (opts.precomputed_decomposition) {
    width = *opts.precomputed_decomposition;
  } else {
    obs::Span span("fptras.decompose");
    width = ComputeDecomposition(h, opts.objective,
                                 opts.exact_decomposition_limit);
  }
  CQLOG(kInfo) << "FPTRAS: decomposition width " << width.width << " over "
               << h.num_vertices() << " variables";

  DecompositionHomOracle hom(q, db, width.decomposition);
  // Fault-injection site: lets tests fail the oracle stack's prepare step
  // without constructing a pathological database.
  Status prepare_fp = failpoint::Check("fptras.oracle_prepare");
  if (!prepare_fp.ok()) return prepare_fp;

  // Split delta between the estimator and the oracle simulation
  // (Lemma 22's union bound): half to the estimator, half spread over its
  // oracle calls.
  ColourCodingOptions cc;
  cc.per_call_failure = opts.PerCallFailure();
  cc.seed = opts.seed ^ 0x9E3779B97F4A7C15ULL;
  cc.governor = opts.governor;

  ApproxCountResult result;
  result.width = width.width;

  if (q.num_free() == 0) {
    // |Ans| is 0 or 1 (the empty assignment): amplified decision. A single
    // decision is one deterministic unit: it either completes untouched or
    // is not started at all.
    if (opts.governor != nullptr &&
        opts.governor->Check() != GovernanceState::kRunning) {
      return opts.governor->ToStatus("FPTRAS existential decision");
    }
    Rng rng(cc.seed);
    VarDomains unrestricted;
    uint64_t decisions = 0;
    const bool any = DecideAnySolution(q, &hom, db.universe_size(),
                                       unrestricted, opts.delta, rng,
                                       &decisions);
    result.estimate = any ? 1.0 : 0.0;
    result.lower_bound = result.estimate;
    result.upper_bound = result.estimate;
    result.exact = q.disequalities().empty();
    // A disequality-free (exact) query is one monolithic decision;
    // otherwise every trial ran on the prepared DP unless the cache cap
    // forced the fallback, as in the l >= 1 branch below.
    const DecompositionSolver::DpStats dp = hom.dp_stats();
    result.hom_queries = decisions;
    result.dp_prepared_decides =
        dp.prepared_path && !result.exact ? result.hom_queries : 0;
    result.dp_cached_bag_rows = dp.cached_bag_rows;
    result.dp_prepared_path = dp.prepared_path;
    RecordPipelineMetrics(result);
    return result;
  }

  ColourCodingEdgeFreeOracle oracle(q, &hom, db.universe_size(), cc);
  result.colouring_trials_per_call = oracle.trials_per_call();

  DlmOptions dlm = opts.dlm;
  static_cast<EstimateInputs&>(dlm) = opts;
  dlm.delta = opts.delta / 2.0;  // The estimator's half of the split.
  std::vector<uint32_t> part_sizes(q.num_free(), db.universe_size());
  auto dlm_result = [&] {
    obs::Span span("fptras.dlm");
    return DlmCountEdges(part_sizes, oracle, dlm);
  }();
  if (!dlm_result.ok()) return dlm_result.status();

  static_cast<EstimateOutcome&>(result) = *dlm_result;
  // "Exact" from the enumeration phase is still subject to the one-sided
  // colour-coding failure when disequalities are present; keep the flag,
  // since the failure probability is covered by delta.
  result.exact = result.exact && q.disequalities().empty();
  result.edgefree_calls = dlm_result->oracle_calls;
  // Every trial decision of the oracle stack runs on the prepared DP
  // unless the bag-join cache cap forced the monolithic fallback for the
  // whole invocation, so the lane-invariant trial tally is also the
  // prepared-decide tally.
  const DecompositionSolver::DpStats dp = hom.dp_stats();
  result.hom_queries = oracle.hom_queries();
  result.dp_prepared_decides = dp.prepared_path ? result.hom_queries : 0;
  result.dp_cached_bag_rows = dp.cached_bag_rows;
  result.dp_prepared_path = dp.prepared_path;
  RecordPipelineMetrics(result);
  return result;
}

}  // namespace cqcount
