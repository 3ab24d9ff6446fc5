// FPTRAS front end for #ECQ / #DCQ (Theorems 5 and 13).
//
// Pipeline (Section 3 + Section 4 of the paper):
//   answers of (phi, D)
//     = hyperedges of H(phi, D)              (Observation 25)
//     ~ DLM edge estimation                   (Theorem 17 interface)
//     -> EdgeFree oracle via colour coding    (Lemmas 30 and 22)
//     -> Hom oracle via tree-decomposition DP (Theorem 31 engine; the same
//        engine over an fhw-optimised decomposition serves Theorem 13).
#ifndef CQCOUNT_COUNTING_FPTRAS_H_
#define CQCOUNT_COUNTING_FPTRAS_H_

#include <cstdint>

#include "counting/dlm_counter.h"
#include "decomposition/width_measures.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/estimate_outcome.h"
#include "util/status.h"

namespace cqcount {

/// Options for ApproxCountAnswers. The EstimateInputs base carries
/// (epsilon, delta), the seed of all randomness (colourings, sampling),
/// the lanes and the governor. The lanes fan the DLM estimation —
/// sampling runs, sample batches and exact-phase sub-boxes — across
/// per-lane forks of the oracle stack; each EdgeFree call's colouring
/// trials run in order on the lane that made it (seed tree: base seed
/// -> component -> run -> box/stratum -> sample, with colourings keyed
/// by (seed, subset, trial)). The governor reaches the DLM estimator and the
/// colour-coding oracle; on expiry the pipeline yields the estimator's
/// anytime answer (partial + interval) or its typed status.
struct ApproxOptions : EstimateInputs {
  /// Decomposition objective: kTreewidth for the bounded-arity Theorem 5
  /// regime, kFractionalHypertreewidth for the unbounded-arity Theorem 13
  /// regime (the Hom oracle runs the same DP over fhw-optimised bags, see
  /// DecompositionHomOracle).
  WidthObjective objective = WidthObjective::kTreewidth;
  /// Exact-width search is used for hypergraphs up to this many variables.
  int exact_decomposition_limit = 14;
  /// Per-EdgeFree-call failure probability for the colour-coding layer.
  /// 0 = automatic (see PerCallFailure). Benches use a fixed small value
  /// to trade a negligible extra failure mass for far fewer colouring
  /// trials.
  double per_call_failure_override = 0.0;
  /// Estimator tuning (its EstimateInputs base is overridden by this
  /// record's).
  DlmOptions dlm;
  /// Precomputed decomposition of H(phi): when non-null the pipeline skips
  /// its own ComputeDecomposition call (the engine's warm plan-cache path).
  /// Must be valid for the query's hypergraph and outlive the call.
  const FWidthResult* precomputed_decomposition = nullptr;

  /// The colour-coding layer's per-call failure probability: the
  /// override when set, else delta split over the estimator's oracle-call
  /// budget, delta / (2 * dlm.max_oracle_calls) (Lemma 22's union bound).
  double PerCallFailure() const {
    return per_call_failure_override > 0.0
               ? per_call_failure_override
               : delta / (2.0 * static_cast<double>(dlm.max_oracle_calls));
  }
};

/// Result of an approximate answer count (estimate/exact/converged from
/// the shared EstimateOutcome contract).
struct ApproxCountResult : EstimateOutcome {
  /// EdgeFree oracle calls made by the estimator (deterministic: the
  /// DLM layer accounts calls per deterministic work unit).
  uint64_t edgefree_calls = 0;
  /// Hom queries charged to the colour-coding layer: per EdgeFree call,
  /// the trials up to and including the first witness (all trials when
  /// there is none) — the decisions made. Lane-invariant: a call's
  /// trials run in order and stop at the first witness.
  uint64_t hom_queries = 0;
  /// Colouring trials per EdgeFree call (the 4^{|Delta|} log factor; 1
  /// without disequalities, where one decision answers the call).
  uint64_t colouring_trials_per_call = 0;
  /// Width of the decomposition the Hom oracle ran on.
  double width = 0.0;
  /// Trial decisions charged to the prepare/evaluate DP split: the
  /// hom-query tally when the prepared path served the count, else 0.
  uint64_t dp_prepared_decides = 0;
  /// Rows in the solver's per-bag unrestricted join cache (built once,
  /// shared by every EdgeFree call of this count).
  uint64_t dp_cached_bag_rows = 0;
  /// False when the cache cap forced decisions onto the monolithic DP.
  bool dp_prepared_path = true;
};

/// (epsilon, delta)-approximates |Ans(phi, D)| for an ECQ (Theorem 5 with
/// the default treewidth objective; Theorem 13 regime with
/// kFractionalHypertreewidth). The guarantee is meaningful when the
/// query's hypergraph has bounded width; the algorithm itself is correct
/// for every input (only its running time degrades).
StatusOr<ApproxCountResult> ApproxCountAnswers(const Query& q,
                                               const Database& db,
                                               const ApproxOptions& opts);

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_FPTRAS_H_
