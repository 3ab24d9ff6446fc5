// FPRAS front end for #CQ with bounded fractional hypertreewidth
// (Theorem 16).
//
// Pipeline: nice tree decomposition with small fhw (Lemma 43) -> bag
// solutions (Lemma 48) -> counting automaton (Lemma 52) semantics ->
// ACJR-style sketch estimation (Lemma 51 stand-in; acjr_estimator.h
// describes the sketch DP).
#ifndef CQCOUNT_AUTOMATA_FPRAS_H_
#define CQCOUNT_AUTOMATA_FPRAS_H_

#include "automata/acjr_estimator.h"
#include "decomposition/width_measures.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/status.h"

namespace cqcount {

/// Options for FprasCountCq.
struct FprasOptions {
  /// Estimator inputs (epsilon, delta, seed, lanes, governor) and tuning.
  AcjrOptions acjr;
  /// Decomposition objective; fractional hypertreewidth is the Theorem 16
  /// regime, treewidth reproduces the ACJR (hypertreewidth) scope.
  WidthObjective objective = WidthObjective::kFractionalHypertreewidth;
  /// Exact-width search limit (falls back to min-fill above it).
  int exact_decomposition_limit = 14;
  /// Precomputed decomposition of H(phi): when non-null the pipeline skips
  /// its own ComputeDecomposition call (the engine's warm plan-cache path).
  /// Must be valid for the query's hypergraph and outlive the call.
  const FWidthResult* precomputed_decomposition = nullptr;
};

/// Result of the FPRAS (estimate/exact/converged from the shared
/// EstimateOutcome contract; exact means no sampling was involved —
/// quantifier-free or trivially empty).
struct FprasResult : EstimateOutcome {
  /// Fractional hypertreewidth of the decomposition actually used.
  double fhw = 0.0;
  /// Nodes of the nice decomposition.
  int decomposition_nodes = 0;
  uint64_t membership_tests = 0;
};

/// Approximates |Ans(phi, D)| for a pure CQ in fully polynomial time for
/// bounded-fhw query classes.
StatusOr<FprasResult> FprasCountCq(const Query& q, const Database& db,
                                   const FprasOptions& opts);

}  // namespace cqcount

#endif  // CQCOUNT_AUTOMATA_FPRAS_H_
