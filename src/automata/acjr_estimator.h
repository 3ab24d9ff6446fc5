// Sketch-based FPRAS for counting answers of CQs with bounded fractional
// hypertreewidth (Theorem 16), specialised from the Arenas-Croquevielle-
// Jayaram-Riveros #TA FPRAS (Lemma 51) to the Lemma 52 automata.
//
// Structure (the Lemma 52 automaton, counted as in Lemma 51): every
// accepted input of the automaton has the decomposition tree's shape, and
// a run determines its labels, so |L_N(A)| = number of distinct
// projections of consistent bag-solution families. Bottom-up over the
// nice decomposition, each (node, bag solution) carries a size estimate N
// and a bounded uniform sample sketch of its partial-answer language:
//   - leaf:       N = 1 (the empty labelling),
//   - introduce:  copy from the projected child state (free introductions
//                 extend every sample deterministically),
//   - forget of a FREE variable: disjoint union (exact sum; sampling by
//                 mixture),
//   - forget of an EXISTENTIAL variable: overlapping union, estimated by
//                 Karp-Luby with poly-time membership tests (a top-down
//                 feasibility DP) and rejection-corrected sampling,
//   - join:       product (exact; samples merge componentwise).
// With no existential variables there are no unions and the count is
// exact. Sketches are bounded (`sketch_size`), so per-union accuracy is
// validated empirically; options expose the scaling knobs.
#ifndef CQCOUNT_AUTOMATA_ACJR_ESTIMATOR_H_
#define CQCOUNT_AUTOMATA_ACJR_ESTIMATOR_H_

#include <cstdint>

#include "decomposition/nice_decomposition.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/estimate_outcome.h"
#include "util/status.h"

namespace cqcount {

/// Tuning for the estimator. The EstimateInputs base carries (epsilon,
/// delta) (defaults 0.15 / 0.25), the sampling seed (default 0xACE5),
/// the lanes and the governor. Every (node, state) cell draws from its
/// own stream Rng(DeriveSeed(seed, {node, state})), so the per-node
/// state loops fan across lanes with bit-identical results. The governor
/// is polled at node boundaries of the bottom-up pass; the sketch DP has
/// no salvageable intermediate answer, so an interruption always yields
/// the typed status (never a partial estimate).
struct AcjrOptions : EstimateInputs {
  AcjrOptions()
      : EstimateInputs{.epsilon = 0.15, .delta = 0.25, .seed = 0xACE5ULL} {}

  /// Samples kept per (node, state) sketch.
  int sketch_size = 64;
};

/// Cap on Karp-Luby draws per union estimate.
inline constexpr int kAcjrMaxUnionSamples = 4096;
/// Rejection-retry cap when sampling a union near-uniformly.
inline constexpr int kAcjrMaxRejectionRetries = 32;

/// Estimation result (estimate/exact/converged from EstimateOutcome; exact
/// means no union estimation was needed — quantifier-free query).
struct AcjrResult : EstimateOutcome {
  /// Membership feasibility DP invocations.
  uint64_t membership_tests = 0;
  /// Number of (forget-existential node, state) union estimates performed.
  uint64_t union_estimates = 0;
};

/// Runs the estimator for a pure CQ over a valid nice tree decomposition
/// of H(phi).
StatusOr<AcjrResult> AcjrCountAnswers(const Query& q, const Database& db,
                                      const NiceTreeDecomposition& ntd,
                                      const AcjrOptions& opts);

}  // namespace cqcount

#endif  // CQCOUNT_AUTOMATA_ACJR_ESTIMATOR_H_
