// Approximate edge counting with an EdgeFree oracle (the Theorem 17
// interface of Dell-Lapinskas-Meeks [15]).
//
// Internals (README "Parallel estimation & determinism model" covers the
// parallel partition): the l-partite product space is recursively
// bisected into "boxes" (products of per-part index ranges).
//  1. Exact phase: the space is pre-partitioned into a fixed number of
//     sub-boxes, each enumerated edge-by-edge with a deterministic count
//     cap (O(sum_i log|V_i|) oracle calls per edge); if the summed count
//     stays within `exact_enumeration_budget` the answer is exact.
//  2. Otherwise, a breadth-first expansion partitions the edge set into at
//     most `max_frontier` non-empty boxes, and each box is estimated by an
//     unbiased pruned Knuth descent (query both halves; the weight doubles
//     only when both are non-empty). Adaptive sampling drives the pooled
//     2-sigma confidence interval below epsilon; an outer median over
//     O(log 1/delta) runs amplifies the confidence.
// All oracle access uses position-aligned parts, exactly the access
// pattern Lemma 22 provides.
//
// Parallelism & determinism: every unit of randomised work — one Knuth
// descent — draws from Rng(DeriveSeed(seed, {run, round, stratum, k})),
// and results merge in index order, so the estimate is a pure function of
// (part_sizes, oracle behaviour, options) — never of scheduling. Work is
// partitioned onto `pool` across `intra_threads` lanes: the exact-phase
// sub-boxes, then either whole outer median runs or, when the runs go in
// index order (one run, or early stop armed), each round's sample batch.
// Each lane drives its own oracle fork (EdgeFreeOracle::Fork), which must
// answer every subset exactly as the root oracle would. Oracle-call
// budgets are accounted per deterministic unit (per exact-phase task, per
// adaptive run) and checked at round boundaries, keeping converged/cap
// outcomes thread-count-independent. Passing pool = null (or
// intra_threads <= 1) runs the identical partitioned computation inline:
// fixed-seed estimates are bit-identical at ANY lane count.
#ifndef CQCOUNT_COUNTING_DLM_COUNTER_H_
#define CQCOUNT_COUNTING_DLM_COUNTER_H_

#include <cstdint>
#include <vector>

#include "counting/partite_hypergraph.h"
#include "util/estimate_outcome.h"
#include "util/status.h"

namespace cqcount {

/// Completed runs the early-stop rule (DlmOptions::early_stop) needs
/// before it consults the empirical interval (a 2-run sample variance is
/// noise).
inline constexpr int kMinEarlyStopRuns = 3;

/// Tuning for the DLM-style estimator. The EstimateInputs base carries
/// (epsilon, delta), the sampler seed (default 0xD1CE), the lanes and
/// the governor. The governor is polled at frontier-expansion
/// iterations, exact-phase wave boundaries, adaptive round/slice
/// boundaries and run boundaries, so a quiescent governor never perturbs
/// the arithmetic; on expiry the estimator answers from the completed
/// runs (DlmResult::partial + interval), or returns the typed status when
/// no run completed.
struct DlmOptions : EstimateInputs {
  DlmOptions() : EstimateInputs{.seed = 0xD1CEULL} {}

  /// Switch from exact enumeration to estimation past this many edges.
  uint64_t exact_enumeration_budget = 1024;
  /// Maximum number of boxes the edge set is partitioned into.
  int max_frontier = 2048;
  /// Knuth-descent samples per box in the first adaptive round.
  int initial_samples_per_box = 8;
  /// Cap on adaptive sampling rounds per run (samples double each round).
  int max_refinement_rounds = 16;
  /// Stratified splitting of high-variance boxes between rounds (the
  /// design choice ablated in bench_ablation): disabling falls back to
  /// sample-doubling only.
  bool enable_stratified_splits = true;
  /// Hard cap on oracle calls (safety valve; hitting it is reported via
  /// `converged = false`). Split deterministically across the adaptive
  /// runs, so cap outcomes are identical at every thread count.
  uint64_t max_oracle_calls = 20'000'000;
  /// Opt-in adaptive early termination of the outer-median run schedule
  /// (the accuracy scheduler's knob; off = bit-identical to the full
  /// schedule). When armed, runs execute strictly in index order (their
  /// per-round batches still fan across lanes) and after each completed
  /// run — a deterministic boundary over merged state — the estimator
  /// stops as soon as either (a) the empirical CLT interval over the
  /// completed counter-seeded runs meets (epsilon, delta), or (b) the
  /// hard median-order bounds over the completed prefix pinch within
  /// epsilon (then the remaining runs provably cannot move the median
  /// outside the target). The stop index is a pure function of the
  /// completed run estimates, so fixed-seed adaptive results (estimate
  /// AND oracle_calls) are reproducible at any lane count.
  bool early_stop = false;
};

/// Estimation result (estimate/exact/converged — plus the anytime-answer
/// partial/lower_bound/upper_bound triple — from EstimateOutcome).
struct DlmResult : EstimateOutcome {
  /// Oracle calls consumed (deterministic per-unit accounting).
  uint64_t oracle_calls = 0;
  /// Adaptive rounds used by the slowest run.
  int refinement_rounds = 0;
};

/// Counts edges of the implicit l-partite hypergraph whose part i has
/// `part_sizes[i]` vertices, using only `oracle`. Requires l >= 1.
StatusOr<DlmResult> DlmCountEdges(const std::vector<uint32_t>& part_sizes,
                                  EdgeFreeOracle& oracle,
                                  const DlmOptions& opts);

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_DLM_COUNTER_H_
