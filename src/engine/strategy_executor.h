// The strategy-execution layer of the engine.
//
// ExecuteStrategy runs any strategy the planner can select — exact,
// fptras-tw, fptras-fhw, automata-fpras — over one ExecContext. The
// context is the estimator input record (EstimateInputs: epsilon, delta,
// seed, lanes, governor) plus the component to run, so each strategy
// hands its inputs to its module with one base-class assignment. It
// returns an ExecOutcome: the module's EstimateOutcome, copied with one
// base-class assignment, plus the strategy's work counters. The engine's
// ComponentResult derives from ExecOutcome, so adding a strategy means
// adding one case to the switch; the engine and the JSON writers stay
// untouched.
#ifndef CQCOUNT_ENGINE_STRATEGY_EXECUTOR_H_
#define CQCOUNT_ENGINE_STRATEGY_EXECUTOR_H_

#include <cstdint>

#include "counting/dlm_counter.h"
#include "engine/plan.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/estimate_outcome.h"
#include "util/status.h"

namespace cqcount {

/// Everything a strategy needs to execute one (sub-)query: the estimator
/// inputs of its (epsilon, delta) share, plus the component itself.
struct ExecContext : EstimateInputs {
  /// The query, in its own variable numbering.
  const Query* query = nullptr;
  const Database* db = nullptr;
  /// The cached plan for the query's canonical shape.
  const QueryPlan* plan = nullptr;
  /// Canonical mapping of `query` (plan decompositions live in canonical
  /// numbering; executors instantiate them through shape->to_canonical).
  const CanonicalShape* shape = nullptr;
  /// DLM tuning of the fptras strategies: the request's oracle-call cap
  /// and the adaptive scheduler's run-boundary early stop. Its
  /// EstimateInputs base is unused (the pipeline derives the estimator's
  /// inputs from this context's).
  DlmOptions dlm;
  /// Colour-coding per-call failure budget the adaptive scheduler
  /// predicted from profile history (0 = the module's union bound).
  double per_call_failure_override = 0.0;
};

/// What every strategy reports back: the module's EstimateOutcome plus
/// the strategy's work counters. Every counter is lane-invariant.
struct ExecOutcome : EstimateOutcome {
  /// Oracle work: hom-oracle calls plus estimator membership tests.
  uint64_t oracle_calls = 0;
  /// Estimator probes only (DLM edge-free calls, automata membership
  /// tests), without the colour-coding hom queries. The adaptive
  /// scheduler's budget weights read this counter.
  uint64_t estimator_calls = 0;
  /// Prepared-DP reuse across the DLM oracle calls of this execution
  /// (fptras strategies): trial decisions answered by the trial-reuse DP
  /// and the size of the per-plan bag-join cache they shared. Zero for
  /// strategies without a decomposition DP.
  uint64_t dp_prepared_decides = 0;
  uint64_t dp_cached_bag_rows = 0;
  /// False when the bag-join cache cap forced the monolithic per-call DP.
  bool dp_prepared_path = true;
  /// Colouring trials the EdgeFree simulation runs per oracle call
  /// (fptras strategies; 0 otherwise).
  uint64_t colouring_trials_per_call = 0;
};

/// Executes `strategy` over `ctx` (`ctx.query/db/plan/shape` must be
/// non-null). Stateless: safe to call from concurrent batch workers.
StatusOr<ExecOutcome> ExecuteStrategy(Strategy strategy,
                                      const ExecContext& ctx);

}  // namespace cqcount

#endif  // CQCOUNT_ENGINE_STRATEGY_EXECUTOR_H_
