#include "engine/strategy_executor.h"

#include <string>

#include "automata/fpras.h"
#include "counting/fptras.h"
#include "hom/backtracking.h"
#include "util/cancel.h"

namespace cqcount {
namespace {

// The cached decomposition lives in canonical numbering; strategies that
// run on it map it onto the query's own variables first. The elimination
// order is planner-internal and unused by execution.
FWidthResult InstantiatePlanDecomposition(const ExecContext& ctx) {
  FWidthResult local = ctx.plan->decomposition;
  local.decomposition = InstantiateDecomposition(ctx.plan->decomposition.decomposition,
                                                 ctx.shape->to_canonical);
  local.order.clear();
  return local;
}

StatusOr<ExecOutcome> ExecuteExact(const ExecContext& ctx) {
  // The count the planner priced, on the same canonical presentation,
  // without the cap, on the granted lanes. The descent polls the governor.
  const JoinCount count =
      CountAnswersJoin(CanonicalQuery(*ctx.query, *ctx.shape), *ctx.db,
                       UINT64_MAX, ctx.governor, ctx.pool, ctx.intra_threads);
  // Only a fired governor leaves the uncapped count incomplete.
  if (!count.complete) return ctx.governor->ToStatus("exact count");
  ExecOutcome outcome;
  outcome.estimate = static_cast<double>(count.answers);
  outcome.exact = true;
  outcome.lower_bound = outcome.upper_bound = outcome.estimate;
  outcome.parallel = count.parallel;
  return outcome;
}

// Theorem 5 (treewidth objective) and the Theorem 13 regime (fhw
// objective) share the FPTRAS pipeline; the plan's decomposition already
// embodies the objective, so one function serves both strategies.
StatusOr<ExecOutcome> ExecuteFptras(const ExecContext& ctx) {
  ApproxOptions opts;
  static_cast<EstimateInputs&>(opts) = ctx;
  opts.dlm = ctx.dlm;
  opts.per_call_failure_override = ctx.per_call_failure_override;
  const FWidthResult decomposition = InstantiatePlanDecomposition(ctx);
  opts.precomputed_decomposition = &decomposition;
  auto approx = ApproxCountAnswers(*ctx.query, *ctx.db, opts);
  if (!approx.ok()) return approx.status();
  ExecOutcome outcome;
  static_cast<EstimateOutcome&>(outcome) = *approx;
  outcome.oracle_calls = approx->hom_queries + approx->edgefree_calls;
  outcome.estimator_calls = approx->edgefree_calls;
  // Surface the prepare/evaluate DP reuse: one bag-join cache serves
  // every DLM oracle call issued against this plan's decomposition.
  outcome.dp_prepared_decides = approx->dp_prepared_decides;
  outcome.dp_cached_bag_rows = approx->dp_cached_bag_rows;
  outcome.dp_prepared_path = approx->dp_prepared_path;
  outcome.colouring_trials_per_call = approx->colouring_trials_per_call;
  return outcome;
}

StatusOr<ExecOutcome> ExecuteAutomataFpras(const ExecContext& ctx) {
  FprasOptions opts;
  static_cast<EstimateInputs&>(opts.acjr) = ctx;
  const FWidthResult decomposition = InstantiatePlanDecomposition(ctx);
  opts.precomputed_decomposition = &decomposition;
  auto fpras = FprasCountCq(*ctx.query, *ctx.db, opts);
  if (!fpras.ok()) return fpras.status();
  ExecOutcome outcome;
  static_cast<EstimateOutcome&>(outcome) = *fpras;
  outcome.oracle_calls = fpras->membership_tests;
  outcome.estimator_calls = fpras->membership_tests;
  return outcome;
}

}  // namespace

StatusOr<ExecOutcome> ExecuteStrategy(Strategy strategy,
                                      const ExecContext& ctx) {
  switch (strategy) {
    case Strategy::kExact:
      return ExecuteExact(ctx);
    case Strategy::kFptrasTreewidth:
    case Strategy::kFptrasFhw:
      return ExecuteFptras(ctx);
    case Strategy::kAutomataFpras:
      return ExecuteAutomataFpras(ctx);
  }
  return Status::Internal(std::string("no executor for strategy ") +
                          StrategyName(strategy));
}

}  // namespace cqcount
