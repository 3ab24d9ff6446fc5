#include "engine/strategy_executor.h"

#include <algorithm>
#include <utility>

#include "automata/fpras.h"
#include "counting/exact_count.h"
#include "counting/fptras.h"

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

class ExactExecutor : public StrategyExecutor {
 public:
  Strategy strategy() const override { return Strategy::kExact; }

  StatusOr<ExecOutcome> Execute(const ExecContext& ctx) const override {
    // Brute force has no internal checkpoints (the planner only picks it
    // for tiny instances); honour an already-fired governor up front.
    if (ctx.governor != nullptr &&
        ctx.governor->Check() != GovernanceState::kRunning) {
      return ctx.governor->ToStatus("exact count");
    }
    ExecOutcome outcome;
    outcome.estimate =
        static_cast<double>(ExactCountAnswersBruteForce(*ctx.query, *ctx.db));
    outcome.exact = true;
    outcome.lower_bound = outcome.upper_bound = outcome.estimate;
    return outcome;
  }
};

// Theorem 5 (treewidth objective) and the Theorem 13 regime (fhw
// objective) share the FPTRAS pipeline; the plan's decomposition already
// embodies the objective, so one executor class serves both strategies.
class FptrasExecutor : public StrategyExecutor {
 public:
  explicit FptrasExecutor(Strategy strategy) : strategy_(strategy) {}

  Strategy strategy() const override { return strategy_; }

  StatusOr<ExecOutcome> Execute(const ExecContext& ctx) const override {
    ApproxOptions opts;
    opts.epsilon = ctx.budget.epsilon;
    opts.delta = ctx.budget.delta;
    opts.seed = ctx.budget.seed;
    opts.objective = ctx.plan->objective;
    opts.exact_decomposition_limit = ctx.exact_decomposition_limit;
    opts.pool = ctx.pool;
    opts.intra_threads = ctx.intra_threads;
    opts.governor = ctx.governor;
    if (ctx.max_oracle_calls > 0) {
      opts.dlm.max_oracle_calls =
          std::min(opts.dlm.max_oracle_calls, ctx.max_oracle_calls);
    }
    opts.dlm.early_stop = ctx.adaptive.early_stop;
    opts.dlm.min_early_stop_runs = ctx.adaptive.min_early_stop_runs;
    if (ctx.adaptive.per_call_failure > 0.0) {
      opts.per_call_failure_override = ctx.adaptive.per_call_failure;
    }
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

 private:
  const Strategy strategy_;
};

class AutomataFprasExecutor : public StrategyExecutor {
 public:
  Strategy strategy() const override { return Strategy::kAutomataFpras; }

  StatusOr<ExecOutcome> Execute(const ExecContext& ctx) const override {
    FprasOptions opts;
    opts.acjr.epsilon = ctx.budget.epsilon;
    opts.acjr.delta = ctx.budget.delta;
    opts.acjr.seed = ctx.budget.seed;
    opts.acjr.pool = ctx.pool;
    opts.acjr.intra_threads = ctx.intra_threads;
    opts.acjr.governor = ctx.governor;
    opts.objective = ctx.plan->objective;
    opts.exact_decomposition_limit = ctx.exact_decomposition_limit;
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
};

}  // namespace

void ExecutorRegistry::Register(std::unique_ptr<StrategyExecutor> executor) {
  const Strategy strategy = executor->strategy();
  executors_[strategy] = std::move(executor);
}

const StrategyExecutor* ExecutorRegistry::Find(Strategy strategy) const {
  auto it = executors_.find(strategy);
  return it == executors_.end() ? nullptr : it->second.get();
}

std::vector<Strategy> ExecutorRegistry::RegisteredStrategies() const {
  std::vector<Strategy> strategies;
  strategies.reserve(executors_.size());
  for (const auto& [strategy, executor] : executors_) {
    strategies.push_back(strategy);
  }
  return strategies;
}

const ExecutorRegistry& ExecutorRegistry::Default() {
  static const ExecutorRegistry* registry = [] {
    auto* r = new ExecutorRegistry();
    r->Register(std::make_unique<ExactExecutor>());
    r->Register(std::make_unique<FptrasExecutor>(Strategy::kFptrasTreewidth));
    r->Register(std::make_unique<FptrasExecutor>(Strategy::kFptrasFhw));
    r->Register(std::make_unique<AutomataFprasExecutor>());
    return r;
  }();
  return *registry;
}

}  // namespace cqcount
