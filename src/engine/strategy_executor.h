// The uniform strategy-execution layer of the engine.
//
// Every counting strategy the planner can select — exact, fptras-tw,
// fptras-fhw, automata-fpras — implements StrategyExecutor over a shared
// AccuracyBudget/ExecContext, and the engine resolves strategies through
// an ExecutorRegistry. An executor maps the context onto its module's
// option struct and returns an ExecOutcome: the module's EstimateOutcome,
// copied with one base-class assignment, plus the strategy's work
// counters. The engine's ComponentResult derives from ExecOutcome, so
// adding a strategy means adding one executor class and one Register
// call; the engine and the JSON writers stay untouched.
#ifndef CQCOUNT_ENGINE_STRATEGY_EXECUTOR_H_
#define CQCOUNT_ENGINE_STRATEGY_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "engine/plan.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/cancel.h"
#include "util/estimate_outcome.h"
#include "util/executor.h"
#include "util/status.h"

namespace cqcount {

/// The accuracy / randomness contract for one strategy execution. Adapted
/// once from the request (and split per Gaifman component); executors map
/// it onto their module's own option struct.
struct AccuracyBudget {
  /// Target relative error of the (epsilon, delta) guarantee.
  double epsilon = 0.1;
  /// Target failure probability.
  double delta = 0.1;
  /// Seed controlling all randomness of the execution.
  uint64_t seed = 0xC0FFEEULL;
};

/// Everything a strategy needs to execute one (sub-)query.
struct ExecContext {
  /// The query, in its own variable numbering.
  const Query* query = nullptr;
  const Database* db = nullptr;
  /// The cached plan for the query's canonical shape.
  const QueryPlan* plan = nullptr;
  /// Canonical mapping of `query` (plan decompositions live in canonical
  /// numbering; executors instantiate them through shape->to_canonical).
  const CanonicalShape* shape = nullptr;
  AccuracyBudget budget;
  /// Planner threshold forwarded to strategies that may recompute a
  /// decomposition themselves.
  int exact_decomposition_limit = 14;
  /// Intra-query parallelism: worker pool (not owned; null = inline) and
  /// the lane count this execution may fan out across. The engine sets
  /// these from EngineOptions::intra_query_threads and its cost model;
  /// estimates are bit-identical for every configuration.
  Executor* pool = nullptr;
  int intra_threads = 1;
  /// Cooperative governance for this execution (not owned; null =
  /// ungoverned). Executors thread it into their module options; on
  /// expiry/cancellation they return either an anytime partial outcome or
  /// the governor's typed status.
  const ResourceGovernor* governor = nullptr;
  /// Request-level cap on estimator oracle calls (0 = module default).
  /// Tightens (never widens) the module's own safety valve.
  uint64_t max_oracle_calls = 0;
  /// The adaptive scheduler's per-execution hints (all inert at their
  /// defaults, so non-adaptive requests execute bit-identically to the
  /// pre-scheduler engine).
  struct AdaptiveHints {
    /// Arms the estimator's run-boundary CLT/hard-bounds early stop.
    bool early_stop = false;
    /// Completed runs before the early-stop rule is consulted.
    int min_early_stop_runs = 3;
    /// Colour-coding per-call failure budget predicted from profile
    /// history (0 = keep the module's worst-case union bound).
    double per_call_failure = 0.0;
  };
  AdaptiveHints adaptive;
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

/// One counting strategy, executable over the shared context.
class StrategyExecutor {
 public:
  virtual ~StrategyExecutor() = default;

  /// The Strategy enum value this executor implements.
  virtual Strategy strategy() const = 0;

  /// Executes the strategy. `ctx.query/db/plan/shape` must be non-null;
  /// implementations must be const (one executor instance serves
  /// concurrent batch workers).
  virtual StatusOr<ExecOutcome> Execute(const ExecContext& ctx) const = 0;
};

/// Immutable-after-setup mapping Strategy -> executor.
class ExecutorRegistry {
 public:
  ExecutorRegistry() = default;
  ExecutorRegistry(const ExecutorRegistry&) = delete;
  ExecutorRegistry& operator=(const ExecutorRegistry&) = delete;

  /// Registers `executor` under its own strategy(), replacing any
  /// previous registration. Not thread-safe; do all registration before
  /// sharing the registry.
  void Register(std::unique_ptr<StrategyExecutor> executor);

  /// The executor for `strategy`, or nullptr when none is registered.
  const StrategyExecutor* Find(Strategy strategy) const;

  /// Registered strategies, in enum order.
  std::vector<Strategy> RegisteredStrategies() const;

  /// The process-wide registry holding the four built-in strategies
  /// (exact, fptras-tw, fptras-fhw, automata-fpras). Built once,
  /// read-only afterwards: safe to share across threads.
  static const ExecutorRegistry& Default();

 private:
  std::map<Strategy, std::unique_ptr<StrategyExecutor>> executors_;
};

}  // namespace cqcount

#endif  // CQCOUNT_ENGINE_STRATEGY_EXECUTOR_H_
