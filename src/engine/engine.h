// CountingEngine: the reusable front door to the whole pipeline.
//
// The seed entry points (CLI, benches) hand-wired parse -> decompose ->
// strategy -> execute for every single call. The engine performs that
// wiring once per query *shape*, through a real compile pipeline:
//
//   parse -> normalize (rewrite passes: atom dedup, nullary-guard
//   extraction, unused-variable pruning) -> split into the connected
//   components of the Gaifman graph (disequalities and negated atoms
//   count as edges) -> plan each component independently (Figure-1
//   classification, cached in an LRU keyed by the component's
//   canonical shape, so two different queries sharing a component shape
//   reuse one sub-plan) -> execute each component through
//   ExecuteStrategy, whose ExecContext is the estimators' shared input
//   record (EstimateInputs) -> multiply the per-component counts,
//   splitting the requested (epsilon, delta) across the factors so the
//   product still meets the guarantee (see compile/compiled_query.h).
//
// Batches of independent queries run concurrently on the engine's one
// worker pool, which intra-query lanes share, with per-item seeds derived
// deterministically from (base seed, index), so results are bitwise
// identical regardless of thread count.
#ifndef CQCOUNT_ENGINE_ENGINE_H_
#define CQCOUNT_ENGINE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "compile/compiled_query.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"
#include "engine/scheduler.h"
#include "engine/strategy_executor.h"
#include "obs/profile.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/status.h"

namespace cqcount {

/// Engine-wide defaults and sizing.
struct EngineOptions {
  /// Default accuracy targets for approximate counts.
  double epsilon = 0.1;
  double delta = 0.1;
  /// Base seed; batch items derive their own via DeriveSeed(seed, index).
  uint64_t seed = 0xC0FFEEULL;
  /// Plan cache entry budget (one LRU).
  size_t plan_cache_capacity = 256;
  /// Size of the engine's one worker pool, shared by CountBatch items and
  /// intra-query lanes (0 = hardware concurrency).
  int num_threads = 4;
  /// Intra-query parallelism: lanes ONE count may fan out across on the
  /// engine's pool. An estimate spreads its sampling runs, sample batches
  /// and exact-phase sub-boxes, each lane on its own fork of the oracle
  /// stack; an exact count on more than one lane spreads the kJoinWindows
  /// windows of its join's first variable over one shared joiner, and on
  /// one lane runs as one descent (see README "Parallel estimation &
  /// determinism model"). 0 = automatic: pool-sized lanes for components
  /// predicted to run long (scheduler.h: an exact join of
  /// kMinExactFanoutNodes nodes; otherwise a planned cost of
  /// kMinFanoutCost, or with `adaptive` an observed mean of
  /// kMinFanoutMillis once a shape has history), inline otherwise. N != 0
  /// = N lanes for every component, capped at the pool size (1 = off). An
  /// exact component without a free variable always runs inline. Counts
  /// are bit-identical at every setting (counter-derived per-task seeds;
  /// an exact count's windows add up to its one descent).
  int intra_query_threads = 0;
  /// Opt-in adaptive accuracy scheduling (see engine/scheduler.h): cost
  /// predictions from the plan cache's ShapeProfile history drive a
  /// marginal-cost (epsilon, delta) split across components, dynamic lane
  /// grants, profile-sized colour-coding trial budgets, and run-boundary
  /// CLT early termination in the estimators. Off (the default) leaves
  /// every estimate bit-identical to the non-adaptive engine; on, fixed-
  /// seed results are reproducible at any lane count (the scheduler's
  /// accuracy decisions read only deterministic inputs).
  bool adaptive = false;
  /// Planner thresholds.
  PlanOptions plan;
  /// Compile-pipeline gates (normalization passes, component factoring).
  CompileOptions compile;
  /// Input-validation guard rails: requests whose query text or variable
  /// count exceeds these are rejected with INVALID_ARGUMENT before any
  /// parsing/planning work (a malformed megabyte query must not reach the
  /// planner's recursive passes).
  size_t max_query_bytes = 1 << 20;
  int max_query_vars = 256;
};

/// One query of a batch (and the argument of Count).
struct CountRequest {
  /// Datalog-style query text, e.g. "ans(x) :- F(x, y), F(x, z), y != z.".
  std::string query;
  /// Name of a registered database.
  std::string database;
  /// Per-request accuracy overrides (0 = engine default).
  double epsilon = 0.0;
  double delta = 0.0;
  /// Per-request seed override (0 = derived from the engine seed).
  uint64_t seed = 0;
  /// Forces the exact strategy (the uncapped join count) regardless of
  /// the plan.
  bool force_exact = false;
  /// Wall-clock budget for this request in milliseconds (0 = unlimited).
  /// On expiry the engine returns an anytime partial answer assembled
  /// from completed work units (EngineResult::partial + interval), or a
  /// typed DEADLINE_EXCEEDED status when nothing completed.
  uint64_t time_budget_ms = 0;
  /// Cap on estimator oracle calls (0 = module default). Tightens the
  /// per-strategy safety valve; exhausting it before any sampling yields
  /// a typed RESOURCE_EXHAUSTED status.
  uint64_t max_oracle_calls = 0;
  /// Cooperative cancellation: keep a copy of this token and Cancel() it
  /// from any thread; the engine polls it at deterministic checkpoints.
  /// The default token is valid and simply never fires.
  CancelToken cancel_token;
  /// Deadline clock override for deterministic tests (not owned; must
  /// outlive the call; null = the process steady clock).
  const DeadlineClock* clock = nullptr;
};

/// Execution provenance of one Gaifman component of a query: its planning
/// provenance plus the strategy's ExecOutcome. `estimate` is the
/// component's factor of the product; purely-existential components
/// report their raw strategy estimate, and the boolean collapse (non-zero
/// -> 1) happens in the product.
struct ComponentResult : ExecOutcome {
  Strategy strategy = Strategy::kExact;
  /// Width of the decomposition the component ran on.
  double width = 0.0;
  int num_vars = 0;
  int num_free = 0;
  /// No free variables: contributes a 0/1 boolean factor.
  bool existential = false;
  bool plan_cache_hit = false;
  /// False when execution was skipped (a false nullary guard makes the
  /// product a certain zero, or an interruption stopped the count before
  /// this component): the ExecOutcome fields are then defaults, only the
  /// planning provenance is meaningful.
  bool executed = false;
  /// Canonical shape key of the component sub-query.
  std::string shape_key;
  /// Figure-1 verdict for the component's shape.
  std::string verdict;
  /// (epsilon, delta) share this component ran with. Zero for exact
  /// factors: they consume none of the accuracy budget.
  double epsilon = 0.0;
  double delta = 0.0;
  /// Wall-clock execution time of this component alone.
  double exec_millis = 0.0;
  /// Adaptive-scheduler provenance: the cost prediction this component
  /// was scheduled with ("plan_estimate" / "observed_profile"; empty when
  /// the scheduler was off).
  std::string cost_source;
  double predicted_millis = 0.0;
  double predicted_oracle_calls = 0.0;
};

/// A count with execution provenance.
struct EngineResult {
  double estimate = 0.0;
  /// True when every factor (guards and components) is exact.
  bool exact = false;
  /// False when a sampling cap was hit before the target interval.
  bool converged = true;
  /// True when the request's deadline or cancellation interrupted
  /// execution and `estimate` is an ANYTIME answer from the completed
  /// work (the (epsilon, delta) guarantee does not apply). The interval
  /// brackets what the uninterrupted same-seed execution would return:
  /// hard order-statistic bounds per interrupted component, [0,
  /// |U|^num_free] for components never started. Complete results carry
  /// [estimate, estimate].
  bool partial = false;
  double lower_bound = 0.0;
  double upper_bound = 0.0;
  /// Why the result is partial: "" / "cancelled" / "deadline_exceeded".
  std::string partial_reason;
  /// True when the adaptive scheduler drove this execution.
  bool adaptive = false;
  /// Strategy of the dominant (highest planned cost) component.
  Strategy strategy = Strategy::kExact;
  QueryKind kind = QueryKind::kCq;
  /// Largest decomposition width across components.
  double width = 0.0;
  /// Oracle work: hom-oracle calls plus estimator membership tests.
  uint64_t oracle_calls = 0;
  /// True when every component plan came from the cache.
  bool plan_cache_hit = false;
  double plan_millis = 0.0;
  double exec_millis = 0.0;
  /// Canonical shape keys of all components, sorted, joined by " * ".
  std::string shape_key;
  /// Figure-1 verdict of the dominant component.
  std::string verdict;
  /// Per-component provenance (ordered by smallest variable; factors of
  /// the product). Empty for pure-guard queries.
  std::vector<ComponentResult> components;
  int num_components = 0;
  /// Aggregated intra-query parallelism across components.
  ParallelStats parallel;
  /// What the rewrite passes changed.
  int atoms_deduped = 0;
  int variables_pruned = 0;
  /// Nullary guards evaluated (each a 0/1 factor of the product).
  int guards_evaluated = 0;
  /// Phase durations of this execution.
  obs::QueryProfile profile;

  /// The `count --json` document: this result, its per-component records
  /// and a "profile" object derived from them.
  std::string ToJson() const;
};

/// Per-component planning provenance in Explain() output.
struct ComponentExplanation {
  QueryPlan plan;
  bool plan_cache_hit = false;
  bool existential = false;
  /// The component's variables, by original name.
  std::vector<std::string> variables;
  /// (epsilon, delta) share the component would execute with (zero for
  /// exact factors, which consume no budget).
  double epsilon = 0.0;
  double delta = 0.0;
  /// Lanes the engine's cost model would grant this component (1 =
  /// inline; see EngineOptions::intra_query_threads).
  int planned_lanes = 1;
  /// Observed execution history of this component's shape, when the plan
  /// cache has recorded runs (Explain after Count on a warm cache).
  std::optional<obs::ShapeProfile> observed;
  /// Adaptive-scheduler provenance (empty cost_source when the scheduler
  /// is off): where the cost prediction came from and what it predicts.
  std::string cost_source;
  double predicted_millis = 0.0;
  double predicted_oracle_calls = 0.0;
};

/// Explain() output: the compiled plan, without execution.
struct Explanation {
  /// Plan of the dominant (highest planned cost) component.
  QueryPlan plan;
  /// All component plans, ordered by smallest variable.
  std::vector<ComponentExplanation> components;
  /// Nullary guards lifted out of the body.
  std::vector<NullaryGuard> guards;
  /// What the rewrite passes changed.
  PassStats pass_stats;
  /// True when every component plan came from the cache.
  bool plan_cache_hit = false;
  double plan_millis = 0.0;
  /// Multi-line human-readable rendering (includes the per-component
  /// breakdown).
  std::string text;

  /// The `explain --json` document: the plans, budget split, lane grants
  /// and observed shape history, without `text`.
  std::string ToJson() const;
};

/// Thread-safe counting engine with a named-database registry, a shared
/// plan cache and a worker pool. All public methods may be called
/// concurrently.
class CountingEngine {
 public:
  explicit CountingEngine(EngineOptions opts = {});
  ~CountingEngine();

  /// Registers `db` under `name` (replacing any previous database of that
  /// name; plans cached for the old contents are invalidated). Relations
  /// are canonicalised eagerly so the shared snapshot is safe to read from
  /// concurrent workers. Queries refer to databases by name.
  Status RegisterDatabase(const std::string& name, Database db);

  /// Reads a database file (relational/database_io format) and registers it.
  Status RegisterDatabaseFile(const std::string& name, const std::string& path);

  /// Registered database names, sorted.
  std::vector<std::string> DatabaseNames() const;

  /// Compiles (cached per component shape) and executes one counting
  /// request.
  StatusOr<EngineResult> Count(const CountRequest& request);
  StatusOr<EngineResult> Count(const std::string& query,
                               const std::string& database);

  /// Exact count via the exact strategy (plans for provenance only).
  StatusOr<EngineResult> CountExact(const std::string& query,
                                    const std::string& database);

  /// Compiles and plans without executing: rewrite-pass effects, the
  /// per-component Figure-1 verdicts, chosen strategies, decomposition
  /// shapes and cost estimates. Rejects what Count would reject before
  /// planning (same guard rails).
  StatusOr<Explanation> Explain(const std::string& query,
                                const std::string& database);

  /// Executes independent requests concurrently on the engine's pool,
  /// one lane per pool thread (a one-thread engine runs every item on the
  /// caller, in index order). Results are positionally aligned with
  /// `requests` and are bitwise identical for every thread count
  /// (per-item derived seeds).
  std::vector<StatusOr<EngineResult>> CountBatch(
      const std::vector<CountRequest>& requests);

  /// Plan-cache counters (hits mean the decomposition was not recomputed).
  PlanCacheStats CacheStats() const { return cache_.Stats(); }

  /// Drops all cached plans (e.g. after re-registering a database).
  void InvalidatePlans() { cache_.Clear(); }

  const EngineOptions& options() const { return opts_; }

 private:
  struct RegisteredDatabase {
    std::shared_ptr<const Database> db;
    /// Bumped on re-registration; part of the plan-cache key, so stale
    /// plans become unreachable and age out of the LRU.
    uint64_t generation = 0;
  };

  /// A compiled query with every component planned through the cache.
  struct PlannedQuery {
    CompiledQuery compiled;
    std::vector<std::shared_ptr<const QueryPlan>> plans;
    std::vector<bool> cache_hits;
    /// Full plan-cache key per component (observation recording and
    /// Explain's observed-profile lookups reuse it).
    std::vector<std::string> keys;
    /// Index of the dominant (highest planned cost) component; -1 when
    /// there are no components.
    int dominant = -1;
    /// Phase split of the compile-and-plan stage.
    double compile_millis = 0.0;
    double plan_millis = 0.0;
  };

  RegisteredDatabase FindDatabase(const std::string& name) const;

  /// Plans one component query through the cache under the precomputed
  /// `key` ((database name, generation, component canonical shape), so
  /// any two queries sharing a component shape share the cached
  /// sub-plan).
  std::shared_ptr<const QueryPlan> GetOrBuildPlan(const Query& q,
                                                  const CanonicalShape& shape,
                                                  const std::string& key,
                                                  const Database& db,
                                                  bool* cache_hit);

  /// Compiles `q` and plans every component.
  PlannedQuery CompileAndPlan(const Query& q, const std::string& db_name,
                              uint64_t db_generation, const Database& db);

  /// How one component will execute: its (epsilon, delta) share, the
  /// cost prediction behind it and the lanes it may fan out across.
  struct ComponentSchedule {
    BudgetShare share;
    CostPrediction cost;
    int lanes = 1;
  };

  /// Schedules every component of `planned` (shared by Count and
  /// Explain). Adaptive: costs predicted from the shapes' observed
  /// history weight the epsilon split. Otherwise: SplitBudget's even
  /// shares and the plans' static cost estimates. Exact factors (and
  /// every factor under `force_exact`) get a zero share; PlanLanes grants
  /// every component its lanes.
  std::vector<ComponentSchedule> Schedule(const PlannedQuery& planned,
                                          double epsilon, double delta,
                                          bool adaptive,
                                          bool force_exact) const;

  /// A request that passed validation: its database and parsed query.
  struct ParsedRequest {
    RegisteredDatabase db;
    Query query;
    double parse_millis = 0.0;
  };

  /// The request guard rails shared by Count (and so CountBatch) and
  /// Explain: the database name must be non-empty and registered,
  /// accuracy overrides 0 or in (0, 1), the query text within
  /// max_query_bytes; the parsed query within max_query_vars and
  /// compatible with the database.
  StatusOr<ParsedRequest> ParseRequest(const CountRequest& request) const;

  StatusOr<EngineResult> ExecutePlanned(const PlannedQuery& planned,
                                        const Database& db,
                                        const CountRequest& request,
                                        const ResourceGovernor* governor);

  EngineOptions opts_;
  // Reader-writer lock: every Count in a batch resolves its database here,
  // so lookups must not serialise behind each other (registration is rare
  // and takes the exclusive side).
  mutable std::shared_mutex db_mu_;
  std::map<std::string, RegisteredDatabase> databases_;
  PlanCache cache_;
  std::unique_ptr<Executor> pool_;
};

}  // namespace cqcount

#endif  // CQCOUNT_ENGINE_ENGINE_H_
