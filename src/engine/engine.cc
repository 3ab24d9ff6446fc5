#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "relational/database_io.h"
#include "relational/segment.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/timer.h"

namespace cqcount {
namespace {

bool AllCacheHits(const std::vector<bool>& hits) {
  return !hits.empty() &&
         std::all_of(hits.begin(), hits.end(), [](bool hit) { return hit; });
}

// Engine-level metrics, fed once per Count/Explain/batch item — far off
// any sampling hot path, so the registry adds cost nothing measurable.
struct EngineMetrics {
  obs::Counter& counts = obs::MetricRegistry::Global().GetCounter(
      "engine.counts", "Count() executions (including batch items)");
  obs::Counter& count_errors = obs::MetricRegistry::Global().GetCounter(
      "engine.count_errors", "Count() executions that returned an error");
  obs::Counter& batch_items = obs::MetricRegistry::Global().GetCounter(
      "engine.batch_items", "Requests executed through CountBatch()");
  obs::Counter& guard_blocked = obs::MetricRegistry::Global().GetCounter(
      "engine.guard_blocked",
      "Counts short-circuited to zero by a false nullary guard");
  obs::Counter& components = obs::MetricRegistry::Global().GetCounter(
      "engine.components_executed",
      "Gaifman components executed across all counts");
  obs::Counter& cancelled = obs::MetricRegistry::Global().GetCounter(
      "engine.cancelled",
      "Counts interrupted by request cancellation (partial or typed error)");
  obs::Counter& deadline_exceeded = obs::MetricRegistry::Global().GetCounter(
      "engine.deadline_exceeded",
      "Counts whose time budget expired (partial or typed error)");
  obs::Counter& partial_results = obs::MetricRegistry::Global().GetCounter(
      "engine.partial_results",
      "Counts that returned an anytime partial answer with hard bounds");
  obs::Histogram& plan_us = obs::MetricRegistry::Global().GetHistogram(
      "engine.plan_us", "Compile+plan wall time per count, microseconds");
  obs::Histogram& exec_us = obs::MetricRegistry::Global().GetHistogram(
      "engine.exec_us", "Execution wall time per count, microseconds");

  static EngineMetrics& Get() {
    static EngineMetrics* metrics = new EngineMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const EngineMetrics& kEngineMetricsInit = EngineMetrics::Get();

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCq:
      return "CQ";
    case QueryKind::kDcq:
      return "DCQ";
    default:
      return "ECQ";
  }
}

// Hard cap on one never-started component's factor: |U|^num_free answer
// tuples at most (existential components contribute a 0/1 factor).
// Clamped so partial intervals always have finite endpoints.
double ComponentFactorCap(uint32_t universe, int num_free, bool existential) {
  if (existential) return 1.0;
  const double cap =
      std::pow(static_cast<double>(universe), static_cast<double>(num_free));
  return std::isfinite(cap) ? cap : std::numeric_limits<double>::max();
}

}  // namespace

std::string EngineResult::ToJson() const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("estimate").Double(estimate);
  json.Key("exact").Bool(exact);
  json.Key("converged").Bool(converged);
  json.Key("partial").Bool(partial);
  json.Key("lower_bound").Double(lower_bound);
  json.Key("upper_bound").Double(upper_bound);
  json.Key("partial_reason").String(partial_reason);
  json.Key("adaptive").Bool(adaptive);
  json.Key("strategy").String(StrategyName(strategy));
  json.Key("kind").String(QueryKindName(kind));
  json.Key("width").Double(width);
  json.Key("verdict").String(verdict);
  json.Key("shape_key").String(shape_key);
  json.Key("oracle_calls").Uint(oracle_calls);
  json.Key("plan_cache_hit").Bool(plan_cache_hit);
  json.Key("num_components").Int(num_components);
  json.Key("guards_evaluated").Int(guards_evaluated);
  json.Key("plan_ms").Double(plan_millis);
  json.Key("exec_ms").Double(exec_millis);
  json.Key("components").BeginArray();
  for (const ComponentResult& c : components) {
    json.BeginObject();
    json.Key("estimate").Double(c.estimate);
    json.Key("exact").Bool(c.exact);
    json.Key("converged").Bool(c.converged);
    json.Key("partial").Bool(c.partial);
    json.Key("lower_bound").Double(c.lower_bound);
    json.Key("upper_bound").Double(c.upper_bound);
    json.Key("stop_reason").String(StopReasonName(c.stop_reason));
    json.Key("rounds_executed").Int(c.rounds_executed);
    json.Key("completed_runs").Int(c.completed_runs);
    json.Key("total_runs").Int(c.total_runs);
    json.Key("executed").Bool(c.executed);
    json.Key("strategy").String(StrategyName(c.strategy));
    json.Key("verdict").String(c.verdict);
    json.Key("shape_key").String(c.shape_key);
    json.Key("width").Double(c.width);
    json.Key("num_vars").Int(c.num_vars);
    json.Key("num_free").Int(c.num_free);
    json.Key("existential").Bool(c.existential);
    json.Key("plan_cache_hit").Bool(c.plan_cache_hit);
    json.Key("oracle_calls").Uint(c.oracle_calls);
    json.Key("estimator_calls").Uint(c.estimator_calls);
    json.Key("cost_source").String(c.cost_source);
    json.Key("predicted_ms").Double(c.predicted_millis);
    json.Key("predicted_oracle_calls").Double(c.predicted_oracle_calls);
    json.Key("dp_prepared_decides").Uint(c.dp_prepared_decides);
    json.Key("dp_prepared_path").Bool(c.dp_prepared_path);
    json.Key("colouring_trials_per_call").Uint(c.colouring_trials_per_call);
    json.Key("epsilon").Double(c.epsilon);
    json.Key("delta").Double(c.delta);
    json.Key("exec_ms").Double(c.exec_millis);
    json.Key("lanes").Int(c.parallel.lanes);
    json.EndObject();
  }
  json.EndArray();

  // The profile: phase times plus totals and a per-component slice, all
  // derived from the records above.
  int cache_hits = 0;
  uint64_t dp_prepared_decides = 0;
  for (const ComponentResult& c : components) {
    cache_hits += c.plan_cache_hit ? 1 : 0;
    dp_prepared_decides += c.dp_prepared_decides;
  }
  json.Key("profile").BeginObject();
  json.Key("phases").BeginObject();
  json.Key("parse_ms").Double(profile.parse_millis);
  json.Key("compile_ms").Double(profile.compile_millis);
  json.Key("plan_ms").Double(profile.plan_millis);
  json.Key("execute_ms").Double(profile.execute_millis);
  json.EndObject();
  json.Key("plan_cache_hits").Int(cache_hits);
  json.Key("plan_cache_misses")
      .Int(static_cast<int>(components.size()) - cache_hits);
  json.Key("guards_evaluated").Int(guards_evaluated);
  json.Key("oracle_calls").Uint(oracle_calls);
  json.Key("dp_prepared_decides").Uint(dp_prepared_decides);
  json.Key("lanes").Int(parallel.lanes);
  json.Key("tasks").Uint(parallel.tasks);
  json.Key("worker_tasks").Uint(parallel.worker_tasks);
  json.Key("components").BeginArray();
  for (const ComponentResult& c : components) {
    json.BeginObject();
    json.Key("shape_key").String(c.shape_key);
    json.Key("strategy").String(StrategyName(c.strategy));
    json.Key("exec_ms").Double(c.exec_millis);
    json.Key("plan_cache_hit").Bool(c.plan_cache_hit);
    json.Key("executed").Bool(c.executed);
    json.Key("oracle_calls").Uint(c.oracle_calls);
    json.Key("dp_prepared_decides").Uint(c.dp_prepared_decides);
    json.Key("colouring_trials_per_call").Uint(c.colouring_trials_per_call);
    json.Key("lanes").Int(c.parallel.lanes);
    json.Key("tasks").Uint(c.parallel.tasks);
    json.Key("worker_tasks").Uint(c.parallel.worker_tasks);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
  return json.Take();
}

std::string Explanation::ToJson() const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("strategy").String(StrategyName(plan.strategy));
  json.Key("verdict").String(plan.classification.verdict);
  json.Key("shape_key").String(plan.shape_key);
  json.Key("cost_estimate").Double(plan.cost_estimate);
  json.Key("plan_cache_hit").Bool(plan_cache_hit);
  json.Key("plan_ms").Double(plan_millis);
  json.Key("pass_stats").BeginObject();
  json.Key("atoms_deduped").Int(pass_stats.atoms_deduped);
  json.Key("guards_extracted").Int(pass_stats.guards_extracted);
  json.Key("variables_pruned").Int(pass_stats.variables_pruned);
  json.EndObject();
  json.Key("guards").BeginArray();
  for (const NullaryGuard& guard : guards) {
    json.BeginObject();
    json.Key("relation").String(guard.relation);
    json.Key("negated").Bool(guard.negated);
    json.EndObject();
  }
  json.EndArray();
  json.Key("components").BeginArray();
  for (const ComponentExplanation& c : components) {
    json.BeginObject();
    json.Key("strategy").String(StrategyName(c.plan.strategy));
    json.Key("verdict").String(c.plan.classification.verdict);
    json.Key("shape_key").String(c.plan.shape_key);
    json.Key("cost_estimate").Double(c.plan.cost_estimate);
    json.Key("plan_cache_hit").Bool(c.plan_cache_hit);
    json.Key("existential").Bool(c.existential);
    json.Key("variables").BeginArray();
    for (const std::string& v : c.variables) json.String(v);
    json.EndArray();
    json.Key("epsilon").Double(c.epsilon);
    json.Key("delta").Double(c.delta);
    json.Key("planned_lanes").Int(c.planned_lanes);
    json.Key("cost_source").String(c.cost_source);
    json.Key("predicted_ms").Double(c.predicted_millis);
    json.Key("predicted_oracle_calls").Double(c.predicted_oracle_calls);
    json.Key("observed");
    if (c.observed.has_value()) {
      json.RawValue(c.observed->ToJson());
    } else {
      json.Null();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Take();
}

CountingEngine::CountingEngine(EngineOptions opts)
    : opts_(opts), cache_(opts.plan_cache_capacity) {
  int threads = opts_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  opts_.num_threads = threads;
  pool_ = std::make_unique<Executor>(threads);
}

CountingEngine::~CountingEngine() = default;

Status CountingEngine::RegisterDatabase(const std::string& name, Database db) {
  if (name.empty()) {
    return Status::InvalidArgument("database name must be non-empty");
  }
  // Fault-injection site: lets tests exercise registration failure paths
  // (and callers' handling of them) without an unwritable disk.
  Status fp = failpoint::Check("engine.register_database");
  if (!fp.ok()) return fp;
  // Canonicalise now, while the database is still exclusively owned:
  // afterwards every const access is genuinely read-only (the flat
  // storage has no lazy-sort mutation), so the shared snapshot is safe
  // for concurrent batch workers. Mmap'd segment relations are born
  // canonical, so both storage backends read the same rows in the same
  // order and estimates stay bit-identical between them.
  db.Canonicalize();
  auto shared = std::make_shared<const Database>(std::move(db));
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  RegisteredDatabase& entry = databases_[name];
  // Bump the generation on replacement: cached plans for the old contents
  // become unreachable (their keys embed the generation) and age out.
  if (entry.db != nullptr) ++entry.generation;
  entry.db = std::move(shared);
  return Status::Ok();
}

Status CountingEngine::RegisterDatabaseFile(const std::string& name,
                                            const std::string& path) {
  // Segment files mmap in O(1) (no copy, no sort — canonical order is a
  // format invariant); text files parse and canonicalise.
  // Cold-open cost is recorded either way so `stats` shows what
  // registration paid per backend.
  static obs::Counter& cold_opens = obs::MetricRegistry::Global().GetCounter(
      "engine.db_cold_opens", "databases registered from files");
  static obs::Histogram& cold_open_us =
      obs::MetricRegistry::Global().GetHistogram(
          "engine.db_cold_open_us",
          "file-to-registered latency, microseconds");
  WallTimer timer;
  auto db = LoadDatabaseAuto(path);
  if (!db.ok()) return db.status();
  Status s = RegisterDatabase(name, *std::move(db));
  if (s.ok()) {  // Count registrations, not failed attempts.
    cold_opens.Increment();
    cold_open_us.Observe(static_cast<uint64_t>(timer.Millis() * 1000.0));
  }
  return s;
}

std::vector<std::string> CountingEngine::DatabaseNames() const {
  std::shared_lock<std::shared_mutex> lock(db_mu_);
  std::vector<std::string> names;
  names.reserve(databases_.size());
  for (const auto& [name, db] : databases_) names.push_back(name);
  return names;
}

CountingEngine::RegisteredDatabase CountingEngine::FindDatabase(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(db_mu_);
  auto it = databases_.find(name);
  return it == databases_.end() ? RegisteredDatabase{} : it->second;
}

std::shared_ptr<const QueryPlan> CountingEngine::GetOrBuildPlan(
    const Query& q, const CanonicalShape& shape, const std::string& key,
    const Database& db, bool* cache_hit) {
  if (auto cached = cache_.Lookup(key)) {
    *cache_hit = true;
    return cached;
  }
  *cache_hit = false;
  obs::Span span("plan.build");
  auto plan = std::make_shared<const QueryPlan>(
      BuildQueryPlan(q, shape, db, opts_.plan));
  cache_.Insert(key, plan);
  return plan;
}

CountingEngine::PlannedQuery CountingEngine::CompileAndPlan(
    const Query& q, const std::string& db_name, uint64_t db_generation,
    const Database& db) {
  PlannedQuery planned;
  {
    obs::Span span("engine.compile");
    WallTimer timer;
    planned.compiled = CompileQuery(q, opts_.compile);
    planned.compile_millis = timer.Millis();
  }
  obs::Span span("engine.plan");
  WallTimer timer;
  planned.plans.reserve(planned.compiled.components.size());
  planned.cache_hits.reserve(planned.compiled.components.size());
  planned.keys.reserve(planned.compiled.components.size());
  double dominant_cost = -1.0;
  for (size_t i = 0; i < planned.compiled.components.size(); ++i) {
    const QueryComponent& component = planned.compiled.components[i];
    // Scope by database name and generation: the same shape may warrant
    // different strategies on differently sized databases, and
    // re-registered contents must never reuse plans costed against the
    // old database.
    planned.keys.push_back(db_name + "\x1f" + std::to_string(db_generation) +
                           "\x1f" + component.shape.key);
    bool cache_hit = false;
    planned.plans.push_back(GetOrBuildPlan(component.query, component.shape,
                                           planned.keys.back(), db,
                                           &cache_hit));
    planned.cache_hits.push_back(cache_hit);
    if (planned.plans.back()->cost_estimate > dominant_cost) {
      dominant_cost = planned.plans.back()->cost_estimate;
      planned.dominant = static_cast<int>(i);
    }
  }
  planned.plan_millis = timer.Millis();
  return planned;
}

std::vector<CountingEngine::ComponentSchedule> CountingEngine::Schedule(
    const PlannedQuery& planned, double epsilon, double delta, bool adaptive,
    bool force_exact) const {
  obs::Span span("engine.schedule");
  const auto& components = planned.compiled.components;
  std::vector<ComponentSchedule> schedule(components.size());
  std::vector<SchedulerComponent> inputs(components.size());
  for (size_t i = 0; i < components.size(); ++i) {
    const QueryPlan& plan = *planned.plans[i];
    // Only the adaptive path reads (and counts) shape history; otherwise
    // the static plan estimate drives the lane gate.
    schedule[i].cost = adaptive
                           ? PredictCost(plan, cache_.Profile(planned.keys[i]))
                           : ColdPrediction(plan);
    const Strategy strategy = force_exact ? Strategy::kExact : plan.strategy;
    // Lanes are scheduling only: the estimate is the same at every lane
    // count.
    schedule[i].lanes = PlanLanes(strategy, plan, schedule[i].cost,
                                  opts_.intra_query_threads,
                                  pool_->num_threads());
    inputs[i].estimated = strategy != Strategy::kExact;
    inputs[i].existential = components[i].existential;
    inputs[i].cost = schedule[i].cost;
  }
  const std::vector<BudgetShare> shares =
      SplitBudgets(epsilon, delta, inputs, adaptive);
  for (size_t i = 0; i < components.size(); ++i) {
    schedule[i].share = shares[i];
  }
  return schedule;
}

StatusOr<CountingEngine::ParsedRequest> CountingEngine::ParseRequest(
    const CountRequest& request) const {
  if (request.database.empty()) {
    return Status::InvalidArgument("database name must be non-empty");
  }
  // Accuracy overrides: 0 means "engine default"; anything else must lie
  // strictly inside (0, 1). NaN fails the range test, so it cannot slip
  // through as "unset".
  auto valid_accuracy = [](double v) {
    return v == 0.0 || InOpenUnitInterval(v);
  };
  if (!valid_accuracy(request.epsilon)) {
    return Status::InvalidArgument(
        "epsilon override must be a finite value in (0, 1), or 0 for the "
        "engine default");
  }
  if (!valid_accuracy(request.delta)) {
    return Status::InvalidArgument(
        "delta override must be a finite value in (0, 1), or 0 for the "
        "engine default");
  }
  if (request.query.size() > opts_.max_query_bytes) {
    return Status::InvalidArgument(
        "query text of " + std::to_string(request.query.size()) +
        " bytes exceeds the engine's max_query_bytes (" +
        std::to_string(opts_.max_query_bytes) + ")");
  }
  ParsedRequest parsed;
  parsed.db = FindDatabase(request.database);
  if (parsed.db.db == nullptr) {
    return Status::NotFound("no database registered as '" + request.database +
                            "'");
  }
  WallTimer parse_timer;
  auto query = [&] {
    obs::Span span("engine.parse");
    return ParseQuery(request.query);
  }();
  parsed.parse_millis = parse_timer.Millis();
  if (!query.ok()) return query.status();
  if (query->num_vars() > opts_.max_query_vars) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query->num_vars()) +
        " variables, exceeding the engine's max_query_vars (" +
        std::to_string(opts_.max_query_vars) + ")");
  }
  Status compatible = query->CheckAgainstDatabase(*parsed.db.db);
  if (!compatible.ok()) return compatible;
  parsed.query = *std::move(query);
  return parsed;
}

StatusOr<EngineResult> CountingEngine::ExecutePlanned(
    const PlannedQuery& planned, const Database& db,
    const CountRequest& request, const ResourceGovernor* governor) {
  obs::Span exec_span("engine.execute");
  const CompiledQuery& compiled = planned.compiled;
  EngineResult result;
  result.kind = compiled.normalized.Kind();
  result.num_components = static_cast<int>(compiled.num_components());
  result.atoms_deduped = compiled.stats.atoms_deduped;
  result.variables_pruned = compiled.stats.variables_pruned;
  result.guards_evaluated = static_cast<int>(compiled.guards.size());
  result.plan_cache_hit = AllCacheHits(planned.cache_hits);
  {
    std::vector<std::string> keys;
    keys.reserve(compiled.components.size());
    for (const QueryComponent& c : compiled.components)
      keys.push_back(c.shape.key);
    std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0) result.shape_key += " * ";
      result.shape_key += keys[i];
    }
  }
  if (planned.dominant >= 0) {
    const QueryPlan& dominant = *planned.plans[planned.dominant];
    result.strategy =
        request.force_exact ? Strategy::kExact : dominant.strategy;
    result.verdict = dominant.classification.verdict;
  }

  const double epsilon = request.epsilon > 0 ? request.epsilon : opts_.epsilon;
  const double delta = request.delta > 0 ? request.delta : opts_.delta;
  const uint64_t base_seed =
      request.seed != 0 ? request.seed : DeriveSeed(opts_.seed, 0);

  WallTimer timer;
  // A false guard makes the whole product a certain zero: components are
  // still reported (plan provenance) but not executed.
  bool guards_hold = true;
  for (const NullaryGuard& guard : compiled.guards) {
    if (!GuardHolds(guard, db)) {
      guards_hold = false;
      break;
    }
  }

  const size_t k_total = compiled.num_components();
  // Adaptive scheduling (opt-in) predicts per-component cost from the
  // shape's observed history. force_exact bypasses it — there is no
  // accuracy budget to allocate.
  const bool adaptive = opts_.adaptive && !request.force_exact;
  result.adaptive = adaptive;
  const std::vector<ComponentSchedule> schedule =
      Schedule(planned, epsilon, delta, adaptive, request.force_exact);

  double product = 1.0;
  bool all_exact = true;
  bool all_converged = true;
  // Latched once the governor fires (directly, via a partial component
  // outcome, or via a typed governance status): later components are not
  // started — their factors enter the interval as [0, cap].
  bool interrupted = false;
  result.components.reserve(k_total);
  for (size_t i = 0; i < k_total; ++i) {
    const QueryComponent& component = compiled.components[i];
    const QueryPlan& plan = *planned.plans[i];
    obs::Span component_span("component.execute");
    WallTimer component_timer;
    // Component-boundary checkpoint.
    if (!interrupted && governor != nullptr &&
        governor->Check() != GovernanceState::kRunning) {
      interrupted = true;
    }
    ComponentResult cr;
    cr.strategy = request.force_exact ? Strategy::kExact : plan.strategy;
    cr.width = plan.decomposition.width;
    cr.num_vars = component.query.num_vars();
    cr.num_free = component.query.num_free();
    cr.existential = component.existential;
    cr.plan_cache_hit = planned.cache_hits[i];
    cr.shape_key = plan.shape_key;
    cr.verdict = plan.classification.verdict;
    const BudgetShare& share = schedule[i].share;
    const CostPrediction& cost = schedule[i].cost;
    cr.epsilon = share.epsilon;
    cr.delta = share.delta;
    if (adaptive) {
      cr.cost_source = CostSourceName(cost.source);
      cr.predicted_millis = cost.millis;
      cr.predicted_oracle_calls = cost.oracle_calls;
    }
    result.width = std::max(result.width, cr.width);

    if (guards_hold && !interrupted) {
      const int lanes = schedule[i].lanes;
      ExecContext ctx;
      // Single-component queries keep the request seed verbatim, so the
      // engine path is bitwise identical to the direct pipeline; factored
      // queries give every component its own derived stream.
      static_cast<EstimateInputs&>(ctx) = {
          .epsilon = share.epsilon,
          .delta = share.delta,
          .seed = k_total == 1 ? base_seed
                               : DeriveSeed(base_seed, static_cast<uint64_t>(i)),
          .pool = lanes > 1 ? pool_.get() : nullptr,
          .intra_threads = lanes,
          .governor = governor};
      ctx.query = &component.query;
      ctx.db = &db;
      ctx.plan = &plan;
      ctx.shape = &component.shape;
      // The request's oracle-call cap tightens (never widens) the
      // estimator's own safety valve.
      if (request.max_oracle_calls > 0) {
        ctx.dlm.max_oracle_calls =
            std::min(ctx.dlm.max_oracle_calls, request.max_oracle_calls);
      }
      if (adaptive) {
        ctx.dlm.early_stop = true;
        ctx.per_call_failure_override = PerCallFailure(share.delta, cost);
      }
      auto outcome = ExecuteStrategy(cr.strategy, ctx);
      if (!outcome.ok()) {
        // A typed governance status means the checkpoint fired before any
        // unit of this component completed: the component stays
        // unexecuted and the remaining loop records planning provenance
        // only. Anything else is a real failure.
        const StatusCode code = outcome.status().code();
        const bool governance_stop =
            governor != nullptr && governor->fired() &&
            (code == StatusCode::kCancelled ||
             code == StatusCode::kDeadlineExceeded);
        if (!governance_stop) return outcome.status();
        interrupted = true;
      } else {
        static_cast<ExecOutcome&>(cr) = *outcome;
        cr.executed = true;
        if (cr.partial) interrupted = true;
        result.parallel.Merge(cr.parallel);
        all_exact = all_exact && cr.exact;
        all_converged = all_converged && cr.converged;
        result.oracle_calls += cr.oracle_calls;
        // Purely-existential components collapse to a boolean factor: any
        // relative-error estimate preserves zero vs non-zero.
        product *= component.existential ? (cr.estimate > 0.0 ? 1.0 : 0.0)
                                         : cr.estimate;
        cr.exec_millis = component_timer.Millis();
        // Fold this execution into the shape's observed history (lives
        // with the cached plan) — the cost/variance substrate future
        // adaptive scheduling reads. Partial executions are excluded:
        // their truncated cost/estimate would skew the profile.
        if (!cr.partial) {
          cache_.RecordObservation(planned.keys[i], cr.exec_millis,
                                   cr.oracle_calls, cr.estimator_calls,
                                   cr.estimate, cr.converged);
        }
        if (adaptive) {
          RecordAdaptiveOutcome(cr.stop_reason, cr.completed_runs,
                                cr.total_runs);
        }
        EngineMetrics::Get().components.Increment();
      }
    }
    result.components.push_back(std::move(cr));
  }

  if (!guards_hold) {
    result.estimate = 0.0;
    result.exact = true;
    result.converged = true;
    EngineMetrics::Get().guard_blocked.Increment();
  } else if (interrupted) {
    // Anytime assembly: the estimate is the product of the factors that
    // did run (including interrupted components' own anytime estimates);
    // the interval multiplies per-component hard bounds, with a
    // never-started factor pinned to [0, |U|^num_free] (existential: [0,
    // 1]). No component executed at all -> nothing to report, surface the
    // typed cause.
    bool any_executed = false;
    double lower = 1.0;
    double upper = 1.0;
    for (const ComponentResult& cr : result.components) {
      if (cr.executed) {
        any_executed = true;
        if (cr.existential) {
          lower *= cr.lower_bound > 0.0 ? 1.0 : 0.0;
          upper *= cr.upper_bound > 0.0 ? 1.0 : 0.0;
        } else {
          lower *= cr.lower_bound;
          upper *= cr.upper_bound;
        }
      } else {
        lower *= 0.0;
        upper *= ComponentFactorCap(db.universe_size(), cr.num_free,
                                    cr.existential);
      }
    }
    if (!any_executed) {
      return governor->ToStatus("count");
    }
    result.estimate = product;
    result.exact = false;
    result.converged = false;
    result.partial = true;
    result.lower_bound = lower;
    result.upper_bound =
        std::isfinite(upper) ? upper : std::numeric_limits<double>::max();
    result.partial_reason = GovernanceStateName(governor->state());
  } else {
    result.estimate = product;
    result.exact = all_exact;
    result.converged = all_converged;
    result.lower_bound = result.upper_bound = result.estimate;
  }
  result.exec_millis = timer.Millis();
  result.profile.compile_millis = planned.compile_millis;
  result.profile.plan_millis = planned.plan_millis;
  result.profile.execute_millis = result.exec_millis;

  EngineMetrics& metrics = EngineMetrics::Get();
  metrics.counts.Increment();
  metrics.plan_us.Observe(static_cast<uint64_t>(
      (planned.compile_millis + planned.plan_millis) * 1000.0));
  metrics.exec_us.Observe(static_cast<uint64_t>(result.exec_millis * 1000.0));
  return result;
}

StatusOr<EngineResult> CountingEngine::Count(const CountRequest& request) {
  obs::Span count_span("engine.count");
  EngineMetrics& metrics = EngineMetrics::Get();
  // Fault-injection site: fires before any work, letting tests exercise
  // request failure paths (and, via on_fire callbacks, cancel a batch
  // token at a precise item index).
  Status fp = failpoint::Check("engine.count");
  if (!fp.ok()) {
    metrics.count_errors.Increment();
    return fp;
  }
  auto parsed = ParseRequest(request);
  if (!parsed.ok()) {
    metrics.count_errors.Increment();
    return parsed.status();
  }
  const RegisteredDatabase& db = parsed->db;

  WallTimer plan_timer;
  PlannedQuery planned =
      CompileAndPlan(parsed->query, request.database, db.generation, *db.db);
  const double plan_millis = plan_timer.Millis();

  // Always-active governor: with no budget and an uncancelled token it can
  // never fire, so checkpoints see kRunning everywhere and the execution
  // is bitwise identical to the ungoverned baseline.
  ResourceGovernor governor(request.cancel_token, request.time_budget_ms,
                            request.clock);
  auto result = ExecutePlanned(planned, *db.db, request, &governor);
  if (governor.fired()) {
    // Both outcomes of a fired governor — anytime partial and typed
    // status — count toward the cause metric and tag the query span.
    count_span.SetAttribute("governance",
                            GovernanceStateName(governor.state()));
    if (governor.state() == GovernanceState::kCancelled) {
      metrics.cancelled.Increment();
    } else {
      metrics.deadline_exceeded.Increment();
    }
  }
  if (!result.ok()) {
    metrics.count_errors.Increment();
    return result;
  }
  if (result->partial) metrics.partial_results.Increment();
  result->plan_millis = plan_millis;
  result->profile.parse_millis = parsed->parse_millis;
  return result;
}

StatusOr<EngineResult> CountingEngine::Count(const std::string& query,
                                             const std::string& database) {
  CountRequest request;
  request.query = query;
  request.database = database;
  return Count(request);
}

StatusOr<EngineResult> CountingEngine::CountExact(const std::string& query,
                                                  const std::string& database) {
  CountRequest request;
  request.query = query;
  request.database = database;
  request.force_exact = true;
  return Count(request);
}

StatusOr<Explanation> CountingEngine::Explain(const std::string& query,
                                              const std::string& database) {
  CountRequest request;
  request.query = query;
  request.database = database;
  auto parsed = ParseRequest(request);
  if (!parsed.ok()) return parsed.status();
  const Query& q = parsed->query;
  const RegisteredDatabase& db = parsed->db;

  WallTimer timer;
  PlannedQuery planned = CompileAndPlan(q, database, db.generation, *db.db);
  Explanation out;
  out.plan_millis = timer.Millis();

  const CompiledQuery& compiled = planned.compiled;
  out.guards = compiled.guards;
  out.pass_stats = compiled.stats;
  out.plan_cache_hit = AllCacheHits(planned.cache_hits);
  if (planned.dominant >= 0) out.plan = *planned.plans[planned.dominant];

  const size_t k_total = compiled.num_components();
  const size_t k_counting = compiled.num_counting_components();
  // The schedule a Count with the engine defaults would run with.
  const std::vector<ComponentSchedule> schedule =
      Schedule(planned, opts_.epsilon, opts_.delta, opts_.adaptive,
               /*force_exact=*/false);

  const Query& nq = compiled.normalized;
  std::ostringstream text;
  text << "query: " << q.ToString() << "\n"
       << "kind: " << QueryKindName(nq.Kind()) << "  vars: " << nq.num_vars()
       << " (" << nq.num_free() << " free)"
       << "  ||phi||: " << nq.PhiSize() << "\n";
  if (compiled.stats.Changed()) {
    text << "passes: atoms deduped " << compiled.stats.atoms_deduped
         << ", nullary guards " << compiled.stats.guards_extracted
         << ", variables pruned " << compiled.stats.variables_pruned << "\n";
  }
  for (const NullaryGuard& guard : compiled.guards) {
    text << "guard: " << (guard.negated ? "!" : "") << guard.relation
         << "()  [0/1 factor]\n";
  }
  text << "components: " << k_total;
  if (k_total > k_counting) {
    text << " (" << k_counting << " counting, " << (k_total - k_counting)
         << " existential)";
  }
  text << "\n";

  for (size_t i = 0; i < k_total; ++i) {
    const QueryComponent& component = compiled.components[i];
    const QueryPlan& plan = *planned.plans[i];
    ComponentExplanation ce;
    ce.plan = plan;
    ce.plan_cache_hit = planned.cache_hits[i];
    ce.existential = component.existential;
    for (int local = 0; local < component.query.num_vars(); ++local) {
      ce.variables.push_back(component.query.var_name(local));
    }
    const BudgetShare& share = schedule[i].share;
    ce.epsilon = share.epsilon;
    ce.delta = share.delta;
    // The schedule's lane grant, with the exact gate's reason.
    std::string lane_reason;
    ce.planned_lanes =
        PlanLanes(plan.strategy, plan, schedule[i].cost,
                  opts_.intra_query_threads, pool_->num_threads(),
                  &lane_reason);
    ce.observed = cache_.Profile(planned.keys[i]);
    if (opts_.adaptive) {
      const CostPrediction& cost = schedule[i].cost;
      ce.cost_source = CostSourceName(cost.source);
      ce.predicted_millis = cost.millis;
      ce.predicted_oracle_calls = cost.oracle_calls;
    }

    const Classification& cls = plan.classification;
    text << "component " << i << " (";
    if (component.existential) text << "existential, ";
    text << cls.num_vars << " vars, " << cls.num_free << " free): {";
    for (size_t v = 0; v < ce.variables.size(); ++v) {
      if (v > 0) text << ", ";
      text << ce.variables[v];
    }
    text << "}\n"
         << "  widths: tw<=" << cls.treewidth << "  fhw<=" << cls.fhw << "\n"
         << "  verdict: " << cls.verdict << "\n"
         << "  strategy: " << StrategyName(plan.strategy)
         << "  (decomposition: " << plan.decomposition.decomposition.num_nodes()
         << " bags, width " << plan.decomposition.width << ")\n"
         << "  budget: ";
    if (share.epsilon > 0.0) {
      text << "epsilon " << share.epsilon << "  delta " << share.delta;
    } else {
      text << "none (exact factor)";
    }
    text << "\n"
         << "  cost estimate: " << plan.cost_estimate
         << "  plan cache: " << (ce.plan_cache_hit ? "hit" : "miss")
         << "  intra-query lanes: " << ce.planned_lanes;
    if (!lane_reason.empty()) text << " (" << lane_reason << ")";
    text << "\n";
    // The planner ran the exact count under the node cap (a cap of 0 runs
    // none): an exact plan's cost estimate is the nodes it visited.
    const double cap = opts_.plan.exact_cost_limit;
    if (plan.strategy == Strategy::kExact) {
      text << "  exact probe: " << plan.cost_estimate << " join nodes (cap "
           << cap << ")\n";
    } else if (cap > 0.0) {
      text << "  exact probe: stopped at the cap of " << cap
           << " join nodes\n";
    }
    if (!ce.cost_source.empty()) {
      text << "  scheduled: cost source " << ce.cost_source
           << "  predicted " << ce.predicted_millis << " ms, "
           << ce.predicted_oracle_calls << " estimator calls\n";
    }
    if (ce.observed.has_value()) {
      const obs::ShapeProfile& sp = *ce.observed;
      text << "  observed: runs " << sp.runs << "  mean " << sp.MeanExecMillis()
           << " ms  [" << sp.min_exec_millis << ", " << sp.max_exec_millis
           << "] ms  oracle calls " << sp.total_oracle_calls
           << "  estimator calls " << sp.total_estimator_calls
           << "  converged " << sp.converged_runs << "/" << sp.runs << "\n";
    }
    out.components.push_back(std::move(ce));
  }
  out.text = text.str();
  return out;
}

std::vector<StatusOr<EngineResult>> CountingEngine::CountBatch(
    const std::vector<CountRequest>& requests) {
  std::vector<StatusOr<EngineResult>> results(
      requests.size(), StatusOr<EngineResult>(Status::Internal("not executed")));
  auto run_item = [&](size_t i) {
    CountRequest request = requests[i];
    EngineMetrics::Get().batch_items.Increment();
    // An already-cancelled token stops not-yet-started items before any
    // work; items already inside Count() stop at their own checkpoints.
    // Either way each item gets its own status — one cancelled request
    // never poisons its siblings' results.
    if (request.cancel_token.cancelled()) {
      results[i] = Status::Cancelled("batch item skipped: cancelled before start");
      return;
    }
    if (request.seed == 0) {
      request.seed = DeriveSeed(opts_.seed, static_cast<uint64_t>(i));
    }
    results[i] = Count(request);
  };
  // One lane per pool thread: the calling thread is lane 0, so the batch
  // uses the caller plus num_threads - 1 pool workers, and a one-thread
  // engine runs every item on the caller in index order.
  pool_->ParallelForLanes(requests.size(), pool_->num_threads(),
                          [&](int, size_t i) { run_item(i); });
  return results;
}

}  // namespace cqcount
