#include "replay.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "automata/fpras.h"
#include "compile/compiled_query.h"
#include "compile/passes.h"
#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "engine/plan.h"
#include "query/parser.h"
#include "util/random.h"

namespace perfbench {
namespace {

using cqcount::Status;
using cqcount::StatusOr;
using cqcount::Strategy;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The plan's decomposition mapped onto the component's own variables, as
/// the engine's strategy executors hand it to the estimators.
cqcount::FWidthResult Instantiate(const cqcount::QueryPlan& plan,
                                  const cqcount::CanonicalShape& shape) {
  cqcount::FWidthResult local = plan.decomposition;
  local.decomposition =
      cqcount::InstantiateDecomposition(plan.decomposition.decomposition, shape.to_canonical);
  local.order.clear();
  return local;
}

StatusOr<double> RunStrategy(Strategy strategy, const cqcount::Query& query,
                             const cqcount::Database& db, const cqcount::QueryPlan& plan,
                             const cqcount::CanonicalShape& shape,
                             const cqcount::BudgetShare& budget, uint64_t seed,
                             const cqcount::EngineOptions& options,
                             SpanRecorder& recorder, uint64_t request) {
  const cqcount::FWidthResult decomposition = Instantiate(plan, shape);
  switch (strategy) {
    case Strategy::kExact: {
      ScopedSpan span(recorder, "counting.ExactCountAnswersBruteForce", request);
      return static_cast<double>(cqcount::ExactCountAnswersBruteForce(query, db));
    }
    case Strategy::kFptrasTreewidth:
    case Strategy::kFptrasFhw: {
      cqcount::ApproxOptions opts;
      opts.epsilon = budget.epsilon;
      opts.delta = budget.delta;
      opts.seed = seed;
      opts.objective = plan.objective;
      opts.exact_decomposition_limit = options.plan.exact_decomposition_limit;
      opts.precomputed_decomposition = &decomposition;
      ScopedSpan span(recorder, "counting.ApproxCountAnswers", request);
      auto result = cqcount::ApproxCountAnswers(query, db, opts);
      if (!result.ok()) return result.status();
      return result->estimate;
    }
    case Strategy::kAutomataFpras: {
      cqcount::FprasOptions opts;
      opts.acjr.epsilon = budget.epsilon;
      opts.acjr.delta = budget.delta;
      opts.acjr.seed = seed;
      opts.objective = plan.objective;
      opts.exact_decomposition_limit = options.plan.exact_decomposition_limit;
      opts.precomputed_decomposition = &decomposition;
      ScopedSpan span(recorder, "automata.FprasCountCq", request);
      auto result = cqcount::FprasCountCq(query, db, opts);
      if (!result.ok()) return result.status();
      return result->estimate;
    }
    default:
      return Status::FailedPrecondition(std::string("no replay for strategy ") +
                                   cqcount::StrategyName(strategy));
  }
}

}  // namespace

int SpanRecorder::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::Layers() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    LayerTime& layer = layers[spans_[i].name];
    ++layer.calls;
    layer.total_ms += duration / 1e6;
    layer.self_ms += (duration - child_ns[i]) / 1e6;
  }
  return layers;
}

Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"), &std::fclose);
  if (out == nullptr) return Status::Internal("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return Status::Ok();
}

StatusOr<double> ReplayRequest(const cqcount::CountRequest& request,
                                      const cqcount::Database& db,
                                      const cqcount::EngineOptions& options,
                                      SpanRecorder& recorder, uint64_t request_id) {
  ScopedSpan root(recorder, "request", request_id);
  auto query = [&] {
    ScopedSpan span(recorder, "query.ParseQuery", request_id);
    return cqcount::ParseQuery(request.query);
  }();
  if (!query.ok()) return query.status();
  const cqcount::CompiledQuery compiled = [&] {
    ScopedSpan span(recorder, "compile.CompileQuery", request_id);
    return cqcount::CompileQuery(*query, options.compile);
  }();

  const size_t k = compiled.components.size();
  std::vector<cqcount::CanonicalShape> shapes;
  std::vector<cqcount::QueryPlan> plans;
  for (const cqcount::QueryComponent& component : compiled.components) {
    {
      ScopedSpan span(recorder, "engine.CanonicalQueryShape", request_id);
      shapes.push_back(cqcount::CanonicalQueryShape(component.query));
    }
    ScopedSpan span(recorder, "engine.BuildQueryPlan", request_id);
    plans.push_back(cqcount::BuildQueryPlan(component.query, shapes.back(), db, options.plan));
  }

  // The engine's budget policy: exact factors take no share; epsilon is
  // split over the estimated counting factors, delta over all estimated.
  auto estimated = [&](size_t i) {
    return !request.force_exact && plans[i].strategy != Strategy::kExact;
  };
  size_t estimated_total = 0, estimated_counting = 0;
  for (size_t i = 0; i < k; ++i) {
    if (!estimated(i)) continue;
    ++estimated_total;
    if (!compiled.components[i].existential) ++estimated_counting;
  }
  const double epsilon = request.epsilon > 0 ? request.epsilon : options.epsilon;
  const double delta = request.delta > 0 ? request.delta : options.delta;
  const uint64_t base_seed =
      request.seed != 0 ? request.seed : cqcount::DeriveSeed(options.seed, 0);

  for (const cqcount::NullaryGuard& guard : compiled.guards) {
    if (!cqcount::GuardHolds(guard, db)) return 0.0;
  }
  double product = 1.0;
  for (size_t i = 0; i < k; ++i) {
    const cqcount::QueryComponent& component = compiled.components[i];
    cqcount::BudgetShare budget;
    if (estimated(i)) {
      budget = cqcount::SplitBudget(epsilon, delta, estimated_counting, estimated_total,
                                    component.existential);
    }
    const uint64_t seed = k == 1 ? base_seed : cqcount::DeriveSeed(base_seed, i);
    const Strategy strategy = request.force_exact ? Strategy::kExact : plans[i].strategy;
    auto estimate = RunStrategy(strategy, component.query, db, plans[i], shapes[i], budget,
                                seed, options, recorder, request_id);
    if (!estimate.ok()) return estimate.status();
    product *= component.existential ? (*estimate > 0.0 ? 1.0 : 0.0) : *estimate;
  }
  return product;
}

}  // namespace perfbench
