#include "automata/fpras.h"

#include "decomposition/nice_decomposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cqcount {
namespace {

// Fed once per FPRAS invocation (bulk adds; the estimator loops never
// touch the registry).
struct AcjrMetrics {
  obs::Counter& invocations = obs::MetricRegistry::Global().GetCounter(
      "acjr.invocations", "Automata-FPRAS pipeline executions");
  obs::Counter& membership_tests = obs::MetricRegistry::Global().GetCounter(
      "acjr.membership_tests",
      "Tree-automaton membership tests across all union estimates");
  obs::Counter& union_estimates = obs::MetricRegistry::Global().GetCounter(
      "acjr.union_estimates",
      "Karp-Luby union estimates inside the ACJR estimator");

  static AcjrMetrics& Get() {
    static AcjrMetrics* metrics = new AcjrMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const AcjrMetrics& kAcjrMetricsInit = AcjrMetrics::Get();

}  // namespace

StatusOr<FprasResult> FprasCountCq(const Query& q, const Database& db,
                                   const FprasOptions& opts) {
  obs::Span fpras_span("acjr.fpras");
  Status s = q.Validate();
  if (!s.ok()) return s;
  if (q.Kind() != QueryKind::kCq) {
    return Status::InvalidArgument(
        "FprasCountCq requires a pure CQ (no disequalities or negations); "
        "use ApproxCountAnswers for DCQs/ECQs");
  }
  s = q.CheckAgainstDatabase(db);
  if (!s.ok()) return s;

  Hypergraph h = q.BuildHypergraph();
  FWidthResult width =
      opts.precomputed_decomposition
          ? *opts.precomputed_decomposition
          : ComputeDecomposition(h, opts.objective,
                                 opts.exact_decomposition_limit);
  NiceTreeDecomposition nice =
      NiceTreeDecomposition::FromTreeDecomposition(h, width.decomposition);

  FprasResult result;
  result.fhw = FhwOfDecomposition(h, nice.ToTreeDecomposition());
  result.decomposition_nodes = nice.num_nodes();
  CQLOG(kInfo) << "FPRAS: nice decomposition with " << nice.num_nodes()
               << " nodes, fhw " << result.fhw;

  auto estimate = AcjrCountAnswers(q, db, nice, opts.acjr);
  if (!estimate.ok()) return estimate.status();
  static_cast<EstimateOutcome&>(result) = *estimate;
  result.membership_tests = estimate->membership_tests;
  AcjrMetrics& metrics = AcjrMetrics::Get();
  metrics.invocations.Increment();
  metrics.membership_tests.Add(estimate->membership_tests);
  metrics.union_estimates.Add(estimate->union_estimates);
  return result;
}

}  // namespace cqcount
