// Compiled queries (stage 3 of the compile pipeline).
//
// CompileQuery turns one parsed query into the form the engine executes:
// the normalized query (see passes.h), its nullary guards, and the
// connected components of its Gaifman graph, each extracted as an
// independent sub-query with its own canonical shape. Because components
// share no variable and no constraint,
//
//   |Ans(phi, D)| = prod_guards [guard holds] * prod_i |Ans(phi_i, D)|,
//
// where a purely-existential component contributes the boolean factor
// [phi_i satisfiable] in {0, 1} and a free variable with no constraints
// contributes |U(D)|. The engine plans each component through the plan
// cache independently — so two different queries that share a component
// shape reuse the same cached sub-plan — and multiplies the counts,
// splitting the requested (epsilon, delta) guarantee across the factors
// (see SplitBudget).
#ifndef CQCOUNT_COMPILE_COMPILED_QUERY_H_
#define CQCOUNT_COMPILE_COMPILED_QUERY_H_

#include <cstddef>
#include <vector>

#include "compile/passes.h"
#include "engine/plan.h"
#include "query/query.h"

namespace cqcount {

/// Pipeline gates. The rewrite passes always run; benches and tests
/// disable factoring to measure the monolithic baseline.
struct CompileOptions {
  /// When false, the whole normalized query becomes one component even if
  /// its Gaifman graph is disconnected.
  bool factor_components = true;
};

/// One Gaifman component of the normalized query, as a standalone query.
struct QueryComponent {
  /// The component sub-query in dense local numbering (free-first; local
  /// order follows the normalized order, so a connected query round-trips
  /// to an identical single component).
  Query query;
  /// local variable index -> normalized-query variable index.
  std::vector<int> vars;
  /// No free variables: the component collapses to a 0/1 boolean factor.
  bool existential = false;
  /// Canonical shape of `query` (the plan-cache key material).
  CanonicalShape shape;
};

/// A query compiled for execution.
struct CompiledQuery {
  /// The rewritten query (all components stitched together).
  Query normalized;
  std::vector<NullaryGuard> guards;
  PassStats stats;
  /// Gaifman components ordered by smallest normalized variable; free
  /// variables have the smallest indices, so components with free
  /// variables come first.
  std::vector<QueryComponent> components;

  size_t num_components() const { return components.size(); }
  /// Components contributing a real count (not a boolean factor).
  size_t num_counting_components() const;
};

/// Runs the full pipeline: normalization passes, Gaifman split, canonical
/// shapes. Pure function of (q, opts) — safe to call concurrently.
CompiledQuery CompileQuery(const Query& q, const CompileOptions& opts = {});

/// Per-component share of a requested (epsilon, delta) accuracy target.
///
/// With k = `counting_components` estimated factors, giving each factor a
/// relative-error budget eps_i = eps / (2k) makes the product land within
/// the requested interval: (1 + eps/(2k))^k <= e^{eps/2} <= 1 + eps and
/// (1 - eps/(2k))^k >= 1 - eps/2 for eps in (0, 1]. Failure probability is
/// a union bound over all `total_components` factors: delta_i = delta / n.
/// Purely-existential factors only need their 0/1 value preserved, which
/// any relative-error estimate does, so they run at a fixed loose epsilon
/// and don't consume the epsilon budget. Single-factor queries pass
/// through unchanged (bitwise-compatible with the unfactored engine).
struct BudgetShare {
  double epsilon = 0.0;
  double delta = 0.0;
};
BudgetShare SplitBudget(double epsilon, double delta,
                        size_t counting_components, size_t total_components,
                        bool existential);

}  // namespace cqcount

#endif  // CQCOUNT_COMPILE_COMPILED_QUERY_H_
