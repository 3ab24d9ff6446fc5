// Query plans for the counting engine.
//
// A QueryPlan captures everything about a query that is independent of the
// concrete variable names and can therefore be shared between isomorphic
// queries: the paper's Figure-1 classification verdict, the counting
// strategy selected from it, the (canonically numbered) tree decomposition
// the strategy runs on, and a coarse cost estimate. Plans are produced by
// BuildQueryPlan and cached by PlanCache under the canonical shape key, so
// a warm engine never recomputes a decomposition for a query shape it has
// seen before.
#ifndef CQCOUNT_ENGINE_PLAN_H_
#define CQCOUNT_ENGINE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "decomposition/width_measures.h"
#include "query/query.h"
#include "relational/structure.h"

namespace cqcount {

/// Counting strategy selected by the planner.
enum class Strategy {
  /// Exact count by the output-sensitive join (CountAnswersJoin): chosen
  /// when the join finishes within PlanOptions::exact_cost_limit nodes.
  kExact,
  /// FPTRAS over a treewidth-optimised decomposition (Theorem 5).
  kFptrasTreewidth,
  /// FPTRAS over an fhw-optimised decomposition (Theorem 13 regime).
  kFptrasFhw,
  /// Counting-automaton FPRAS for pure CQs (Theorem 16).
  kAutomataFpras,
};

/// Human-readable strategy name ("exact", "fptras-tw", ...).
const char* StrategyName(Strategy strategy);

/// The Figure-1 classification verdict for a query shape.
struct Classification {
  QueryKind kind = QueryKind::kCq;
  /// Width of the best treewidth-objective decomposition found.
  double treewidth = 0.0;
  /// Fhw of the best fhw-objective decomposition found.
  double fhw = 0.0;
  uint64_t phi_size = 0;
  int num_free = 0;
  int num_vars = 0;
  /// Theorem 5: FPTRAS in the bounded-arity regime (small treewidth).
  bool fptras_bounded_arity = false;
  /// Theorem 13: FPTRAS in the unbounded-arity regime (small fhw, no
  /// negated atoms in the way).
  bool fptras_unbounded_arity = false;
  /// Theorem 16: FPRAS (pure CQ with small fhw).
  bool fpras = false;
  /// One-line human-readable verdict citing the applicable theorems.
  std::string verdict;
};

/// Canonical shape of a query: isomorphic queries (variable renamings and
/// atom reorderings) produce the same key. `to_canonical[v]` maps query
/// variable v to its canonical index; free variables map to free canonical
/// indices.
struct CanonicalShape {
  std::string key;
  std::vector<int> to_canonical;
};

/// Computes the canonical shape. Deterministic; colour-refinement with
/// bounded individualisation, so isomorphic queries share keys in all
/// practical cases and distinct shapes never produce a false match (keys
/// encode the full query structure, not just a hash).
CanonicalShape CanonicalQueryShape(const Query& q);

/// Figure-1 boundaries: treewidth at or below kTreewidthThreshold selects
/// the Theorem 5 FPTRAS; fhw at or below kFhwThreshold selects the
/// Theorem 13 / 16 regimes.
inline constexpr double kTreewidthThreshold = 4.0;
inline constexpr double kFhwThreshold = 4.0;

/// Planner knobs (decomposition search and cost heuristics).
struct PlanOptions {
  /// Exact-width search is used for hypergraphs up to this many variables.
  int exact_decomposition_limit = 14;
  /// Cap on the join nodes (candidate values tried, summed over levels)
  /// of the exact strategy's count. The planner runs that count under the
  /// cap and selects exact when it finishes; 0 runs no count and never
  /// selects exact.
  double exact_cost_limit = 1e6;
};

/// A cached, database-name-scoped execution plan in canonical variable
/// numbering.
struct QueryPlan {
  /// Canonical shape key the plan was built for.
  std::string shape_key;
  Classification classification;
  Strategy strategy = Strategy::kExact;
  /// Decomposition objective the strategy runs with.
  WidthObjective objective = WidthObjective::kTreewidth;
  /// Decomposition of the canonical hypergraph (bags hold canonical
  /// variable indices). Instantiate per query with InstantiateDecomposition.
  FWidthResult decomposition;
  /// Cost estimate of executing the plan: the join nodes the exact count
  /// visited, or a coarse n^(width+1) figure for the estimators.
  double cost_estimate = 0.0;
};

/// Classifies q per Figure 1 without a database. It normalizes q as the
/// compile pipeline does (NormalizeQuery: nullary guards lifted out,
/// duplicate atoms merged, unused variables pruned), then runs both width
/// searches on the canonical hypergraph exactly as BuildQueryPlan runs
/// them, so the plan of a connected q carries the same classification.
Classification ClassifyQuery(const Query& q, const PlanOptions& opts);

/// Builds a plan for (q, db): classifies the shape per Figure 1, selects a
/// strategy, and computes the decomposition the strategy needs. `shape` must
/// be CanonicalQueryShape(q). Both width searches always run — even when
/// the planner ends up choosing the exact count — because the
/// classification verdict is part of every plan's provenance (Explain
/// contract); the cost is bounded by exact_decomposition_limit and
/// amortised by the cache. When db serves q, the exact count runs once
/// under PlanOptions::exact_cost_limit nodes to price the exact strategy.
QueryPlan BuildQueryPlan(const Query& q, const CanonicalShape& shape,
                         const Database& db, const PlanOptions& opts);

/// q in canonical variable numbering, with its atoms and disequalities
/// sorted: isomorphic queries give the same query, so the exact count of
/// it (and its node count) depends on the shape alone.
Query CanonicalQuery(const Query& q, const CanonicalShape& shape);

/// Maps a canonical-space decomposition back onto the variables of a query
/// with the given canonical mapping (inverse of `to_canonical`).
TreeDecomposition InstantiateDecomposition(const TreeDecomposition& canonical,
                                           const std::vector<int>& to_canonical);

}  // namespace cqcount

#endif  // CQCOUNT_ENGINE_PLAN_H_
