// Query rewrite passes (stage 1 of the compile pipeline).
//
// NormalizeQuery rewrites a parsed query into the form the planner and the
// component splitter assume, without changing its answer set:
//
//   1. duplicate-atom dedup — syntactically identical body atoms (same
//      relation, argument list and polarity) are conjunctions of the same
//      constraint; only the first occurrence is kept. Queries that differ
//      only in duplicated atoms therefore share one canonical shape and
//      one cached plan.
//   2. nullary-guard extraction — arity-0 atoms R() / !R() constrain no
//      variables: their truth is a property of the database alone. They
//      are lifted out as NullaryGuards so the execution strategies (which
//      work per-variable) never see them; the engine evaluates guards
//      directly and multiplies the 0/1 factor into the count.
//   3. unused-variable pruning — an existential variable occurring in no
//      remaining atom and no disequality is unconstrained and
//      existentially quantified away; dropping it leaves the answer set
//      unchanged. (Free variables are never pruned: an unconstrained free
//      variable multiplies the count by |U(D)|, which the component layer
//      accounts for as a trivial factor.)
//
// Passes preserve variable names, the relative order of surviving atoms
// and variables, and the free prefix, so a query that is already normal
// round-trips bit-identically.
#ifndef CQCOUNT_COMPILE_PASSES_H_
#define CQCOUNT_COMPILE_PASSES_H_

#include <string>
#include <vector>

#include "query/query.h"

namespace cqcount {

/// An arity-0 atom lifted out of the body: true on a database D iff the
/// relation is non-empty (contains the empty tuple), negated accordingly.
struct NullaryGuard {
  std::string relation;
  bool negated = false;

  bool operator==(const NullaryGuard&) const = default;
};

/// Evaluates a guard against a database (the relation must be declared).
bool GuardHolds(const NullaryGuard& guard, const Database& db);

/// What the normalization passes changed (provenance for Explain).
struct PassStats {
  int atoms_deduped = 0;
  int guards_extracted = 0;
  int variables_pruned = 0;

  bool Changed() const {
    return atoms_deduped > 0 || guards_extracted > 0 || variables_pruned > 0;
  }
};

/// A query rewritten by the normalization passes.
struct NormalizedQuery {
  Query query;
  std::vector<NullaryGuard> guards;
  /// original variable index -> normalized index (-1 when pruned).
  std::vector<int> var_map;
  PassStats stats;
};

/// Runs the three rewrite passes described above.
NormalizedQuery NormalizeQuery(const Query& q);

}  // namespace cqcount

#endif  // CQCOUNT_COMPILE_PASSES_H_
