// Brute-force baselines over full variable sets, and the exact strategy's
// answer count.
//
// The baselines enumerate Sol(phi, D) directly (all atoms, negated atoms
// AND disequalities enforced) and are exponential in the query size. They
// are the ground truth that the approximation schemes are validated
// against. CountAnswersJoin is output-sensitive instead: it pays for each
// answer with one existential witness, not with all of them.
#ifndef CQCOUNT_HOM_BACKTRACKING_H_
#define CQCOUNT_HOM_BACKTRACKING_H_

#include <cstdint>
#include <functional>

#include "query/query.h"
#include "relational/structure.h"
#include "util/estimate_outcome.h"

namespace cqcount {

/// Enumerates full solutions alpha in Sol(phi, D) (Definition 1); the
/// callback receives values indexed by variable id and returns false to
/// stop. Returns false iff stopped early.
bool EnumerateSolutions(const Query& q, const Database& db,
                        const std::function<bool(const Tuple&)>& callback);

/// |Sol(phi, D)| by enumeration.
uint64_t CountSolutionsBrute(const Query& q, const Database& db);

/// |Ans(phi, D)| (Definition 2) by enumerating solutions and collecting
/// distinct projections onto the free variables.
uint64_t CountAnswersBrute(const Query& q, const Database& db);

/// An answer count by the output-sensitive join.
struct JoinCount {
  uint64_t answers = 0;
  /// Candidate values the join tried, summed over levels.
  uint64_t nodes = 0;
  /// True when the join finished within its node budget: `answers` is
  /// then |Ans(phi, D)|, otherwise a lower bound.
  bool complete = false;
};

/// |Ans(phi, D)| by one join over vars(phi), the free variables first and
/// then the existential ones; within each group the next variable has the
/// most neighbours already placed, ties in min-fill order. Once a free
/// prefix has a solution the join moves to the next prefix, so an answer
/// costs one existential witness; a query without free variables stops
/// at its first solution. Deterministic: the same query and database give
/// the same node count. Stops after `node_budget` nodes (incomplete).
/// The first search variable is free whenever q has a free variable, so
/// answers with different values of it are different answers: the split
/// count below relies on that.
JoinCount CountAnswersJoin(const Query& q, const Database& db,
                           uint64_t node_budget = UINT64_MAX);

/// Windows the split count cuts the first search variable's values into.
inline constexpr int kJoinWindows = 64;

/// CountAnswersJoin without a budget, split into windows: the values of
/// the first search variable are cut into kJoinWindows fixed windows
/// (BagJoiner::FirstLevelCuts), one task each over one shared joiner, run
/// across `lanes` lanes of `pool` (in order on the caller when `pool` is
/// null or `lanes` is 1). The windows' answer sets are disjoint, so their
/// answers add up to the unsplit count, and so do their nodes. A query
/// without free variables, whose count stops at its first solution,
/// runs unsplit. `governor` (may be null) is checked before each window,
/// or once before the unsplit count; once it has fired the rest are
/// skipped and the count is incomplete. `parallel` receives the lanes,
/// the windows as tasks (0 when unsplit) and those a pool worker ran.
JoinCount CountAnswersJoinSplit(const Query& q, const Database& db,
                                Executor* pool, int lanes,
                                const ResourceGovernor* governor,
                                ParallelStats* parallel);

/// True iff Sol(phi, D) is non-empty.
bool DecideSolutionBrute(const Query& q, const Database& db);

}  // namespace cqcount

#endif  // CQCOUNT_HOM_BACKTRACKING_H_
