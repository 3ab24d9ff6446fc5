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
  /// True when the join finished within its node budget and before its
  /// governor fired: `answers` is then |Ans(phi, D)|, otherwise a lower
  /// bound.
  bool complete = false;
  /// The lanes the count ran on and its windows as tasks (0 when it ran
  /// as one descent).
  ParallelStats parallel;
};

/// Windows a count on several lanes cuts the first search variable's
/// values into.
inline constexpr int kJoinWindows = 64;

/// |Ans(phi, D)| by one join over vars(phi), the free variables first and
/// then the existential ones; within each group the next variable has the
/// most neighbours already placed, ties in min-fill order. Once a free
/// prefix has a solution the join moves to the next prefix, so an answer
/// costs one existential witness; a query without free variables stops
/// at its first solution. Deterministic: the same query and database give
/// the same node count. The count stops (incomplete) after `node_budget`
/// nodes, or at the first poll after `governor` (may be null) has fired
/// (SearchLimits::governor).
///
/// It runs as one descent on the caller, unless it has more than one
/// lane of `pool`, a free variable and no budget. Then the first search
/// variable, which is free, has its values cut into kJoinWindows fixed
/// windows (BagJoiner::FirstLevelCuts), one task each over one shared
/// joiner across `lanes` lanes. Answers with different values of that
/// variable are different answers, so the windows' answers add up to the
/// one descent's count, and so do their nodes.
JoinCount CountAnswersJoin(const Query& q, const Database& db,
                           uint64_t node_budget = UINT64_MAX,
                           const ResourceGovernor* governor = nullptr,
                           Executor* pool = nullptr, int lanes = 1);

/// True iff Sol(phi, D) is non-empty.
bool DecideSolutionBrute(const Query& q, const Database& db);

}  // namespace cqcount

#endif  // CQCOUNT_HOM_BACKTRACKING_H_
