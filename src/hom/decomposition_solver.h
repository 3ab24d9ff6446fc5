// Tree-decomposition-based homomorphism solving (the engine behind
// Theorem 31 / Theorem 36 oracle calls).
//
// Given a query, a database and a tree decomposition of H(phi), the solver
// decides solution existence (and counts full solutions exactly) by the
// classic bag-relation + semijoin dynamic program. Negated atoms are
// enforced inside the bag that contains them (every negated atom's
// variable set is a hyperedge of H(phi), Definition 3, hence inside some
// bag). Disequalities are NOT handled here: the paper's colour-coding
// layer (Lemma 30) turns them into the per-variable domain restrictions
// this solver accepts.
//
// Hot path: the colour-coding FPTRAS issues MANY decisions against one
// solver — thousands of EdgeFree calls per count, each up to
// ceil(ln 1/delta')·4^|Delta| colouring trials (Lemma 22). Re-running the
// monolithic DP (re-materialising every bag join) per trial is the
// dominant cost, so decisions run through a prepare/evaluate split:
//   1. per solver: each bag's UNRESTRICTED join is materialised once and
//      cached (the query-shape work, shared by every oracle call);
//   2. per EdgeFree call (Prepare): cached rows are filtered by the V_i
//      part restrictions — fixed across trials — and the trial-invariant
//      part of the DP (bags whose subtree touches no disequality
//      endpoint) runs once, caching surviving rows and child tables;
//   3. per trial (DecidePrepared): only bags whose subtree contains a
//      disequality endpoint re-filter by the trial's colour bitmask and
//      re-aggregate, with existence-only semijoins and first-witness
//      early exit at the root.
// A query with no disequalities degenerates to step 2 entirely: a trial
// is a cached-verdict lookup.
//
// Concurrency model (the intra-query parallel estimation path): the
// solver's state is layered by mutability.
//   - Construction state (decomposition topology, per-bag joiners) and
//     the step-1 bag-row cache with its column indexes are IMMUTABLE once
//     built; the cache build itself is mutex-guarded and idempotent, so
//     any number of workers may share one solver.
//   - Everything per-call and per-trial lives in a SolverEvalContext.
//     Each worker lane (a HomLane of the decomposition oracle) owns one
//     context and runs its Prepare and every DecidePrepared on it; lanes
//     on distinct contexts never touch shared mutable state and may run
//     fully concurrently. The solver owns no context.
#ifndef CQCOUNT_HOM_DECOMPOSITION_SOLVER_H_
#define CQCOUNT_HOM_DECOMPOSITION_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "decomposition/tree_decomposition.h"
#include "hom/join.h"
#include "query/query.h"
#include "relational/structure.h"

namespace cqcount {

/// Per-worker evaluation state: the scratch of one Prepare (call state,
/// rebuilt per EdgeFree call) plus the per-trial scratch its decisions
/// use (epoch-stamped semijoin tables, overlay buffers). One context must
/// never be used from two threads at once; distinct contexts are fully
/// independent. A context serves one solver for its whole life.
class SolverEvalContext {
 public:
  SolverEvalContext();
  ~SolverEvalContext();
  SolverEvalContext(SolverEvalContext&&) noexcept;
  SolverEvalContext& operator=(SolverEvalContext&&) noexcept;

 private:
  friend class DecompositionSolver;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Decision / exact-counting DP over a tree decomposition.
///
/// Thread-compatible: the construction state and the bag-row cache are
/// shared and immutable (the cache build is internally synchronised);
/// concurrent callers must each use their own SolverEvalContext.
class DecompositionSolver {
 public:
  /// Observability of the prepare/evaluate split (plumbed up into engine
  /// provenance so perf work shows up in Explain output).
  struct DpStats {
    /// Total rows in the per-solver unrestricted bag-join cache.
    uint64_t cached_bag_rows = 0;
    /// False when the cache cap was hit and decisions fell back to the
    /// monolithic per-call DP.
    bool prepared_path = true;
  };

  /// `td` must be a valid decomposition of H(q); the query and database
  /// must outlive the solver.
  DecompositionSolver(const Query& q, const Database& db,
                      TreeDecomposition td);
  ~DecompositionSolver();

  /// True iff (phi, D) has a solution (ignoring disequalities) whose values
  /// respect `domains` (may be null). Monolithic evaluation (one-shot
  /// callers and the property-test reference for the prepared path).
  /// Const and thread-safe: uses only local scratch.
  bool Decide(const VarDomains* domains) const;

  /// Exact number of solutions (ignoring disequalities) respecting
  /// `domains`. Returned as double: counts can exceed 2^64 for large
  /// databases; all tests use exactly-representable ranges.
  double CountSolutions(const VarDomains* domains) const;

  /// Prepares `ctx` for trial decisions: `base` (the V_i restrictions
  /// of one EdgeFree call) is fixed; each DecidePrepared overlays masks on
  /// `overlay_vars` only (the disequality endpoints). `base` is only read
  /// during this call. Calls on distinct contexts may run concurrently
  /// (the bag-row cache is shared and immutable).
  void Prepare(const VarDomains& base, const std::vector<int>& overlay_vars,
               SolverEvalContext& ctx);

  /// True iff a solution exists under the base domains of `ctx`'s last
  /// Prepare intersected with `extra`. Every `extra.var` must be among
  /// that Prepare's overlay vars. Reuses the trial-invariant DP state
  /// Prepare left in `ctx`, and writes no state outside `ctx`.
  bool DecidePrepared(SolverEvalContext& ctx,
                      const std::vector<DomainRestriction>& extra) const;

  const TreeDecomposition& decomposition() const { return td_; }
  /// Snapshot of the bag-row cache's size and state.
  DpStats dp_stats() const;

 private:
  // Shared bottom-up pass. If `total` is null, performs the decision
  // variant; otherwise computes per-tuple extension counts.
  bool RunDp(const VarDomains* domains, double* total) const;

  // Materialises and caches every bag's unrestricted join (idempotent,
  // mutex-guarded; the cache is immutable once state_ is published).
  // Returns false when a cap was exceeded (cache disabled).
  bool EnsureBagRowCache();

  const Query& query_;
  const Database& db_;
  TreeDecomposition td_;
  std::vector<std::vector<int>> children_;
  std::vector<int> parent_;
  std::vector<int> post_order_;
  // Positions of the parent-shared variables, within the child bag and
  // within the parent bag (indexed by child node).
  std::vector<std::vector<int>> shared_in_child_;
  std::vector<std::vector<int>> shared_in_parent_;
  // Pre-projected per-bag joiners: the (domain-independent) projection
  // work is hoisted here.
  std::vector<BagJoiner> joiners_;
  // Per-solver cache of unrestricted bag joins (step 1 of the split),
  // shared and immutable after the build completes.
  // 0 = not built, 1 = built, 2 = over cap (prepared path disabled).
  std::mutex cache_mu_;
  std::atomic<int> bag_row_cache_state_{0};
  std::vector<FlatTuples> bag_rows_;
  // Per (bag, column) value index over the cached rows: `perm` lists row
  // indices ordered by the column's value, `starts[v]..starts[v+1]` is
  // the run with value v. Lets Prepare stream only the rows matching the
  // most selective V_i restriction instead of scanning the whole cache
  // (cross-product bags from fill edges make that scan quadratic).
  struct ColIndex {
    std::vector<uint32_t> perm;
    std::vector<uint32_t> starts;  // universe_size + 1 offsets.
  };
  std::vector<std::vector<ColIndex>> bag_col_index_;
  // DpStats fields, written by the cache build under cache_mu_ and read
  // by dp_stats() without it.
  std::atomic<uint64_t> stat_cached_bag_rows_{0};
  std::atomic<bool> stat_prepared_path_{true};
};

}  // namespace cqcount

#endif  // CQCOUNT_HOM_DECOMPOSITION_SOLVER_H_
