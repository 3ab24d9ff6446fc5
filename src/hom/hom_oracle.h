// Hom decision oracles (the black box of Lemma 22).
//
// The FPTRAS only interacts with the homomorphism problem through this
// interface. Colour-coded instances Hom(A-hat, B-hat) are passed virtually
// as per-variable domain restrictions — observationally equivalent to the
// materialised structures of Definitions 26/28 (every added relation is
// unary), which tests cross-validate via DecideStructureHom.
//
// Lanes: the colour-coding loop fixes the V_i part restrictions once per
// EdgeFree call and then varies only the <= 2|Delta| disequality endpoint
// domains per trial. Each worker drives the oracle through its own
// HomLane from NewLane(): Prepare(base, overlay_vars) once per call, so
// the oracle can hoist all base-dependent work out of the trial loop, and
// Decide(extra) once per trial. A lane never touches another lane's
// mutable state, so lanes on distinct threads may prepare and decide
// concurrently against one oracle. The decomposition oracle backs each
// lane with its own SolverEvalContext (the solver's bag-join row cache is
// shared and immutable); every other oracle gets a default lane that
// swaps just the overlaid endpoint domains around its const, thread-safe
// Decide.
#ifndef CQCOUNT_HOM_HOM_ORACLE_H_
#define CQCOUNT_HOM_HOM_ORACLE_H_

#include <memory>
#include <vector>

#include "decomposition/tree_decomposition.h"
#include "hom/decomposition_solver.h"
#include "hom/join.h"
#include "query/query.h"
#include "relational/structure.h"

namespace cqcount {

/// One worker's view of a HomOracle: a Hom instance whose base domains are
/// fixed by Prepare and whose Decide overlays a small set of per-variable
/// masks (one colouring trial). Obtained from HomOracle::NewLane; must not
/// outlive the oracle, and one lane must never be used by two threads at
/// once.
class HomLane {
 public:
  virtual ~HomLane() = default;

  /// Fixes `base` (only read during this call) for the following
  /// decisions, each of which overlays masks on `overlay_vars` only.
  virtual void Prepare(const VarDomains& base,
                       const std::vector<int>& overlay_vars) = 0;

  /// True iff a solution exists under the prepared base intersected with
  /// `extra` (vars among the overlay vars of the last Prepare).
  virtual bool Decide(const std::vector<DomainRestriction>& extra) = 0;
};

/// Decides colour-coded homomorphism instances for a fixed (phi, D).
class HomOracle {
 public:
  virtual ~HomOracle() = default;

  /// True iff a solution (ignoring disequalities) exists under `domains`.
  /// Thread-safe.
  virtual bool Decide(const VarDomains& domains) const = 0;

  /// Mints a lane for one worker. The default lane keeps a copy of the
  /// base domains and, per decision, swaps the overlaid domains in and
  /// out around Decide; oracles with a cheaper incremental path override
  /// this.
  virtual std::unique_ptr<HomLane> NewLane();
};

/// Polynomial-time oracle via tree-decomposition DP (Theorem 31 engine; the
/// same engine serves the unbounded-arity case over an fhw-optimised
/// decomposition, standing in for Theorem 36 — README "Hot path & cost
/// model" describes the DP's prepare/evaluate split).
class DecompositionHomOracle : public HomOracle {
 public:
  DecompositionHomOracle(const Query& q, const Database& db,
                         TreeDecomposition td)
      : solver_(q, db, std::move(td)) {}

  bool Decide(const VarDomains& domains) const override {
    return solver_.Decide(&domains);
  }

  /// Lanes run on the solver's trial-reuse DP, each on its own
  /// SolverEvalContext.
  std::unique_ptr<HomLane> NewLane() override;

  /// Prepare/evaluate observability for engine provenance.
  DecompositionSolver::DpStats dp_stats() const { return solver_.dp_stats(); }

 private:
  DecompositionSolver solver_;
};

/// Exponential-time oracle via plain backtracking (cross-validation). The
/// joiner (and its identity variable order) is built once at construction
/// and reused by every Decide call.
class BacktrackingHomOracle : public HomOracle {
 public:
  BacktrackingHomOracle(const Query& q, const Database& db);

  bool Decide(const VarDomains& domains) const override;

 private:
  BagJoiner joiner_;
};

/// Decides whether a homomorphism from structure `a` to structure `b`
/// exists (sig(a) must be contained in sig(b)); used to cross-validate the
/// virtual oracle against materialised A-hat / B-hat instances.
bool DecideStructureHom(const Structure& a, const Structure& b);

}  // namespace cqcount

#endif  // CQCOUNT_HOM_HOM_ORACLE_H_
