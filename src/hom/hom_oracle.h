// Hom decision oracles (the black box of Lemma 22).
//
// The FPTRAS only interacts with the homomorphism problem through this
// interface. Colour-coded instances Hom(A-hat, B-hat) are passed virtually
// as per-variable domain restrictions — observationally equivalent to the
// materialised structures of Definitions 26/28 (every added relation is
// unary), which tests cross-validate via DecideStructureHom.
//
// Two calling conventions:
//   - Decide(domains): one-shot decision, full domain set.
//   - Prepare(base, overlay_vars, ctx) -> PreparedHom: the trial-reuse
//     path. The colour-coding loop fixes the V_i part restrictions once
//     per EdgeFree call and then varies only the <= 2|Delta| disequality
//     endpoint domains per trial; PreparedHom lets the oracle hoist all
//     base-dependent work out of the trial loop. The decomposition oracle
//     backs it with the solver's prepare/evaluate DP split; any other
//     oracle gets a correct default that copies/restores just the
//     endpoint domains around a plain Decide.
//
// Concurrency: the caller holds the context. An oracle with a concurrent
// path hands out opaque HomContexts from CreateContext(), and every
// Prepare on it names one; a Prepare/Decide chain bound to one context
// never touches another context's mutable state, so worker lanes holding
// distinct contexts may prepare and decide concurrently against one
// oracle (the decomposition oracle maps contexts onto SolverEvalContexts;
// the shared bag-join row cache is immutable). A prepared call's trials
// run on its own context, one after another. An oracle whose
// CreateContext() returns null has no concurrent path: its Prepare takes
// a null context and runs sequentially.
#ifndef CQCOUNT_HOM_HOM_ORACLE_H_
#define CQCOUNT_HOM_HOM_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "decomposition/tree_decomposition.h"
#include "hom/decomposition_solver.h"
#include "hom/join.h"
#include "query/query.h"
#include "relational/structure.h"

namespace cqcount {

/// Opaque per-worker state for concurrent oracle use. Obtained from
/// HomOracle::CreateContext; one context must never be used by two
/// threads at once.
class HomContext {
 public:
  virtual ~HomContext() = default;
};

/// A Hom instance with base domains fixed; each Decide overlays a small
/// set of per-variable masks (one colouring trial). Obtained from
/// HomOracle::Prepare; must not outlive the oracle (or the context it was
/// prepared on).
class PreparedHom {
 public:
  virtual ~PreparedHom() = default;

  /// True iff a solution exists under base + `extra` (vars limited to the
  /// overlay vars declared at Prepare time). Single-threaded: runs on the
  /// context the instance was prepared on.
  virtual bool Decide(const std::vector<DomainRestriction>& extra) = 0;
};

/// Decides colour-coded homomorphism instances for a fixed (phi, D).
class HomOracle {
 public:
  virtual ~HomOracle() = default;

  /// True iff a solution (ignoring disequalities) exists under `domains`.
  virtual bool Decide(const VarDomains& domains) = 0;

  /// Prepares repeated decisions over fixed `base` domains with per-trial
  /// overlays on `overlay_vars`, on `ctx` — a context from this oracle's
  /// CreateContext(), null only when that returns null. The default
  /// ignores the context and copies and restores only the overlaid
  /// domains around Decide; oracles with a cheaper incremental path
  /// override this.
  virtual std::unique_ptr<PreparedHom> Prepare(const VarDomains& base,
                                               std::vector<int> overlay_vars,
                                               HomContext* ctx);

  /// Mints per-worker state for concurrent use; null when the oracle has
  /// no concurrent path (callers must then serialise).
  virtual std::unique_ptr<HomContext> CreateContext() { return nullptr; }

  /// Number of decisions served so far (plain and prepared).
  uint64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }

  /// Counts one decision, plain or prepared, towards num_calls().
  void RecordDecide() { num_calls_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> num_calls_{0};
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

  bool Decide(const VarDomains& domains) override {
    RecordDecide();
    return solver_.Decide(&domains);
  }

  /// Prepared decisions run on the solver's trial-reuse DP, on the
  /// solver context `ctx` (never null) wraps.
  std::unique_ptr<PreparedHom> Prepare(const VarDomains& base,
                                       std::vector<int> overlay_vars,
                                       HomContext* ctx) override;

  /// Contexts wrap independent SolverEvalContexts; the solver's bag-join
  /// cache is shared and immutable, so concurrent chains are safe.
  std::unique_ptr<HomContext> CreateContext() override;

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

  bool Decide(const VarDomains& domains) override;

 private:
  BagJoiner joiner_;
};

/// Decides whether a homomorphism from structure `a` to structure `b`
/// exists (sig(a) must be contained in sig(b)); used to cross-validate the
/// virtual oracle against materialised A-hat / B-hat instances.
bool DecideStructureHom(const Structure& a, const Structure& b);

}  // namespace cqcount

#endif  // CQCOUNT_HOM_HOM_ORACLE_H_
