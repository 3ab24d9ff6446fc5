#include "hom/hom_oracle.h"

#include <numeric>

#include "decomposition/width_measures.h"
#include "query/query_structures.h"

namespace cqcount {
namespace {

// Default lane: keeps a private copy of the base domains and, per trial,
// swaps in only the <= 2|Delta| overlaid endpoint domains (intersected
// with the base) around the oracle's Decide — no full VarDomains copy per
// trial.
class OverlayLane : public HomLane {
 public:
  explicit OverlayLane(const HomOracle& oracle) : oracle_(oracle) {}

  void Prepare(const VarDomains& base,
               const std::vector<int>& overlay_vars) override {
    base_ = base;
    // Cover every overlaid variable even when the caller passed a shorter
    // domain vector: variables beyond it are unrestricted by
    // VarDomains::Allows' contract, and ApplyOverlay needs a slot.
    for (int v : overlay_vars) {
      if (base_.allowed.size() <= static_cast<size_t>(v)) {
        base_.allowed.resize(static_cast<size_t>(v) + 1);
      }
    }
  }

  bool Decide(const std::vector<DomainRestriction>& extra) override {
    ApplyOverlay(base_, extra, saved_);
    const bool verdict = oracle_.Decide(base_);
    RestoreOverlay(base_, saved_);
    return verdict;
  }

 private:
  const HomOracle& oracle_;
  VarDomains base_;
  SavedDomains saved_;
};

// Lane on the solver's trial-reuse DP, over a context of its own.
class DecompositionLane : public HomLane {
 public:
  explicit DecompositionLane(DecompositionSolver& solver) : solver_(solver) {}

  void Prepare(const VarDomains& base,
               const std::vector<int>& overlay_vars) override {
    solver_.Prepare(base, overlay_vars, ctx_);
  }

  bool Decide(const std::vector<DomainRestriction>& extra) override {
    return solver_.DecidePrepared(ctx_, extra);
  }

 private:
  DecompositionSolver& solver_;
  SolverEvalContext ctx_;
};

// Identity variable order over all query variables.
std::vector<int> IdentityOrder(const Query& q) {
  std::vector<int> order(static_cast<size_t>(q.num_vars()));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

BagJoiner::Options FullJoinOptions() {
  BagJoiner::Options opts;
  opts.enforce_negated = true;
  opts.enforce_disequalities = false;
  return opts;
}

}  // namespace

std::unique_ptr<HomLane> HomOracle::NewLane() {
  return std::make_unique<OverlayLane>(*this);
}

std::unique_ptr<HomLane> DecompositionHomOracle::NewLane() {
  return std::make_unique<DecompositionLane>(solver_);
}

BacktrackingHomOracle::BacktrackingHomOracle(const Query& q,
                                             const Database& db)
    : joiner_(q, db, IdentityOrder(q), FullJoinOptions()) {}

bool BacktrackingHomOracle::Decide(const VarDomains& domains) const {
  bool found = false;
  joiner_.Enumerate(&domains, [&found](const Tuple&) {
    found = true;
    return false;
  });
  return found;
}

bool DecideStructureHom(const Structure& a, const Structure& b) {
  // sig(a) must be contained in sig(b); a missing or smaller-arity symbol
  // makes a homomorphism impossible only through ill-formed input, so we
  // treat it as "no".
  for (const std::string& name : a.RelationNames()) {
    if (b.Arity(name) != a.relation(name).arity()) return false;
  }
  Query canonical = CanonicalQuery(a);
  if (canonical.num_vars() == 0) return true;  // Empty universe: trivial.
  Hypergraph h = canonical.BuildHypergraph();
  FWidthResult decomposition =
      ComputeDecomposition(h, WidthObjective::kTreewidth);
  DecompositionSolver solver(canonical, b,
                             std::move(decomposition.decomposition));
  return solver.Decide(nullptr);
}

}  // namespace cqcount
