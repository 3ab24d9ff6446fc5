#include "hom/hom_oracle.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "decomposition/width_measures.h"
#include "query/query_structures.h"

namespace cqcount {
namespace {

// Default trial-reuse adapter: keeps a private copy of the base domains
// and, per trial, swaps in only the <= 2|Delta| overlaid endpoint domains
// (intersected with the base) around a plain Decide — no full VarDomains
// copy per trial.
class OverlayPreparedHom : public PreparedHom {
 public:
  OverlayPreparedHom(HomOracle* oracle, const VarDomains& base,
                     int num_vars)
      : oracle_(oracle), base_(base) {
    // Cover every overlaid variable even when the caller passed a
    // shorter (but non-empty) domain vector.
    if (base_.allowed.size() < static_cast<size_t>(num_vars)) {
      base_.allowed.resize(static_cast<size_t>(num_vars));
    }
  }

  bool Decide(const std::vector<DomainRestriction>& extra) override {
    ApplyOverlay(base_, extra, saved_);
    const bool verdict = oracle_->Decide(base_);
    RestoreOverlay(base_, saved_);
    return verdict;
  }

 private:
  HomOracle* oracle_;
  VarDomains base_;
  SavedDomains saved_;
};

// HomContext for the decomposition oracle: an independent solver
// evaluation context.
class DecompositionHomContext : public HomContext {
 public:
  explicit DecompositionHomContext(std::unique_ptr<SolverEvalContext> ctx)
      : ctx_(std::move(ctx)) {}

  SolverEvalContext& ctx() { return *ctx_; }

 private:
  std::unique_ptr<SolverEvalContext> ctx_;
};

// Prepared decisions delegated to the solver's trial-reuse DP.
class DecompositionPreparedHom : public PreparedHom {
 public:
  DecompositionPreparedHom(HomOracle* owner, PreparedDp prepared)
      : owner_(owner), prepared_(std::move(prepared)) {}

  bool Decide(const std::vector<DomainRestriction>& extra) override {
    owner_->RecordDecide();
    return prepared_.Decide(extra);
  }

 private:
  HomOracle* owner_;
  PreparedDp prepared_;
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

std::unique_ptr<PreparedHom> HomOracle::Prepare(const VarDomains& base,
                                               std::vector<int> overlay_vars,
                                               HomContext* ctx) {
  (void)ctx;
  // num_vars is unknown at this level; size the domain vector to cover
  // the largest overlaid variable. Variables beyond the vector are
  // unrestricted by VarDomains::Allows' contract.
  int max_var = -1;
  for (int v : overlay_vars) max_var = std::max(max_var, v);
  const int num_vars =
      std::max(static_cast<int>(base.allowed.size()), max_var + 1);
  return std::make_unique<OverlayPreparedHom>(this, base, num_vars);
}

std::unique_ptr<PreparedHom> DecompositionHomOracle::Prepare(
    const VarDomains& base, std::vector<int> overlay_vars, HomContext* ctx) {
  assert(ctx != nullptr);
  auto& dctx = static_cast<DecompositionHomContext&>(*ctx);
  return std::make_unique<DecompositionPreparedHom>(
      this, solver_.Prepare(base, overlay_vars, dctx.ctx()));
}

std::unique_ptr<HomContext> DecompositionHomOracle::CreateContext() {
  return std::make_unique<DecompositionHomContext>(solver_.CreateEvalContext());
}

BacktrackingHomOracle::BacktrackingHomOracle(const Query& q,
                                             const Database& db)
    : joiner_(q, db, IdentityOrder(q), FullJoinOptions()) {}

bool BacktrackingHomOracle::Decide(const VarDomains& domains) {
  RecordDecide();
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
