// Generic multiway join over sorted-relation tries.
//
// BagJoiner enumerates the assignments alpha : vars -> U(D) such that
//  - for every positive atom, alpha is consistent with some fact
//    (the projection semantics of Definition 47), and
//  - every negated atom whose variables all lie in `vars` is violated by
//    no fact, and (optionally)
//  - every disequality whose endpoints both lie in `vars` holds.
//
// With `vars` = a decomposition bag this computes Sol(phi, D, B) (Lemma 48);
// the leapfrog-style pivot intersection keeps the work close to the output
// size, which is bounded by ||D||^fcn(H[B]) (Grohe-Marx / AGM). With
// `vars` = vars(phi) it enumerates full solutions (brute-force baseline).
#ifndef CQCOUNT_HOM_JOIN_H_
#define CQCOUNT_HOM_JOIN_H_

#include <functional>
#include <memory>
#include <vector>

#include "query/query.h"
#include "relational/relation.h"
#include "relational/structure.h"
#include "util/bitset.h"

namespace cqcount {

/// Per-variable domain restrictions. An empty `allowed` vector (or an empty
/// mask for a variable) means "unrestricted". The colour-coding oracle
/// (Lemma 30) expresses all of B-hat's unary relations through this type.
struct VarDomains {
  std::vector<Bitset> allowed;

  /// Variables beyond the vector's length (including the empty vector)
  /// are unrestricted, so a caller may pass a short vector covering only
  /// the restricted variables.
  bool Allows(int var, Value w) const {
    if (static_cast<size_t>(var) >= allowed.size()) return true;
    const Bitset& mask = allowed[static_cast<size_t>(var)];
    return mask.empty() || mask.Test(w);
  }
};

/// One additional restriction overlaid on top of a prepared base: the
/// domain of `var` is intersected with `*mask` (an empty base domain means
/// the intersection IS the mask). The colour-coding trial loop passes at
/// most 2·|Delta| of these per trial instead of copying whole VarDomains.
struct DomainRestriction {
  int var = 0;
  const Bitset* mask = nullptr;
};

/// Saved domains for RestoreOverlay, in application order.
using SavedDomains = std::vector<std::pair<int, Bitset>>;

/// Applies `extra` to `domains` in place (each mask intersected into its
/// variable's domain; an empty domain adopts the mask), recording the
/// previous domains in `saved` (cleared first). `domains.allowed` must
/// cover every overlaid variable.
void ApplyOverlay(VarDomains& domains,
                  const std::vector<DomainRestriction>& extra,
                  SavedDomains& saved);

/// Undoes ApplyOverlay. Restores in reverse order so that with a variable
/// overlaid twice the FIRST save (its original domain) wins.
void RestoreOverlay(VarDomains& domains, SavedDomains& saved);

/// Joint enumeration of satisfying assignments over an ordered variable set.
class BagJoiner {
 public:
  struct Options {
    /// Enforce negated atoms fully contained in `vars`.
    bool enforce_negated = true;
    /// Enforce disequalities with both endpoints in `vars`.
    bool enforce_disequalities = false;
  };

  /// `vars`: the (ordered, duplicate-free) variables to assign. The query
  /// and database must outlive the joiner. Construction copies no rows:
  /// an atom whose variables bind every column of the relation in order,
  /// none repeated, reads the database relation itself; any other atom
  /// reads its sorted projection from the database's projection memo
  /// (Structure::Projection), built once per snapshot. Per-variable
  /// domains (which change per colour-coding trial) are passed to
  /// Enumerate.
  BagJoiner(const Query& q, const Database& db, std::vector<int> vars,
            Options opts);

  /// Invokes `callback` once per satisfying assignment under `domains`
  /// (may be null), in lexicographic order of the tuple (values aligned
  /// with the `vars` order). The callback returns false to stop;
  /// Enumerate then returns false.
  bool Enumerate(const VarDomains* domains,
                 const std::function<bool(const Tuple&)>& callback) const;

  /// Materialises all satisfying assignments as a Relation over `vars`.
  Relation Materialise(const VarDomains* domains) const;

  /// True when some positive atom has an empty relation (no assignment can
  /// satisfy the query anywhere, Definition 47).
  bool infeasible() const { return infeasible_; }

  const std::vector<int>& vars() const { return vars_; }

 private:
  struct Constraint {
    // Leading columns ordered by level: the database relation or a
    // memoised projection, which `shared` keeps alive.
    const Relation* relation;
    std::shared_ptr<const Relation> shared;
    std::vector<int> levels;       // Ascending depths the columns bind.
  };
  struct NegatedCheck {
    const Relation* relation;      // Database relation of the negated atom.
    std::vector<int> atom_vars;    // Variable ids in predicate order.
    int trigger_level;             // Deepest level among atom_vars.
  };
  struct DisequalityCheck {
    int lhs_level;
    int rhs_level;                 // trigger level (the deeper one).
  };

  const Query& query_;
  const Database& db_;
  std::vector<int> vars_;
  Options opts_;
  bool infeasible_ = false;

  std::vector<Constraint> constraints_;
  // active_[d] = list of (constraint index, column index) binding level d.
  std::vector<std::vector<std::pair<int, int>>> active_;
  std::vector<std::vector<NegatedCheck>> negated_at_;
  std::vector<std::vector<DisequalityCheck>> diseq_at_;
};

}  // namespace cqcount

#endif  // CQCOUNT_HOM_JOIN_H_
