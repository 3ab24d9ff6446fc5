// The answer hypergraph H(phi, D) of Definition 24, as an implicit view.
//
// H(phi,D) is l-partite and l-uniform: part i is U(D) x {i} and the
// hyperedges are exactly the answers of (phi, D) (Observation 25). The
// estimators never materialise it; all access goes through the EdgeFree
// oracle below, which is the oracle of Theorem 17 restricted to
// position-aligned parts V_i subseteq U_i(D). (Lemma 22 reduces arbitrary
// l-partite subsets to at most l! aligned calls; see
// GeneralEdgeFreeAdapter.)
#ifndef CQCOUNT_COUNTING_PARTITE_HYPERGRAPH_H_
#define CQCOUNT_COUNTING_PARTITE_HYPERGRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/query.h"
#include "relational/structure.h"
#include "util/bitset.h"

namespace cqcount {

/// Position-aligned l-partite subset: parts[i] is a packed membership
/// mask over U(D) describing V_i subseteq U_i(D).
struct PartiteSubset {
  std::vector<Bitset> parts;
};

/// Deterministic content hash of a subset (order of parts significant,
/// representation-independent thanks to the Bitset tail invariant). The
/// colour-coding oracle keys its per-call randomness on this, so every
/// worker lane — and every repeat query of the same subset — sees the
/// same colourings: the oracle behaves like one fixed random object, as
/// the Theorem 17 estimator assumes.
uint64_t HashPartiteSubset(const PartiteSubset& parts);

/// Oracle for the predicate EdgeFree(H(phi,D)[V_1..V_l]) (Theorem 17).
class EdgeFreeOracle {
 public:
  virtual ~EdgeFreeOracle() = default;

  /// True iff no answer tau has tau(x_i) in V_i for every free variable i.
  virtual bool IsEdgeFree(const PartiteSubset& parts) = 0;

  /// Forks an independently-usable view of this oracle for a concurrent
  /// worker lane: the fork shares the receiver's immutable state, owns all
  /// mutable scratch, and answers every subset exactly as the receiver
  /// would (a requirement — the estimator's determinism relies on it).
  /// Never null. Forks must not outlive the receiver.
  virtual std::unique_ptr<EdgeFreeOracle> Fork() = 0;
};

/// Ground-truth oracle that enumerates Ans(phi, D) once by brute force and
/// answers queries by scanning it. Exponential set-up; tests only.
class BruteForceEdgeFreeOracle : public EdgeFreeOracle {
 public:
  BruteForceEdgeFreeOracle(const Query& q, const Database& db);

  bool IsEdgeFree(const PartiteSubset& parts) override;

  /// The answer scan is read-only, so forks are trivial views (used by
  /// the determinism tests to exercise the parallel estimator paths).
  std::unique_ptr<EdgeFreeOracle> Fork() override;

  /// The materialised answer set (free-variable tuples, flat storage).
  const Relation& answers() const { return answers_; }

 private:
  Relation answers_;
};

/// Unaligned l-partite subset over V(H(phi,D)): members are encoded as
/// position * |U(D)| + value.
struct GeneralPartiteSubset {
  std::vector<std::vector<uint64_t>> parts;
};

/// The Lemma 22 permutation trick: evaluates EdgeFree for arbitrary
/// l-partite subsets (W_1..W_l) using at most l! aligned oracle calls
/// (H[W_1..W_l] has an edge iff some permutation pi makes
/// H[W_1 cap U_pi(1), ..] have one).
class GeneralEdgeFreeAdapter {
 public:
  GeneralEdgeFreeAdapter(EdgeFreeOracle* aligned, int num_free,
                         uint32_t universe_size)
      : aligned_(aligned), num_free_(num_free), universe_(universe_size) {}

  /// EdgeFree over an arbitrary l-partite subset.
  bool IsEdgeFree(const GeneralPartiteSubset& parts);

 private:
  EdgeFreeOracle* aligned_;
  int num_free_;
  uint32_t universe_;
};

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_PARTITE_HYPERGRAPH_H_
