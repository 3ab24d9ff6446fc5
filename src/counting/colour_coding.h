// Colour-coding simulation of the EdgeFree oracle (Lemma 30 + Lemma 22).
//
// EdgeFree(H(phi,D)[V_1..V_l]) holds iff NO collection f of per-disequality
// colourings f_eta : U(D) -> {r,b} admits a homomorphism from A-hat(phi) to
// B-hat(phi,D,V_1..V_l,f). The simulation samples
// Q = ceil(ln(1/delta')) * 4^{|Delta|} colourings uniformly; each gives one
// Hom query. A homomorphism respecting a colouring yields an edge
// (sound); a present edge is missed with probability at most delta'
// (each trial succeeds with probability >= 4^{-|Delta|}, Lemma 22).
// Without disequalities nothing is coloured: Q = 1, one exact decision.
//
// The Hom instances are passed to the oracle virtually: all of A-hat's
// additions are unary, so the instance is exactly "phi's positive/negated
// atoms + per-variable domain restrictions" (cross-validated against the
// materialised Definitions 26/28 in tests).
//
// Randomness / determinism model: the colourings of one IsEdgeFree call
// are drawn from Rng(DeriveSeed(seed, HashPartiteSubset(V_1..V_l)));
// trial t of the call uses the derived stream DeriveSeed(call_seed, t).
// Two consequences, both deliberate:
//   - Every fork of the oracle (worker lanes of the parallel estimator)
//     answers a given subset exactly as the root would, so estimates are
//     bit-identical at any thread count.
//   - Repeat queries of one subset reuse the same colourings: the oracle
//     behaves like a single fixed random object over the subset lattice,
//     which is the shape the Theorem 17 estimator conditions on (its
//     failure bound union-bounds over the distinct subsets queried).
// One call's trials run in index order on the calling lane and stop at
// the first witness; the oracle charges exactly the trials it decided to
// hom_queries(). Lanes exist one level up: the DLM estimator hands each
// lane its own fork (and with it its own HomLane).
#ifndef CQCOUNT_COUNTING_COLOUR_CODING_H_
#define CQCOUNT_COUNTING_COLOUR_CODING_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "counting/partite_hypergraph.h"
#include "hom/hom_oracle.h"
#include "query/query.h"
#include "util/cancel.h"
#include "util/random.h"

namespace cqcount {

namespace internal {
class TrialOverlay;
}  // namespace internal

/// Tuning for the colour-coding simulation.
struct ColourCodingOptions {
  /// Per-IsEdgeFree-call failure probability delta' (one-sided: only
  /// "edge-free" answers can be wrong).
  double per_call_failure = 1e-4;
  /// Deterministic seed for the colouring sampler.
  uint64_t seed = 0x5EEDC01DULL;
  /// Cooperative governance (not owned; null = ungoverned). A fired
  /// governor makes the trial loop stop early and answer "edge-free";
  /// that answer is only ever consumed by an enclosing governed estimator,
  /// which re-checks the sticky latch and discards the whole work unit, so
  /// a truncated verdict never reaches a reported estimate.
  const ResourceGovernor* governor = nullptr;
};

/// EdgeFree oracle implemented by colour-coded Hom queries (Lemma 22).
class ColourCodingEdgeFreeOracle : public EdgeFreeOracle {
 public:
  /// `hom` must outlive the oracle; `universe_size` = |U(D)|.
  ColourCodingEdgeFreeOracle(const Query& q, HomOracle* hom,
                             uint32_t universe_size,
                             const ColourCodingOptions& opts);
  ~ColourCodingEdgeFreeOracle() override;

  bool IsEdgeFree(const PartiteSubset& parts) override;

  /// Lane fork (see EdgeFreeOracle::Fork): shares the Hom oracle through
  /// a HomLane of its own and the parent's hom_queries() tally; answers
  /// every subset identically to the parent (subset-keyed colourings).
  std::unique_ptr<EdgeFreeOracle> Fork() override;

  /// Number of colouring trials used per oracle call (Q; 1 without
  /// disequalities).
  uint64_t trials_per_call() const { return trials_per_call_; }
  /// Hom queries charged to this oracle and all its forks: per call, the
  /// trials up to and including the first witness (all Q without one;
  /// one decision for disequality-free queries) — the decisions made, so
  /// the tally is the same at every lane count.
  uint64_t hom_queries() const {
    return hom_queries_->load(std::memory_order_relaxed);
  }

 private:
  const Query& query_;
  HomOracle* hom_;
  uint32_t universe_;
  uint64_t trials_per_call_;
  ColourCodingOptions opts_;
  // This oracle's lane onto `hom_`: prepared once per call, decided once
  // per trial.
  std::unique_ptr<HomLane> lane_;
  // Reusable per-trial endpoint-mask builder (only the <= 2|Delta|
  // disequality endpoint domains change across trials).
  std::unique_ptr<internal::TrialOverlay> overlay_;
  // Charged hom queries, shared by the root oracle and its forks.
  std::shared_ptr<std::atomic<uint64_t>> hom_queries_;
};

/// Amplified decision "does (phi, D) have any solution?" via colour-coded
/// Hom queries; wrong (false negative) with probability <= delta. Used for
/// the l = 0 case and for answer-membership tests. When `decisions` is
/// non-null, it receives the number of Hom decisions made (the trials up
/// to and including the first witness; one without disequalities).
bool DecideAnySolution(const Query& q, HomOracle* hom, uint32_t universe_size,
                       const VarDomains& base_domains, double delta, Rng& rng,
                       uint64_t* decisions = nullptr);

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_COLOUR_CODING_H_
