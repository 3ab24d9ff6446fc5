// Approximately uniform answer sampling (Section 6 of the paper).
//
// The counting problems at hand are self-partitionable: splitting a
// free-variable value range splits the answer set. The sampler descends
// the same box partition the DLM estimator uses, choosing halves with
// probability proportional to their (approximately counted) answer
// sub-counts — the Jerrum-Valiant-Vazirani counting-to-sampling direction.
// Sub-counts that resolve exactly (the estimator's enumeration fast path)
// make the descent exactly proportional. Every sub-count reads only the
// relations' canonical rows; an empty half resolves to exactly 0 in that
// fast path, so no storage-side pruning is needed. Only a sample's first,
// whole-box count runs on the DLM estimator's lanes; the descent's
// sub-counts run inline, one after the other.
#ifndef CQCOUNT_COUNTING_SAMPLER_H_
#define CQCOUNT_COUNTING_SAMPLER_H_

#include <memory>
#include <vector>

#include "counting/colour_coding.h"
#include "counting/dlm_counter.h"
#include "counting/fptras.h"
#include "counting/partite_hypergraph.h"
#include "hom/hom_oracle.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/random.h"
#include "util/status.h"

namespace cqcount {

/// Tuning for AnswerSampler.
struct SamplerOptions {
  /// Base options (decomposition objective, seeds, oracle budgets, and
  /// the lanes of each sample's whole-box count).
  ApproxOptions approx;
};

/// Reusable sampling / membership machinery for a fixed (phi, D).
/// The query and database must outlive the sampler.
class AnswerSampler {
 public:
  /// Fails when the query is invalid for the database or has no free
  /// variables (sampling needs l >= 1).
  static StatusOr<std::unique_ptr<AnswerSampler>> Create(
      const Query& q, const Database& db, const SamplerOptions& opts);

  /// Draws one approximately uniform answer. Fails with kNotFound when the
  /// answer set is (believed) empty.
  StatusOr<Tuple> SampleOne();

  /// Draws `count` answers independently (with replacement).
  StatusOr<std::vector<Tuple>> Sample(int count);

  /// One-sided membership test: is `answer` in Ans(phi, D)? (False
  /// negatives with probability <= delta; never false positives.)
  bool Member(const Tuple& answer, double delta);

 private:
  AnswerSampler(const Query& q, const Database& db,
                const SamplerOptions& opts);

  const Query& query_;
  const Database& db_;
  SamplerOptions opts_;
  std::unique_ptr<DecompositionHomOracle> hom_;
  std::unique_ptr<ColourCodingEdgeFreeOracle> oracle_;
  double width_ = 0.0;
  Rng rng_;
};

}  // namespace cqcount

#endif  // CQCOUNT_COUNTING_SAMPLER_H_
