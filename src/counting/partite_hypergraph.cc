#include "counting/partite_hypergraph.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "hom/backtracking.h"
#include "util/random.h"

namespace cqcount {
namespace {

// Fork of the brute-force oracle: scans the parent's (immutable) answer
// relation.
class BruteForceFork : public EdgeFreeOracle {
 public:
  explicit BruteForceFork(const Relation* answers) : answers_(answers) {}

  bool IsEdgeFree(const PartiteSubset& parts) override {
    for (TupleView answer : *answers_) {
      bool inside = true;
      for (size_t i = 0; i < answer.size(); ++i) {
        if (!parts.parts[i].Test(answer[i])) {
          inside = false;
          break;
        }
      }
      if (inside) return false;
    }
    return true;
  }

  std::unique_ptr<EdgeFreeOracle> Fork() override {
    return std::make_unique<BruteForceFork>(answers_);
  }

 private:
  const Relation* answers_;
};

}  // namespace

uint64_t HashPartiteSubset(const PartiteSubset& parts) {
  // SplitMix64 fold over (part index, words). The Bitset tail invariant
  // (bits beyond the universe are zero) makes this a pure content hash.
  uint64_t h = 0x8D26'44F9'79AD'5AC1ULL;
  for (size_t i = 0; i < parts.parts.size(); ++i) {
    h = DeriveSeed(h, i);
    const Bitset& mask = parts.parts[i];
    for (size_t w = 0; w < mask.num_words(); ++w) {
      h = DeriveSeed(h, mask.word(w));
    }
  }
  return h;
}

BruteForceEdgeFreeOracle::BruteForceEdgeFreeOracle(const Query& q,
                                                   const Database& db) {
  const int num_free = q.num_free();
  answers_ = Relation(num_free);
  EnumerateSolutions(q, db, [&](const Tuple& solution) {
    Value* dst = answers_.AppendRow();
    for (int i = 0; i < num_free; ++i) dst[i] = solution[i];
    return true;
  });
  // Canonicalisation deduplicates solutions that agree on the free part.
  answers_.Canonicalize();
}

bool BruteForceEdgeFreeOracle::IsEdgeFree(const PartiteSubset& parts) {
  for (TupleView answer : answers_) {
    bool inside = true;
    for (size_t i = 0; i < answer.size(); ++i) {
      if (!parts.parts[i].Test(answer[i])) {
        inside = false;
        break;
      }
    }
    if (inside) return false;
  }
  return true;
}

std::unique_ptr<EdgeFreeOracle> BruteForceEdgeFreeOracle::Fork() {
  return std::make_unique<BruteForceFork>(&answers_);
}

bool GeneralEdgeFreeAdapter::IsEdgeFree(const GeneralPartiteSubset& parts) {
  assert(static_cast<int>(parts.parts.size()) == num_free_);
  std::vector<int> permutation(num_free_);
  std::iota(permutation.begin(), permutation.end(), 0);
  do {
    // V'_i = W_i cap U_{pi(i)}(D); then V_j = V'_{pi^{-1}(j)}.
    PartiteSubset aligned;
    aligned.parts.assign(num_free_, Bitset(universe_, false));
    bool any_empty = false;
    for (int i = 0; i < num_free_ && !any_empty; ++i) {
      const int position = permutation[i];
      bool nonempty = false;
      for (uint64_t encoded : parts.parts[i]) {
        const int pos = static_cast<int>(encoded / universe_);
        const Value value = static_cast<Value>(encoded % universe_);
        if (pos == position) {
          aligned.parts[position].Set(value);
          nonempty = true;
        }
      }
      any_empty = !nonempty;
    }
    if (any_empty) continue;
    if (!aligned_->IsEdgeFree(aligned)) return false;
  } while (std::next_permutation(permutation.begin(), permutation.end()));
  return true;
}

}  // namespace cqcount
