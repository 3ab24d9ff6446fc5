// Shared helpers for the cqcount test suite: deterministic random query
// and database generators used by the property-based cross-validation
// tests.
#ifndef CQCOUNT_TESTS_TEST_UTIL_H_
#define CQCOUNT_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "hom/join.h"
#include "query/query.h"
#include "relational/structure.h"
#include "util/bitset.h"
#include "util/estimate_outcome.h"
#include "util/random.h"

namespace cqcount {
namespace testing_util {

/// Literal-friendly Bitset builder: MaskOf({true, false, true}).
inline Bitset MaskOf(std::initializer_list<bool> bits) {
  Bitset mask(bits.size(), false);
  size_t i = 0;
  for (bool b : bits) {
    if (b) mask.Set(i);
    ++i;
  }
  return mask;
}

/// The monolithic reference for an overlaid Hom decision: `base` with
/// each `extra` mask intersected in (an empty domain adopts the mask).
inline VarDomains MergeOverlay(const Query& q, const VarDomains& base,
                               const std::vector<DomainRestriction>& extra) {
  VarDomains merged = base;
  if (merged.allowed.empty()) merged.allowed.resize(q.num_vars());
  for (const DomainRestriction& r : extra) {
    Bitset& domain = merged.allowed[static_cast<size_t>(r.var)];
    if (domain.empty()) {
      domain = *r.mask;
    } else {
      domain.IntersectWith(*r.mask);
    }
  }
  return merged;
}

/// Out-of-range accuracy targets every estimator entry point must reject
/// with INVALID_ARGUMENT: NaN, 0, 1 and -1 as epsilon, then as delta, of
/// otherwise default inputs.
inline std::vector<EstimateInputs> BadAccuracyInputs() {
  std::vector<EstimateInputs> bad;
  for (double v : {std::nan(""), 0.0, 1.0, -1.0}) {
    bad.emplace_back().epsilon = v;
    bad.emplace_back().delta = v;
  }
  return bad;
}

/// Mutant number `mutant` of an untrusted-input seed `text`, for the
/// seeded mutation tests. By `mutant % 3`: a truncation, 1-4 byte flips,
/// or a splice (a stretch of the text copied in at another position). A
/// pure function of (text, mutant).
inline std::string MutateText(const std::string& text, uint64_t mutant) {
  Rng rng(DeriveSeed(0x7E57AB1EULL, mutant));
  std::string out = text;
  if (out.empty()) return out;
  switch (mutant % 3) {
    case 0:
      out.resize(rng.UniformInt(out.size()));
      break;
    case 1: {
      const uint64_t flips = 1 + rng.UniformInt(4);
      for (uint64_t f = 0; f < flips; ++f) {
        out[rng.UniformInt(out.size())] ^=
            static_cast<char>(1 + rng.UniformInt(255));
      }
      break;
    }
    default: {
      const size_t from = rng.UniformInt(out.size());
      const size_t len =
          1 + rng.UniformInt(std::min<size_t>(out.size() - from, 24));
      out.insert(rng.UniformInt(out.size() + 1), out.substr(from, len));
      break;
    }
  }
  return out;
}

/// Knobs for RandomQuery.
struct RandomQueryOptions {
  int min_vars = 2;
  int max_vars = 5;
  int min_atoms = 1;
  int max_atoms = 4;
  int max_arity = 3;
  double negated_probability = 0.0;
  double disequality_probability = 0.0;
  /// If >= 0, force this free count; otherwise uniform in [0, vars].
  int forced_num_free = -1;
};

/// Generates a valid random ECQ: every variable appears in at least one
/// predicate; relation names are R0, R1, ...; arities are consistent.
inline Query RandomQuery(Rng& rng, const RandomQueryOptions& opts = {}) {
  const int num_vars =
      opts.min_vars +
      static_cast<int>(rng.UniformInt(opts.max_vars - opts.min_vars + 1));
  Query q;
  for (int v = 0; v < num_vars; ++v) {
    q.AddVariable("v" + std::to_string(v));
  }
  const int num_free =
      opts.forced_num_free >= 0
          ? opts.forced_num_free
          : static_cast<int>(rng.UniformInt(num_vars + 1));
  q.SetNumFree(num_free);

  const int num_atoms =
      opts.min_atoms +
      static_cast<int>(rng.UniformInt(opts.max_atoms - opts.min_atoms + 1));
  std::vector<bool> covered(num_vars, false);
  int next_relation = 0;
  for (int a = 0; a < num_atoms; ++a) {
    Atom atom;
    atom.relation = "R" + std::to_string(next_relation++);
    const int arity = 1 + static_cast<int>(rng.UniformInt(opts.max_arity));
    for (int i = 0; i < arity; ++i) {
      const int v = static_cast<int>(rng.UniformInt(num_vars));
      atom.vars.push_back(v);
      covered[v] = true;
    }
    atom.negated = rng.Bernoulli(opts.negated_probability);
    q.AddAtom(std::move(atom));
  }
  // Cover any unused variables with unary atoms.
  for (int v = 0; v < num_vars; ++v) {
    if (!covered[v]) {
      Atom atom;
      atom.relation = "R" + std::to_string(next_relation++);
      atom.vars = {v};
      q.AddAtom(std::move(atom));
    }
  }
  // Random disequalities.
  for (int u = 0; u < num_vars; ++u) {
    for (int w = u + 1; w < num_vars; ++w) {
      if (rng.Bernoulli(opts.disequality_probability)) {
        q.AddDisequality(u, w);
      }
    }
  }
  return q;
}

/// A database covering sig(q) with random tuples; `density` is the
/// fraction of all possible tuples present per relation.
inline Database RandomDatabaseFor(const Query& q, uint32_t universe,
                                  double density, Rng& rng) {
  Database db(universe);
  for (const Atom& atom : q.atoms()) {
    const int arity = static_cast<int>(atom.vars.size());
    (void)db.DeclareRelation(atom.relation, arity);
    // Enumerate the full space when small; sample otherwise.
    uint64_t space = 1;
    for (int i = 0; i < arity; ++i) space *= universe;
    if (space <= 4096) {
      for (uint64_t code = 0; code < space; ++code) {
        if (!rng.Bernoulli(density)) continue;
        Tuple t(arity);
        uint64_t rest = code;
        for (int i = 0; i < arity; ++i) {
          t[i] = static_cast<Value>(rest % universe);
          rest /= universe;
        }
        (void)db.AddFact(atom.relation, std::move(t));
      }
    } else {
      const uint64_t wanted = static_cast<uint64_t>(density * double(space));
      for (uint64_t k = 0; k < wanted; ++k) {
        Tuple t(arity);
        for (int i = 0; i < arity; ++i) {
          t[i] = static_cast<Value>(rng.UniformInt(universe));
        }
        (void)db.AddFact(atom.relation, std::move(t));
      }
    }
  }
  db.Canonicalize();
  return db;
}

}  // namespace testing_util
}  // namespace cqcount

#endif  // CQCOUNT_TESTS_TEST_UTIL_H_
