#include "hom/join.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqcount {
namespace {

using testing_util::RandomDatabaseFor;
using testing_util::RandomQuery;
using testing_util::RandomQueryOptions;

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// Reference implementation of the BagJoiner semantics: enumerate all
// assignments of `vars` and check every constraint directly.
std::vector<Tuple> NaiveBagSolutions(const Query& q, const Database& db,
                                     const std::vector<int>& vars,
                                     const VarDomains* domains,
                                     BagJoiner::Options opts) {
  std::vector<Tuple> result;
  const uint32_t n = db.universe_size();
  std::vector<int> level_of(q.num_vars(), -1);
  for (size_t d = 0; d < vars.size(); ++d) level_of[vars[d]] = int(d);
  Tuple assignment(vars.size(), 0);
  std::function<void(size_t)> rec = [&](size_t d) {
    if (d == vars.size()) {
      // Positive atoms: some fact must be consistent with the partial
      // assignment (Definition 47).
      for (const Atom& atom : q.atoms()) {
        const Relation& rel = db.relation(atom.relation);
        if (!atom.negated) {
          bool supported = false;
          for (TupleView t : rel) {
            bool consistent = true;
            for (size_t p = 0; p < atom.vars.size() && consistent; ++p) {
              // Repeated positions must agree.
              for (size_t p2 = p + 1; p2 < atom.vars.size(); ++p2) {
                if (atom.vars[p] == atom.vars[p2] && t[p] != t[p2]) {
                  consistent = false;
                  break;
                }
              }
              const int lvl = level_of[atom.vars[p]];
              if (consistent && lvl >= 0 && t[p] != assignment[lvl]) {
                consistent = false;
              }
            }
            if (consistent) {
              supported = true;
              break;
            }
          }
          if (!supported) return;
        } else if (opts.enforce_negated) {
          bool all_in = true;
          for (int v : atom.vars) all_in = all_in && level_of[v] >= 0;
          if (!all_in) continue;
          Tuple t;
          for (int v : atom.vars) t.push_back(assignment[level_of[v]]);
          if (rel.Contains(t)) return;
        }
      }
      if (opts.enforce_disequalities) {
        for (const Disequality& dq : q.disequalities()) {
          if (level_of[dq.lhs] >= 0 && level_of[dq.rhs] >= 0 &&
              assignment[level_of[dq.lhs]] ==
                  assignment[level_of[dq.rhs]]) {
            return;
          }
        }
      }
      result.push_back(assignment);
      return;
    }
    for (Value w = 0; w < n; ++w) {
      if (domains && !domains->Allows(vars[d], w)) continue;
      assignment[d] = w;
      rec(d + 1);
    }
  };
  rec(0);
  return result;
}

TEST(BagJoinerTest, SimpleTwoAtomJoin) {
  Query q = Parse("ans(x, y, z) :- R(x, y), S(y, z).");
  Database db(4);
  ASSERT_TRUE(db.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(db.DeclareRelation("S", 2).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("R", {2, 1}).ok());
  ASSERT_TRUE(db.AddFact("S", {1, 3}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0, 1, 2}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains({0, 1, 3}));
  EXPECT_TRUE(out.Contains({2, 1, 3}));
}

TEST(BagJoinerTest, EmptyPositiveRelationMeansInfeasible) {
  Query q = Parse("ans(x) :- R(x), S(x).");
  Database db(3);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.DeclareRelation("S", 1).ok());
  ASSERT_TRUE(db.AddFact("R", {0}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0}, {});
  EXPECT_TRUE(joiner.infeasible());
  EXPECT_TRUE(joiner.Materialise(nullptr).empty());
}

TEST(BagJoinerTest, EmptyBagYieldsEmptyTupleWhenFeasible) {
  Query q = Parse("ans() :- R(x).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.AddFact("R", {1}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);  // The empty assignment.
}

TEST(BagJoinerTest, RepeatedVariableInAtom) {
  Query q = Parse("ans(x) :- E(x, x).");
  Database db(3);
  ASSERT_TRUE(db.DeclareRelation("E", 2).ok());
  ASSERT_TRUE(db.AddFact("E", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("E", {2, 2}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({2}));
}

// An atom that binds every column in order reads the relation itself.
// Reversed columns, or a trailing column left unbound, read a memoised,
// deduplicated projection: built on first use, then shared.
TEST(BagJoinerTest, BorrowsOnlyAtomsBindingEveryColumnInOrder) {
  Query q = Parse("ans(x, y) :- F(x, y).");
  Database db(3);
  ASSERT_TRUE(db.DeclareRelation("F", 2).ok());
  ASSERT_TRUE(db.AddFact("F", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("F", {0, 2}).ok());
  ASSERT_TRUE(db.AddFact("F", {2, 0}).ok());
  db.Canonicalize();
  const int x = 0, y = 1;
  ASSERT_EQ(q.var_name(x), "x");
  obs::Counter& built = obs::MetricRegistry::Global().GetCounter(
      "storage.projections_built", "");
  struct Case {
    std::vector<int> bag;
    uint64_t builds;
    size_t solutions;
  };
  for (const Case& c : std::vector<Case>{{{x, y}, 0, 3},
                                         {{y, x}, 1, 3},
                                         {{x}, 1, 2},
                                         {{y, x}, 0, 3},
                                         {{x}, 0, 2}}) {
    const uint64_t before = built.Value();
    BagJoiner joiner(q, db, c.bag, {});
    EXPECT_EQ(built.Value() - before, c.builds) << c.bag.size();
    size_t solutions = 0;
    joiner.Enumerate(nullptr, [&solutions](const Tuple&) {
      ++solutions;
      return true;
    });
    EXPECT_EQ(solutions, c.solutions) << c.bag.size();
  }
}

TEST(BagJoinerTest, NegatedAtomFiltersInsideBag) {
  Query q = Parse("ans(x, y) :- R(x, y), !S(x, y).");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(db.DeclareRelation("S", 2).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 0}).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 1}).ok());
  ASSERT_TRUE(db.AddFact("S", {0, 1}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0, 1}, {});
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({0, 0}));
}

TEST(BagJoinerTest, DisequalitiesEnforcedWhenRequested) {
  Query q = Parse("ans(x, y) :- R(x, y), x != y.");
  Database db(2);
  ASSERT_TRUE(db.DeclareRelation("R", 2).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 0}).ok());
  ASSERT_TRUE(db.AddFact("R", {0, 1}).ok());
  db.Canonicalize();
  BagJoiner::Options opts;
  opts.enforce_disequalities = true;
  BagJoiner joiner(q, db, {0, 1}, opts);
  Relation out = joiner.Materialise(nullptr);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({0, 1}));
}

TEST(BagJoinerTest, DomainsRestrictValues) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(4);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  for (Value v = 0; v < 4; ++v) ASSERT_TRUE(db.AddFact("R", {v}).ok());
  db.Canonicalize();
  VarDomains domains;
  domains.allowed.resize(1);
  domains.allowed[0] = testing_util::MaskOf({false, true, false, true});
  BagJoiner joiner(q, db, {0}, {});
  Relation out = joiner.Materialise(&domains);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains({1}));
  EXPECT_TRUE(out.Contains({3}));
}

TEST(BagJoinerTest, EarlyStopViaCallback) {
  Query q = Parse("ans(x) :- R(x).");
  Database db(5);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  for (Value v = 0; v < 5; ++v) ASSERT_TRUE(db.AddFact("R", {v}).ok());
  db.Canonicalize();
  BagJoiner joiner(q, db, {0}, {});
  int seen = 0;
  const bool completed = joiner.Enumerate(nullptr, [&seen](const Tuple&) {
    return ++seen < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 2);
}

// Property: BagJoiner agrees with the naive reference on random queries,
// databases, bags and domains.
class BagJoinerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BagJoinerPropertyTest, MatchesNaiveSemantics) {
  Rng rng(GetParam() * 997 + 13);
  RandomQueryOptions qopts;
  qopts.negated_probability = 0.3;
  qopts.disequality_probability = 0.2;
  Query q = RandomQuery(rng, qopts);
  Database db = RandomDatabaseFor(q, 4, 0.45, rng);

  // Random bag in random order: each variable with probability 1/2, so
  // atoms often bind their columns out of order and read memoised
  // projections instead of the database relation.
  std::vector<int> bag;
  for (int v = 0; v < q.num_vars(); ++v) {
    if (rng.Bernoulli(0.5)) bag.push_back(v);
  }
  rng.Shuffle(bag);
  // Random domains half the time.
  VarDomains domains;
  const bool use_domains = rng.Bernoulli(0.5);
  if (use_domains) {
    domains.allowed.resize(q.num_vars());
    for (int v = 0; v < q.num_vars(); ++v) {
      if (rng.Bernoulli(0.5)) domains.allowed[v] = rng.RandomMask(4, 0.7);
    }
  }
  BagJoiner::Options opts;
  opts.enforce_negated = true;
  opts.enforce_disequalities = rng.Bernoulli(0.5);

  std::vector<Tuple> slow = NaiveBagSolutions(
      q, db, bag, use_domains ? &domains : nullptr, opts);
  std::sort(slow.begin(), slow.end());
  // The second joiner on the same database reads the projections the
  // first one built: at most four atoms, each charged less than the
  // database's Size(), stay within the memo bound.
  obs::Counter& built = obs::MetricRegistry::Global().GetCounter(
      "storage.projections_built", "");
  uint64_t built_by_first = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const uint64_t built_before = built.Value();
    BagJoiner joiner(q, db, bag, opts);
    std::vector<Tuple> fast;
    joiner.Enumerate(use_domains ? &domains : nullptr, [&](const Tuple& t) {
      fast.push_back(t);
      return true;
    });
    // Strictly increasing, so Materialise's canonicalisation has nothing
    // to sort or drop.
    for (size_t i = 1; i < fast.size(); ++i) {
      EXPECT_LT(fast[i - 1], fast[i]) << q.ToString() << " pass " << pass;
    }
    EXPECT_EQ(fast, slow) << q.ToString() << " pass " << pass;
    if (pass == 0) {
      built_by_first = built.Value() - built_before;
    } else {
      EXPECT_EQ(built.Value(), built_before)
          << q.ToString() << ": first pass built " << built_by_first;
    }
  }

  // The windows of a cut enumerate, in order and between them, exactly
  // the unwindowed assignments, and visit exactly its nodes.
  if (bag.empty()) return;
  BagJoiner joiner(q, db, bag, opts);
  uint64_t nodes = 0;
  joiner.Enumerate(use_domains ? &domains : nullptr,
                   [](const Tuple&) { return true; }, {}, &nodes);
  for (int windows : {1, 3, 64}) {
    const std::vector<Value> cuts = joiner.FirstLevelCuts(windows);
    ASSERT_EQ(cuts.size(), static_cast<size_t>(windows) + 1);
    std::vector<Tuple> split;
    uint64_t split_nodes = 0;
    for (int i = 0; i < windows; ++i) {
      EXPECT_LE(cuts[i], cuts[i + 1]);
      SearchLimits window;
      window.first_begin = cuts[i];
      window.first_end = cuts[i + 1];
      uint64_t window_nodes = 0;
      joiner.Enumerate(use_domains ? &domains : nullptr,
                       [&](const Tuple& t) {
                         split.push_back(t);
                         return true;
                       },
                       window, &window_nodes);
      split_nodes += window_nodes;
    }
    EXPECT_EQ(split, slow) << q.ToString() << " windows " << windows;
    EXPECT_EQ(split_nodes, nodes) << q.ToString() << " windows " << windows;
  }
}

// The cut follows the first level's smallest constraint, not the
// universe: values clustered in a small part of a large universe still
// fill every window about equally. Without a constraint on the first
// variable the universe is sliced evenly.
TEST(BagJoinerTest, FirstLevelCutsFollowTheSmallestConstraint) {
  Database db(10000);
  ASSERT_TRUE(db.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(db.DeclareRelation("S", 2).ok());
  for (Value v = 9000; v < 9640; ++v) ASSERT_TRUE(db.AddFact("R", {v}).ok());
  for (Value v = 0; v < 10000; ++v) {
    ASSERT_TRUE(db.AddFact("S", {v, v}).ok());
  }
  db.Canonicalize();
  const Query q = Parse("ans(x, y) :- S(x, y), R(x).");
  BagJoiner joiner(q, db, {0, 1}, {});
  const std::vector<Value> cuts = joiner.FirstLevelCuts(64);
  ASSERT_EQ(cuts.size(), 65u);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), std::numeric_limits<Value>::max());
  // R's 640 rows, 10 to a window.
  for (int i = 1; i < 64; ++i) EXPECT_EQ(cuts[i], 9000u + 10u * i);

  // y first: only a disequality binds it, so its level is unconstrained.
  const Query free_first = Parse("ans(y, x) :- R(x), x != y.");
  BagJoiner unconstrained(free_first, db, {0, 1}, {});
  const std::vector<Value> slices = unconstrained.FirstLevelCuts(64);
  for (int i = 1; i < 64; ++i) EXPECT_EQ(slices[i], 10000u * i / 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BagJoinerPropertyTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace cqcount
