#include "hom/hom_oracle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "app/graph_gen.h"
#include "decomposition/elimination_order.h"
#include "query/parser.h"
#include "query/query_structures.h"
#include "test_util.h"

namespace cqcount {
namespace {

using testing_util::MergeOverlay;
using testing_util::RandomDatabaseFor;
using testing_util::RandomQuery;
using testing_util::RandomQueryOptions;

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

TEST(StructureHomTest, GraphColouringIntuition) {
  // Hom(C5 -> K3) exists (5-cycle is 3-colourable); Hom(K3 -> P2-path
  // structure) does not.
  Structure c5 = GraphToDatabase(CycleGraph(5));
  Structure k3 = GraphToDatabase(CliqueGraph(3));
  Structure p2 = GraphToDatabase(PathGraph(2));
  EXPECT_TRUE(DecideStructureHom(c5, k3));
  EXPECT_FALSE(DecideStructureHom(k3, p2));
  // Anything maps into itself.
  EXPECT_TRUE(DecideStructureHom(k3, k3));
}

TEST(StructureHomTest, OddCycleIntoBipartiteFails) {
  Structure c5 = GraphToDatabase(CycleGraph(5));
  Structure c4 = GraphToDatabase(CycleGraph(4));
  EXPECT_FALSE(DecideStructureHom(c5, c4));
  EXPECT_TRUE(DecideStructureHom(c4, c4));
}

TEST(StructureHomTest, MissingSignatureSymbolIsNo) {
  Structure a(1);
  ASSERT_TRUE(a.DeclareRelation("R", 1).ok());
  ASSERT_TRUE(a.AddFact("R", {0}).ok());
  a.Canonicalize();
  Structure b(1);
  EXPECT_FALSE(DecideStructureHom(a, b));
}

TEST(HomOracleTest, DecompositionMatchesBacktrackingOnRandomInstances) {
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(seed * 41 + 3);
    RandomQueryOptions qopts;
    qopts.negated_probability = 0.3;
    Query q = RandomQuery(rng, qopts);
    Database db = RandomDatabaseFor(q, 4, 0.4, rng);
    Hypergraph h = q.BuildHypergraph();
    DecompositionHomOracle fast(q, db,
                                DecompositionFromOrder(h, MinFillOrder(h)));
    BacktrackingHomOracle slow(q, db);
    VarDomains domains;
    domains.allowed.resize(q.num_vars());
    for (int v = 0; v < q.num_vars(); ++v) {
      if (rng.Bernoulli(0.6)) domains.allowed[v] = rng.RandomMask(4, 0.7);
    }
    EXPECT_EQ(fast.Decide(domains), slow.Decide(domains)) << q.ToString();
  }
}

// Lanes are independent: two lanes of one oracle, prepared on different
// bases and driven from two threads at once, decide every overlay as the
// oracle's one-shot Decide does on the merged domains. Covers the
// decomposition lane (one SolverEvalContext each, one shared bag-row
// cache) and the default lane (around the backtracking oracle's Decide).
TEST(HomOracleTest, LanesOnTwoThreadsMatchMergedDecide) {
  constexpr uint32_t kUniverse = 4;
  constexpr int kLanes = 2;
  constexpr int kCallsPerLane = 4;
  constexpr int kTrialsPerCall = 16;
  // One EdgeFree call's worth of work: a base and its trial overlays.
  struct Call {
    VarDomains base;
    std::vector<std::vector<Bitset>> trial_masks;  // One per overlay var.
  };
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 73 + 5);
    RandomQueryOptions qopts;
    qopts.negated_probability = 0.3;
    Query q = RandomQuery(rng, qopts);
    Database db = RandomDatabaseFor(q, kUniverse, 0.5, rng);
    Hypergraph h = q.BuildHypergraph();
    DecompositionHomOracle dp(q, db,
                              DecompositionFromOrder(h, MinFillOrder(h)));
    BacktrackingHomOracle bt(q, db);

    // Overlay vars stand in for the disequality endpoints.
    std::vector<int> overlay_vars;
    for (int v = 0; v < q.num_vars(); ++v) {
      if (rng.Bernoulli(0.5)) overlay_vars.push_back(v);
    }
    if (overlay_vars.empty()) overlay_vars.push_back(0);
    std::vector<std::vector<Call>> work(kLanes);
    for (std::vector<Call>& calls : work) {
      calls.resize(kCallsPerLane);
      for (Call& call : calls) {
        call.base.allowed.resize(q.num_vars());
        for (Bitset& domain : call.base.allowed) {
          if (rng.Bernoulli(0.5)) domain = rng.RandomMask(kUniverse, 0.7);
        }
        call.trial_masks.resize(kTrialsPerCall);
        for (std::vector<Bitset>& masks : call.trial_masks) {
          for (size_t k = 0; k < overlay_vars.size(); ++k) {
            masks.push_back(rng.RandomMask(kUniverse, 0.5));
          }
        }
      }
    }
    auto overlay = [&](const std::vector<Bitset>& masks) {
      std::vector<DomainRestriction> extra;
      for (size_t k = 0; k < overlay_vars.size(); ++k) {
        extra.push_back({overlay_vars[k], &masks[k]});
      }
      return extra;
    };

    for (HomOracle* oracle : {static_cast<HomOracle*>(&dp),
                              static_cast<HomOracle*>(&bt)}) {
      std::vector<std::unique_ptr<HomLane>> lanes;
      for (int l = 0; l < kLanes; ++l) lanes.push_back(oracle->NewLane());
      std::vector<std::vector<char>> verdicts(kLanes);
      std::atomic<int> started{0};
      std::vector<std::thread> threads;
      for (int l = 0; l < kLanes; ++l) {
        threads.emplace_back([&, l] {
          // Start together, so the two lanes' calls interleave.
          started.fetch_add(1);
          while (started.load() < kLanes) std::this_thread::yield();
          for (const Call& call : work[l]) {
            lanes[l]->Prepare(call.base, overlay_vars);
            for (const std::vector<Bitset>& masks : call.trial_masks) {
              verdicts[l].push_back(lanes[l]->Decide(overlay(masks)));
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();

      for (int l = 0; l < kLanes; ++l) {
        ASSERT_EQ(verdicts[l].size(),
                  static_cast<size_t>(kCallsPerLane * kTrialsPerCall));
        size_t i = 0;
        for (const Call& call : work[l]) {
          for (const std::vector<Bitset>& masks : call.trial_masks) {
            const VarDomains merged =
                MergeOverlay(q, call.base, overlay(masks));
            EXPECT_EQ(verdicts[l][i++] != 0, oracle->Decide(merged))
                << q.ToString() << " seed " << seed << " lane " << l;
          }
        }
      }
    }
  }
}

// Lemma 30 cross-validation: the virtual colour-coded instance (domain
// restrictions) is equivalent to the materialised Hom(A-hat, B-hat).
TEST(HomOracleTest, VirtualMatchesMaterialisedAHatBHat) {
  Query q = Parse("ans(x) :- F(x, y), F(x, z), y != z.");
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(seed + 100);
    Database db = RandomDatabaseFor(q, 4, 0.5, rng);
    // Random V_0 and random colouring of the single disequality.
    PartiteParts parts = {rng.RandomMask(4, 0.6)};
    ColouringFamily colouring = {rng.RandomMask(4, 0.5)};

    // Materialised path.
    Structure a_hat = BuildStructureAHat(q);
    auto b_hat = BuildStructureBHat(q, db, parts, colouring);
    ASSERT_TRUE(b_hat.ok());
    const bool materialised = DecideStructureHom(a_hat, *b_hat);

    // Virtual path: domains encode P_i, V_i and the colour classes.
    VarDomains domains;
    domains.allowed.resize(q.num_vars());
    domains.allowed[0] = parts[0];
    // y (index 1) must be red, z (index 2) must be blue.
    domains.allowed[1] = colouring[0];
    domains.allowed[2] = colouring[0];
    domains.allowed[2].FlipAll();
    Hypergraph h = q.BuildHypergraph();
    DecompositionHomOracle oracle(q, db,
                                  DecompositionFromOrder(h, MinFillOrder(h)));
    EXPECT_EQ(oracle.Decide(domains), materialised) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cqcount
