#include "engine/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/graph_gen.h"
#include "engine/plan.h"
#include "query/parser.h"

namespace cqcount {
namespace {

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

std::shared_ptr<const QueryPlan> PlanWithKey(const std::string& key) {
  auto plan = std::make_shared<QueryPlan>();
  plan->shape_key = key;
  return plan;
}

TEST(PlanCacheTest, LookupMissThenHit) {
  PlanCache cache(8);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", PlanWithKey("a"));
  auto hit = cache.Lookup("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->shape_key, "a");

  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, LruEvictionDropsOldest) {
  PlanCache cache(2);
  cache.Insert("a", PlanWithKey("a"));
  cache.Insert("b", PlanWithKey("b"));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // "a" is now most recent.
  cache.Insert("c", PlanWithKey("c"));    // Evicts "b".

  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Stats().entries, 2u);
}

TEST(PlanCacheTest, DistinctKeysNeverCollide) {
  // Every key shares one index; exact key comparison must keep the
  // entries apart.
  PlanCache cache(64);
  for (int i = 0; i < 32; ++i) {
    const std::string key = "shape-" + std::to_string(i);
    cache.Insert(key, PlanWithKey(key));
  }
  for (int i = 0; i < 32; ++i) {
    const std::string key = "shape-" + std::to_string(i);
    auto plan = cache.Lookup(key);
    ASSERT_NE(plan, nullptr) << key;
    EXPECT_EQ(plan->shape_key, key);
  }
}

TEST(PlanCacheTest, InsertReplacesExistingKey) {
  PlanCache cache(4);
  cache.Insert("a", PlanWithKey("old"));
  cache.Insert("a", PlanWithKey("new"));
  auto plan = cache.Lookup("a");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->shape_key, "new");
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(PlanCacheTest, ClearDropsEntriesKeepsCounters) {
  PlanCache cache(8);
  cache.Insert("a", PlanWithKey("a"));
  ASSERT_NE(cache.Lookup("a"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PlanCacheTest, ConcurrentMixedUseIsSafe) {
  PlanCache cache(32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 48);
        if (cache.Lookup(key) == nullptr) {
          cache.Insert(key, PlanWithKey(key));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  PlanCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, cache.capacity());
  EXPECT_EQ(stats.hits + stats.misses, 1600u);
}

TEST(CanonicalShapeTest, RenamedVariablesShareKey) {
  Query a = Parse("ans(x) :- F(x, y), F(x, z), y != z.");
  Query b = Parse("ans(u) :- F(u, v), F(u, w), v != w.");
  EXPECT_EQ(CanonicalQueryShape(a).key, CanonicalQueryShape(b).key);
}

TEST(CanonicalShapeTest, ReorderedAtomsShareKey) {
  Query a = Parse("ans(x, y) :- R(x, z), S(z, y), !T(x, y), x != y.");
  Query b = Parse("ans(p, q) :- !T(p, q), S(r, q), R(p, r), p != q.");
  EXPECT_EQ(CanonicalQueryShape(a).key, CanonicalQueryShape(b).key);
}

TEST(CanonicalShapeTest, DifferentShapesDiffer) {
  Query a = Parse("ans(x) :- F(x, y), F(x, z), y != z.");
  Query b = Parse("ans(x) :- F(x, y), F(x, z).");
  Query c = Parse("ans(x) :- F(x, y), G(x, z), y != z.");
  Query d = Parse("ans(x, y) :- F(x, y), F(x, z), y != z.");
  EXPECT_NE(CanonicalQueryShape(a).key, CanonicalQueryShape(b).key);
  EXPECT_NE(CanonicalQueryShape(a).key, CanonicalQueryShape(c).key);
  EXPECT_NE(CanonicalQueryShape(a).key, CanonicalQueryShape(d).key);
}

TEST(CanonicalShapeTest, NegationDistinguishesShapes) {
  Query a = Parse("ans(x, y) :- R(x, y), T(x, y).");
  Query b = Parse("ans(x, y) :- R(x, y), !T(x, y).");
  EXPECT_NE(CanonicalQueryShape(a).key, CanonicalQueryShape(b).key);
}

TEST(CanonicalShapeTest, MappingPreservesFreeVariables) {
  Query q = Parse("ans(x, y) :- R(x, z), S(z, y), x != y.");
  CanonicalShape shape = CanonicalQueryShape(q);
  ASSERT_EQ(static_cast<int>(shape.to_canonical.size()), q.num_vars());
  for (int v = 0; v < q.num_vars(); ++v) {
    EXPECT_EQ(shape.to_canonical[v] < q.num_free(), v < q.num_free());
  }
}

TEST(CanonicalShapeTest, InstantiatedDecompositionIsValid) {
  // Plan in canonical space for one presentation, instantiate for an
  // isomorphic presentation with different variable names/order.
  Query a = Parse("ans(x) :- R(x, y), S(y, z), T(z, x).");
  Query b = Parse("ans(q) :- T(r, q), S(p, r), R(q, p).");
  CanonicalShape shape_a = CanonicalQueryShape(a);
  CanonicalShape shape_b = CanonicalQueryShape(b);
  ASSERT_EQ(shape_a.key, shape_b.key);

  Database db = GraphToDatabase(CycleGraph(5), "R");
  PlanOptions opts;
  QueryPlan plan = BuildQueryPlan(a, shape_a, db, opts);

  TreeDecomposition for_b = InstantiateDecomposition(
      plan.decomposition.decomposition, shape_b.to_canonical);
  EXPECT_TRUE(for_b.Validate(b.BuildHypergraph()).ok());
}

}  // namespace
}  // namespace cqcount
