// Regression test for the historical const-mutation data race: the boxed
// Relation sorted lazily behind const accessors (`mutable` members), so
// concurrent Contains()/PrefixRange() readers raced on the sort. The flat
// storage canonicalises eagerly; after Canonicalize() every accessor is
// genuinely read-only. This test hammers a shared relation from many
// threads — under TSan (or the Debug CI job's asserts) any reintroduced
// lazy mutation fails loudly; without TSan it still cross-checks every
// concurrent read against single-threaded ground truth.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "relational/relation.h"
#include "relational/structure.h"
#include "util/random.h"

namespace cqcount {
namespace {

Relation BuildRelation(int arity, int universe, int rows, uint64_t seed) {
  Rng rng(seed);
  Relation r(arity);
  for (int i = 0; i < rows; ++i) {
    Value* dst = r.AppendRow();
    for (int k = 0; k < arity; ++k) {
      dst[k] = static_cast<Value>(rng.UniformInt(universe));
    }
  }
  r.Canonicalize();
  return r;
}

TEST(RelationConcurrencyTest, ConcurrentContainsReaders) {
  const int kArity = 3;
  const int kUniverse = 32;
  const Relation shared = BuildRelation(kArity, kUniverse, 20000, 99);

  // Ground truth, computed single-threaded before the readers start.
  std::vector<Tuple> probes;
  std::vector<bool> expected;
  Rng rng(7);
  for (int i = 0; i < 512; ++i) {
    Tuple t(kArity);
    for (int k = 0; k < kArity; ++k) {
      t[k] = static_cast<Value>(rng.UniformInt(kUniverse + 2));
    }
    expected.push_back(shared.Contains(t));
    probes.push_back(std::move(t));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    readers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        // Offset per thread so threads touch different probes at once.
        for (size_t i = 0; i < probes.size(); ++i) {
          const size_t at = (i + w * 61) % probes.size();
          if (shared.Contains(probes[at]) != expected[at]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(shared.canonical());
}

TEST(RelationConcurrencyTest, ConcurrentMixedReadPaths) {
  const Relation shared = BuildRelation(2, 64, 50000, 1234);
  const size_t expected_size = shared.size();

  // One reference prefix scan, single-threaded.
  uint64_t expected_sum = 0;
  for (Value v = 0; v < 64; ++v) {
    const auto [lo, hi] = shared.NarrowRange(0, shared.size(), 0, v);
    for (size_t i = lo; i < hi; ++i) expected_sum += shared.At(i, 1);
  }

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < kThreads; ++w) {
    readers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        if (shared.size() != expected_size) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        uint64_t sum = 0;
        for (Value v = 0; v < 64; ++v) {
          const auto [lo, hi] = shared.NarrowRange(0, shared.size(), 0, v);
          for (size_t i = lo; i < hi; ++i) sum += shared.At(i, 1);
        }
        if (sum != expected_sum) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Full scans via views interleaved with the binary searches.
        size_t rows = 0;
        for (TupleView t : shared) {
          (void)t;
          ++rows;
        }
        if (rows != expected_size) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}


// Joiners, bag solvers and batch workers request projections of one
// shared database snapshot concurrently: each key is built once, by its
// first requester, and every thread receives that one object.
TEST(RelationConcurrencyTest, ConcurrentProjectionRequestsBuildEachKeyOnce) {
  Database db(64);
  ASSERT_TRUE(db.AdoptRelation("R", BuildRelation(3, 64, 20000, 5)).ok());
  struct Key {
    std::vector<int> positions;
    std::vector<int> same_as;
  };
  const std::vector<Key> keys = {
      {{2, 1, 0}, {}}, {{1, 0}, {}}, {{2}, {}}, {{1, 0}, {0, 1, 1}}};
  obs::Counter& built = obs::MetricRegistry::Global().GetCounter(
      "storage.projections_built", "");
  const uint64_t built_before = built.Value();

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  // seen[w][k]: what thread w received for key k (the same every round).
  std::vector<std::vector<std::shared_ptr<const Relation>>> seen(
      kThreads, std::vector<std::shared_ptr<const Relation>>(keys.size()));
  std::atomic<int> waiting{kThreads};
  std::atomic<int> changed{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < kThreads; ++w) {
    readers.emplace_back([&, w] {
      // Start together, so first requests of one key race.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < keys.size(); ++i) {
          // Odd threads walk the keys backwards, so different keys are
          // requested concurrently too.
          const size_t k = w % 2 == 0 ? i : keys.size() - 1 - i;
          auto p = db.Projection("R", keys[k].positions, keys[k].same_as);
          if (round > 0 && p != seen[w][k]) changed.fetch_add(1);
          seen[w][k] = std::move(p);
        }
      }
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(changed.load(), 0);
  EXPECT_EQ(built.Value() - built_before, keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    for (int w = 1; w < kThreads; ++w) {
      EXPECT_EQ(seen[w][k], seen[0][k]) << "key " << k << " thread " << w;
    }
    EXPECT_EQ(*seen[0][k],
              db.relation("R").Project(keys[k].positions, keys[k].same_as))
        << "key " << k;
  }
}

}  // namespace
}  // namespace cqcount
