#include "util/executor.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "app/workload.h"
#include "engine/engine.h"
#include "obs/metrics.h"

namespace cqcount {
namespace {

TEST(ExecutorTest, DeriveSeedIsDeterministicAndIndexSensitive) {
  EXPECT_EQ(DeriveSeed(42, 7), DeriveSeed(42, 7));
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 100; ++i) seeds.insert(DeriveSeed(42, i));
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(43, 0));
}

TEST(ExecutorTest, CallerAndEveryWorkerLaneRunEveryTaskOnce) {
  // The "caller + all workers" shape: one lane per worker plus lane 0.
  Executor executor(4);
  std::vector<std::atomic<int>> counts(500);
  executor.ParallelForLanes(counts.size(), executor.num_threads() + 1,
                            [&](int, size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

// Threads of this process, from the `Threads:` line of /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ExecutorTest, ConstructionAndOneLaneStartNoThread) {
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  {
    Executor executor(4);
    EXPECT_EQ(executor.num_threads(), 4);
    std::atomic<int> ran{0};
    executor.ParallelForLanes(10, 1, [&](int, size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
    EXPECT_EQ(ProcessThreads(), before);
    {
      // An engine's pool, set-up and one-lane counts start none either.
      CountingEngine engine;
      Rng rng(5);
      const Database db = SocialNetworkDb(30, 4.0, 0.5, rng);
      ASSERT_TRUE(engine.RegisterDatabase("g", db).ok());
      ASSERT_TRUE(
          engine.Count("ans(x) :- F(x, y), F(y, z), x != z.", "g").ok());
      EXPECT_EQ(ProcessThreads(), before);
    }
    // The first helper lane starts every worker.
    executor.ParallelForLanes(10, 2, [&](int, size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 20);
    EXPECT_EQ(ProcessThreads(), before + 4);
  }
  EXPECT_EQ(ProcessThreads(), before);
}

TEST(ExecutorTest, ConcurrentLaneLoopsDoNotInterfere) {
  // Two threads drive independent lane loops through one pool; each must
  // see exactly its own tasks complete.
  Executor executor(4);
  const int lanes = executor.num_threads() + 1;
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread ta([&] {
    executor.ParallelForLanes(200, lanes, [&](int, size_t) { a.fetch_add(1); });
    EXPECT_EQ(a.load(), 200);
  });
  std::thread tb([&] {
    executor.ParallelForLanes(300, lanes, [&](int, size_t) { b.fetch_add(1); });
    EXPECT_EQ(b.load(), 300);
  });
  ta.join();
  tb.join();
}

// Regression for the nested-submit deadlock: every worker of a saturated
// pool blocks inside a nested wait while the sub-tasks sit in the queue.
// Self-driving lane loops must complete this; the pre-fix executor hung
// here.
TEST(ExecutorTest, NestedLaneLoopsFromSaturatedPoolDoNotDeadlock) {
  Executor executor(2);
  const int lanes = executor.num_threads() + 1;
  std::atomic<int> inner{0};
  // More outer tasks than workers, each fanning out again on the pool.
  executor.ParallelForLanes(8, lanes, [&](int, size_t) {
    executor.ParallelForLanes(16, lanes,
                              [&](int, size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 8 * 16);
}

TEST(ExecutorTest, SaturatedPoolWithScopedWaitsCompletes) {
  // The literal latent-deadlock scenario: every worker of the pool is
  // occupied by an outer task that spawns sub-tasks and blocks waiting
  // for exactly those, while the sub-tasks sit in the queue with no free
  // worker. The outer tasks first wait (bounded) until every lane holds
  // one, so the inner fan-out starts on a saturated pool; the scoped
  // waits stay live because each inner caller's own claim loop drives
  // its whole index space when no helper gets a worker.
  Executor executor(2);
  const int lanes = executor.num_threads() + 1;
  std::mutex mu;
  std::condition_variable all_started;
  int started = 0;
  std::atomic<int> inner{0};
  executor.ParallelForLanes(lanes, lanes, [&](int, size_t) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (++started == lanes) all_started.notify_all();
      all_started.wait_for(lock, std::chrono::seconds(10),
                           [&] { return started == lanes; });
    }
    executor.ParallelForLanes(8, lanes,
                              [&](int, size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(started, lanes);
  EXPECT_EQ(inner.load(), lanes * 8);
}

// The workers take the CPU mask of the thread that built the pool, not
// that of the thread whose ParallelForLanes first starts them: a caller
// pinned to one CPU must not pin the whole pool there.
TEST(ExecutorTest, WorkersKeepTheConstructorsCpuMask) {
#if defined(__linux__)
  cpu_set_t constructed;
  CPU_ZERO(&constructed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(constructed), &constructed), 0);
  if (CPU_COUNT(&constructed) < 2) {
    GTEST_SKIP() << "fewer than 2 CPUs allowed";
  }
  Executor executor(2);
  // Pin the caller to its first allowed CPU until the test ends.
  struct RestoreMask {
    cpu_set_t mask;
    ~RestoreMask() { sched_setaffinity(0, sizeof(mask), &mask); }
  } restore{constructed};
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &constructed)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  // Both tasks wait (bounded) until both lanes hold one, so a worker runs
  // the second.
  std::mutex mu;
  std::condition_variable all_started;
  int started = 0;
  bool worker_ran = false;
  cpu_set_t worker_mask;
  CPU_ZERO(&worker_mask);
  executor.ParallelForLanes(2, 2, [&](int lane, size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (++started == 2) all_started.notify_all();
    all_started.wait_for(lock, std::chrono::seconds(10),
                         [&] { return started == 2; });
    if (lane != 0) {
      worker_ran =
          sched_getaffinity(0, sizeof(worker_mask), &worker_mask) == 0;
    }
  });
  ASSERT_TRUE(worker_ran);
  EXPECT_TRUE(CPU_EQUAL(&worker_mask, &constructed));
  EXPECT_FALSE(CPU_EQUAL(&worker_mask, &one));
#else
  GTEST_SKIP() << "CPU affinity is set on Linux only";
#endif
}

TEST(ExecutorTest, DeeplyNestedLanesTerminate) {
  Executor executor(2);
  std::atomic<int> leaves{0};
  executor.ParallelForLanes(4, 3, [&](int, size_t) {
    executor.ParallelForLanes(4, 3, [&](int, size_t) {
      executor.ParallelForLanes(4, 3,
                                [&](int, size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

TEST(ExecutorTest, ParallelForLanesCoversEveryIndexOnce) {
  Executor executor(4);
  std::vector<std::atomic<int>> counts(777);
  Executor::LaneStats stats = executor.ParallelForLanes(
      counts.size(), 3, [&](int lane, size_t i) {
        EXPECT_GE(lane, 0);
        EXPECT_LT(lane, 3);
        counts[i].fetch_add(1);
      });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(stats.caller_ran + stats.worker_ran, counts.size());
}

TEST(ExecutorTest, ParallelForLanesSerialisesEachLane) {
  // At most one task of a lane runs at any moment (per-lane scratch needs
  // no locking). Track per-lane reentrancy with an atomic flag per lane.
  Executor executor(4);
  constexpr int kLanes = 3;
  std::array<std::atomic<int>, kLanes> in_lane{};
  std::atomic<bool> overlap{false};
  executor.ParallelForLanes(200, kLanes, [&](int lane, size_t) {
    if (in_lane[lane].fetch_add(1) != 0) overlap.store(true);
    in_lane[lane].fetch_sub(1);
  });
  EXPECT_FALSE(overlap.load());
}

TEST(ExecutorTest, DestructorDrainsQueuedHelperClosures) {
  // A lane loop returns once its indices are done, while helper closures
  // that never got a worker may still be queued (each holds the loop's
  // control block). The destructor runs every one of them before joining.
  obs::Counter& submitted = obs::MetricRegistry::Global().GetCounter(
      "executor.tasks_submitted", "Closures submitted to any worker pool");
  obs::Counter& executed = obs::MetricRegistry::Global().GetCounter(
      "executor.tasks_executed", "Closures executed by pool worker threads");
  const uint64_t submitted_before = submitted.Value();
  const uint64_t executed_before = executed.Value();
  std::atomic<int> done{0};
  {
    Executor executor(1);
    executor.ParallelForLanes(32, 8, [&](int lane, size_t) {
      // Hold the one worker so later helpers stay queued.
      if (lane != 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 32);
  }
  EXPECT_EQ(submitted.Value() - submitted_before, 7u);
  EXPECT_EQ(executed.Value() - executed_before, 7u);
}

class BatchDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(123);
    db_ = SocialNetworkDb(250, 5.0, 0.5, rng);
    const std::vector<std::string> queries = {
        "ans(x) :- F(x, y), F(x, z), y != z.",
        "ans(x, y) :- F(x, y), Adult(x).",
        "ans(x) :- F(x, y), Adult(y), x != y.",
        "ans(x, y) :- F(x, y), !Adult(y).",
        "ans(x) :- F(x, y).",
        "ans(a) :- F(a, b), F(a, c), b != c.",
        // Atom-reordered isomorphs with *different* variable-index
        // structure: racing cold-cache plan builds must still be a pure
        // function of the shared canonical shape.
        "ans(x) :- F(y, x), F(x, z), y != z.",
        "ans(a) :- F(a, c), F(b, a), b != c.",
    };
    for (const auto& q : queries) {
      CountRequest request;
      request.query = q;
      request.database = "g";
      requests_.push_back(request);
    }
  }

  // An engine with a pool of `num_threads`: CountBatch runs one lane per
  // pool thread.
  std::unique_ptr<CountingEngine> MakeEngine(int num_threads) {
    EngineOptions opts;
    opts.num_threads = num_threads;
    auto engine = std::make_unique<CountingEngine>(opts);
    EXPECT_TRUE(engine->RegisterDatabase("g", db_).ok());
    return engine;
  }

  std::vector<double> Run(CountingEngine& engine) {
    auto results = engine.CountBatch(requests_);
    std::vector<double> estimates;
    for (const auto& r : results) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      estimates.push_back(r.ok() ? r->estimate : -1.0);
    }
    return estimates;
  }

  std::vector<double> Run(int num_threads) {
    return Run(*MakeEngine(num_threads));
  }

  Database db_;
  std::vector<CountRequest> requests_;
};

TEST_F(BatchDeterminismTest, ThreadCountDoesNotChangeEstimates) {
  const std::vector<double> single = Run(1);
  for (int threads : {2, 4, 8}) {
    const std::vector<double> multi = Run(threads);
    ASSERT_EQ(multi.size(), single.size());
    for (size_t i = 0; i < single.size(); ++i) {
      // Bitwise equality: per-item derived seeds make each estimate a pure
      // function of the request, independent of scheduling.
      EXPECT_EQ(multi[i], single[i]) << "item " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST_F(BatchDeterminismTest, RepeatedBatchesAreStable) {
  // The second batch runs on the plans the first one cached.
  auto engine = MakeEngine(4);
  EXPECT_EQ(Run(*engine), Run(*engine));
}

TEST_F(BatchDeterminismTest, BatchItemsGetDistinctSeeds) {
  // Items 0 and 5 are isomorphic queries; item seeds differ by index, so
  // the *estimates* may differ even though the plans are shared. This
  // documents that seeds are per-item, not per-shape: both runs of the
  // batch must nevertheless agree with themselves.
  auto a = MakeEngine(2)->CountBatch(requests_);
  auto b = MakeEngine(4)->CountBatch(requests_);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_EQ(a[i]->estimate, b[i]->estimate);
  }
}

TEST(CountBatchTest, ErrorsStayPositional) {
  EngineOptions opts;
  opts.num_threads = 2;
  CountingEngine engine(opts);
  Rng rng(9);
  ASSERT_TRUE(
      engine.RegisterDatabase("g", SocialNetworkDb(30, 4.0, 0.5, rng)).ok());
  std::vector<CountRequest> requests(3);
  requests[0].query = "ans(x) :- F(x, y).";
  requests[0].database = "g";
  requests[1].query = "ans(x) :- F(x,";  // Parse error.
  requests[1].database = "g";
  requests[2].query = "ans(x) :- F(x, y).";
  requests[2].database = "missing";  // Unknown database.

  auto results = engine.CountBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cqcount
