// Worker thread pool shared by batch execution and intra-query estimation.
//
// The executor stays deliberately dumb — a fixed set of worker threads
// draining a FIFO of closures — and has one way in, ParallelForLanes:
//
//  - It partitions an index space across a bounded number of "lanes".
//    Lane l is a single claim-loop (one thread at a time), so per-lane
//    scratch state (RNG-free oracle contexts, epoch-stamped tables) needs
//    no locking. Indices are claimed dynamically, which is safe for
//    determinism as long as the work done for index i depends only on i
//    (counter-derived seeds), never on the claiming lane.
//  - It is SELF-DRIVING: the calling thread is lane 0 of the claim loop,
//    so the caller alone completes the whole index space when the pool
//    is saturated. A full pool of lanes that each fan out again therefore
//    cannot deadlock (the classic nested-submit hang: every worker
//    blocked in a wait while the sub-tasks sit in the queue). Each call
//    waits only for its own indices.
//
// Determinism of results is achieved one level up: every unit of work
// derives its own RNG stream from a counter path via DeriveSeed (see
// util/random.h), so estimates are a pure function of the request — never
// of scheduling order or thread count.
#ifndef CQCOUNT_UTIL_EXECUTOR_H_
#define CQCOUNT_UTIL_EXECUTOR_H_

#if defined(__linux__)
#include <sched.h>
#endif

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/random.h"

namespace cqcount {

/// A fixed-size worker pool running lane-partitioned index spaces.
class Executor {
 public:
  /// Starts no thread: the workers start on the first helper lane a
  /// ParallelForLanes call submits. Records the constructing thread's CPU
  /// affinity (Linux), which every worker applies when it starts: a
  /// thread inherits its creator's mask, and the first submitter may be
  /// pinned to one CPU.
  explicit Executor(int num_threads);
  /// Runs every still-queued lane closure (each finds its index space
  /// exhausted and returns), then joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// How a lane-partitioned loop's indices were executed (informational;
  /// the split depends on scheduling, the results must not).
  struct LaneStats {
    /// Indices run by the calling thread (lane 0).
    uint64_t caller_ran = 0;
    /// Indices run by pool workers (lanes >= 1).
    uint64_t worker_ran = 0;
  };

  /// Runs `task(lane, i)` for i in [0, num_tasks) across at most
  /// `num_lanes` lanes. Each lane is a serialized claim-loop — at most one
  /// task of lane l runs at any time, and lane 0 is always the calling
  /// thread — so a task may freely use per-lane mutable scratch. Indices
  /// are claimed dynamically: the work for index i must depend only on i,
  /// not on the lane, for deterministic results. One lane runs every
  /// index on the caller in index order. Returns once every index has
  /// run. Safe to call from several threads sharing one pool and from
  /// inside a running task: the caller's own claim loop keeps the call
  /// live on a saturated pool.
  LaneStats ParallelForLanes(size_t num_tasks, int num_lanes,
                             const std::function<void(int, size_t)>& task);

  /// The configured size, whether or not the workers have started.
  int num_threads() const { return num_threads_; }

 private:
  /// Enqueues one helper lane's closure for some worker.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  const int num_threads_;
#if defined(__linux__)
  cpu_set_t affinity_{};
  bool has_affinity_ = false;
#endif
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::queue<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;  // Empty until the first Submit.
};

}  // namespace cqcount

#endif  // CQCOUNT_UTIL_EXECUTOR_H_
