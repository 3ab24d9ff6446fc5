#include "util/executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"

namespace cqcount {
namespace {

// Registry counters aggregated across every pool in the process, plus a
// live queue-depth gauge; fed per helper closure at submit/dequeue, which
// is far coarser than any sampling loop.
struct ExecutorMetrics {
  obs::Counter& submitted = obs::MetricRegistry::Global().GetCounter(
      "executor.tasks_submitted", "Closures submitted to any worker pool");
  obs::Counter& executed = obs::MetricRegistry::Global().GetCounter(
      "executor.tasks_executed", "Closures executed by pool worker threads");
  obs::Counter& lane_loops = obs::MetricRegistry::Global().GetCounter(
      "executor.lane_loops",
      "ParallelForLanes invocations (one lane-partitioned index space)");
  obs::Gauge& queue_depth = obs::MetricRegistry::Global().GetGauge(
      "executor.queue_depth", "Closures queued but not yet started, all pools");

  static ExecutorMetrics& Get() {
    static ExecutorMetrics* metrics = new ExecutorMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const ExecutorMetrics& kExecutorMetricsInit = ExecutorMetrics::Get();

}  // namespace

Executor::Executor(int num_threads) : num_threads_(std::max(1, num_threads)) {
#if defined(__linux__)
  has_affinity_ = sched_getaffinity(0, sizeof(affinity_), &affinity_) == 0;
#endif
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Executor::Submit(std::function<void()> task) {
  // Fault-injection site: degrades a spawn to inline execution on the
  // caller (the helper lane runs before Submit returns, so no lane state
  // leaks past the call).
  if (failpoint::ShouldFail("executor.spawn")) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Workers start on the first helper: an engine that only ever runs
    // one lane starts no thread.
    if (workers_.empty()) {
      workers_.reserve(num_threads_);
      for (int i = 0; i < num_threads_; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    queue_.push(std::move(task));
  }
  ExecutorMetrics::Get().submitted.Increment();
  ExecutorMetrics::Get().queue_depth.Add(1);
  work_cv_.notify_one();
}

Executor::LaneStats Executor::ParallelForLanes(
    size_t num_tasks, int num_lanes,
    const std::function<void(int, size_t)>& task) {
  LaneStats stats;
  if (num_tasks == 0) return stats;
  num_lanes = std::max(1, num_lanes);
  ExecutorMetrics::Get().lane_loops.Increment();

  // Per-call control block, shared with the helper closures (which may
  // outlive this frame by a few instructions after the last completion).
  struct Control {
    std::function<void(int, size_t)> task;
    size_t num_tasks = 0;
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> worker_ran{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t completed = 0;  // Guarded by mu.
  };
  auto control = std::make_shared<Control>();
  control->task = task;
  control->num_tasks = num_tasks;

  // One claim-loop per lane: runs indices until the space is exhausted.
  // Returns the number of indices this lane executed. Worker lanes
  // publish their tally into worker_ran BEFORE signalling completion, so
  // the caller's LaneStats never under-counts.
  auto run_lane = [](Control& c, int lane) -> uint64_t {
    uint64_t ran = 0;
    for (;;) {
      const size_t i = c.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= c.num_tasks) break;
      c.task(lane, i);
      ++ran;
    }
    if (ran > 0) {
      if (lane != 0) c.worker_ran.fetch_add(ran, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(c.mu);
      c.completed += ran;
      if (c.completed == c.num_tasks) c.done_cv.notify_all();
    }
    return ran;
  };

  // Helpers for lanes 1..num_lanes-1 (no point spawning more helpers than
  // indices). Lane 0 is the calling thread.
  const int helpers =
      static_cast<int>(std::min<size_t>(num_tasks, num_lanes) - 1);
  for (int lane = 1; lane <= helpers; ++lane) {
    Submit([control, run_lane, lane] { run_lane(*control, lane); });
  }
  stats.caller_ran = run_lane(*control, 0);

  // Wait for helper-claimed indices. This cannot deadlock even with the
  // pool fully saturated: the caller's own claim loop above drives the
  // whole index space if no helper ever gets a worker, so any index
  // still outstanding here was claimed by a helper that is RUNNING on
  // some thread — and running lanes always terminate. (Still-queued
  // helpers find the space exhausted and exit immediately.)
  {
    std::unique_lock<std::mutex> lock(control->mu);
    control->done_cv.wait(
        lock, [&] { return control->completed == control->num_tasks; });
  }
  stats.worker_ran = control->worker_ran.load(std::memory_order_relaxed);
  return stats;
}

void Executor::WorkerLoop() {
#if defined(__linux__)
  // Best effort: a worker that keeps its creator's mask still runs.
  if (has_affinity_) sched_setaffinity(0, sizeof(affinity_), &affinity_);
#endif
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      task = std::move(queue_.front());
      queue_.pop();
    }
    ExecutorMetrics::Get().executed.Increment();
    ExecutorMetrics::Get().queue_depth.Add(-1);
    task();
  }
}

}  // namespace cqcount
