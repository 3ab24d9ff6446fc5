#include "counting/dlm_counter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/failpoint.h"
#include "util/math_util.h"
#include "util/random.h"

namespace cqcount {
namespace {

// Registry mirrors of the estimator's per-result counters. Fed ONCE per
// estimate (bulk adds in DlmCountEdges), never inside the probe loops:
// the sampling hot path stays byte-identical to the uninstrumented code,
// so determinism and the <2% overhead budget hold trivially.
struct DlmMetrics {
  obs::Counter& estimates = obs::MetricRegistry::Global().GetCounter(
      "dlm.estimates", "DLM edge-count estimates computed");
  obs::Counter& exact = obs::MetricRegistry::Global().GetCounter(
      "dlm.exact_results", "Estimates resolved exactly within budget");
  obs::Counter& runs = obs::MetricRegistry::Global().GetCounter(
      "dlm.runs", "Outer-median adaptive sampling runs executed");
  obs::Counter& rounds = obs::MetricRegistry::Global().GetCounter(
      "dlm.rounds", "Adaptive refinement rounds, summed over runs");
  obs::Counter& oracle_calls = obs::MetricRegistry::Global().GetCounter(
      "dlm.oracle_calls", "Edge-free oracle probes across all phases");
  obs::Counter& exact_waves = obs::MetricRegistry::Global().GetCounter(
      "dlm.exact_waves", "Exact-phase enumeration waves executed");
  obs::Counter& abandoned = obs::MetricRegistry::Global().GetCounter(
      "dlm.abandoned_waves",
      "Exact phases abandoned at a wave boundary (budget exceeded)");
  obs::Counter& early_stops = obs::MetricRegistry::Global().GetCounter(
      "dlm.early_stops",
      "Outer-median schedules terminated early by the CLT/hard-bounds rule");
  obs::Histogram& calls_per_estimate =
      obs::MetricRegistry::Global().GetHistogram(
          "dlm.calls_per_estimate", "Oracle probes per estimate (log2 buckets)");

  static DlmMetrics& Get() {
    static DlmMetrics* metrics = new DlmMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const DlmMetrics& kDlmMetricsInit = DlmMetrics::Get();

// A product of per-part index ranges [lo, hi).
struct Box {
  std::vector<std::pair<uint32_t, uint32_t>> ranges;

  double LogVolume() const {
    double lv = 0.0;
    for (const auto& [lo, hi] : ranges) lv += std::log2(double(hi - lo));
    return lv;
  }
  bool IsSingleton() const {
    for (const auto& [lo, hi] : ranges) {
      if (hi - lo != 1) return false;
    }
    return true;
  }
  // Index of the widest part.
  int WidestPart() const {
    int best = 0;
    uint32_t width = 0;
    for (size_t i = 0; i < ranges.size(); ++i) {
      const uint32_t w = ranges[i].second - ranges[i].first;
      if (w > width) {
        width = w;
        best = static_cast<int>(i);
      }
    }
    return best;
  }
};

PartiteSubset ToSubset(const Box& box,
                       const std::vector<uint32_t>& part_sizes) {
  PartiteSubset subset;
  subset.parts.resize(box.ranges.size());
  for (size_t i = 0; i < box.ranges.size(); ++i) {
    subset.parts[i].Assign(part_sizes[i], false);
    subset.parts[i].SetRange(box.ranges[i].first, box.ranges[i].second);
  }
  return subset;
}

// Number of sub-boxes the exact phase is pre-partitioned into. A fixed
// constant — NOT a function of the lane count — so the partition (and
// with it every count and cap decision) is identical at every thread
// count; lanes merely claim sub-boxes dynamically.
constexpr int kExactPartition = 16;

// Bounds on the median of `total` (odd) values when only the first k of
// them are known (`known_sorted`, ascending) and every missing value is
// guaranteed to lie in [0, cap]: the median is smallest when all unknowns
// sink to 0 and largest when they all rise to cap. These are HARD bounds
// (not confidence bounds): an interrupted estimate's interval provably
// contains what the uninterrupted median over all `total` runs would
// have been for the same seed.
std::pair<double, double> MedianOrderBounds(
    const std::vector<double>& known_sorted, int total, double cap) {
  const int k = static_cast<int>(known_sorted.size());
  const int unknown = total - k;
  const int mid = (total - 1) / 2;
  const double lower = mid >= unknown ? known_sorted[mid - unknown] : 0.0;
  const double upper = mid < k ? known_sorted[mid] : cap;
  return {lower, upper};
}

class Estimator {
 public:
  Estimator(const std::vector<uint32_t>& part_sizes, EdgeFreeOracle& oracle,
            const DlmOptions& opts)
      : part_sizes_(part_sizes), opts_(opts) {
    lanes_.push_back(&oracle);
    if (opts_.pool != nullptr) {
      for (int l = 1; l < opts_.intra_threads; ++l) {
        forks_.push_back(oracle.Fork());
        lanes_.push_back(forks_.back().get());
      }
    }
    parallel_.lanes = static_cast<int>(lanes_.size());
  }

  StatusOr<DlmResult> Run() {
    Box full;
    for (uint32_t size : part_sizes_) {
      if (size == 0) return Finish(0.0, /*exact=*/true, /*converged=*/true, 0);
      full.ranges.push_back({0, size});
    }
    if (Checkpoint() != GovernanceState::kRunning) {
      return GovStatus("DLM estimate");
    }
    if (IsEdgeFreeSeq(full)) {
      return Finish(0.0, true, true, 0);
    }

    // Phase 1: exact enumeration within budget, partitioned into a fixed
    // set of sub-boxes counted independently (each with a deterministic
    // count cap), so lanes can claim sub-boxes without changing the
    // arithmetic.
    uint64_t exact_count = 0;
    if (ExactPhase(full, &exact_count)) {
      return Finish(static_cast<double>(exact_count), true, true, 0);
    }
    // Interruption before any sampling run: there is no completed work to
    // assemble an anytime answer from, so surface the typed cause.
    if (GovFired()) return GovStatus("DLM exact phase");

    // Phase 2: breadth-first expansion into a frontier of non-empty boxes
    // (sequential: a priority-driven loop of ~2 * max_frontier probes,
    // dwarfed by the sampling phase it feeds).
    std::vector<Box> frontier;
    uint64_t singleton_edges = 0;
    {
      obs::Span frontier_span("dlm.frontier");
      ExpandFrontier(full, opts_.max_frontier, &frontier, &singleton_edges);
    }
    if (GovFired()) return GovStatus("DLM frontier expansion");
    if (frontier.empty()) {
      // Everything resolved into singletons after all: exact.
      return Finish(static_cast<double>(singleton_edges), true, true, 0);
    }

    // Phase 3: median over independent adaptive sampling runs. Run seeds
    // are derived sequentially up front; each run then consumes only
    // counter-derived streams, so runs may execute on any lane in any
    // order. The oracle-call cap is split evenly across runs and checked
    // at round boundaries: cap outcomes are deterministic too.
    const int runs = NumRuns();
    std::vector<uint64_t> run_seeds(runs);
    {
      // The historical per-run Rng::Split() walk, precomputed up front so
      // runs can execute on any lane in any order.
      Rng rng(opts_.seed);
      for (int r = 0; r < runs; ++r) run_seeds[r] = rng.SplitSeed();
    }
    const uint64_t spent = seq_calls_ + task_calls_;
    const uint64_t remaining =
        opts_.max_oracle_calls > spent ? opts_.max_oracle_calls - spent : 0;
    if (remaining == 0) {
      // The request-level call cap was consumed by the exact/frontier
      // phases: every run would return garbage. Typed so callers can
      // distinguish "budget too small" from real failures.
      return Status::ResourceExhausted(
          "oracle-call budget exhausted before the sampling phase; raise "
          "max_oracle_calls");
    }
    const uint64_t per_run_budget = remaining / static_cast<uint64_t>(runs);

    // The early-stop rule reads completed runs in index order, so an
    // armed schedule keeps its runs on the caller.
    const bool early_stop = opts_.early_stop && runs > 1;
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(static_cast<size_t>(runs));
    StopReason stop = StopReason::kNone;
    // Runs may execute on pool threads; parent their spans on the
    // sampling phase explicitly (the implicit thread-local stack does not
    // cross threads).
    obs::Span sampling_span("dlm.sampling");
    const obs::SpanRef sampling_ref = sampling_span.ref();
    if (lanes_.size() > 1 && runs > 1 && !early_stop) {
      // Whole runs fan across lanes (each run sequential on its lane).
      outcomes.resize(static_cast<size_t>(runs));
      auto execute_run = [&](int lane, size_t r) {
        obs::Span run_span("dlm.run", sampling_ref);
        outcomes[r] = AdaptiveRun(frontier, singleton_edges, run_seeds[r],
                                  per_run_budget,
                                  *lanes_[static_cast<size_t>(lane)],
                                  /*sample_fanout=*/false);
        // Deterministic cut-point injection for governance tests: fires
        // after run r finishes (before the next run's first checkpoint).
        failpoint::ShouldFail("dlm.run_boundary");
      };
      Executor::LaneStats stats = opts_.pool->ParallelForLanes(
          static_cast<size_t>(runs), static_cast<int>(lanes_.size()),
          execute_run);
      parallel_.tasks += static_cast<uint64_t>(runs);
      parallel_.worker_tasks += stats.worker_ran;
    } else {
      // Runs in index order; with lanes, each round's sample batch fans
      // across them instead. Identical arithmetic either way — only the
      // partition of work onto threads differs.
      for (int r = 0; r < runs; ++r) {
        {
          obs::Span run_span("dlm.run", sampling_ref);
          outcomes.push_back(AdaptiveRun(
              frontier, singleton_edges, run_seeds[static_cast<size_t>(r)],
              per_run_budget, *lanes_[0],
              /*sample_fanout=*/lanes_.size() > 1));
        }
        failpoint::ShouldFail("dlm.run_boundary");
        if (!early_stop) continue;
        // Active checkpoint, not a passive GovFired() read: a cancellation
        // or deadline landing exactly at this boundary must latch before
        // the stop rule is consulted, so interruption is the typed first
        // cause even when the stop rule would also have fired here.
        if (!outcomes.back().completed ||
            Checkpoint() != GovernanceState::kRunning) {
          break;
        }
        stop = EarlyStopReason(outcomes, runs);
        if (stop != StopReason::kNone) break;
      }
    }
    return FinishSampling(outcomes, runs, stop);
  }

 private:
  struct RunOutcome {
    double estimate = 0.0;
    int rounds = 0;
    bool converged = false;
    uint64_t calls = 0;
    /// False when a governance checkpoint interrupted the run; its
    /// estimate is then discarded (only completed runs feed the median
    /// and the anytime interval).
    bool completed = true;
  };

  DlmResult Finish(double estimate, bool exact, bool converged,
                   uint64_t run_calls) const {
    DlmResult result;
    result.estimate = estimate;
    result.exact = exact;
    result.converged = converged;
    result.lower_bound = estimate;
    result.upper_bound = estimate;
    result.oracle_calls = seq_calls_ + task_calls_ + run_calls;
    // Callers accumulate total_rounds_ before finishing, so this is the
    // rounds actually executed across the runs that fed the estimate.
    result.rounds_executed = static_cast<int>(total_rounds_);
    result.parallel = parallel_;
    return result;
  }

  // Governance checkpoint: probes (and latches) the governor. One branch
  // when ungoverned, one relaxed load once latched.
  GovernanceState Checkpoint() const {
    return opts_.governor == nullptr ? GovernanceState::kRunning
                                     : opts_.governor->Check();
  }
  // Latched state only — never probes the clock, so completed work
  // observed before the latch stays valid.
  bool GovFired() const {
    return opts_.governor != nullptr && opts_.governor->fired();
  }
  Status GovStatus(const char* what) const {
    Status status = opts_.governor->ToStatus(what);
    assert(!status.ok());
    return status;
  }

  // Hard upper bound on any single run estimate: the Knuth weight of one
  // descent doubles at most ceil(log2 width) times per part, so a sample
  // (and with it every stratum mean, their sum plus the exact mass) is
  // bounded by the product of per-part powers of two. Clamped to a
  // finite double so anytime intervals always have finite endpoints.
  double PaddedVolume() const {
    double volume = 1.0;
    for (uint32_t size : part_sizes_) {
      uint64_t padded = 1;
      while (padded < size) padded <<= 1;
      volume *= static_cast<double>(padded);
      if (!std::isfinite(volume)) {
        return std::numeric_limits<double>::max();
      }
    }
    return volume;
  }

  // Anytime answer after an interruption: median of the k completed runs,
  // bracketed by hard order-statistic bounds on the full m-run median
  // (unknown runs pinned to [0, PaddedVolume()]). With k == 0 there is
  // nothing to report and the typed cause surfaces instead.
  StatusOr<DlmResult> PartialFromRuns(const std::vector<RunOutcome>& outcomes,
                                      int runs) {
    std::vector<double> completed;
    completed.reserve(outcomes.size());
    uint64_t run_calls = 0;
    int worst_rounds = 0;
    for (const RunOutcome& outcome : outcomes) {
      run_calls += outcome.calls;
      if (!outcome.completed) continue;
      completed.push_back(outcome.estimate);
      worst_rounds = std::max(worst_rounds, outcome.rounds);
      total_rounds_ += static_cast<uint64_t>(outcome.rounds);
    }
    runs_executed_ = completed.size();
    if (completed.empty()) {
      return GovStatus("DLM sampling phase");
    }
    const double estimate = Median(completed);
    std::sort(completed.begin(), completed.end());
    double cap = std::max(PaddedVolume(), completed.back());
    auto [lower, upper] =
        MedianOrderBounds(completed, runs, cap);
    StatusOr<DlmResult> result =
        Finish(estimate, /*exact=*/false, /*converged=*/false, run_calls);
    result->partial = true;
    result->stop_reason = opts_.governor->state() == GovernanceState::kCancelled
                              ? StopReason::kCancelled
                              : StopReason::kDeadlineExpired;
    result->lower_bound = lower;
    result->upper_bound = upper;
    result->refinement_rounds = worst_rounds;
    result->completed_runs = static_cast<int>(completed.size());
    result->total_runs = runs;
    return result;
  }

  // Early-stop rule, consulted at run boundaries when opts_.early_stop is
  // armed. A pure function of the completed run estimates (which are
  // themselves lane-count independent), so the stop index — and with it
  // the adaptive estimate and its oracle-call tally — is reproducible at
  // any thread count. Two ways to stop before the full schedule:
  //  - kHardBounds: the order-statistic bounds on the FULL m-run median
  //    (unknown runs pinned to [0, cap]) already pinch within epsilon.
  //    The remaining runs provably cannot move the answer outside the
  //    target, whatever they return.
  //  - kConfidence: the CLT interval over the k completed runs,
  //    z * s / sqrt(k) with z = sqrt(2 ln(2/delta)) (the sub-Gaussian
  //    two-sided quantile), is within epsilon of the mean. This is the
  //    statistical stop: per-run estimates concentrate so tightly that
  //    more median amplification is wasted work.
  StopReason EarlyStopReason(const std::vector<RunOutcome>& done,
                             int total_runs) const {
    const int k = static_cast<int>(done.size());
    if (k < kMinEarlyStopRuns || k >= total_runs) {
      return StopReason::kNone;
    }
    std::vector<double> estimates;
    estimates.reserve(done.size());
    MeanVarAccumulator acc;
    for (const RunOutcome& outcome : done) {
      estimates.push_back(outcome.estimate);
      acc.Add(outcome.estimate);
    }
    const double median = Median(estimates);  // Reorders; re-sort below.
    std::sort(estimates.begin(), estimates.end());
    const double cap = std::max(PaddedVolume(), estimates.back());
    auto [lower, upper] = MedianOrderBounds(estimates, total_runs, cap);
    if (upper - lower <= opts_.epsilon * std::max(median, 1.0)) {
      return StopReason::kHardBounds;
    }
    const double z = std::sqrt(2.0 * std::log(2.0 / opts_.delta));
    if (z * std::sqrt(acc.mean_variance()) <=
        opts_.epsilon * std::max(acc.mean(), 1.0)) {
      return StopReason::kConfidence;
    }
    return StopReason::kNone;
  }

  // The answer of phase 3 from the runs executed: the anytime partial
  // when the governor fired, else the median of `outcomes`. `stop` is the
  // early-stop verdict that cut the schedule short (kNone when it ran in
  // full).
  StatusOr<DlmResult> FinishSampling(const std::vector<RunOutcome>& outcomes,
                                     int total_runs, StopReason stop) {
    if (GovFired()) {
      // Interruption wins over a concurrent stop verdict: the anytime
      // partial (hard interval + typed cause) is the contract callers
      // rely on, whether or not early stop was armed.
      return PartialFromRuns(outcomes, total_runs);
    }
    std::vector<double> estimates;
    estimates.reserve(outcomes.size());
    int worst_rounds = 0;
    bool converged = true;
    uint64_t run_calls = 0;
    for (const RunOutcome& outcome : outcomes) {
      estimates.push_back(outcome.estimate);
      worst_rounds = std::max(worst_rounds, outcome.rounds);
      converged = converged && outcome.converged;
      run_calls += outcome.calls;
      total_rounds_ += static_cast<uint64_t>(outcome.rounds);
    }
    runs_executed_ = outcomes.size();
    StatusOr<DlmResult> result =
        Finish(Median(estimates), false, converged, run_calls);
    result->stop_reason = stop != StopReason::kNone
                              ? stop
                              : (converged ? StopReason::kFullSchedule
                                           : StopReason::kBudgetExhausted);
    result->refinement_rounds = worst_rounds;
    result->completed_runs = static_cast<int>(outcomes.size());
    result->total_runs = total_runs;
    return result;
  }

  bool SeqOverBudget() const { return seq_calls_ > opts_.max_oracle_calls; }

  // Sequential-phase probe on the root oracle (deterministic order).
  bool IsEdgeFreeSeq(const Box& box) {
    ++seq_calls_;
    return lanes_[0]->IsEdgeFree(ToSubset(box, part_sizes_));
  }

  static bool Probe(EdgeFreeOracle& oracle,
                    const std::vector<uint32_t>& part_sizes, const Box& box,
                    uint64_t* calls) {
    ++*calls;
    return oracle.IsEdgeFree(ToSubset(box, part_sizes));
  }

  std::pair<Box, Box> Split(const Box& box) const {
    const int d = box.WidestPart();
    const auto [lo, hi] = box.ranges[d];
    const uint32_t mid = lo + (hi - lo) / 2;
    Box left = box;
    Box right = box;
    left.ranges[d] = {lo, mid};
    right.ranges[d] = {mid, hi};
    return {std::move(left), std::move(right)};
  }

  // Breadth-first expansion of `root` (non-empty) into non-empty boxes:
  // the largest-volume box is split first, until `limit` boxes exist (or
  // everything resolved into singletons, or the sequential call budget
  // ran out). Singleton edges are counted into *singletons; the
  // non-singleton frontier is appended to *boxes in a deterministic
  // (priority) order. Probes run on the root oracle.
  void ExpandFrontier(const Box& root, int limit, std::vector<Box>* boxes,
                      uint64_t* singletons) {
    auto cmp = [](const Box& a, const Box& b) {
      return a.LogVolume() < b.LogVolume();
    };
    std::priority_queue<Box, std::vector<Box>, decltype(cmp)> queue(cmp);
    queue.push(root);
    while (!queue.empty() &&
           static_cast<int>(boxes->size()) + static_cast<int>(queue.size()) <
               limit &&
           !SeqOverBudget() &&
           // Iteration-boundary checkpoint: on fire, the loop drains the
           // queue into a valid (coarser) frontier and the caller decides
           // via GovFired() whether to use it.
           Checkpoint() == GovernanceState::kRunning) {
      Box box = queue.top();
      queue.pop();
      if (box.IsSingleton()) {
        ++*singletons;
        continue;
      }
      auto [left, right] = Split(box);
      const bool left_nonempty = !IsEdgeFreeSeq(left);
      // The parent box is non-empty, so if the left half is empty the
      // right half cannot be (one call saved).
      const bool right_nonempty =
          !left_nonempty ? true : !IsEdgeFreeSeq(right);
      if (left_nonempty) queue.push(std::move(left));
      if (right_nonempty) queue.push(std::move(right));
    }
    while (!queue.empty()) {
      Box box = queue.top();
      queue.pop();
      if (box.IsSingleton()) {
        ++*singletons;
      } else {
        boxes->push_back(std::move(box));
      }
    }
  }

  // Phase 1. Expands `root` (non-empty) into at most kExactPartition
  // non-empty sub-boxes (sequential, a handful of probes), then counts
  // the sub-boxes exactly in WAVES: each wave lets every live task
  // enumerate a bounded chunk of edges off its own resumable DFS stack —
  // in parallel across lanes — and the abandon decision is taken at wave
  // boundaries on the (deterministic) summed counts. The partition, the
  // chunking and therefore every count, call tally and the verdict are
  // independent of the lane count; the wasted work on abandonment is
  // bounded by one wave (~budget edges), matching the sequential
  // enumeration this replaces.
  bool ExactPhase(const Box& root, uint64_t* count) {
    obs::Span phase_span("dlm.exact_phase");
    std::vector<Box> roots;
    uint64_t singletons = 0;
    ExpandFrontier(root, kExactPartition, &roots, &singletons);
    // Interrupted during partitioning: never report a partial exact count
    // as exact — fail the phase and let Run() surface the typed cause.
    if (GovFired()) return false;
    if (singletons > opts_.exact_enumeration_budget) return false;

    struct ExactTask {
      std::vector<Box> stack;  // Invariant: boxes are non-empty.
      uint64_t count = 0;
      uint64_t calls = 0;
    };
    std::vector<ExactTask> tasks(roots.size());
    for (size_t i = 0; i < roots.size(); ++i) {
      tasks[i].stack.push_back(std::move(roots[i]));
    }
    // Edges one task may enumerate per wave: sized so one wave across all
    // tasks overshoots the budget by at most ~one budget's worth.
    const uint64_t chunk =
        opts_.exact_enumeration_budget / kExactPartition + 1;

    std::vector<size_t> live;
    auto run_task = [&](int lane, size_t slot) {
      ExactTask& task = tasks[live[slot]];
      EdgeFreeOracle& oracle = *lanes_[static_cast<size_t>(lane)];
      uint64_t wave_count = 0;
      while (!task.stack.empty() && wave_count < chunk) {
        Box box = std::move(task.stack.back());
        task.stack.pop_back();
        if (box.IsSingleton()) {
          ++task.count;
          ++wave_count;
          continue;
        }
        auto [left, right] = Split(box);
        const bool left_nonempty =
            !Probe(oracle, part_sizes_, left, &task.calls);
        const bool right_nonempty =
            !left_nonempty ? true : !Probe(oracle, part_sizes_, right,
                                           &task.calls);
        if (left_nonempty) task.stack.push_back(std::move(left));
        if (right_nonempty) task.stack.push_back(std::move(right));
      }
    };

    bool within_budget = true;
    for (;;) {
      live.clear();
      for (size_t i = 0; i < tasks.size(); ++i) {
        if (!tasks[i].stack.empty()) live.push_back(i);
      }
      if (live.empty()) break;  // Every sub-box fully enumerated.
      obs::Span wave_span("dlm.wave");
      ++exact_waves_;
      if (lanes_.size() > 1 && live.size() > 1) {
        Executor::LaneStats stats = opts_.pool->ParallelForLanes(
            live.size(), static_cast<int>(lanes_.size()), run_task);
        parallel_.tasks += live.size();
        parallel_.worker_tasks += stats.worker_ran;
      } else {
        for (size_t slot = 0; slot < live.size(); ++slot) {
          run_task(0, slot);
        }
      }
      uint64_t total = singletons;
      uint64_t calls = seq_calls_;
      for (const ExactTask& task : tasks) {
        total += task.count;
        calls += task.calls;
      }
      if (total > opts_.exact_enumeration_budget ||
          calls > opts_.max_oracle_calls) {
        // Abandon between waves: both sums are deterministic, so the
        // edge-count and oracle-call (safety valve) caps stay
        // thread-count-independent.
        within_budget = false;
        ++abandoned_waves_;
        break;
      }
      // Wave-boundary checkpoint: a fired governor abandons the phase
      // (within_budget = false), never returns a partial count as exact.
      if (Checkpoint() != GovernanceState::kRunning) {
        within_budget = false;
        break;
      }
    }
    uint64_t total = singletons;
    for (const ExactTask& task : tasks) {
      total += task.count;
      task_calls_ += task.calls;
    }
    if (!within_budget || total > opts_.exact_enumeration_budget) {
      return false;
    }
    *count = total;
    return true;
  }

  // Unbiased pruned-Knuth estimate of the number of edges inside `box`
  // (which must be non-empty): descend by halving; the weight doubles only
  // when both halves are non-empty.
  double KnuthSample(Box box, Rng& rng, EdgeFreeOracle& oracle,
                     uint64_t* calls) const {
    double weight = 1.0;
    while (!box.IsSingleton()) {
      auto [left, right] = Split(box);
      const bool left_nonempty = !Probe(oracle, part_sizes_, left, calls);
      if (!left_nonempty) {
        box = std::move(right);
        continue;
      }
      const bool right_nonempty = !Probe(oracle, part_sizes_, right, calls);
      if (!right_nonempty) {
        box = std::move(left);
        continue;
      }
      weight *= 2.0;
      box = rng.Bernoulli(0.5) ? std::move(left) : std::move(right);
    }
    return weight;
  }

  // Number of independent runs for the outer median (each run's adaptive
  // 2-sigma stopping rule gives >= 3/4 per-run confidence; the median of r
  // runs fails with probability <= exp(-r/8)).
  int NumRuns() const {
    if (opts_.delta >= 0.25) return 1;
    const int runs =
        static_cast<int>(std::ceil(8.0 * std::log(1.0 / opts_.delta)));
    return std::min(runs | 1, 41);  // Odd, capped.
  }

  // One adaptive sampling run: returns (estimate, rounds, converged,
  // oracle calls). Two variance-reduction levers per round: re-sample the
  // boxes with the highest variance-of-mean contribution, and *split* the
  // worst of them (stratification beats brute sampling for the Knuth
  // estimator, whose variance is driven by box depth).
  //
  // Every Knuth descent draws from Rng(DeriveSeed(run_seed, {round,
  // stratum id, k})) and sample weights merge in job order, so the run's
  // trajectory is a pure function of (frontier, run_seed, budget) — the
  // same whether its per-round batches fan across lanes (sample_fanout),
  // the whole run sits on one lane, or everything is inline.
  RunOutcome AdaptiveRun(const std::vector<Box>& initial_frontier,
                         uint64_t singleton_edges, uint64_t run_seed,
                         uint64_t budget, EdgeFreeOracle& home,
                         bool sample_fanout) {
    struct Stratum {
      Box box;
      MeanVarAccumulator acc;
      uint32_t id = 0;  // Stable creation-order id: the RNG key.
    };
    std::vector<Stratum> strata;
    strata.reserve(initial_frontier.size());
    uint32_t next_id = 0;
    for (const Box& box : initial_frontier) {
      strata.push_back({box, {}, next_id++});
    }
    double exact_mass = static_cast<double>(singleton_edges);
    uint64_t run_calls = 0;

    auto current = [&]() {
      double estimate = exact_mass;
      double pooled_variance = 0.0;
      for (const auto& s : strata) {
        estimate += s.acc.mean();
        pooled_variance += s.acc.mean_variance();
      }
      return std::make_pair(estimate, pooled_variance);
    };

    struct SampleJob {
      size_t stratum = 0;
      uint32_t id = 0;
      int k = 0;
    };
    std::vector<SampleJob> jobs;
    std::vector<std::pair<double, uint64_t>> weights;  // (weight, calls)

    int samples_next_round = opts_.initial_samples_per_box;
    int rounds = 0;
    // An interrupted run is discarded wholesale (completed = false): a
    // half-round mean would bias the median, and discarding keeps the
    // anytime interval's order-statistic argument exact.
    auto interrupted = [&]() {
      return RunOutcome{current().first, rounds, false, run_calls,
                        /*completed=*/false};
    };
    for (; rounds < opts_.max_refinement_rounds; ++rounds) {
      // Round-boundary checkpoint: rounds are deterministic units, so an
      // interruption here never perturbs completed-round arithmetic.
      if (Checkpoint() != GovernanceState::kRunning) return interrupted();
      // Implicitly parented on the dlm.run span (same thread).
      obs::Span round_span("dlm.round");
      // Sample targets: everything in round 0, the worse half afterwards.
      // Unsampled strata (fresh splits) come first: an unsampled stratum
      // would otherwise contribute a spurious zero mean.
      std::vector<size_t> order(strata.size());
      for (size_t i = 0; i < strata.size(); ++i) order[i] = i;
      auto priority = [&](size_t i) {
        return strata[i].acc.count() == 0
                   ? std::numeric_limits<double>::infinity()
                   : strata[i].acc.mean_variance();
      };
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return priority(x) > priority(y);
      });
      const size_t targets =
          rounds == 0 ? strata.size() : (strata.size() + 1) / 2;

      // The round's sample batch as an index space, executed in fixed
      // slices with a budget check between slices: the cap (a safety
      // valve) stops work within ~one slice of the limit, and slice
      // boundaries are index-determined, so cap outcomes stay
      // thread-count-independent.
      jobs.clear();
      for (size_t idx = 0; idx < targets; ++idx) {
        const size_t s = order[idx];
        for (int k = 0; k < samples_next_round; ++k) {
          jobs.push_back({s, strata[s].id, k});
        }
      }
      constexpr size_t kJobSlice = 256;
      bool over_budget = false;
      for (size_t begin = 0; begin < jobs.size() && !over_budget;
           begin += kJobSlice) {
        const size_t end = std::min(jobs.size(), begin + kJobSlice);
        weights.assign(end - begin, {0.0, 0});
        auto run_job = [&](int lane, size_t offset) {
          const SampleJob& job = jobs[begin + offset];
          Rng rng(DeriveSeed(run_seed, {static_cast<uint64_t>(rounds),
                                        static_cast<uint64_t>(job.id),
                                        static_cast<uint64_t>(job.k)}));
          uint64_t calls = 0;
          const double w = KnuthSample(strata[job.stratum].box, rng,
                                       *lanes_[static_cast<size_t>(lane)],
                                       &calls);
          weights[offset] = {w, calls};
        };
        if (sample_fanout && end - begin > 1) {
          Executor::LaneStats stats = opts_.pool->ParallelForLanes(
              end - begin, static_cast<int>(lanes_.size()), run_job);
          parallel_.tasks += end - begin;
          parallel_.worker_tasks += stats.worker_ran;
        } else {
          // Home lane: `home` is lanes_[l] for run-level fanout; map back
          // to its index so run_job stays lane-agnostic.
          const int home_lane = HomeLane(home);
          for (size_t offset = 0; offset < end - begin; ++offset) {
            run_job(home_lane, offset);
          }
        }
        // Merge in job order: accumulator arithmetic is order-sensitive,
        // so the order must not depend on scheduling.
        for (size_t offset = 0; offset < end - begin; ++offset) {
          strata[jobs[begin + offset].stratum].acc.Add(
              weights[offset].first);
          run_calls += weights[offset].second;
        }
        over_budget = run_calls > budget;
        // Slice-boundary checkpoint: slices are index-determined, so the
        // set of merged samples at an interruption is deterministic under
        // an injected clock (and the run is discarded regardless).
        if (Checkpoint() != GovernanceState::kRunning) return interrupted();
      }
      samples_next_round += samples_next_round / 2 + 1;

      auto [estimate, pooled_variance] = current();
      const double half_width = 2.0 * std::sqrt(pooled_variance);
      if (!over_budget &&
          half_width <= opts_.epsilon * std::max(estimate, 1.0)) {
        return {estimate, rounds + 1, true, run_calls, true};
      }
      if (over_budget || run_calls > budget) break;

      // Stratify: split the worst boxes (fresh accumulators for the
      // non-empty halves; singleton halves become exact mass). Splitting
      // cuts Knuth variance roughly in half per level at a cost of ~2
      // oracle calls, which beats extra sampling until boxes are small.
      if (!opts_.enable_stratified_splits) continue;
      const size_t splits = std::max<size_t>(1, strata.size() / 4);
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return strata[x].acc.mean_variance() >
               strata[y].acc.mean_variance();
      });
      std::vector<Stratum> added;
      for (size_t idx = 0; idx < splits && idx < order.size(); ++idx) {
        Stratum& s = strata[order[idx]];
        if (s.box.IsSingleton() || run_calls > budget) continue;
        auto [left, right] = Split(s.box);
        const bool left_nonempty =
            !Probe(home, part_sizes_, left, &run_calls);
        const bool right_nonempty =
            !left_nonempty ? true
                           : !Probe(home, part_sizes_, right, &run_calls);
        std::vector<Box> halves;
        if (left_nonempty) halves.push_back(std::move(left));
        if (right_nonempty) halves.push_back(std::move(right));
        bool first = true;
        for (Box& half : halves) {
          if (half.IsSingleton()) {
            exact_mass += 1.0;
            continue;
          }
          if (first) {
            s.box = std::move(half);
            s.acc = MeanVarAccumulator();
            s.id = next_id++;
            first = false;
          } else {
            added.push_back({std::move(half), {}, next_id++});
          }
        }
        if (first) {
          // Both halves were singletons; retire the stratum.
          s.box.ranges.assign(1, {0, 1});
          s.acc = MeanVarAccumulator();
          s.acc.Add(0.0);  // Contributes 0 with 0 variance.
        }
      }
      for (Stratum& s : added) strata.push_back(std::move(s));
    }
    auto [estimate, pooled_variance] = current();
    (void)pooled_variance;
    return {estimate, rounds, false, run_calls, true};
  }

  int HomeLane(const EdgeFreeOracle& home) const {
    for (size_t l = 0; l < lanes_.size(); ++l) {
      if (lanes_[l] == &home) return static_cast<int>(l);
    }
    return 0;
  }

  const std::vector<uint32_t>& part_sizes_;
  const DlmOptions& opts_;
  std::vector<EdgeFreeOracle*> lanes_;  // [0] = the root oracle.
  std::vector<std::unique_ptr<EdgeFreeOracle>> forks_;
  uint64_t seq_calls_ = 0;   // Sequential-phase probes (root oracle).
  uint64_t task_calls_ = 0;  // Exact-phase task probes (summed in order).
  ParallelStats parallel_;

 public:
  // Per-estimate accounting, read once by DlmCountEdges for the bulk
  // registry adds. Plain members (not registry writes) so the estimator's
  // deterministic phases stay untouched.
  uint64_t exact_waves_ = 0;
  uint64_t abandoned_waves_ = 0;
  uint64_t runs_executed_ = 0;
  uint64_t total_rounds_ = 0;
};

}  // namespace

StatusOr<DlmResult> DlmCountEdges(const std::vector<uint32_t>& part_sizes,
                                  EdgeFreeOracle& oracle,
                                  const DlmOptions& opts) {
  if (part_sizes.empty()) {
    return Status::InvalidArgument("DlmCountEdges requires l >= 1 parts");
  }
  Status valid = opts.ValidateAccuracy();
  if (!valid.ok()) return valid;
  Estimator estimator(part_sizes, oracle, opts);
  StatusOr<DlmResult> result = estimator.Run();
  if (result.ok()) {
    // One bulk add per estimate: the probe loops above never touch the
    // registry.
    DlmMetrics& metrics = DlmMetrics::Get();
    metrics.estimates.Increment();
    if (result->exact) metrics.exact.Increment();
    metrics.runs.Add(estimator.runs_executed_);
    metrics.rounds.Add(estimator.total_rounds_);
    metrics.oracle_calls.Add(result->oracle_calls);
    metrics.exact_waves.Add(estimator.exact_waves_);
    metrics.abandoned.Add(estimator.abandoned_waves_);
    if (result->stop_reason == StopReason::kConfidence ||
        result->stop_reason == StopReason::kHardBounds) {
      metrics.early_stops.Increment();
    }
    metrics.calls_per_estimate.Observe(result->oracle_calls);
  }
  return result;
}

}  // namespace cqcount
