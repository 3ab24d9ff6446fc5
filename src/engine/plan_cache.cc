#include "engine/plan_cache.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace cqcount {
namespace {

// Registry mirrors of the cache counters (summed across every PlanCache
// in the process). The PlanCache's own counters stay authoritative for
// CacheStats(); the metrics feed `stats` JSON and dashboards.
struct PlanCacheMetrics {
  obs::Counter& hits = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.hits", "Plan-cache lookups served from the cache");
  obs::Counter& misses = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.misses", "Plan-cache lookups that required a plan build");
  obs::Counter& insertions = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.insertions", "Plans inserted into the cache");
  obs::Counter& evictions = obs::MetricRegistry::Global().GetCounter(
      "plan_cache.evictions", "Plans (and their shape profiles) LRU-evicted");

  static PlanCacheMetrics& Get() {
    static PlanCacheMetrics* metrics = new PlanCacheMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const PlanCacheMetrics& kPlanCacheMetricsInit = PlanCacheMetrics::Get();

}  // namespace

PlanCache::PlanCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    PlanCacheMetrics::Get().misses.Increment();
    return nullptr;
  }
  ++stats_.hits;
  PlanCacheMetrics::Get().hits.Increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->plan;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const QueryPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    PlanCacheMetrics::Get().evictions.Increment();
  }
  lru_.push_front(Entry{key, std::move(plan), {}});
  index_[key] = lru_.begin();
  ++stats_.insertions;
  PlanCacheMetrics::Get().insertions.Increment();
}

void PlanCache::RecordObservation(const std::string& key, double exec_millis,
                                  uint64_t oracle_calls,
                                  uint64_t estimator_calls, double estimate,
                                  bool converged) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;  // Evicted since execution began.
  it->second->profile.Observe(exec_millis, oracle_calls, estimator_calls,
                              estimate, converged);
}

std::optional<obs::ShapeProfile> PlanCache::Profile(
    const std::string& key) const {
  // Profile reads are provenance (Explain), not execution: no LRU touch.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->profile.runs == 0) {
    return std::nullopt;
  }
  return it->second->profile;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

PlanCacheStats PlanCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats stats = stats_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace cqcount
