// Thread-safe LRU cache of query plans.
//
// Keys are full canonical shape strings (optionally scoped by database
// name), so two distinct query shapes can never be confused even when
// their hashes collide: the key comparison is exact. One mutex guards the
// one LRU list. A request takes it a few times (a lookup per component,
// an insert per miss, an observation per executed component) and never
// inside an estimator.
#ifndef CQCOUNT_ENGINE_PLAN_CACHE_H_
#define CQCOUNT_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/plan.h"
#include "obs/profile.h"

namespace cqcount {

/// Cache counters.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// Thread-safe LRU cache mapping shape keys to immutable shared plans.
class PlanCache {
 public:
  /// `capacity` is the entry budget (at least one entry is kept).
  explicit PlanCache(size_t capacity = 256);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key` (touching its LRU position), or
  /// nullptr on miss.
  std::shared_ptr<const QueryPlan> Lookup(const std::string& key);

  /// Inserts (or replaces) the plan for `key`, evicting the least recently
  /// used entry when the cache is full.
  void Insert(const std::string& key, std::shared_ptr<const QueryPlan> plan);

  /// Drops every entry (counters are kept).
  void Clear();

  /// Folds one execution of `key`'s shape into its observed profile (the
  /// cost record the adaptive scheduler reads). No-op when the plan is no
  /// longer cached: the profile lives and dies with the entry.
  void RecordObservation(const std::string& key, double exec_millis,
                         uint64_t oracle_calls, uint64_t estimator_calls,
                         double estimate, bool converged);

  /// The accumulated profile for `key`, when the plan is cached and has
  /// at least one recorded execution. Does not touch LRU order.
  std::optional<obs::ShapeProfile> Profile(const std::string& key) const;

  PlanCacheStats Stats() const;

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const QueryPlan> plan;
    /// Observed executions of this shape (evicted with the entry).
    obs::ShapeProfile profile;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// Event counters; Stats() fills in `entries`.
  PlanCacheStats stats_;
};

}  // namespace cqcount

#endif  // CQCOUNT_ENGINE_PLAN_CACHE_H_
