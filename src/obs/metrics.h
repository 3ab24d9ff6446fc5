// Process-wide metric registry (the "M" of the telemetry layer).
//
// Counting code reports what it did through named, label-free metrics:
//
//   Counter   — monotonic event count: one relaxed atomic add per Add().
//               Hot paths accumulate locally and Add() once per
//               deterministic unit (per run, per wave, per call), so a
//               metric sees a handful of writes per count and needs no
//               per-thread cells. Telemetry never touches RNG state or
//               merge order, so estimates are bit-identical with metrics
//               on at any thread count.
//   Gauge     — instantaneous level (queue depth, cache entries). One
//               atomic int64; Add/Set from any thread.
//   Histogram — log2-bucketed distribution of latencies/sizes.
//               Observe() is two relaxed adds.
//
// Handles are registered once (first Get* call wins; later calls with the
// same name return the same handle) and live for the process lifetime, so
// call sites cache them in static locals:
//
//   static Counter& calls = MetricRegistry::Global().GetCounter(
//       "dlm.oracle_calls", "EdgeFree oracle calls (deterministic)");
//   calls.Add(n);
//
// Naming convention: "<subsystem>.<noun>[_<unit>]", subsystems matching
// the source tree (engine, plan_cache, executor, dlm, cc, dp, acjr,
// sampler). Durations are histograms in microseconds ("_us"), sizes are
// histograms of raw magnitudes.
#ifndef CQCOUNT_OBS_METRICS_H_
#define CQCOUNT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cqcount {
namespace obs {

/// Monotonic, lock-free event counter.
class Counter {
 public:
  /// Adds `n` (relaxed; never blocks).
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  /// Zeroes the counter (tests / fresh measurement windows only).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, live entries).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram: bucket b counts observations v with
/// 2^(b-1) <= v < 2^b (bucket 0 counts v == 0). 64 buckets cover the
/// whole uint64 range, so there is no overflow bucket to mis-size.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  static int BucketFor(uint64_t value) {
    if (value == 0) return 0;
    return 64 - __builtin_clzll(value);
  }
  /// Inclusive upper bound of bucket `b` (the "le" of the JSON export).
  static uint64_t BucketBound(int b) {
    if (b == 0) return 0;
    if (b >= 64) return ~0ULL;
    return (1ULL << b) - 1;
  }

  /// Records one observation: two relaxed adds.
  void Observe(uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};
  };
  /// Safe during concurrent writes (each read is atomic; the snapshot is
  /// a lower bound of "observations so far").
  Snapshot Snap() const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's state at snapshot time.
struct MetricSnapshot {
  std::string name;
  std::string description;
  MetricKind kind = MetricKind::kCounter;
  /// Counter value / gauge level (unused for histograms).
  int64_t value = 0;
  /// Histogram data (kind == kHistogram only).
  Histogram::Snapshot histogram;
};

/// The process-wide registry. Registration (Get*) takes a mutex; returned
/// handles are lock-free and valid for the process lifetime.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  /// Returns the counter registered under `name`, creating it with
  /// `description` on first use. The kind of an existing name must match.
  Counter& GetCounter(const std::string& name, const std::string& description);
  Gauge& GetGauge(const std::string& name, const std::string& description);
  Histogram& GetHistogram(const std::string& name,
                          const std::string& description);

  /// Snapshot of every registered metric, sorted by name. Safe
  /// during concurrent writes.
  std::vector<MetricSnapshot> Snapshot() const;

  /// The snapshot as one JSON object: {"metrics": [...]} with histogram
  /// buckets as {"le": bound, "count": n} (empty buckets omitted).
  std::string ToJson() const;

  /// Zeroes every registered metric (tests / fresh measurement windows).
  void Reset();

 private:
  MetricRegistry() = default;
  struct Entry;
  Entry& GetOrCreate(const std::string& name, const std::string& description,
                     MetricKind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace obs
}  // namespace cqcount

#endif  // CQCOUNT_OBS_METRICS_H_
