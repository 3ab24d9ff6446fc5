#include "obs/metrics.h"

#include <algorithm>
#include <cassert>

#include "obs/json.h"

namespace cqcount {
namespace obs {

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  for (int b = 0; b < kBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    snap.count += snap.buckets[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

struct MetricRegistry::Entry {
  std::string name;
  std::string description;
  MetricKind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Entry& MetricRegistry::GetOrCreate(
    const std::string& name, const std::string& description, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name == name) {
      assert(entry->kind == kind && "metric re-registered with another kind");
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->description = description;
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& description) {
  return GetOrCreate(name, description, MetricKind::kCounter).counter;
}

Gauge& MetricRegistry::GetGauge(const std::string& name,
                                const std::string& description) {
  return GetOrCreate(name, description, MetricKind::kGauge).gauge;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& description) {
  return GetOrCreate(name, description, MetricKind::kHistogram).histogram;
}

std::vector<MetricSnapshot> MetricRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& entry : entries_) {
      MetricSnapshot snap;
      snap.name = entry->name;
      snap.description = entry->description;
      snap.kind = entry->kind;
      switch (entry->kind) {
        case MetricKind::kCounter:
          snap.value = static_cast<int64_t>(entry->counter.Value());
          break;
        case MetricKind::kGauge:
          snap.value = entry->gauge.Value();
          break;
        case MetricKind::kHistogram:
          snap.histogram = entry->histogram.Snap();
          break;
      }
      out.push_back(std::move(snap));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricRegistry::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("metrics");
  json.BeginArray();
  for (const MetricSnapshot& snap : Snapshot()) {
    json.BeginObject();
    json.Key("name").String(snap.name);
    json.Key("kind").String(snap.kind == MetricKind::kCounter ? "counter"
                            : snap.kind == MetricKind::kGauge ? "gauge"
                                                              : "histogram");
    json.Key("description").String(snap.description);
    if (snap.kind == MetricKind::kHistogram) {
      json.Key("count").Uint(snap.histogram.count);
      json.Key("sum").Uint(snap.histogram.sum);
      json.Key("buckets");
      json.BeginArray();
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        if (snap.histogram.buckets[b] == 0) continue;
        json.BeginObject();
        json.Key("le").Uint(Histogram::BucketBound(b));
        json.Key("count").Uint(snap.histogram.buckets[b]);
        json.EndObject();
      }
      json.EndArray();
    } else {
      json.Key("value").Int(snap.value);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Take();
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    entry->counter.Reset();
    entry->gauge.Reset();
    entry->histogram.Reset();
  }
}

}  // namespace obs
}  // namespace cqcount
