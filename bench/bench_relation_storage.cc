// EXP-REL: microbenchmarks for the flat relation storage layer.
//
// Measures the four substrate operations every estimator leans on —
// build (stage + canonicalise), full scan, prefix-range descent, and
// projection — at arities 2..5, and compares the two backends: the flat
// in-memory layout and the mmap'd columnar segment (relational/segment.h;
// its build_ms is pack + O(1) open). Writes the measurements as JSON
// (default BENCH_relation.json, or argv[1]).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "relational/relation.h"
#include "relational/segment.h"
#include "relational/structure.h"
#include "util/random.h"
#include "util/timer.h"

namespace cqcount {
namespace {

// Smoke mode (CQCOUNT_BENCH_SMOKE, see bench_util.h) shrinks the workload
// so CI can exercise the bench end to end in well under a second.
const int kRows = bench::Sized(200000, 5000);
constexpr int kUniverse = 1000;
const int kScanRepeats = bench::Sized(20, 2);
const int kProbeRepeats = bench::Sized(400000, 10000);

struct OpTimes {
  double build_ms = 0.0;
  double scan_ms = 0.0;
  double range_ms = 0.0;
  double project_ms = 0.0;
};

std::vector<Tuple> RandomRows(int arity, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    Tuple t(arity);
    for (int k = 0; k < arity; ++k) {
      t[k] = static_cast<Value>(rng.UniformInt(kUniverse));
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

OpTimes MeasureFlat(const std::vector<Tuple>& rows, int arity,
                    uint64_t* sink) {
  OpTimes times;
  WallTimer timer;
  Relation rel(arity);
  for (const Tuple& t : rows) rel.Add(t);
  rel.Canonicalize();
  times.build_ms = timer.Millis();

  timer.Reset();
  uint64_t sum = 0;
  for (int repeat = 0; repeat < kScanRepeats; ++repeat) {
    for (TupleView t : rel) sum += t[0];
  }
  times.scan_ms = timer.Millis() / kScanRepeats;

  timer.Reset();
  Rng rng(4);
  size_t hits = 0;
  for (int probe = 0; probe < kProbeRepeats; ++probe) {
    const Value v = static_cast<Value>(rng.UniformInt(kUniverse));
    const auto [lo, hi] = rel.NarrowRange(0, rel.size(), 0, v);
    hits += hi - lo;
  }
  times.range_ms = timer.Millis();

  timer.Reset();
  std::vector<int> positions;
  for (int k = arity - 1; k >= 1; --k) positions.push_back(k);
  Relation projected = rel.Project(positions);
  times.project_ms = timer.Millis();

  *sink += sum + hits + projected.size();
  return times;
}

// The mmap'd segment backend: build_ms is pack-to-disk plus the O(1)
// open; the scan/range/project measurements then run over the mapped
// Relation through the exact same accessors as the flat backend.
OpTimes MeasureSegment(const std::vector<Tuple>& rows, int arity,
                       uint64_t* sink) {
  OpTimes times;
  Relation staged(arity);
  for (const Tuple& t : rows) staged.Add(t);
  staged.Canonicalize();
  Database db(kUniverse);
  (void)db.DeclareRelation("R", arity);
  (void)db.AdoptRelation("R", std::move(staged));

  const std::string path = "/tmp/cqcount_bench_relation.seg";
  WallTimer timer;
  if (!WriteSegmentDatabase(db, path).ok()) {
    std::fprintf(stderr, "segment pack failed\n");
    std::exit(1);
  }
  auto mapped = OpenSegmentDatabase(path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "segment open failed: %s\n",
                 mapped.status().ToString().c_str());
    std::exit(1);
  }
  times.build_ms = timer.Millis();
  const Relation& rel = mapped->relation("R");

  timer.Reset();
  uint64_t sum = 0;
  for (int repeat = 0; repeat < kScanRepeats; ++repeat) {
    for (TupleView t : rel) sum += t[0];
  }
  times.scan_ms = timer.Millis() / kScanRepeats;

  timer.Reset();
  Rng rng(4);
  size_t hits = 0;
  for (int probe = 0; probe < kProbeRepeats; ++probe) {
    const Value v = static_cast<Value>(rng.UniformInt(kUniverse));
    const auto [lo, hi] = rel.NarrowRange(0, rel.size(), 0, v);
    hits += hi - lo;
  }
  times.range_ms = timer.Millis();

  timer.Reset();
  std::vector<int> positions;
  for (int k = arity - 1; k >= 1; --k) positions.push_back(k);
  Relation projected = rel.Project(positions);
  times.project_ms = timer.Millis();

  *sink += sum + hits + projected.size();
  std::remove(path.c_str());
  return times;
}

}  // namespace

int Run(const std::string& json_path) {
  bench::Header("EXP-REL",
                "relation storage: flat (arity-strided) vs mmap'd segment");
  bench::Row("%d rows, universe %d; scan avg over %d passes", kRows,
             kUniverse, kScanRepeats);
  bench::Row("%6s %8s %12s %12s %12s %12s", "arity", "layout", "build_ms",
             "scan_ms", "range_ms", "project_ms");

  uint64_t sink = 0;
  struct Entry {
    int arity;
    OpTimes flat;
    OpTimes segment;
  };
  std::vector<Entry> entries;
  for (int arity = 2; arity <= 5; ++arity) {
    const std::vector<Tuple> rows = RandomRows(arity, 1000 + arity);
    Entry e;
    e.arity = arity;
    e.flat = MeasureFlat(rows, arity, &sink);
    e.segment = MeasureSegment(rows, arity, &sink);
    entries.push_back(e);
    bench::Row("%6d %8s %12.2f %12.2f %12.2f %12.2f", arity, "flat",
               e.flat.build_ms, e.flat.scan_ms, e.flat.range_ms,
               e.flat.project_ms);
    bench::Row("%6d %8s %12.2f %12.2f %12.2f %12.2f", arity, "segment",
               e.segment.build_ms, e.segment.scan_ms, e.segment.range_ms,
               e.segment.project_ms);
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"relation_storage\",\n");
  std::fprintf(out, "  \"rows\": %d,\n", kRows);
  std::fprintf(out, "  \"universe\": %d,\n", kUniverse);
  std::fprintf(out, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(
        out,
        "    {\"arity\": %d, "
        "\"flat\": {\"build_ms\": %.2f, \"scan_ms\": %.2f, "
        "\"range_ms\": %.2f, \"project_ms\": %.2f}, "
        "\"segment\": {\"build_ms\": %.2f, \"scan_ms\": %.2f, "
        "\"range_ms\": %.2f, \"project_ms\": %.2f}}%s\n",
        e.arity, e.flat.build_ms, e.flat.scan_ms, e.flat.range_ms,
        e.flat.project_ms, e.segment.build_ms, e.segment.scan_ms,
        e.segment.range_ms, e.segment.project_ms,
        i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"checksum\": %llu\n",
               static_cast<unsigned long long>(sink));
  std::fprintf(out, "}\n");
  std::fclose(out);
  bench::Row("wrote %s", json_path.c_str());
  return 0;
}

}  // namespace cqcount

int main(int argc, char** argv) {
  return cqcount::Run(argc > 1 ? argv[1] : "BENCH_relation.json");
}
