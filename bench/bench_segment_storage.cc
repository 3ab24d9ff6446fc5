// EXP-STORAGE: the out-of-core segment backend and SIMD kernels.
//
// Two sections, written to BENCH_storage.json (or argv[1]):
//
//   open_sweep  streams databases up to 10^8 tuples into segment files
//               via SegmentWriter (never materialised in memory), then
//               measures the mmap open cost (microseconds, O(1) in row
//               count) against the linear cost of registering the same
//               data in memory (stage + canonicalise).
//   kernels     scalar-vs-SIMD bandwidth of the two scan kernels the
//               estimators lean on — the strided linear lower-bound
//               scan behind NarrowRange/GroupEnd and the word-parallel
//               semijoin existence probe — at 200k+ rows, where the
//               acceptance floor is a >= 2x SIMD speedup.
//
// That the backend and the kernel level never change an answer is pinned
// by tests/estimate_pins_test.cc and tests/storage_backend_test.cc.
//
// Smoke mode (CQCOUNT_BENCH_SMOKE) shrinks sizes so CI exercises every
// code path in seconds; smoke numbers are flagged in the JSON and the
// perf assertions are skipped for them.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "relational/relation.h"
#include "relational/segment.h"
#include "relational/simd.h"
#include "relational/structure.h"
#include "util/random.h"
#include "util/timer.h"

namespace cqcount {
namespace {

const char* kSegPath = "/tmp/cqcount_bench_storage.seg";

// ---------------------------------------------------------------------------
// Section 1: O(1) segment open vs linear in-memory registration.
// ---------------------------------------------------------------------------

struct OpenEntry {
  uint64_t rows = 0;
  uint64_t file_bytes = 0;
  double pack_ms = 0.0;
  double open_us = 0.0;
  double inmemory_register_ms = 0.0;
};

// Rows (i / kSplit, i % kSplit) are strictly ascending, so both the
// streaming writer and the sorted-input Canonicalize fast path apply.
constexpr uint32_t kSplit = 10000;
constexpr uint32_t kSweepUniverse = 10000;

OpenEntry MeasureOpen(uint64_t rows) {
  OpenEntry entry;
  entry.rows = rows;

  WallTimer timer;
  {
    auto writer = SegmentWriter::Create(kSegPath, kSweepUniverse);
    if (!writer.ok()) {
      std::fprintf(stderr, "writer: %s\n",
                   writer.status().ToString().c_str());
      std::exit(1);
    }
    Status s = (*writer)->BeginRelation("E", 2);
    for (uint64_t i = 0; s.ok() && i < rows; ++i) {
      const Value row[2] = {static_cast<Value>(i / kSplit),
                            static_cast<Value>(i % kSplit)};
      s = (*writer)->AppendRow(row);
    }
    if (s.ok()) s = (*writer)->EndRelation();
    if (s.ok()) s = (*writer)->Finish();
    if (!s.ok()) {
      std::fprintf(stderr, "pack: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  entry.pack_ms = timer.Millis();

  timer.Reset();
  auto mapped = OpenSegmentDatabase(kSegPath);
  entry.open_us = timer.Millis() * 1000.0;
  if (!mapped.ok()) {
    std::fprintf(stderr, "open: %s\n", mapped.status().ToString().c_str());
    std::exit(1);
  }
  if (auto view = SegmentView::Open(kSegPath); view.ok()) {
    entry.file_bytes = (*view)->mapped_bytes();
  }

  // The in-memory cost of the same data: stage (rows arrive pre-sorted,
  // as a bulk loader would deliver them) and canonicalise, which is what
  // RegisterDatabase does with an in-memory database.
  timer.Reset();
  {
    Relation rel(2);
    for (uint64_t i = 0; i < rows; ++i) {
      Value* dst = rel.AppendRow();
      dst[0] = static_cast<Value>(i / kSplit);
      dst[1] = static_cast<Value>(i % kSplit);
    }
    rel.Canonicalize();
    entry.inmemory_register_ms = timer.Millis();
  }
  std::remove(kSegPath);
  return entry;
}

// ---------------------------------------------------------------------------
// Section 2: scalar vs SIMD kernel bandwidth.
// ---------------------------------------------------------------------------

struct KernelEntry {
  std::string kernel;
  uint64_t rows = 0;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  double speedup = 0.0;
};

KernelEntry MeasureLinearScan(uint64_t rows, size_t stride, int repeats) {
  KernelEntry entry;
  entry.kernel = "linear_lower_bound_stride" + std::to_string(stride);
  entry.rows = rows;
  Rng rng(42);
  std::vector<Value> keys(rows * stride);
  for (uint64_t i = 0; i < rows; ++i) {
    // Sorted keys, all < UINT32_MAX so a probe for UINT32_MAX scans the
    // full column (bandwidth, not early exit).
    keys[i * stride] = static_cast<Value>(i * 2);
    for (size_t k = 1; k < stride; ++k) {
      keys[i * stride + k] = static_cast<Value>(rng.UniformInt(1u << 30));
    }
  }
  uint64_t sink = 0;
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) {
    sink += simd::LinearLowerBoundStridedAt(simd::Level::kScalar, keys.data(),
                                            stride, rows, UINT32_MAX);
  }
  entry.scalar_ms = timer.Millis();
  timer.Reset();
  for (int r = 0; r < repeats; ++r) {
    sink += simd::LinearLowerBoundStridedAt(simd::MaxSupportedLevel(),
                                            keys.data(), stride, rows,
                                            UINT32_MAX);
  }
  entry.simd_ms = timer.Millis();
  entry.speedup = entry.simd_ms > 0 ? entry.scalar_ms / entry.simd_ms : 1.0;
  if (sink == 0) std::fprintf(stderr, "impossible\n");
  return entry;
}

KernelEntry MeasureProbeBlocks(uint64_t rows, int repeats) {
  KernelEntry entry;
  entry.kernel = "probe_stamps_block";
  entry.rows = rows;
  Rng rng(43);
  constexpr size_t kWidth = 2;
  constexpr uint32_t kDomain = 1000;
  const int cols[2] = {0, 1};
  const uint32_t radix[2] = {1, kDomain};
  const uint32_t epoch = 7;
  std::vector<uint32_t> stamps(kDomain * kDomain);
  for (uint32_t& s : stamps) s = rng.Bernoulli(0.5) ? epoch : 0;
  std::vector<Value> tuples(rows * kWidth);
  for (Value& v : tuples) v = static_cast<Value>(rng.UniformInt(kDomain));

  uint64_t sink = 0;
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) {
    for (uint64_t i = 0; i < rows; i += 64) {
      const size_t n = static_cast<size_t>(
          rows - i < 64 ? rows - i : uint64_t{64});
      sink += __builtin_popcountll(simd::ProbeStampsBlockAt(
          simd::Level::kScalar, stamps.data(), stamps.size(), epoch,
          tuples.data() + i * kWidth, kWidth, cols, radix, 2, n));
    }
  }
  entry.scalar_ms = timer.Millis();
  timer.Reset();
  for (int r = 0; r < repeats; ++r) {
    for (uint64_t i = 0; i < rows; i += 64) {
      const size_t n = static_cast<size_t>(
          rows - i < 64 ? rows - i : uint64_t{64});
      sink += __builtin_popcountll(simd::ProbeStampsBlockAt(
          simd::MaxSupportedLevel(), stamps.data(), stamps.size(), epoch,
          tuples.data() + i * kWidth, kWidth, cols, radix, 2, n));
    }
  }
  entry.simd_ms = timer.Millis();
  entry.speedup = entry.simd_ms > 0 ? entry.scalar_ms / entry.simd_ms : 1.0;
  if (sink == UINT64_MAX) std::fprintf(stderr, "impossible\n");
  return entry;
}

}  // namespace

int Run(const std::string& json_path) {
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  bench::Header("EXP-STORAGE",
                "out-of-core segments: O(1) open, SIMD kernels");
  bench::Row("hardware_threads=%u simd=%s smoke=%d", hardware_threads,
             simd::LevelName(simd::MaxSupportedLevel()),
             bench::SmokeMode() ? 1 : 0);

  // Section 1. Non-smoke reaches 10^8 rows (an ~800 MB segment file).
  const std::vector<uint64_t> sizes =
      bench::SmokeMode()
          ? std::vector<uint64_t>{20000, 50000}
          : std::vector<uint64_t>{1000000, 10000000, 100000000};
  bench::Row("%12s %14s %12s %12s %20s", "rows", "file_bytes", "pack_ms",
             "open_us", "inmemory_register_ms");
  std::vector<OpenEntry> open_entries;
  for (uint64_t rows : sizes) {
    OpenEntry e = MeasureOpen(rows);
    open_entries.push_back(e);
    bench::Row("%12llu %14llu %12.1f %12.1f %20.1f",
               static_cast<unsigned long long>(e.rows),
               static_cast<unsigned long long>(e.file_bytes), e.pack_ms,
               e.open_us, e.inmemory_register_ms);
  }

  // Section 2. The acceptance floor is >= 2x at 200k+ rows (non-smoke).
  const std::vector<uint64_t> kernel_rows =
      bench::SmokeMode() ? std::vector<uint64_t>{20000}
                         : std::vector<uint64_t>{200000, 1000000, 4000000};
  const int scan_repeats = bench::Sized(400, 20);
  const int probe_repeats = bench::Sized(40, 4);
  bench::Row("%28s %10s %12s %12s %10s", "kernel", "rows", "scalar_ms",
             "simd_ms", "speedup");
  std::vector<KernelEntry> kernel_entries;
  for (uint64_t rows : kernel_rows) {
    for (KernelEntry e :
         {MeasureLinearScan(rows, 1, scan_repeats),
          MeasureLinearScan(rows, 2, scan_repeats),
          MeasureProbeBlocks(rows, probe_repeats)}) {
      kernel_entries.push_back(e);
      bench::Row("%28s %10llu %12.2f %12.2f %9.2fx", e.kernel.c_str(),
                 static_cast<unsigned long long>(e.rows), e.scalar_ms,
                 e.simd_ms, e.speedup);
    }
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"segment_storage\",\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hardware_threads);
  std::fprintf(out, "  \"simd_max_level\": \"%s\",\n",
               simd::LevelName(simd::MaxSupportedLevel()));
  std::fprintf(out, "  \"smoke\": %s,\n",
               bench::SmokeMode() ? "true" : "false");
  std::fprintf(out, "  \"open_sweep\": [\n");
  for (size_t i = 0; i < open_entries.size(); ++i) {
    const OpenEntry& e = open_entries[i];
    std::fprintf(out,
                 "    {\"rows\": %llu, \"file_bytes\": %llu, "
                 "\"pack_ms\": %.2f, \"open_us\": %.1f, "
                 "\"inmemory_register_ms\": %.2f}%s\n",
                 static_cast<unsigned long long>(e.rows),
                 static_cast<unsigned long long>(e.file_bytes), e.pack_ms,
                 e.open_us, e.inmemory_register_ms,
                 i + 1 < open_entries.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < kernel_entries.size(); ++i) {
    const KernelEntry& e = kernel_entries[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"rows\": %llu, "
                 "\"scalar_ms\": %.3f, \"simd_ms\": %.3f, "
                 "\"speedup\": %.2f}%s\n",
                 e.kernel.c_str(),
                 static_cast<unsigned long long>(e.rows), e.scalar_ms,
                 e.simd_ms, e.speedup,
                 i + 1 < kernel_entries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  bench::Row("wrote %s", json_path.c_str());
  return 0;
}

}  // namespace cqcount

int main(int argc, char** argv) {
  return cqcount::Run(argc > 1 ? argv[1] : "BENCH_storage.json");
}
