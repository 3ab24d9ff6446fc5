// Cross-level equivalence tests for the SIMD kernels (relational/simd.h).
//
// Every kernel has scalar and AVX2 implementations that must compute
// EXACTLY the same answer — the engine's bit-identical-estimates contract
// rests on this. These tests pit each supported level against the scalar
// reference on randomized inputs, plus directed edge cases (v == 0 and
// v == UINT32_MAX probe the unsigned-compare sign-bias trick; short tails
// probe the vector/scalar boundary).
#include "relational/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace cqcount {
namespace simd {
namespace {

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (MaxSupportedLevel() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

// Scalar reference, written independently of the library's own scalar
// kernel so a bug there can't self-validate.
size_t RefLowerBound(const std::vector<Value>& keys, size_t stride,
                     size_t n, Value v) {
  for (size_t i = 0; i < n; ++i) {
    if (keys[i * stride] >= v) return i;
  }
  return n;
}

size_t RefUpperBound(const std::vector<Value>& keys, size_t stride,
                     size_t n, Value v) {
  for (size_t i = 0; i < n; ++i) {
    if (keys[i * stride] > v) return i;
  }
  return n;
}

std::vector<Value> SortedStridedKeys(Rng& rng, size_t n, size_t stride,
                                     uint32_t universe) {
  std::vector<Value> column(n);
  for (size_t i = 0; i < n; ++i) {
    column[i] = static_cast<Value>(rng.UniformInt(universe));
  }
  std::sort(column.begin(), column.end());
  std::vector<Value> keys(n * stride, 0);
  for (size_t i = 0; i < n; ++i) {
    keys[i * stride] = column[i];
    // Non-key lanes hold garbage the kernels must ignore.
    for (size_t k = 1; k < stride; ++k) {
      keys[i * stride + k] = static_cast<Value>(rng.UniformInt(1u << 31));
    }
  }
  return keys;
}

TEST(SimdTest, LevelNamesAndDetection) {
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
  EXPECT_GE(MaxSupportedLevel(), Level::kScalar);
  EXPECT_LE(ActiveLevel(), MaxSupportedLevel());
}

TEST(SimdTest, SetLevelForTestingClampsToSupported) {
  const Level before = ActiveLevel();
  SetLevelForTesting(Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  SetLevelForTesting(Level::kAvx2);
  EXPECT_LE(ActiveLevel(), MaxSupportedLevel());
  SetLevelForTesting(before);
}

TEST(SimdTest, LinearBoundsMatchReferenceAcrossLevels) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t stride = 1 + rng.UniformInt(4);
    const size_t n = rng.UniformInt(300);
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.UniformInt(64));
    const std::vector<Value> keys =
        SortedStridedKeys(rng, n, stride, universe);
    for (int probe = 0; probe < 8; ++probe) {
      const Value v = static_cast<Value>(rng.UniformInt(universe + 2));
      const size_t want_lo = RefLowerBound(keys, stride, n, v);
      const size_t want_hi = RefUpperBound(keys, stride, n, v);
      for (Level level : SupportedLevels()) {
        EXPECT_EQ(LinearLowerBoundStridedAt(level, keys.data(), stride, n, v),
                  want_lo)
            << "level=" << LevelName(level) << " n=" << n
            << " stride=" << stride << " v=" << v;
        EXPECT_EQ(LinearUpperBoundStridedAt(level, keys.data(), stride, n, v),
                  want_hi)
            << "level=" << LevelName(level) << " n=" << n
            << " stride=" << stride << " v=" << v;
      }
    }
  }
}

TEST(SimdTest, BoundsHandleExtremeValues) {
  // v == 0 and v == UINT32_MAX exercise the sign-bias (XOR 0x80000000)
  // unsigned-compare formulation at both ends of the value space.
  Rng rng(7);
  for (Level level : SupportedLevels()) {
    for (size_t stride : {size_t{1}, size_t{3}}) {
      std::vector<Value> keys(64 * stride, 0);
      for (size_t i = 0; i < 64; ++i) {
        keys[i * stride] = i < 20   ? 0u
                           : i < 44 ? 1000u + static_cast<Value>(i)
                                    : UINT32_MAX;
      }
      EXPECT_EQ(LinearLowerBoundStridedAt(level, keys.data(), stride, 64, 0u),
                0u);
      EXPECT_EQ(LinearUpperBoundStridedAt(level, keys.data(), stride, 64, 0u),
                20u);
      EXPECT_EQ(LinearLowerBoundStridedAt(level, keys.data(), stride, 64,
                                          UINT32_MAX),
                44u);
      EXPECT_EQ(LinearUpperBoundStridedAt(level, keys.data(), stride, 64,
                                          UINT32_MAX),
                64u);
      EXPECT_EQ(LinearLowerBoundStridedAt(level, keys.data(), stride, 0, 5u),
                0u);
    }
  }
}

TEST(SimdTest, HybridBoundsMatchStdAlgorithms) {
  Rng rng(99);
  const Level before = ActiveLevel();
  for (Level level : SupportedLevels()) {
    SetLevelForTesting(level);
    for (int trial = 0; trial < 40; ++trial) {
      const size_t stride = 1 + rng.UniformInt(3);
      const size_t n = rng.UniformInt(5000);
      const uint32_t universe = 1 + static_cast<uint32_t>(rng.UniformInt(500));
      const std::vector<Value> keys =
          SortedStridedKeys(rng, n, stride, universe);
      for (int probe = 0; probe < 6; ++probe) {
        const Value v = static_cast<Value>(rng.UniformInt(universe + 2));
        EXPECT_EQ(LowerBoundStrided(keys.data(), stride, n, v),
                  RefLowerBound(keys, stride, n, v))
            << "level=" << LevelName(level);
        EXPECT_EQ(UpperBoundStrided(keys.data(), stride, n, v),
                  RefUpperBound(keys, stride, n, v))
            << "level=" << LevelName(level);
      }
    }
  }
  SetLevelForTesting(before);
}

TEST(SimdTest, Stride2SecondColumnScanToBufferEndStaysInBounds) {
  // Regression: the AVX2 stride-2 deinterleaving load reads one Value
  // past a group's last key, so scanning COLUMN 1 of an arity-2
  // relation (base = data + 1, stride 2) with a window reaching the
  // last row used to read 4 bytes past the heap buffer (caught by ASAN;
  // a segfault when the allocation ended at a page boundary). The
  // buffers here are exact-size heap allocations so sanitizers see any
  // recurrence; probe values force full scans to the final key.
  Rng rng(123);
  for (size_t n : {size_t{8}, size_t{9}, size_t{16}, size_t{24}, size_t{64},
                   size_t{96}, size_t{100}}) {
    std::vector<Value> rows(2 * n);  // n rows, arity 2, nothing after.
    for (size_t i = 0; i < n; ++i) {
      rows[i * 2] = static_cast<Value>(rng.UniformInt(1u << 30));  // Garbage.
      rows[i * 2 + 1] = static_cast<Value>(2 * i);  // Sorted key column.
    }
    const Value* base = rows.data() + 1;
    // Probes past every key (forces the scan to run off the end), at the
    // last key, and inside the range.
    for (Value v : {static_cast<Value>(2 * n), static_cast<Value>(2 * n - 2),
                    static_cast<Value>(n)}) {
      size_t want_lo = n, want_hi = n;
      for (size_t i = 0; i < n; ++i) {
        if (base[i * 2] >= v) { want_lo = i; break; }
      }
      for (size_t i = 0; i < n; ++i) {
        if (base[i * 2] > v) { want_hi = i; break; }
      }
      for (Level level : SupportedLevels()) {
        EXPECT_EQ(LinearLowerBoundStridedAt(level, base, 2, n, v), want_lo)
            << "level=" << LevelName(level) << " n=" << n << " v=" << v;
        EXPECT_EQ(LinearUpperBoundStridedAt(level, base, 2, n, v), want_hi)
            << "level=" << LevelName(level) << " n=" << n << " v=" << v;
      }
    }
  }
}

TEST(SimdTest, ProbeStampsBlockMatchesScalarAcrossLevels) {
  Rng rng(31337);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t width = 1 + rng.UniformInt(4);
    const size_t ncols = 1 + rng.UniformInt(width);
    const size_t n = 1 + rng.UniformInt(64);
    const uint32_t domain = 1 + static_cast<uint32_t>(rng.UniformInt(8));

    std::vector<int> cols(ncols);
    std::vector<uint32_t> radix(ncols);
    uint32_t space = 1;
    for (size_t k = 0; k < ncols; ++k) {
      cols[k] = static_cast<int>(rng.UniformInt(width));
      radix[k] = space;
      space *= domain;
    }
    const uint32_t epoch = 5;
    std::vector<uint32_t> stamps(space);
    for (uint32_t& s : stamps) {
      s = rng.Bernoulli(0.4) ? epoch : epoch - 1;
    }
    std::vector<Value> rows(n * width);
    for (Value& v : rows) v = static_cast<Value>(rng.UniformInt(domain));

    uint64_t want = 0;
    for (size_t r = 0; r < n; ++r) {
      uint32_t code = 0;
      for (size_t k = 0; k < ncols; ++k) {
        code += radix[k] * rows[r * width + cols[k]];
      }
      if (stamps[code] == epoch) want |= uint64_t{1} << r;
    }
    for (Level level : SupportedLevels()) {
      EXPECT_EQ(ProbeStampsBlockAt(level, stamps.data(), stamps.size(), epoch,
                                   rows.data(), width, cols.data(),
                                   radix.data(), ncols, n),
                want)
          << "level=" << LevelName(level) << " n=" << n << " width=" << width
          << " ncols=" << ncols;
    }
  }
}

TEST(SimdTest, ProbeStampsBlockTreatsOutOfRangeCodesAsMisses) {
  // Row values that escaped universe certification (corrupt storage)
  // can form codes at/past the stamp table end; every level must treat
  // those as misses — identically — instead of indexing out of bounds.
  constexpr Value space = 16;
  std::vector<uint32_t> stamps(space, 7u);  // Every in-range probe hits.
  const int cols[1] = {0};
  const uint32_t radix[1] = {1};
  std::vector<Value> rows = {3,          15,         16,  // First OOR code.
                             UINT32_MAX, 0,          1000,
                             8,          space,      4};
  uint64_t want = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r] < space) want |= uint64_t{1} << r;
  }
  for (Level level : SupportedLevels()) {
    EXPECT_EQ(ProbeStampsBlockAt(level, stamps.data(), space, 7u, rows.data(),
                                 1, cols, radix, 1, rows.size()),
              want)
        << "level=" << LevelName(level);
  }
}

}  // namespace
}  // namespace simd
}  // namespace cqcount
