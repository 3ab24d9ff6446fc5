#include "relational/simd.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define CQCOUNT_SIMD_X86 1
#include <immintrin.h>
#else
#define CQCOUNT_SIMD_X86 0
#endif

namespace cqcount {
namespace simd {
namespace {

// Values are unsigned but the compare instructions are signed; XORing the
// sign bit maps unsigned order onto signed order.
constexpr Value kSignBias = 0x80000000u;

inline Level MinLevel(Level a, Level b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

// ---------------------------------------------------------------------------
// Scalar kernels (the reference implementation every level must match).
// ---------------------------------------------------------------------------

size_t ScalarLinearLowerBound(const Value* base, size_t stride, size_t n,
                              Value v) {
  size_t i = 0;
  while (i < n && base[i * stride] < v) ++i;
  return i;
}

size_t ScalarLinearUpperBound(const Value* base, size_t stride, size_t n,
                              Value v) {
  size_t i = 0;
  while (i < n && base[i * stride] <= v) ++i;
  return i;
}

uint64_t ScalarProbeStampsBlock(const uint32_t* stamps, size_t space,
                                uint32_t epoch, const Value* rows,
                                size_t width, const int* cols,
                                const uint32_t* radix, size_t ncols,
                                size_t n) {
  uint64_t hits = 0;
  for (size_t r = 0; r < n; ++r) {
    const Value* row = rows + r * width;
    uint32_t code = 0;
    for (size_t k = 0; k < ncols; ++k) {
      code += radix[k] * row[cols[k]];
    }
    // Codes at/past the table end (possible only for values that escaped
    // universe certification, i.e. corrupt storage) are misses, never
    // out-of-bounds reads.
    if (code < space && stamps[code] == epoch) hits |= uint64_t{1} << r;
  }
  return hits;
}

#if CQCOUNT_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernels: 8-lane scans; strided access and the stamp probe use
// vpgatherdd. Compiled per-function via target("avx2") so the binary stays
// runnable on pre-AVX2 hardware.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i Avx2StrideIndices(
    size_t stride) {
  const int s = static_cast<int>(stride);
  return _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
}

// Stride-2 keys (arity-2 relations, the dominant case: binary edge
// relations) deinterleave with two full-bandwidth loads and three
// shuffles instead of a latency-bound vpgatherdd: pull the even lanes of
// each 256-bit half into its low 128 bits, then splice the halves.
// Reads p[0..15], i.e. one Value PAST the 8th key p[14] — when the base
// is column 1 of the last 8 rows of a buffer that byte is out of bounds,
// so callers must stop a full group before the end (i + 8 < n) and let
// the scalar tail finish.
__attribute__((target("avx2"))) inline __m256i Avx2LoadStride2Keys(
    const Value* p) {
  const __m256i evens = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i a =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8));
  const __m256i pa = _mm256_permutevar8x32_epi32(a, evens);
  const __m256i pb = _mm256_permutevar8x32_epi32(b, evens);
  return _mm256_permute2x128_si256(pa, pb, 0x20);
}

__attribute__((target("avx2"))) size_t Avx2LinearLowerBound(
    const Value* base, size_t stride, size_t n, Value v) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(kSignBias));
  const __m256i vv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(v)), bias);
  size_t i = 0;
  if (stride == 1) {
    for (; i + 8 <= n; i += 8) {
      const __m256i keys = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i)),
          bias);
      const int lt =
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vv, keys)));
      if (lt != 0xFF) return i + static_cast<size_t>(__builtin_ctz(~lt & 0xFF));
    }
  } else if (stride == 2) {
    // i + 8 < n (strict): the deinterleaving load reads one Value past
    // the group's last key, so the final 8-key group goes to the scalar
    // tail instead of overrunning a buffer that ends at that key.
    for (; i + 8 < n; i += 8) {
      const __m256i keys =
          _mm256_xor_si256(Avx2LoadStride2Keys(base + i * 2), bias);
      const int lt =
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vv, keys)));
      if (lt != 0xFF) return i + static_cast<size_t>(__builtin_ctz(~lt & 0xFF));
    }
  } else {
    const __m256i idx = Avx2StrideIndices(stride);
    for (; i + 8 <= n; i += 8) {
      const __m256i keys = _mm256_xor_si256(
          _mm256_i32gather_epi32(
              reinterpret_cast<const int*>(base + i * stride), idx, 4),
          bias);
      const int lt =
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vv, keys)));
      if (lt != 0xFF) return i + static_cast<size_t>(__builtin_ctz(~lt & 0xFF));
    }
  }
  for (; i < n; ++i) {
    if (base[i * stride] >= v) return i;
  }
  return n;
}

__attribute__((target("avx2"))) size_t Avx2LinearUpperBound(
    const Value* base, size_t stride, size_t n, Value v) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(kSignBias));
  const __m256i vv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(v)), bias);
  size_t i = 0;
  if (stride == 1) {
    for (; i + 8 <= n; i += 8) {
      const __m256i keys = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i)),
          bias);
      const int gt =
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(keys, vv)));
      if (gt != 0) return i + static_cast<size_t>(__builtin_ctz(gt));
    }
  } else if (stride == 2) {
    // Strict bound for the same reason as the lower-bound scan: the
    // deinterleaving load reads one Value past the group's last key.
    for (; i + 8 < n; i += 8) {
      const __m256i keys =
          _mm256_xor_si256(Avx2LoadStride2Keys(base + i * 2), bias);
      const int gt =
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(keys, vv)));
      if (gt != 0) return i + static_cast<size_t>(__builtin_ctz(gt));
    }
  } else {
    const __m256i idx = Avx2StrideIndices(stride);
    for (; i + 8 <= n; i += 8) {
      const __m256i keys = _mm256_xor_si256(
          _mm256_i32gather_epi32(
              reinterpret_cast<const int*>(base + i * stride), idx, 4),
          bias);
      const int gt =
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(keys, vv)));
      if (gt != 0) return i + static_cast<size_t>(__builtin_ctz(gt));
    }
  }
  for (; i < n; ++i) {
    if (base[i * stride] > v) return i;
  }
  return n;
}

__attribute__((target("avx2"))) uint64_t Avx2ProbeStampsBlock(
    const uint32_t* stamps, size_t space, uint32_t epoch, const Value* rows,
    size_t width, const int* cols, const uint32_t* radix, size_t ncols,
    size_t n) {
  if (space == 0) return 0;  // Empty table: every probe misses.
  uint64_t hits = 0;
  const __m256i epoch_v = _mm256_set1_epi32(static_cast<int>(epoch));
  // Out-of-range codes (corrupt storage only) clamp to the last slot for
  // the gather — keeping every lane's address in bounds — and their
  // lanes are masked off afterwards, matching the scalar miss semantics.
  const __m256i last = _mm256_set1_epi32(static_cast<int>(space - 1));
  const int w = static_cast<int>(width);
  const __m256i row_base = _mm256_setr_epi32(0, w, 2 * w, 3 * w, 4 * w, 5 * w,
                                             6 * w, 7 * w);
  size_t r = 0;
  for (; r + 8 <= n; r += 8) {
    __m256i codes = _mm256_setzero_si256();
    const Value* block = rows + r * width;
    for (size_t k = 0; k < ncols; ++k) {
      const __m256i keys = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(block + cols[k]), row_base, 4);
      codes = _mm256_add_epi32(
          codes, _mm256_mullo_epi32(
                     keys, _mm256_set1_epi32(static_cast<int>(radix[k]))));
    }
    const __m256i clamped = _mm256_min_epu32(codes, last);
    const __m256i valid = _mm256_cmpeq_epi32(clamped, codes);
    const __m256i marks = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(stamps), clamped, 4);
    const int eq = _mm256_movemask_ps(_mm256_castsi256_ps(
        _mm256_and_si256(_mm256_cmpeq_epi32(marks, epoch_v), valid)));
    hits |= static_cast<uint64_t>(eq & 0xFF) << r;
  }
  if (r < n) {
    hits |= ScalarProbeStampsBlock(stamps, space, epoch, rows + r * width,
                                   width, cols, radix, ncols, n - r)
            << r;
  }
  return hits;
}

#endif  // CQCOUNT_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

Level DetectMaxLevel() {
#if CQCOUNT_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level LevelFromEnv(Level max_level) {
  const char* env = std::getenv("CQCOUNT_SIMD");
  if (env == nullptr || *env == '\0') return max_level;
  std::string s(env);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  if (s == "scalar" || s == "off" || s == "0" || s == "none") {
    return Level::kScalar;
  }
  if (s == "avx2") return MinLevel(Level::kAvx2, max_level);
  return max_level;  // Unknown value: ignore rather than crash.
}

// -1 = unresolved; otherwise the Level as an int. Relaxed atomics are
// enough — resolution is idempotent and any racing writer stores the same
// value.
std::atomic<int> g_active_level{-1};

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level MaxSupportedLevel() { return DetectMaxLevel(); }

Level ActiveLevel() {
  const int cached = g_active_level.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<Level>(cached);
  const Level level = LevelFromEnv(DetectMaxLevel());
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return level;
}

void SetLevelForTesting(Level level) {
  g_active_level.store(static_cast<int>(MinLevel(level, DetectMaxLevel())),
                       std::memory_order_relaxed);
}

size_t LinearLowerBoundStridedAt(Level level, const Value* base,
                                 size_t stride, size_t n, Value v) {
#if CQCOUNT_SIMD_X86
  if (level == Level::kAvx2) return Avx2LinearLowerBound(base, stride, n, v);
#else
  (void)level;
#endif
  return ScalarLinearLowerBound(base, stride, n, v);
}

size_t LinearUpperBoundStridedAt(Level level, const Value* base,
                                 size_t stride, size_t n, Value v) {
#if CQCOUNT_SIMD_X86
  if (level == Level::kAvx2) return Avx2LinearUpperBound(base, stride, n, v);
#else
  (void)level;
#endif
  return ScalarLinearUpperBound(base, stride, n, v);
}

namespace {

// Window below which the hybrid searches switch from bisection to a
// vectorised linear scan: wide enough that the vector loop has real work,
// narrow enough that the scan stays in a few cache lines per column.
constexpr size_t kVectorWindow = 96;

}  // namespace

size_t LowerBoundStrided(const Value* base, size_t stride, size_t n,
                         Value v) {
  size_t lo = 0, hi = n;
  while (hi - lo > kVectorWindow) {
    const size_t mid = lo + (hi - lo) / 2;
    if (base[mid * stride] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + LinearLowerBoundStridedAt(ActiveLevel(), base + lo * stride,
                                        stride, hi - lo, v);
}

size_t UpperBoundStrided(const Value* base, size_t stride, size_t n,
                         Value v) {
  size_t lo = 0, hi = n;
  while (hi - lo > kVectorWindow) {
    const size_t mid = lo + (hi - lo) / 2;
    if (base[mid * stride] <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + LinearUpperBoundStridedAt(ActiveLevel(), base + lo * stride,
                                        stride, hi - lo, v);
}

uint64_t ProbeStampsBlockAt(Level level, const uint32_t* stamps,
                            size_t space, uint32_t epoch, const Value* rows,
                            size_t width, const int* cols,
                            const uint32_t* radix, size_t ncols, size_t n) {
#if CQCOUNT_SIMD_X86
  if (level == Level::kAvx2) {
    return Avx2ProbeStampsBlock(stamps, space, epoch, rows, width, cols,
                                radix, ncols, n);
  }
#else
  (void)level;
#endif
  return ScalarProbeStampsBlock(stamps, space, epoch, rows, width, cols,
                                radix, ncols, n);
}

uint64_t ProbeStampsBlock(const uint32_t* stamps, size_t space,
                          uint32_t epoch, const Value* rows, size_t width,
                          const int* cols, const uint32_t* radix,
                          size_t ncols, size_t n) {
  return ProbeStampsBlockAt(ActiveLevel(), stamps, space, epoch, rows, width,
                            cols, radix, ncols, n);
}

}  // namespace simd
}  // namespace cqcount
