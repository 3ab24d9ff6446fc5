// SIMD kernels for the columnar storage hot paths.
//
// Dispatch model
// --------------
// Every kernel exists at two levels — scalar and AVX2 — and both compute
// EXACTLY the same result (these are exact integer algorithms, not
// approximations), so the level is purely a speed knob and estimates stay
// bit-identical whichever path runs. The active level is resolved once
// per process from CPU capability (via __builtin_cpu_supports) clamped by
// the CQCOUNT_SIMD environment variable ("scalar"/"off", "avx2"); tests
// and benches can pin a level explicitly with SetLevelForTesting or call
// the *At entry points.
//
// The binary stays portable: AVX2 code is compiled per-function with
// __attribute__((target("avx2"))) instead of a global -mavx2, so nothing
// above baseline ISA executes unless dispatch selects it at runtime.
//
// Kernels
// -------
// The columnar layout stores tuple i's column c at base[i*stride + c],
// so every scan here is a strided walk over 32-bit unsigned values:
//   - LowerBoundStrided / UpperBoundStrided: hybrid gallop — binary
//     search down to one block, then a vectorised linear scan (the
//     trie-join NarrowRange / GroupEnd step).
//   - LinearLowerBoundStridedAt / LinearUpperBoundStridedAt: the raw
//     linear-scan building blocks, exposed so tests and benches can
//     compare levels at full scan bandwidth.
//   - ProbeStampsBlock: up to 64 mixed-radix epoch-stamp existence
//     probes at once, returning a survivor bitmask (the semijoin
//     word-parallel probe in the decomposition solver).
#ifndef CQCOUNT_RELATIONAL_SIMD_H_
#define CQCOUNT_RELATIONAL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace cqcount {
namespace simd {

using Value = uint32_t;

enum class Level : int { kScalar = 0, kAvx2 = 1 };

/// Human-readable level name ("scalar", "avx2").
const char* LevelName(Level level);

/// Highest level this CPU supports (compile-target and cpuid gated).
Level MaxSupportedLevel();

/// The level dispatch uses: MaxSupportedLevel() clamped by CQCOUNT_SIMD
/// ("scalar"/"off"/"0" -> scalar, "avx2") and by
/// SetLevelForTesting. Resolved once, then constant-time.
Level ActiveLevel();

/// Pins the active level (clamped to MaxSupportedLevel) for tests and
/// benches. Not thread-safe against concurrent kernel calls; call it
/// from single-threaded setup code only.
void SetLevelForTesting(Level level);

/// First index i in [0, n) with base[i*stride] >= v, else n. The keys
/// base[0], base[stride], .. must be sorted ascending. Hybrid: binary
/// search to a small window, then a vectorised scan at ActiveLevel().
size_t LowerBoundStrided(const Value* base, size_t stride, size_t n,
                         Value v);
/// First index i in [0, n) with base[i*stride] > v, else n.
size_t UpperBoundStrided(const Value* base, size_t stride, size_t n,
                         Value v);

/// Pure linear-scan variants pinned to an explicit level; the hybrid
/// entry points bound these to one window. Exposed so tests can assert
/// cross-level equality and benches can measure scan bandwidth.
size_t LinearLowerBoundStridedAt(Level level, const Value* base,
                                 size_t stride, size_t n, Value v);
size_t LinearUpperBoundStridedAt(Level level, const Value* base,
                                 size_t stride, size_t n, Value v);

/// Word-parallel existence probe over an epoch-stamped table of `space`
/// slots: for each row r in [0, n) (n <= 64) computes the mixed-radix
/// code
///   code_r = sum_k radix[k] * rows[r*width + cols[k]]
/// and sets bit r of the result iff code_r < space and
/// stamps[code_r] == epoch. Codes at/past `space` — only possible when
/// row values escaped universe certification, i.e. corrupt storage —
/// are misses at every level, never out-of-bounds accesses.
uint64_t ProbeStampsBlock(const uint32_t* stamps, size_t space,
                          uint32_t epoch, const Value* rows, size_t width,
                          const int* cols, const uint32_t* radix,
                          size_t ncols, size_t n);
uint64_t ProbeStampsBlockAt(Level level, const uint32_t* stamps,
                            size_t space, uint32_t epoch, const Value* rows,
                            size_t width, const int* cols,
                            const uint32_t* radix, size_t ncols, size_t n);

}  // namespace simd
}  // namespace cqcount

#endif  // CQCOUNT_RELATIONAL_SIMD_H_
