// The benchmark's workloads: seeded input generators, the closed-loop
// request sequence each client replays, and the reference exact counts
// every answer is checked against.
#ifndef CQCOUNT_PERFBENCH_WORKLOADS_H_
#define CQCOUNT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "relational/structure.h"

namespace perfbench {

/// One request and the reference count it must match.
struct Item {
  cqcount::CountRequest request;
  /// Index into Workload::references.
  size_t ref = 0;
};

/// One call of the closed-loop client: a single Count, or a CountBatch.
struct Step {
  std::vector<Item> items;
  bool batch = false;
  /// Database (index into Workload::dbs) registered again after the call,
  /// or -1. These are the workload's writes.
  int reregister = -1;
};

/// A database as the benchmark hands it to the engine.
struct DatabaseInput {
  std::string name;
  /// Rows staged but not canonicalised: registration pays for the sort,
  /// dedup and zone maps, as it does for a user's freshly built database.
  cqcount::Database staged;
  /// The same contents, canonical: input to the pack writer, the reference
  /// counts and the traced replay.
  cqcount::Database canonical;
};

/// A (query, database) pair whose exact answer count is computed before
/// the measured phase. Requests that rename variables or reorder atoms
/// share the reference of the template they came from.
struct ReferenceQuery {
  std::string query;
  size_t db = 0;
  uint64_t exact = 0;
};

struct Workload {
  std::string name;
  cqcount::EngineOptions options;
  std::vector<DatabaseInput> dbs;
  /// Register through a segment pack written at set-up (storage_exact).
  bool pack = false;
  /// The request sequence; the client replays it cyclically.
  std::vector<Step> steps;
  /// The measured phase ends on a multiple of this many steps, so every
  /// shape of a cycle is sampled equally often.
  size_t cycle_steps = 1;
  /// Leading steps run once before the measured phase (warm-up and the
  /// fixed-seed determinism gate).
  size_t gate_steps = 1;
  /// Leading items replayed through the layer entry points by the traced
  /// run.
  size_t replay_items = 1;
  std::vector<ReferenceQuery> references;
  /// Computes references[i].exact. Defaults to the brute-force enumerator;
  /// storage_exact counts with its own adjacency-list code instead.
  std::function<uint64_t(const ReferenceQuery&)> reference;
};

/// Builds `name`'s inputs from `seed`. `tiny` shrinks every size for the
/// self-test. The references are left uncomputed.
Workload MakeWorkload(const std::string& name, uint64_t seed, bool tiny);

/// Fills every references[i].exact, on up to `threads` threads.
void ComputeReferences(Workload& workload, int threads);

}  // namespace perfbench

#endif  // CQCOUNT_PERFBENCH_WORKLOADS_H_
