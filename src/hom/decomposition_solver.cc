#include "hom/decomposition_solver.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "hom/bag_solutions.h"
#include "relational/simd.h"
#include "util/failpoint.h"

namespace cqcount {
namespace {

// Cap (total rows across bags) on the unrestricted bag-join cache; past
// it Prepare falls back to the monolithic DP per decision.
constexpr uint64_t kMaxCachedBagRows = uint64_t{1} << 22;

// Positions (indices into `bag`) of the elements also present in `other`;
// both inputs sorted.
std::vector<int> SharedPositions(const std::vector<int>& bag,
                                 const std::vector<int>& other) {
  std::vector<int> positions;
  size_t j = 0;
  for (size_t i = 0; i < bag.size(); ++i) {
    while (j < other.size() && other[j] < bag[i]) ++j;
    if (j < other.size() && other[j] == bag[i]) {
      positions.push_back(static_cast<int>(i));
    }
  }
  return positions;
}

// Per-child lookup table: projection onto the shared variables -> sum of
// child weights (or mere existence). Built by sort-based aggregation over
// a flat key buffer — no per-key heap nodes, lookups are strided binary
// searches. Scratch buffers are members so a table slot can be rebuilt
// repeatedly without reallocating.
struct ChildTable {
  std::vector<int> parent_positions;  // Shared columns within the parent bag.
  FlatTuples keys;                    // Unique projected keys, sorted.
  std::vector<double> sums;           // Aggregated weight per key (counting).

  FlatTuples raw_;                    // Projection scratch, reused.
  std::vector<uint32_t> order_;       // Sort permutation scratch, reused.

  // Aggregates (projection of rows[i], weight_of(i)) pairs. `rows` is any
  // row container exposing size()/operator[](size_t)->TupleView.
  template <typename Rows, typename WeightFn>
  void Build(const Rows& rows, const std::vector<int>& child_positions,
             WeightFn weight_of, bool sum_weights) {
    const int kw = static_cast<int>(child_positions.size());
    raw_.Reset(kw);
    raw_.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      TupleView row = rows[i];
      Value* dst = raw_.AppendRow();
      for (int k = 0; k < kw; ++k) dst[k] = row[child_positions[k]];
    }
    // Shared columns often lead the (lexicographically ordered) bag
    // tuple, in which case the projection is already sorted and the
    // permutation sort can be skipped.
    bool sorted = true;
    for (size_t i = 1; i < raw_.size() && sorted; ++i) {
      sorted = !(raw_[i] < raw_[i - 1]);
    }
    order_.resize(raw_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    if (!sorted) {
      std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
        return raw_[a] < raw_[b];
      });
    }
    keys.Reset(kw);
    sums.clear();
    for (uint32_t i : order_) {
      if (!keys.empty() && keys.back() == raw_[i]) {
        if (sum_weights) sums.back() += weight_of(i);
        // Decision variant: existence only.
      } else {
        keys.PushBack(raw_[i]);
        if (sum_weights) sums.push_back(weight_of(i));
      }
    }
  }

  // Index of `key` (kw values) among the unique keys, or -1 when absent.
  ptrdiff_t Find(const Value* key) const {
    const size_t at = keys.LowerBound(key);
    if (at == keys.size() ||
        CompareValues(keys[at].data(), key, keys.width()) != 0) {
      return -1;
    }
    return static_cast<ptrdiff_t>(at);
  }

  bool Contains(const Value* key) const { return Find(key) >= 0; }

  // The aggregated weight for `key`, or -1 when absent (counting builds).
  double Lookup(const Value* key) const {
    const ptrdiff_t at = Find(key);
    return at < 0 ? -1.0 : sums[static_cast<size_t>(at)];
  }
};

// Existence-only semijoin table for the prepared decision path: the
// child's shared-variable projection keyed by mixed-radix encoding into
// an epoch-stamped array. O(1) insert and probe, and "clearing" between
// trials is an epoch bump — no sorting and no memset in the trial loop.
// Key spaces past the cap fall back to the sort-based ChildTable.
struct ExistTable {
  std::vector<int> parent_positions;  // Parent-bag columns to probe with.
  std::vector<int> child_positions;   // Child-bag columns projected.
  std::vector<uint64_t> radix;        // Stride per shared column.
  std::vector<uint32_t> radix32;      // Same strides; key space < 2^21
                                      // guarantees they fit u32 (SIMD probe).
  std::vector<uint32_t> stamps;
  uint32_t epoch = 0;
  bool oversize = false;
  ChildTable fallback;

  // Bounds per-table memory (u32 stamps => 8 MiB per table at the cap);
  // larger shared-key spaces use the sort-based fallback.
  static constexpr uint64_t kMaxKeySpace = uint64_t{1} << 21;

  // Fixes the shared-column layout (per solver, not per call). The k-th
  // shared variable occupies parent_positions[k] / child_positions[k] in
  // the respective bags (both SharedPositions lists are ordered by
  // variable id, so they align).
  void Configure(uint64_t universe, std::vector<int> parent_pos,
                 std::vector<int> child_pos) {
    parent_positions = std::move(parent_pos);
    child_positions = std::move(child_pos);
    uint64_t space = 1;
    radix.clear();
    for (size_t k = 0; k < child_positions.size(); ++k) {
      radix.push_back(space);
      if (universe == 0 || space > kMaxKeySpace / std::max<uint64_t>(
                                                      universe, 1)) {
        oversize = true;
      }
      space *= std::max<uint64_t>(universe, 1);
      if (space > kMaxKeySpace) oversize = true;
    }
    if (oversize) {
      fallback.parent_positions = parent_positions;
      return;
    }
    radix32.assign(radix.begin(), radix.end());
    stamps.assign(static_cast<size_t>(space), 0);
    epoch = 0;
  }

  template <typename Rows>
  void Build(const Rows& rows) {
    if (oversize) {
      fallback.Build(
          rows, child_positions, [](uint32_t) { return 1.0; },
          /*sum_weights=*/false);
      return;
    }
    if (++epoch == 0) {  // uint32 wrap: flush and restart.
      std::fill(stamps.begin(), stamps.end(), 0u);
      epoch = 1;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      TupleView row = rows[i];
      uint64_t code = 0;
      for (size_t k = 0; k < child_positions.size(); ++k) {
        code += radix[k] * row[static_cast<size_t>(child_positions[k])];
      }
      // Values are certified < universe at load, which bounds the code
      // below the table size; if corrupt storage slipped a larger value
      // through anyway, drop the row rather than write out of bounds.
      if (code < stamps.size()) stamps[static_cast<size_t>(code)] = epoch;
    }
  }

  // Probes with the projection of a PARENT bag row (no key scratch).
  bool ContainsParentRow(TupleView parent_row, Tuple& key_scratch) const {
    if (oversize) {
      ProjectInto(parent_row, fallback.parent_positions, key_scratch);
      return fallback.Contains(key_scratch.data());
    }
    uint64_t code = 0;
    for (size_t k = 0; k < parent_positions.size(); ++k) {
      code += radix[k] * parent_row[static_cast<size_t>(parent_positions[k])];
    }
    // Out-of-range codes (corrupt storage only) are misses, matching
    // Build's drop of such rows and ProbeStampsBlock's mask.
    return code < stamps.size() &&
           stamps[static_cast<size_t>(code)] == epoch;
  }

  // Word-parallel probe of `n` (<= 64) consecutive parent rows laid out
  // arity-strided at `rows`: bit b of the result is set iff row b's
  // projection is present. Requires !oversize. Bit order matches row
  // order, so survivors enumerate identically to the scalar loop.
  uint64_t ProbeBlock(const Value* rows, size_t width, size_t n) const {
    return simd::ProbeStampsBlock(stamps.data(), stamps.size(), epoch, rows,
                                  width, parent_positions.data(),
                                  radix32.data(), parent_positions.size(), n);
  }
};

// True when `row` passes every (column, mask) filter. Values outside a
// mask's universe are disallowed, matching VarDomains::Allows.
bool PassesFilters(TupleView row,
                   const std::vector<std::pair<int, const Bitset*>>& filters) {
  for (const auto& [col, mask] : filters) {
    if (!mask->Test(row[static_cast<size_t>(col)])) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-worker evaluation state.
//
// The fields divide into CALL state — rebuilt by each Prepare and
// read-only while its trials are decided — and TRIAL scratch, rewritten
// by every DecidePrepared.

struct SolverEvalContext::Impl {
  // --- Call state ----------------------------------------------------------
  bool call_configured = false;

  // Cache-cap fallback: evaluate each decision monolithically over the
  // base domains, with the trial's overlay applied and then restored.
  bool fallback = false;
  VarDomains fallback_base;
  SavedDomains fallback_saved;

  // A trial-invariant bag died under the base domains: every trial is
  // "no solution".
  bool always_false = false;

  // Per bag: input rows for the trial loop (into filtered_storage or the
  // solver row cache), overlay columns, per-call base filters, and the
  // dynamic flag (subtree touches an overlay var).
  std::vector<const FlatTuples*> call_rows;
  std::vector<FlatTuples> filtered_storage;
  std::vector<std::vector<std::pair<int, int>>> overlay_cols;  // (col, var)
  std::vector<std::vector<std::pair<int, const Bitset*>>> base_filters;
  std::vector<char> dynamic_bag;
  std::vector<char> is_overlay;

  // Trial-invariant DP state, rebuilt each Prepare.
  std::vector<FlatTuples> static_survivors;
  std::vector<ExistTable> static_tables;  // Indexed by child node.

  // Demand-driven (top-down) decision state for the overlay-free case:
  // per node, a memo over the shared-key space (same mixed-radix codes
  // as ExistTable) recording whether the subtree admits a surviving row
  // for that key. Epoch-stamped: one bump per Prepare, no clearing.
  struct DemandMemo {
    std::vector<uint32_t> stamp;
    std::vector<uint8_t> result;
    uint32_t epoch = 0;
  };
  std::vector<DemandMemo> demand_memo;
  std::vector<std::vector<Value>> demand_keys;  // Per-node key scratch.
  bool demand_ok = false;  // All shared-key spaces within the cap.

  // --- Trial scratch -------------------------------------------------------
  bool trial_configured = false;
  std::vector<FlatTuples> trial_survivors;
  std::vector<ExistTable> trial_tables;
  std::vector<std::pair<int, const Bitset*>> filter_scratch;
  Tuple key_scratch;
};

SolverEvalContext::SolverEvalContext() : impl_(std::make_unique<Impl>()) {}
SolverEvalContext::~SolverEvalContext() = default;
SolverEvalContext::SolverEvalContext(SolverEvalContext&&) noexcept = default;
SolverEvalContext& SolverEvalContext::operator=(SolverEvalContext&&) noexcept =
    default;

// ---------------------------------------------------------------------------
// DecompositionSolver

DecompositionSolver::DecompositionSolver(const Query& q, const Database& db,
                                         TreeDecomposition td)
    : query_(q), db_(db), td_(std::move(td)) {
  children_ = td_.Children();
  const int num_nodes = td_.num_nodes();
  parent_.assign(num_nodes, -1);
  for (int t = 0; t < num_nodes; ++t) {
    for (int c : children_[t]) parent_[c] = t;
  }
  // Post-order via iterative DFS.
  std::vector<int> stack = {td_.root};
  std::vector<int> order;
  while (!stack.empty()) {
    int node = stack.back();
    stack.pop_back();
    order.push_back(node);
    for (int c : children_[node]) stack.push_back(c);
  }
  post_order_.assign(order.rbegin(), order.rend());

  shared_in_child_.resize(num_nodes);
  shared_in_parent_.resize(num_nodes);
  for (int c = 0; c < num_nodes; ++c) {
    if (parent_[c] < 0) continue;
    shared_in_child_[c] = SharedPositions(td_.bags[c], td_.bags[parent_[c]]);
    shared_in_parent_[c] = SharedPositions(td_.bags[parent_[c]], td_.bags[c]);
  }

  BagJoiner::Options jopts;
  jopts.enforce_negated = true;
  jopts.enforce_disequalities = false;
  joiners_.reserve(num_nodes);
  for (int t = 0; t < num_nodes; ++t) {
    joiners_.emplace_back(query_, db_, td_.bags[t], jopts);
  }
}

DecompositionSolver::~DecompositionSolver() = default;

bool DecompositionSolver::RunDp(const VarDomains* domains,
                                double* total) const {
  const int num_nodes = td_.num_nodes();
  // Surviving bag tuples (flat, bag-arity rows) and their extension
  // weights (counting variant only).
  std::vector<FlatTuples> surviving(num_nodes);
  std::vector<std::vector<double>> weights(num_nodes);
  Tuple key_scratch;

  for (int t : post_order_) {
    const std::vector<int>& bag = td_.bags[t];
    Relation sols = joiners_[t].Materialise(domains);
    std::vector<ChildTable> tables;
    tables.reserve(children_[t].size());
    for (int c : children_[t]) {
      ChildTable table;
      table.parent_positions = shared_in_parent_[c];
      const std::vector<double>& wc = weights[c];
      table.Build(
          surviving[c], shared_in_child_[c],
          [&](uint32_t i) { return total ? wc[i] : 1.0; },
          /*sum_weights=*/total != nullptr);
      tables.push_back(std::move(table));
    }

    surviving[t] = FlatTuples(static_cast<int>(bag.size()));
    for (TupleView alpha : sols) {
      double w = 1.0;
      bool alive = true;
      for (const ChildTable& table : tables) {
        ProjectInto(alpha, table.parent_positions, key_scratch);
        if (total) {
          const double sum = table.Lookup(key_scratch.data());
          if (sum < 0.0) {
            alive = false;
            break;
          }
          w *= sum;
        } else if (!table.Contains(key_scratch.data())) {
          alive = false;
          break;
        }
      }
      if (!alive) continue;
      surviving[t].PushBack(alpha);
      if (total) weights[t].push_back(w);
    }
    if (surviving[t].empty()) {
      if (total) *total = 0.0;
      return false;
    }
    // Free memory of fully-consumed children.
    for (int c : children_[t]) {
      surviving[c] = FlatTuples();
      weights[c].clear();
      weights[c].shrink_to_fit();
    }
  }

  if (total) {
    double sum = 0.0;
    for (double w : weights[td_.root]) sum += w;
    *total = sum;
    return sum > 0.0;
  }
  return true;
}

bool DecompositionSolver::Decide(const VarDomains* domains) const {
  return RunDp(domains, nullptr);
}

double DecompositionSolver::CountSolutions(const VarDomains* domains) const {
  assert(query_.disequalities().empty() &&
         "CountSolutions does not support disequalities");
  double total = 0.0;
  RunDp(domains, &total);
  return total;
}

bool DecompositionSolver::EnsureBagRowCache() {
  // Fast path: the state flag is published with release semantics after
  // the cache contents are fully built, so readers seeing 1/2 may use the
  // cache (or its absence) without taking the mutex.
  int state = bag_row_cache_state_.load(std::memory_order_acquire);
  if (state == 1) return true;
  if (state == 2) return false;

  std::lock_guard<std::mutex> lock(cache_mu_);
  state = bag_row_cache_state_.load(std::memory_order_relaxed);
  if (state == 1) return true;
  if (state == 2) return false;

  // Fault-injection site: forces the monolithic-DP fallback (the same
  // transition the cache cap takes) without a pathological database.
  if (failpoint::ShouldFail("dp.bag_cache_build")) {
    stat_prepared_path_.store(false, std::memory_order_relaxed);
    bag_row_cache_state_.store(2, std::memory_order_release);
    return false;
  }

  const int num_nodes = td_.num_nodes();
  const size_t universe = db_.universe_size();
  bag_rows_.assign(num_nodes, FlatTuples());
  uint64_t total = 0;
  for (int t = 0; t < num_nodes; ++t) {
    FlatTuples rows(static_cast<int>(td_.bags[t].size()));
    bool within_cap = true;
    joiners_[t].Enumerate(nullptr, [&](const Tuple& tup) {
      // Values are certified < universe at load, but a segment opened
      // without the data audit can still carry a corrupt data page; drop
      // such rows (as ExistTable::Build does) before they index the
      // per-value column arrays below.
      for (Value v : tup) {
        if (v >= universe) return true;
      }
      if (total >= kMaxCachedBagRows) {
        within_cap = false;
        return false;
      }
      rows.PushBack(AsView(tup));
      ++total;
      return true;
    });
    if (!within_cap) {
      bag_rows_.clear();
      stat_prepared_path_.store(false, std::memory_order_relaxed);
      bag_row_cache_state_.store(2, std::memory_order_release);
      return false;
    }
    bag_rows_[t] = std::move(rows);
  }

  // Column value indexes (counting sort per column: values are dense).
  // Each column's index allocates universe+1 offsets, so the total
  // footprint is O(sum of bag widths * universe); cap it like the row
  // cache and fall back to the monolithic DP past it (a huge sparse
  // universe is also the regime where per-call O(universe) masks are
  // the real cost anyway).
  uint64_t index_entries = 0;
  for (int t = 0; t < num_nodes; ++t) {
    index_entries += static_cast<uint64_t>(bag_rows_[t].width()) *
                     (static_cast<uint64_t>(universe) + 1);
  }
  if (index_entries > (uint64_t{1} << 24)) {
    bag_rows_.clear();
    stat_prepared_path_.store(false, std::memory_order_relaxed);
    bag_row_cache_state_.store(2, std::memory_order_release);
    return false;
  }
  bag_col_index_.assign(num_nodes, {});
  for (int t = 0; t < num_nodes; ++t) {
    const FlatTuples& rows = bag_rows_[t];
    const int width = rows.width();
    bag_col_index_[t].resize(width);
    for (int col = 0; col < width; ++col) {
      ColIndex& ix = bag_col_index_[t][col];
      ix.starts.assign(universe + 1, 0);
      for (size_t i = 0; i < rows.size(); ++i) {
        ++ix.starts[rows[i][static_cast<size_t>(col)] + 1];
      }
      for (size_t v = 1; v <= universe; ++v) ix.starts[v] += ix.starts[v - 1];
      ix.perm.resize(rows.size());
      std::vector<uint32_t> cursor(ix.starts.begin(), ix.starts.end() - 1);
      for (size_t i = 0; i < rows.size(); ++i) {
        ix.perm[cursor[rows[i][static_cast<size_t>(col)]]++] =
            static_cast<uint32_t>(i);
      }
    }
  }

  stat_cached_bag_rows_.store(total, std::memory_order_relaxed);
  bag_row_cache_state_.store(1, std::memory_order_release);
  return true;
}

DecompositionSolver::DpStats DecompositionSolver::dp_stats() const {
  DpStats stats;
  stats.cached_bag_rows = stat_cached_bag_rows_.load(std::memory_order_relaxed);
  stats.prepared_path = stat_prepared_path_.load(std::memory_order_relaxed);
  return stats;
}

void DecompositionSolver::Prepare(const VarDomains& base,
                                  const std::vector<int>& overlay_vars,
                                  SolverEvalContext& ctx) {
  SolverEvalContext::Impl& sc = *ctx.impl_;

  if (!EnsureBagRowCache()) {
    sc.fallback = true;
    sc.fallback_base = base;
    // Cover every overlaid variable even when the caller passed a
    // shorter (but non-empty) domain vector.
    if (sc.fallback_base.allowed.size() <
        static_cast<size_t>(query_.num_vars())) {
      sc.fallback_base.allowed.resize(static_cast<size_t>(query_.num_vars()));
    }
    return;
  }
  sc.fallback = false;

  const int num_nodes = td_.num_nodes();
  if (!sc.call_configured) {
    sc.call_rows.resize(num_nodes);
    sc.filtered_storage.resize(num_nodes);
    sc.overlay_cols.resize(num_nodes);
    sc.base_filters.resize(num_nodes);
    sc.dynamic_bag.resize(num_nodes);
    sc.is_overlay.resize(static_cast<size_t>(query_.num_vars()));
    sc.static_survivors.resize(num_nodes);
    sc.static_tables.resize(num_nodes);
    sc.demand_memo.resize(num_nodes);
    sc.demand_keys.resize(num_nodes);
    sc.demand_ok = true;
    for (int c = 0; c < num_nodes; ++c) {
      if (parent_[c] < 0) continue;
      sc.static_tables[c].Configure(db_.universe_size(), shared_in_parent_[c],
                                    shared_in_child_[c]);
      if (sc.static_tables[c].oversize) {
        sc.demand_ok = false;
      } else {
        sc.demand_memo[c].stamp.assign(sc.static_tables[c].stamps.size(), 0);
        sc.demand_memo[c].result.assign(sc.static_tables[c].stamps.size(), 0);
        sc.demand_keys[c].resize(shared_in_child_[c].size());
      }
    }
    sc.call_configured = true;
  }
  sc.always_false = false;

  std::fill(sc.is_overlay.begin(), sc.is_overlay.end(), 0);
  for (int v : overlay_vars) sc.is_overlay[static_cast<size_t>(v)] = 1;

  // Streams the cached rows of bag `t` that pass `filters`, driving the
  // iteration from the most selective restricted column's value index
  // (a singleton V_i then touches only that value's run instead of the
  // whole cache — cross-product bags from fill edges make the difference
  // quadratic). `fn` returns false to stop early.
  auto stream_filtered =
      [&](int t, const std::vector<std::pair<int, const Bitset*>>& filters,
          auto&& fn) {
        const FlatTuples& full = bag_rows_[t];
        size_t best_cost = full.size();
        int best = -1;
        for (size_t k = 0; k < filters.size(); ++k) {
          const auto& [col, mask] = filters[k];
          const ColIndex& ix = bag_col_index_[t][static_cast<size_t>(col)];
          const size_t vmax = std::min(mask->size(), ix.starts.size() - 1);
          size_t cost = 0;
          for (size_t v = mask->FindNext(0); v < vmax && cost < best_cost;
               v = mask->FindNext(v + 1)) {
            cost += ix.starts[v + 1] - ix.starts[v];
          }
          if (cost < best_cost) {
            best_cost = cost;
            best = static_cast<int>(k);
          }
        }
        if (best < 0) {
          // No restricted column narrows below a full scan.
          for (size_t i = 0; i < full.size(); ++i) {
            if (!PassesFilters(full[i], filters)) continue;
            if (!fn(full[i])) return;
          }
          return;
        }
        const auto& [best_col, best_mask] = filters[static_cast<size_t>(best)];
        const ColIndex& ix = bag_col_index_[t][static_cast<size_t>(best_col)];
        const size_t vmax = std::min(best_mask->size(), ix.starts.size() - 1);
        for (size_t v = best_mask->FindNext(0); v < vmax;
             v = best_mask->FindNext(v + 1)) {
          for (uint32_t at = ix.starts[v]; at < ix.starts[v + 1]; ++at) {
            TupleView row = full[ix.perm[at]];
            bool pass = true;
            for (size_t k = 0; k < filters.size() && pass; ++k) {
              if (static_cast<int>(k) == best) continue;
              pass = filters[k].second->Test(
                  row[static_cast<size_t>(filters[k].first)]);
            }
            if (!pass) continue;
            if (!fn(row)) return;
          }
        }
      };

  // Per-bag overlay columns, base filters, and the dynamic flag (a bag
  // is per-trial dynamic iff its subtree contains an overlay var).
  for (int t = 0; t < num_nodes; ++t) {
    const std::vector<int>& bag = td_.bags[t];
    sc.overlay_cols[t].clear();
    sc.base_filters[t].clear();
    for (size_t c = 0; c < bag.size(); ++c) {
      if (sc.is_overlay[static_cast<size_t>(bag[c])]) {
        sc.overlay_cols[t].push_back({static_cast<int>(c), bag[c]});
      }
      // Entries missing from a short domain vector are unrestricted
      // (the Prepare contract).
      if (static_cast<size_t>(bag[c]) < base.allowed.size()) {
        const Bitset& mask = base.allowed[static_cast<size_t>(bag[c])];
        if (!mask.empty()) {
          sc.base_filters[t].push_back({static_cast<int>(c), &mask});
        }
      }
    }
  }
  for (int t : post_order_) {
    bool dyn = !sc.overlay_cols[t].empty();
    for (int c : children_[t]) dyn = dyn || sc.dynamic_bag[c] != 0;
    sc.dynamic_bag[t] = dyn ? 1 : 0;
  }

  // Overlay-free decision (every trial shares one verdict): demand-driven
  // top-down search instead of the bottom-up table pass. exists(c, key)
  // is memoised per shared-key code, and the candidate rows for one key
  // are a (disjoint) slice of the child's rows, so total work is bounded
  // by the bottom-up pass — but only DEMANDED keys are ever evaluated,
  // and a witness short-circuits the whole tree. On edge-present boxes
  // (the common DLM case) this touches a vanishing fraction of the rows.
  if (!sc.dynamic_bag[td_.root] && sc.demand_ok) {
    for (int c = 0; c < num_nodes; ++c) {
      SolverEvalContext::Impl::DemandMemo& memo = sc.demand_memo[c];
      if (memo.stamp.empty()) continue;
      if (++memo.epoch == 0) {  // uint32 wrap: flush and restart.
        std::fill(memo.stamp.begin(), memo.stamp.end(), 0u);
        memo.epoch = 1;
      }
    }
    auto exists = [&](auto&& self, int c, TupleView parent_row) -> bool {
      const ExistTable& et = sc.static_tables[c];
      SolverEvalContext::Impl::DemandMemo& memo = sc.demand_memo[c];
      uint64_t code = 0;
      for (size_t k = 0; k < et.parent_positions.size(); ++k) {
        code +=
            et.radix[k] * parent_row[static_cast<size_t>(et.parent_positions[k])];
      }
      if (memo.stamp[static_cast<size_t>(code)] == memo.epoch) {
        return memo.result[static_cast<size_t>(code)] != 0;
      }
      std::vector<Value>& key = sc.demand_keys[c];
      for (size_t k = 0; k < et.parent_positions.size(); ++k) {
        key[k] = parent_row[static_cast<size_t>(et.parent_positions[k])];
      }
      // Drive the candidate scan from the smallest equality-column run.
      const FlatTuples& full = bag_rows_[c];
      size_t best_run = full.size() + 1;
      int best_k = -1;
      for (size_t k = 0; k < et.child_positions.size(); ++k) {
        const ColIndex& ix =
            bag_col_index_[c][static_cast<size_t>(et.child_positions[k])];
        const size_t run = ix.starts[key[k] + 1] - ix.starts[key[k]];
        if (run < best_run) {
          best_run = run;
          best_k = static_cast<int>(k);
        }
      }
      bool found = false;
      auto consider = [&](TupleView row) {
        for (size_t k = 0; k < et.child_positions.size(); ++k) {
          if (static_cast<int>(k) == best_k) continue;
          if (row[static_cast<size_t>(et.child_positions[k])] != key[k]) {
            return true;
          }
        }
        if (!PassesFilters(row, sc.base_filters[c])) return true;
        for (int gc : children_[c]) {
          if (!self(self, gc, row)) return true;
        }
        found = true;
        return false;  // Witness: stop the scan.
      };
      if (best_k >= 0) {
        const ColIndex& ix =
            bag_col_index_[c]
                          [static_cast<size_t>(et.child_positions[best_k])];
        const Value v = key[static_cast<size_t>(best_k)];
        for (uint32_t at = ix.starts[v]; at < ix.starts[v + 1]; ++at) {
          if (!consider(full[ix.perm[at]])) break;
        }
      } else {
        // No shared columns: any surviving row of the subtree will do.
        stream_filtered(c, sc.base_filters[c], consider);
      }
      memo.stamp[static_cast<size_t>(code)] = memo.epoch;
      memo.result[static_cast<size_t>(code)] = found ? 1 : 0;
      return found;
    };
    bool found = false;
    stream_filtered(td_.root, sc.base_filters[td_.root], [&](TupleView row) {
      for (int c : children_[td_.root]) {
        if (!exists(exists, c, row)) return true;  // Next root row.
      }
      found = true;
      return false;
    });
    sc.always_false = !found;
    return;
  }

  // Step 2a: per-trial-dynamic bags get their base-filtered rows
  // materialised (the trial loop re-scans them with colour masks).
  for (int t = 0; t < num_nodes; ++t) {
    if (!sc.dynamic_bag[t]) continue;
    if (sc.base_filters[t].empty()) {
      sc.call_rows[t] = &bag_rows_[t];
      continue;
    }
    FlatTuples& out = sc.filtered_storage[t];
    out.Reset(bag_rows_[t].width());
    stream_filtered(t, sc.base_filters[t], [&out](TupleView row) {
      out.PushBack(row);
      return true;
    });
    sc.call_rows[t] = &out;
  }

  // Step 2b: trial-invariant part of the DP, fused with the base filter
  // (rows stream straight into the existence semijoin). Children of a
  // static bag are static by construction, so their tables are already
  // built when the parent is processed.
  Tuple prepare_key_scratch;
  for (int t : post_order_) {
    if (sc.dynamic_bag[t]) continue;
    const bool is_root = t == td_.root;  // Possible only with no overlay.
    FlatTuples& out = sc.static_survivors[t];
    out.Reset(bag_rows_[t].width());
    bool found = false;
    stream_filtered(t, sc.base_filters[t], [&](TupleView row) {
      for (int c : children_[t]) {
        if (!sc.static_tables[c].ContainsParentRow(row, prepare_key_scratch)) {
          return true;
        }
      }
      if (is_root) {
        // Existence-only decision: the first surviving root row settles
        // every (overlay-free) trial.
        found = true;
        return false;
      }
      out.PushBack(row);
      return true;
    });
    if (is_root) {
      sc.always_false = !found;
      break;  // Root is last in post-order anyway.
    }
    if (out.empty()) {
      sc.always_false = true;
      break;
    }
    sc.static_tables[t].Build(out);
  }
}

bool DecompositionSolver::DecidePrepared(
    SolverEvalContext& ctx,
    const std::vector<DomainRestriction>& extra) const {
  SolverEvalContext::Impl& sc = *ctx.impl_;
  assert((sc.fallback || sc.call_configured) &&
         "DecidePrepared on a context no Prepare has configured");

  if (sc.fallback) {
    // Swap in only the <= 2|Delta| endpoint domains, decide, restore.
    ApplyOverlay(sc.fallback_base, extra, sc.fallback_saved);
    const bool verdict = RunDp(&sc.fallback_base, nullptr);
    RestoreOverlay(sc.fallback_base, sc.fallback_saved);
    return verdict;
  }

  if (sc.always_false) return false;
  const int root = td_.root;
  // No overlay anywhere: the Prepare-time pass already established the
  // verdict (root survivors were non-empty).
  if (!sc.dynamic_bag[root]) return true;

  // Trial scratch: sized on the first trial that needs it, so contexts
  // that only ever see overlay-free calls never allocate it.
  if (!sc.trial_configured) {
    const int num_nodes = td_.num_nodes();
    sc.trial_survivors.resize(num_nodes);
    sc.trial_tables.resize(num_nodes);
    for (int c = 0; c < num_nodes; ++c) {
      if (parent_[c] < 0) continue;
      sc.trial_tables[c].Configure(db_.universe_size(), shared_in_parent_[c],
                                   shared_in_child_[c]);
    }
    sc.trial_configured = true;
  }

  for (int t : post_order_) {
    if (!sc.dynamic_bag[t]) continue;
    const FlatTuples& in = *sc.call_rows[t];
    const bool is_root = t == root;

    sc.filter_scratch.clear();
    for (const auto& [col, var] : sc.overlay_cols[t]) {
      for (const DomainRestriction& r : extra) {
        if (r.var == var) sc.filter_scratch.push_back({col, r.mask});
      }
    }

    FlatTuples& out = sc.trial_survivors[t];
    out.Reset(in.width());
    const std::vector<int>& kids = children_[t];
    // Word-parallel semijoin: rows are filtered in 64-row blocks, one
    // alive-bit per row, each child table ANDing its probe mask in (the
    // SIMD stamp-probe kernel does 8 rows per step). Bit order preserves
    // row order, so survivors and the verdict match the row-at-a-time
    // loop exactly; a block merely probes up to 63 rows past the first
    // witness before noticing it.
    const size_t width = static_cast<size_t>(in.width());
    for (size_t i = 0; i < in.size(); i += 64) {
      const size_t block = std::min<size_t>(64, in.size() - i);
      uint64_t alive =
          block == 64 ? ~uint64_t{0} : (uint64_t{1} << block) - 1;
      if (!sc.filter_scratch.empty()) {
        for (size_t b = 0; b < block; ++b) {
          if (!PassesFilters(in[i + b], sc.filter_scratch)) {
            alive &= ~(uint64_t{1} << b);
          }
        }
      }
      const Value* rows = in[i].data();
      for (int c : kids) {
        if (alive == 0) break;
        const ExistTable& table =
            sc.dynamic_bag[c] ? sc.trial_tables[c] : sc.static_tables[c];
        if (table.oversize) {
          for (size_t b = 0; b < block; ++b) {
            if ((alive >> b & 1) != 0 &&
                !table.ContainsParentRow(in[i + b], sc.key_scratch)) {
              alive &= ~(uint64_t{1} << b);
            }
          }
        } else {
          alive &= table.ProbeBlock(rows, width, block);
        }
      }
      if (alive == 0) continue;
      // Existence-only: any surviving root row is a witness.
      if (is_root) return true;
      for (size_t b = 0; b < block; ++b) {
        if ((alive >> b & 1) != 0) out.PushBack(in[i + b]);
      }
    }
    if (is_root || out.empty()) return false;

    sc.trial_tables[t].Build(out);
  }
  // The root is an ancestor of every bag, so a non-empty overlay always
  // returns from inside the loop; this covers the degenerate case of an
  // overlay on variables outside every bag.
  return true;
}

}  // namespace cqcount
