#include "hom/backtracking.h"

#include <algorithm>

#include "decomposition/elimination_order.h"
#include "hom/join.h"
#include "util/executor.h"

namespace cqcount {
namespace {

// A good static order: min-fill over H(phi), which keeps the join's
// constraint propagation tight.
std::vector<int> SearchOrder(const Query& q) {
  return MinFillOrder(q.BuildHypergraph());
}

// The answer count's order: the free variables first, then the existential
// ones. Within each group the next variable is the one with the most
// neighbours already placed through positive atoms, which narrow its
// candidates; ties go in min-fill order. Min-fill alone breaks its ties by
// variable index, and on a canonically numbered query that scatters a
// path: a 3-path of one free variable visited 534,726 nodes for 2,746 in
// this order.
std::vector<int> AnswerSearchOrder(const Query& q) {
  const int n = q.num_vars();
  std::vector<std::vector<int>> neighbours(n);
  for (const Atom& atom : q.atoms()) {
    if (atom.negated) continue;
    for (int u : atom.vars) {
      for (int v : atom.vars) {
        if (u != v) neighbours[u].push_back(v);
      }
    }
  }
  for (std::vector<int>& list : neighbours) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  const std::vector<int> min_fill = SearchOrder(q);
  std::vector<int> order;
  std::vector<bool> placed(n, false);
  std::vector<int> placed_neighbours(n, 0);
  for (const bool free_group : {true, false}) {
    for (;;) {
      int next = -1;
      for (int v : min_fill) {
        if (placed[v] || (v < q.num_free()) != free_group) continue;
        if (next < 0 || placed_neighbours[v] > placed_neighbours[next]) {
          next = v;
        }
      }
      if (next < 0) break;
      placed[next] = true;
      order.push_back(next);
      for (int w : neighbours[next]) ++placed_neighbours[w];
    }
  }
  return order;
}

BagJoiner AnswerJoiner(const Query& q, const Database& db) {
  BagJoiner::Options opts;
  opts.enforce_negated = true;
  opts.enforce_disequalities = true;
  return BagJoiner(q, db, AnswerSearchOrder(q), opts);
}

// One descent of the answer count under `limits`.
JoinCount CountWith(const BagJoiner& joiner, const SearchLimits& limits) {
  JoinCount count;
  count.complete = joiner.Enumerate(
      nullptr,
      [&count](const Tuple&) {
        ++count.answers;
        return true;
      },
      limits, &count.nodes);
  return count;
}

}  // namespace

bool EnumerateSolutions(const Query& q, const Database& db,
                        const std::function<bool(const Tuple&)>& callback) {
  const std::vector<int> order = SearchOrder(q);
  BagJoiner::Options opts;
  opts.enforce_negated = true;
  opts.enforce_disequalities = true;
  BagJoiner joiner(q, db, order, opts);
  // Re-index from search order back to variable ids.
  Tuple by_var(q.num_vars(), 0);
  return joiner.Enumerate(nullptr, [&](const Tuple& t) {
    for (size_t d = 0; d < order.size(); ++d) by_var[order[d]] = t[d];
    return callback(by_var);
  });
}

uint64_t CountSolutionsBrute(const Query& q, const Database& db) {
  uint64_t count = 0;
  EnumerateSolutions(q, db, [&count](const Tuple&) {
    ++count;
    return true;
  });
  return count;
}

uint64_t CountAnswersBrute(const Query& q, const Database& db) {
  const int num_free = q.num_free();
  // Collect free-variable prefixes flat, dedup once at the end.
  Relation answers(num_free);
  EnumerateSolutions(q, db, [&](const Tuple& solution) {
    Value* dst = answers.AppendRow();
    for (int i = 0; i < num_free; ++i) dst[i] = solution[i];
    return true;
  });
  answers.Canonicalize();
  return answers.size();
}

JoinCount CountAnswersJoin(const Query& q, const Database& db,
                           uint64_t node_budget,
                           const ResourceGovernor* governor, Executor* pool,
                           int lanes) {
  const BagJoiner joiner = AnswerJoiner(q, db);
  const SearchLimits limits{.distinct_prefix = q.num_free(),
                            .node_budget = node_budget,
                            .governor = governor};
  if (pool == nullptr || lanes <= 1 || q.num_free() == 0 ||
      node_budget != UINT64_MAX) {
    return CountWith(joiner, limits);
  }
  const std::vector<Value> cuts = joiner.FirstLevelCuts(kJoinWindows);
  // Each window sums into its own slot.
  std::vector<JoinCount> windows(kJoinWindows);
  const Executor::LaneStats stats =
      pool->ParallelForLanes(kJoinWindows, lanes, [&](int, size_t i) {
        SearchLimits window = limits;
        window.first_begin = cuts[i];
        window.first_end = cuts[i + 1];
        windows[i] = CountWith(joiner, window);
      });
  JoinCount count;
  count.complete = true;
  for (const JoinCount& window : windows) {
    count.answers += window.answers;
    count.nodes += window.nodes;
    count.complete = count.complete && window.complete;
  }
  count.parallel = {.lanes = lanes,
                    .tasks = kJoinWindows,
                    .worker_tasks = stats.worker_ran};
  return count;
}

bool DecideSolutionBrute(const Query& q, const Database& db) {
  bool found = false;
  EnumerateSolutions(q, db, [&found](const Tuple&) {
    found = true;
    return false;  // Stop at the first solution.
  });
  return found;
}

}  // namespace cqcount
