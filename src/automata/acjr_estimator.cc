#include "automata/acjr_estimator.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "hom/bag_solutions.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/math_util.h"
#include "util/random.h"

namespace cqcount {
namespace {

std::vector<int> PositionsOf(const std::vector<int>& bag,
                             const std::vector<int>& subset) {
  std::vector<int> positions;
  size_t j = 0;
  for (size_t i = 0; i < bag.size(); ++i) {
    while (j < subset.size() && subset[j] < bag[i]) ++j;
    if (j < subset.size() && subset[j] == bag[i]) {
      positions.push_back(static_cast<int>(i));
    }
  }
  return positions;
}

std::vector<int> SortedUnion(const std::vector<int>& a,
                             const std::vector<int>& b) {
  std::vector<int> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// Fan a node's state loop out only past this many states (below it the
// lane bookkeeping costs more than the work).
constexpr size_t kMinStatesForFanout = 4;

class AcjrEngine {
 public:
  AcjrEngine(const Query& q, const Database& db,
             const NiceTreeDecomposition& ntd, const AcjrOptions& opts)
      : query_(q), db_(db), ntd_(ntd), opts_(opts) {
    lanes_ = 1;
    if (opts_.pool != nullptr && opts_.intra_threads > 1) {
      lanes_ = opts_.intra_threads;
    }
    scratch_.resize(static_cast<size_t>(lanes_));
    result_.parallel.lanes = lanes_;
  }

  StatusOr<AcjrResult> Run() {
    const int num_nodes = ntd_.num_nodes();
    sols_.resize(num_nodes);
    free_bag_positions_.resize(num_nodes);
    free_vars_.resize(num_nodes);
    estimates_.resize(num_nodes);
    sketches_.resize(num_nodes);
    intro_child_.resize(num_nodes);
    join_children_.resize(num_nodes);
    forget_candidates_.resize(num_nodes);

    // Bag solutions (each canonical, so the relation doubles as its own
    // sorted index via IndexOf) and a census of union states for the
    // per-union error budget.
    uint64_t union_states = 0;
    for (int t = 0; t < num_nodes; ++t) {
      // Node-boundary checkpoint: bag-solution joins dominate memory and
      // time on wide bags, so the governor gets a say between nodes.
      if (opts_.governor != nullptr &&
          opts_.governor->Check() != GovernanceState::kRunning) {
        return opts_.governor->ToStatus("ACJR bag-solution pass");
      }
      const auto& node = ntd_.node(t);
      sols_[t] = ComputeBagSolutions(query_, db_, node.bag, nullptr);
      for (size_t p = 0; p < node.bag.size(); ++p) {
        if (node.bag[p] < query_.num_free()) {
          free_bag_positions_[t].push_back(static_cast<int>(p));
        }
      }
      if (node.kind == NiceNodeKind::kForget &&
          node.var >= query_.num_free()) {
        union_states += sols_[t].size();
      }
    }
    result_.union_estimates = 0;
    result_.exact = union_states == 0;
    // Per-union error budget: relative errors of union estimates compound
    // (roughly additively) along the estimate DAG; one union per
    // existential variable exists on any root-leaf path.
    const int k_exist = std::max(1, query_.num_existential());
    epsilon_node_ = opts_.epsilon / (2.0 * static_cast<double>(k_exist));
    const double delta_node =
        opts_.delta / std::max<uint64_t>(1, union_states);
    z_node_ = std::min(std::sqrt(1.0 / delta_node), 6.0);

    // Bottom-up (children have larger indices). Within a node, states are
    // independent cells keyed by their own derived RNG stream, so the
    // state loops fan across lanes with index-order-independent writes
    // (each cell owns its estimates_/sketches_ slot).
    for (int t = num_nodes - 1; t >= 0; --t) {
      // Node-boundary checkpoint (deterministic unit = one node's state
      // loop); the sketch DP has no salvageable partial answer, so an
      // interruption surfaces the typed cause.
      if (opts_.governor != nullptr &&
          opts_.governor->Check() != GovernanceState::kRunning) {
        return opts_.governor->ToStatus("ACJR estimation");
      }
      ProcessNode(t);
    }
    for (const LaneScratch& scratch : scratch_) {
      result_.membership_tests += scratch.membership_tests;
    }
    result_.union_estimates =
        union_estimates_.load(std::memory_order_relaxed);
    if (!converged_ok_.load(std::memory_order_relaxed)) {
      result_.converged = false;
    }

    // Root: empty bag; a single state when satisfiable.
    if (sols_[0].empty()) {
      result_.estimate = 0.0;
      result_.exact = true;
      result_.lower_bound = result_.upper_bound = result_.estimate;
      return result_;
    }
    result_.estimate = estimates_[0].empty() ? 0.0 : estimates_[0][0];
    if (result_.estimate == 0.0) result_.exact = true;
    result_.lower_bound = result_.upper_bound = result_.estimate;
    return result_;
  }

 private:
  // Per-lane membership-query scratch (CountContaining / Feasible).
  struct LaneScratch {
    std::vector<Value> pinned_value;
    std::vector<bool> pinned_set;
    std::unordered_map<int64_t, bool> memo;
    uint64_t membership_tests = 0;
  };

  // Runs `fn(lane, state)` over all states of one node, fanning across
  // lanes when configured. The work for a state must depend only on the
  // state index (derived RNG streams), never on the lane.
  void ForEachState(size_t states, const std::function<void(int, size_t)>& fn) {
    if (lanes_ > 1 && states >= kMinStatesForFanout) {
      Executor::LaneStats stats =
          opts_.pool->ParallelForLanes(states, lanes_, fn);
      result_.parallel.tasks += states;
      result_.parallel.worker_tasks += stats.worker_ran;
    } else {
      for (size_t i = 0; i < states; ++i) fn(0, i);
    }
  }

  // The derived stream for one (node, state) cell.
  Rng CellRng(int t, size_t i) const {
    return Rng(DeriveSeed(opts_.seed, {static_cast<uint64_t>(t),
                                       static_cast<uint64_t>(i)}));
  }

  void ProcessNode(int t) {
    const auto& node = ntd_.node(t);
    const size_t states = sols_[t].size();
    estimates_[t].assign(states, 0.0);
    // Dead states keep this placeholder; live states are overwritten with
    // a sketch of the node's free-variable width by the handlers below.
    sketches_[t].assign(states, FlatTuples());
    switch (node.kind) {
      case NiceNodeKind::kLeaf: {
        free_vars_[t] = {};
        for (size_t i = 0; i < states; ++i) {
          estimates_[t][i] = 1.0;
          sketches_[t][i] = FlatTuples(0);
          sketches_[t][i].AppendRow();  // The empty free assignment.
        }
        break;
      }
      case NiceNodeKind::kIntroduce:
        ProcessIntroduce(t);
        break;
      case NiceNodeKind::kForget:
        ProcessForget(t);
        break;
      case NiceNodeKind::kJoin:
        ProcessJoin(t);
        break;
    }
  }

  void ProcessIntroduce(int t) {
    const auto& node = ntd_.node(t);
    const int c = node.children[0];
    const bool var_free = node.var < query_.num_free();
    free_vars_[t] = var_free ? SortedUnion(free_vars_[c], {node.var})
                             : free_vars_[c];
    const std::vector<int> child_positions =
        PositionsOf(node.bag, ntd_.node(c).bag);
    // Insert position of the introduced variable within free_vars_[t].
    int insert_at = -1;
    if (var_free) {
      insert_at = static_cast<int>(
          std::lower_bound(free_vars_[t].begin(), free_vars_[t].end(),
                           node.var) -
          free_vars_[t].begin());
    }
    // Position of the introduced variable inside the bag.
    const int var_pos = static_cast<int>(
        std::lower_bound(node.bag.begin(), node.bag.end(), node.var) -
        node.bag.begin());

    const int width = static_cast<int>(free_vars_[t].size());
    intro_child_[t].assign(sols_[t].size(), -1);
    ForEachState(sols_[t].size(), [&](int, size_t i) {
      TupleView alpha = sols_[t][i];
      Tuple proj;
      ProjectInto(alpha, child_positions, proj);
      const ptrdiff_t j = sols_[c].IndexOf(proj.data());
      if (j < 0) return;  // Dead state.
      intro_child_[t][i] = static_cast<int>(j);
      if (estimates_[c][j] <= 0.0) return;
      estimates_[t][i] = estimates_[c][j];
      if (var_free) {
        FlatTuples extended(width);
        extended.reserve(sketches_[c][j].size());
        for (size_t s = 0; s < sketches_[c][j].size(); ++s) {
          TupleView x = sketches_[c][j][s];
          Value* dst = extended.AppendRow();
          for (int k = 0; k < insert_at; ++k) dst[k] = x[k];
          dst[insert_at] = alpha[var_pos];
          for (int k = insert_at; k < width - 1; ++k) dst[k + 1] = x[k];
        }
        sketches_[t][i] = std::move(extended);
      } else {
        sketches_[t][i] = sketches_[c][j];
      }
    });
  }

  void ProcessForget(int t) {
    const auto& node = ntd_.node(t);
    const int c = node.children[0];
    free_vars_[t] = free_vars_[c];
    const bool var_free = node.var < query_.num_free();
    const std::vector<int> parent_positions =
        PositionsOf(ntd_.node(c).bag, node.bag);

    // Group child states by their projection onto B_t (sequential: the
    // grouping is shared input to every state's cell).
    forget_candidates_[t].assign(sols_[t].size(), {});
    Tuple proj;
    for (size_t j = 0; j < sols_[c].size(); ++j) {
      if (estimates_[c][j] <= 0.0) continue;
      ProjectInto(sols_[c][j], parent_positions, proj);
      const ptrdiff_t i = sols_[t].IndexOf(proj.data());
      if (i < 0) continue;
      forget_candidates_[t][i].push_back(static_cast<int>(j));
    }

    ForEachState(sols_[t].size(), [&](int lane, size_t i) {
      const auto& candidates = forget_candidates_[t][i];
      if (candidates.empty()) return;  // Dead state.
      Rng rng = CellRng(t, i);
      if (var_free || candidates.size() == 1) {
        // Disjoint union (distinct values of a free variable), or a
        // trivial single-branch union: exact sum + mixture sampling.
        double total = 0.0;
        for (int j : candidates) total += estimates_[c][j];
        estimates_[t][i] = total;
        sketches_[t][i] = SampleMixture(c, candidates, total, rng);
      } else {
        // Overlapping union over an existential variable: Karp-Luby.
        EstimateUnion(t, static_cast<int>(i), c, candidates, rng,
                      scratch_[static_cast<size_t>(lane)]);
      }
    });
  }

  void ProcessJoin(int t) {
    const auto& node = ntd_.node(t);
    const int c1 = node.children[0];
    const int c2 = node.children[1];
    free_vars_[t] = SortedUnion(free_vars_[c1], free_vars_[c2]);
    join_children_[t].assign(sols_[t].size(), {-1, -1});
    // Positions of each child's free vars within the union.
    std::vector<int> from1(free_vars_[c1].size());
    std::vector<int> from2(free_vars_[c2].size());
    for (size_t k = 0; k < free_vars_[c1].size(); ++k) {
      from1[k] = static_cast<int>(
          std::lower_bound(free_vars_[t].begin(), free_vars_[t].end(),
                           free_vars_[c1][k]) -
          free_vars_[t].begin());
    }
    for (size_t k = 0; k < free_vars_[c2].size(); ++k) {
      from2[k] = static_cast<int>(
          std::lower_bound(free_vars_[t].begin(), free_vars_[t].end(),
                           free_vars_[c2][k]) -
          free_vars_[t].begin());
    }

    const int width = static_cast<int>(free_vars_[t].size());
    ForEachState(sols_[t].size(), [&](int, size_t i) {
      TupleView alpha = sols_[t][i];
      // Join children share B_t, so alpha indexes both directly.
      const ptrdiff_t j1 = sols_[c1].IndexOf(alpha);
      const ptrdiff_t j2 = sols_[c2].IndexOf(alpha);
      if (j1 < 0 || j2 < 0) return;
      join_children_[t][i] = {static_cast<int>(j1), static_cast<int>(j2)};
      if (estimates_[c1][j1] <= 0.0 || estimates_[c2][j2] <= 0.0) return;
      estimates_[t][i] = estimates_[c1][j1] * estimates_[c2][j2];
      // Product sampling: independent child samples merged over the
      // union of free variables (overlaps agree: both children pin their
      // bag's free variables to alpha).
      Rng rng = CellRng(t, i);
      const FlatTuples& sk1 = sketches_[c1][j1];
      const FlatTuples& sk2 = sketches_[c2][j2];
      const int wanted = opts_.sketch_size;
      FlatTuples merged(width);
      merged.reserve(wanted);
      for (int s = 0; s < wanted; ++s) {
        TupleView x1 = sk1[rng.UniformInt(sk1.size())];
        TupleView x2 = sk2[rng.UniformInt(sk2.size())];
        Value* dst = merged.AppendRow();
        for (size_t k = 0; k < from2.size(); ++k) dst[from2[k]] = x2[k];
        for (size_t k = 0; k < from1.size(); ++k) dst[from1[k]] = x1[k];
      }
      sketches_[t][i] = std::move(merged);
    });
  }

  // Draws `sketch_size` samples from the disjoint mixture of candidate
  // child languages (weights = child estimates).
  FlatTuples SampleMixture(int c, const std::vector<int>& candidates,
                           double total, Rng& rng) {
    FlatTuples sketch(static_cast<int>(free_vars_[c].size()));
    sketch.reserve(opts_.sketch_size);
    for (int s = 0; s < opts_.sketch_size; ++s) {
      double r = rng.UniformDouble() * total;
      int chosen = candidates.back();
      for (int j : candidates) {
        if (r < estimates_[c][j]) {
          chosen = j;
          break;
        }
        r -= estimates_[c][j];
      }
      const FlatTuples& sk = sketches_[c][chosen];
      sketch.PushBack(sk[rng.UniformInt(sk.size())]);
    }
    return sketch;
  }

  // Karp-Luby estimate of |union_j L(c, candidate_j)| for the union state
  // (t, i), plus a rejection-corrected union sketch.
  void EstimateUnion(int t, int i, int c, const std::vector<int>& candidates,
                     Rng& rng, LaneScratch& scratch) {
    union_estimates_.fetch_add(1, std::memory_order_relaxed);
    double total = 0.0;
    for (int j : candidates) total += estimates_[c][j];

    // Draw (j ~ estimates, x ~ sketch_j), weight by 1 / c(x).
    auto draw = [&](int* out_j) -> TupleView {
      double r = rng.UniformDouble() * total;
      int chosen = candidates.back();
      for (int j : candidates) {
        if (r < estimates_[c][j]) {
          chosen = j;
          break;
        }
        r -= estimates_[c][j];
      }
      *out_j = chosen;
      const FlatTuples& sk = sketches_[c][chosen];
      return sk[rng.UniformInt(sk.size())];
    };

    MeanVarAccumulator acc;
    const int min_samples = 16;
    for (int s = 0; s < kAcjrMaxUnionSamples; ++s) {
      int j = -1;
      const TupleView x = draw(&j);
      const int count = CountContaining(c, candidates, x, scratch);
      assert(count >= 1);
      acc.Add(1.0 / static_cast<double>(count));
      if (s + 1 >= min_samples) {
        const double half_width = z_node_ * std::sqrt(acc.mean_variance());
        if (half_width <= epsilon_node_ * std::max(acc.mean(), 1e-12)) break;
      }
      if (s + 1 == kAcjrMaxUnionSamples) {
        converged_ok_.store(false, std::memory_order_relaxed);
      }
    }
    estimates_[t][i] = total * acc.mean();

    // Union sketch by rejection (accept x with probability 1/c(x)).
    FlatTuples sketch(static_cast<int>(free_vars_[c].size()));
    sketch.reserve(opts_.sketch_size);
    for (int s = 0; s < opts_.sketch_size; ++s) {
      bool accepted = false;
      for (int retry = 0; retry < kAcjrMaxRejectionRetries; ++retry) {
        int j = -1;
        const TupleView x = draw(&j);
        const int count = CountContaining(c, candidates, x, scratch);
        if (count == 1 || rng.UniformDouble() < 1.0 / count) {
          sketch.PushBack(x);
          accepted = true;
          break;
        }
      }
      if (!accepted) {
        int j = -1;
        sketch.PushBack(draw(&j));  // Accept the next draw (bounded bias).
      }
    }
    sketches_[t][i] = std::move(sketch);
  }

  // c(x) = number of candidate child states whose language contains x.
  int CountContaining(int c, const std::vector<int>& candidates, TupleView x,
                      LaneScratch& scratch) {
    // Pin the free variables of the child subtree to x.
    scratch.pinned_value.assign(query_.num_free(), 0);
    scratch.pinned_set.assign(query_.num_free(), false);
    const auto& fv = free_vars_[c];
    assert(fv.size() == x.size());
    for (size_t k = 0; k < fv.size(); ++k) {
      scratch.pinned_value[fv[k]] = x[k];
      scratch.pinned_set[fv[k]] = true;
    }
    scratch.memo.clear();
    int count = 0;
    for (int j : candidates) {
      if (Feasible(c, j, scratch)) ++count;
    }
    return count;
  }

  // Top-down feasibility: does some consistent family below (t, state j)
  // produce labels matching the pinned assignment? Reads only ancestor-
  // completed per-node tables, so concurrent lanes are safe.
  bool Feasible(int t, int j, LaneScratch& scratch) {
    ++scratch.membership_tests;
    const int64_t key = (static_cast<int64_t>(t) << 32) | j;
    auto it = scratch.memo.find(key);
    if (it != scratch.memo.end()) return it->second;
    bool ok = FeasibleUncached(t, j, scratch);
    scratch.memo.emplace(key, ok);
    return ok;
  }

  bool FeasibleUncached(int t, int j, LaneScratch& scratch) {
    if (estimates_[t][j] <= 0.0) return false;  // Dead state.
    const auto& node = ntd_.node(t);
    const TupleView alpha = sols_[t][j];
    // The state's own label must match the pinned free values.
    for (int p : free_bag_positions_[t]) {
      const int var = node.bag[p];
      if (scratch.pinned_set[var] && alpha[p] != scratch.pinned_value[var]) {
        return false;
      }
    }
    switch (node.kind) {
      case NiceNodeKind::kLeaf:
        return true;
      case NiceNodeKind::kIntroduce: {
        const int cj = intro_child_[t][j];
        return cj >= 0 && Feasible(node.children[0], cj, scratch);
      }
      case NiceNodeKind::kForget: {
        for (int cj : forget_candidates_[t][j]) {
          if (Feasible(node.children[0], cj, scratch)) return true;
        }
        return false;
      }
      case NiceNodeKind::kJoin: {
        const auto [j1, j2] = join_children_[t][j];
        return j1 >= 0 && j2 >= 0 &&
               Feasible(node.children[0], j1, scratch) &&
               Feasible(node.children[1], j2, scratch);
      }
    }
    return false;
  }

  const Query& query_;
  const Database& db_;
  const NiceTreeDecomposition& ntd_;
  AcjrOptions opts_;
  AcjrResult result_;
  int lanes_ = 1;

  double epsilon_node_ = 0.1;
  double z_node_ = 2.0;

  std::vector<Relation> sols_;
  std::vector<std::vector<int>> free_bag_positions_;
  std::vector<std::vector<int>> free_vars_;
  std::vector<std::vector<double>> estimates_;
  // sketches_[t][i]: sampled free-variable assignments (flat rows of
  // width |free_vars_[t]|) for state i of node t.
  std::vector<std::vector<FlatTuples>> sketches_;
  std::vector<std::vector<int>> intro_child_;
  std::vector<std::vector<std::pair<int, int>>> join_children_;
  std::vector<std::vector<std::vector<int>>> forget_candidates_;

  // Per-lane membership-query scratch and lane-shared counters.
  std::vector<LaneScratch> scratch_;
  std::atomic<uint64_t> union_estimates_{0};
  std::atomic<bool> converged_ok_{true};
};

}  // namespace

StatusOr<AcjrResult> AcjrCountAnswers(const Query& q, const Database& db,
                                      const NiceTreeDecomposition& ntd,
                                      const AcjrOptions& opts) {
  if (q.Kind() != QueryKind::kCq) {
    return Status::InvalidArgument(
        "Theorem 16 applies to pure conjunctive queries");
  }
  Status s = q.CheckAgainstDatabase(db);
  if (!s.ok()) return s;
  s = opts.ValidateAccuracy();
  if (!s.ok()) return s;
  if (opts.sketch_size < 1) {
    return Status::InvalidArgument(
        "sketch_size must be positive");
  }
  obs::Span span("acjr.estimate");
  AcjrEngine engine(q, db, ntd, opts);
  return engine.Run();
}

}  // namespace cqcount
