#include "hom/join.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

namespace cqcount {
namespace {

// First row of [lo, hi) whose column 0 is at least `v`: the rows are
// sorted by column 0.
size_t FirstAtLeast(const Relation& rel, size_t lo, size_t hi, Value v) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (rel.At(mid, 0) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void ApplyOverlay(VarDomains& domains,
                  const std::vector<DomainRestriction>& extra,
                  SavedDomains& saved) {
  saved.clear();
  saved.reserve(extra.size());
  for (const DomainRestriction& r : extra) {
    assert(static_cast<size_t>(r.var) < domains.allowed.size());
    Bitset& domain = domains.allowed[static_cast<size_t>(r.var)];
    saved.emplace_back(r.var, std::move(domain));
    if (saved.back().second.empty()) {
      domain = *r.mask;
    } else {
      domain = saved.back().second;
      domain.IntersectWith(*r.mask);
    }
  }
}

void RestoreOverlay(VarDomains& domains, SavedDomains& saved) {
  for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
    domains.allowed[static_cast<size_t>(it->first)] = std::move(it->second);
  }
  saved.clear();
}

BagJoiner::BagJoiner(const Query& q, const Database& db,
                     std::vector<int> vars, Options opts)
    : query_(q), db_(db), vars_(std::move(vars)), opts_(opts) {
  const int depth = static_cast<int>(vars_.size());
  std::vector<int> level_of(q.num_vars(), -1);
  for (int d = 0; d < depth; ++d) {
    assert(level_of[vars_[d]] == -1 && "duplicate variable in join order");
    level_of[vars_[d]] = d;
  }
  active_.resize(depth);
  negated_at_.resize(depth);
  diseq_at_.resize(depth);

  for (const Atom& atom : q.atoms()) {
    const Relation& rel = db.relation(atom.relation);
    if (!atom.negated) {
      if (rel.empty()) {
        infeasible_ = true;
        continue;
      }
      // same_as[p] is the first position of atom.vars[p]'s variable: a
      // repeated variable's facts must agree on all of its positions.
      const size_t arity = atom.vars.size();
      std::vector<int> same_as(arity);
      bool repeats = false;
      for (size_t p = 0; p < arity; ++p) {
        size_t first = 0;
        while (atom.vars[first] != atom.vars[p]) ++first;
        same_as[p] = static_cast<int>(first);
        repeats = repeats || first != p;
      }
      // First position of each involved variable, ordered by level.
      std::map<int, int> level_to_pos;
      for (size_t p = 0; p < arity; ++p) {
        const int level = level_of[atom.vars[p]];
        if (level >= 0 && same_as[p] == static_cast<int>(p)) {
          level_to_pos[level] = static_cast<int>(p);
        }
      }
      if (level_to_pos.empty()) continue;
      std::vector<int> positions;
      Constraint constraint{&rel, nullptr, {}};
      for (const auto& [level, pos] : level_to_pos) {
        positions.push_back(pos);
        constraint.levels.push_back(level);
      }
      // Every column bound, in level order, with no filter: the
      // relation's own sort order is the trie the descent needs. An atom
      // that leaves columns unbound reads a deduplicated projection, so
      // the pivot compares distinct-value widths.
      bool borrowed = !repeats && positions.size() == arity;
      for (size_t k = 0; k < positions.size() && borrowed; ++k) {
        borrowed = positions[k] == static_cast<int>(k);
      }
      if (!borrowed) {
        constraint.shared = db.Projection(
            atom.relation, positions, repeats ? same_as : std::vector<int>{});
        constraint.relation = constraint.shared.get();
        if (constraint.relation->empty()) {
          infeasible_ = true;
          continue;
        }
      }
      const int ci = static_cast<int>(constraints_.size());
      for (size_t k = 0; k < constraint.levels.size(); ++k) {
        active_[constraint.levels[k]].push_back({ci, static_cast<int>(k)});
      }
      constraints_.push_back(std::move(constraint));
    } else if (opts_.enforce_negated) {
      // A negated nullary atom is a pure guard: satisfiable iff the
      // relation is empty (there is no level to trigger a check at).
      if (atom.vars.empty()) {
        if (!rel.empty()) infeasible_ = true;
        continue;
      }
      // Enforce only when all variables of the atom are assigned here.
      int trigger = -1;
      bool all_in = true;
      for (int v : atom.vars) {
        if (level_of[v] < 0) {
          all_in = false;
          break;
        }
        trigger = std::max(trigger, level_of[v]);
      }
      if (!all_in) continue;
      negated_at_[trigger].push_back(
          NegatedCheck{&rel, atom.vars, trigger});
    }
  }

  if (opts_.enforce_disequalities) {
    for (const Disequality& d : q.disequalities()) {
      if (level_of[d.lhs] < 0 || level_of[d.rhs] < 0) continue;
      const int a = level_of[d.lhs];
      const int b = level_of[d.rhs];
      diseq_at_[std::max(a, b)].push_back(
          DisequalityCheck{std::min(a, b), std::max(a, b)});
    }
  }
}

bool BagJoiner::Enumerate(const VarDomains* domains,
                          const std::function<bool(const Tuple&)>& callback,
                          const SearchLimits& limits, uint64_t* nodes) const {
  if (nodes != nullptr) *nodes = 0;
  if (infeasible_) return true;
  const int depth = static_cast<int>(vars_.size());
  const Value n = static_cast<Value>(db_.universe_size());
  const int prefix = limits.distinct_prefix < 0
                         ? depth
                         : std::min(limits.distinct_prefix, depth);
  uint64_t tried = 0;
  const bool windowed = limits.first_begin > 0 ||
                        limits.first_end < std::numeric_limits<Value>::max();

  // Per-constraint range stacks; ranges[c].back() is the live range.
  std::vector<std::vector<std::pair<size_t, size_t>>> ranges(
      constraints_.size());
  for (size_t c = 0; c < constraints_.size(); ++c) {
    ranges[c].reserve(depth + 1);
    ranges[c].push_back({0, constraints_[c].relation->size()});
  }
  Tuple assignment(depth, 0);
  // assignment_by_var lets negated-atom checks read values by variable id.
  std::vector<Value> value_of(query_.num_vars(), 0);
  Tuple negated_scratch;  // Reused per negated-atom membership probe.

  // What a finished subtree tells the level above it. kNextPrefix
  // unwinds every level at or past `prefix`: the current prefix has its
  // extension, so the level before it moves on to its next value.
  enum class Next { kContinue, kNextPrefix, kStop };
  // A level returns what its subtree said unless it goes on to its next
  // value.
  auto unwinds = [prefix](Next next, int d) {
    return next == Next::kStop || (next == Next::kNextPrefix && d >= prefix);
  };

  // Recursive lambda (self-passing, avoiding std::function dispatch in
  // the descent).
  auto descend = [&](auto&& self, int d) -> Next {
    if (d == depth) {
      if (!callback(assignment)) return Next::kStop;
      return prefix < depth ? Next::kNextPrefix : Next::kContinue;
    }

    // Checks triggered once vars_[d] is assigned.
    auto passes_checks = [&](Value w) {
      value_of[vars_[d]] = w;
      for (const NegatedCheck& check : negated_at_[d]) {
        negated_scratch.clear();
        for (int v : check.atom_vars) negated_scratch.push_back(value_of[v]);
        if (check.relation->ContainsRow(negated_scratch.data())) return false;
      }
      for (const DisequalityCheck& check : diseq_at_[d]) {
        if (assignment[check.lhs_level] == w) return false;
      }
      return true;
    };

    const auto& active = active_[d];
    if (active.empty()) {
      // Unconstrained level: scan the whole (domain-restricted) universe,
      // on the first level only the window.
      const Value end = d == 0 ? std::min(n, limits.first_end) : n;
      for (Value w = d == 0 ? limits.first_begin : 0; w < end; ++w) {
        if (++tried > limits.node_budget) return Next::kStop;
        if (domains && !domains->Allows(vars_[d], w)) continue;
        if (!passes_checks(w)) continue;
        assignment[d] = w;
        const Next next = self(self, d + 1);
        if (unwinds(next, d)) return next;
      }
      return Next::kContinue;
    }

    // Pivot: the active constraint with the smallest live range.
    int pivot = -1;
    int pivot_col = -1;
    size_t pivot_width = SIZE_MAX;
    for (const auto& [c, k] : active) {
      const auto [lo, hi] = ranges[c].back();
      if (hi - lo < pivot_width) {
        pivot_width = hi - lo;
        pivot = c;
        pivot_col = k;
      }
    }
    const Relation& pivot_rel = *constraints_[pivot].relation;
    auto [plo, phi] = ranges[pivot].back();
    if (d == 0 && windowed) {
      // The first level is every constraint's first column.
      plo = FirstAtLeast(pivot_rel, plo, phi, limits.first_begin);
      phi = FirstAtLeast(pivot_rel, plo, phi, limits.first_end);
    }

    size_t pos = plo;
    while (pos < phi) {
      if (++tried > limits.node_budget) return Next::kStop;
      const Value w = pivot_rel.At(pos, pivot_col);
      // The pivot scans groups in order: the group starts at `pos`, so
      // only its end needs searching.
      const size_t wlo = pos;
      const size_t whi =
          pivot_rel.GroupEnd(pos, phi, static_cast<size_t>(pivot_col));
      pos = whi;
      if (domains && !domains->Allows(vars_[d], w)) continue;
      // Narrow every active constraint; all must stay non-empty.
      bool ok = true;
      size_t pushed = 0;
      for (const auto& [c, k] : active) {
        const auto [lo, hi] = ranges[c].back();
        const auto narrowed =
            c == pivot ? std::make_pair(wlo, whi)
                       : constraints_[c].relation->NarrowRange(
                             lo, hi, static_cast<size_t>(k), w);
        if (narrowed.first == narrowed.second) {
          ok = false;
          break;
        }
        ranges[c].push_back(narrowed);
        ++pushed;
      }
      Next next = Next::kContinue;
      if (ok && passes_checks(w)) {
        assignment[d] = w;
        next = self(self, d + 1);
      }
      for (size_t i = 0; i < pushed; ++i) ranges[active[i].first].pop_back();
      if (unwinds(next, d)) return next;
    }
    return Next::kContinue;
  };

  const Next result = descend(descend, 0);
  if (nodes != nullptr) *nodes = tried;
  return result != Next::kStop;
}

std::vector<Value> BagJoiner::FirstLevelCuts(int windows) const {
  assert(!vars_.empty() && windows > 0);
  std::vector<Value> cuts(static_cast<size_t>(windows) + 1, 0);
  cuts.back() = std::numeric_limits<Value>::max();
  // The first level's pivot: the constraint with the fewest rows, the
  // first of them on ties, as in Enumerate.
  const Relation* pivot = nullptr;
  for (const auto& [c, k] : active_[0]) {
    const Relation* rel = constraints_[c].relation;
    if (pivot == nullptr || rel->size() < pivot->size()) pivot = rel;
  }
  const uint64_t rows =
      pivot != nullptr ? pivot->size() : db_.universe_size();
  for (int i = 1; i < windows; ++i) {
    const uint64_t row = rows * static_cast<uint64_t>(i) /
                         static_cast<uint64_t>(windows);
    cuts[i] = pivot != nullptr ? pivot->At(row, 0) : static_cast<Value>(row);
  }
  return cuts;
}

Relation BagJoiner::Materialise(const VarDomains* domains) const {
  Relation out(static_cast<int>(vars_.size()));
  Enumerate(domains, [&out](const Tuple& t) {
    out.Add(t);
    return true;
  });
  // Enumeration emits in lexicographic order, so this is a linear
  // verification pass, not a sort.
  out.Canonicalize();
  return out;
}

}  // namespace cqcount
