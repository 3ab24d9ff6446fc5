#include "compile/passes.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/trace.h"

namespace cqcount {

bool GuardHolds(const NullaryGuard& guard, const Database& db) {
  const bool non_empty = !db.relation(guard.relation).empty();
  return guard.negated ? !non_empty : non_empty;
}

NormalizedQuery NormalizeQuery(const Query& q) {
  NormalizedQuery out;

  // Pass 1+2 over the atom list: drop duplicates, lift nullary guards.
  std::vector<const Atom*> kept;
  {
    obs::Span span("pass.dedup_and_guards");
    std::set<std::pair<bool, std::pair<std::string, std::vector<int>>>> seen;
    for (const Atom& atom : q.atoms()) {
      if (!seen.insert({atom.negated, {atom.relation, atom.vars}}).second) {
        ++out.stats.atoms_deduped;
        continue;
      }
      if (atom.vars.empty()) {
        out.guards.push_back({atom.relation, atom.negated});
        ++out.stats.guards_extracted;
        continue;
      }
      kept.push_back(&atom);
    }
  }

  // Pass 3: an existential variable left with no occurrence is dropped.
  obs::Span span("pass.prune_variables");
  std::vector<bool> used(q.num_vars(), false);
  for (const Atom* atom : kept) {
    for (int v : atom->vars) used[v] = true;
  }
  for (const Disequality& d : q.disequalities()) {
    used[d.lhs] = used[d.rhs] = true;
  }
  out.var_map.assign(q.num_vars(), -1);
  for (int v = 0; v < q.num_vars(); ++v) {
    if (v < q.num_free() || used[v]) {
      out.var_map[v] = out.query.AddVariable(q.var_name(v));
    } else {
      ++out.stats.variables_pruned;
    }
  }
  out.query.SetNumFree(q.num_free());

  for (const Atom* atom : kept) {
    Atom mapped;
    mapped.relation = atom->relation;
    mapped.negated = atom->negated;
    mapped.vars.reserve(atom->vars.size());
    for (int v : atom->vars) mapped.vars.push_back(out.var_map[v]);
    out.query.AddAtom(std::move(mapped));
  }
  for (const Disequality& d : q.disequalities()) {
    out.query.AddDisequality(out.var_map[d.lhs], out.var_map[d.rhs]);
  }
  return out;
}

}  // namespace cqcount
