#include "compile/compiled_query.h"

#include <algorithm>

#include "compile/gaifman.h"
#include "obs/trace.h"

namespace cqcount {

size_t CompiledQuery::num_counting_components() const {
  size_t n = 0;
  for (const QueryComponent& c : components) n += c.existential ? 0 : 1;
  return n;
}

namespace {

// Extracts the sub-query induced by `vars` (sorted normalized indices).
// Every atom/disequality of `q` lies entirely inside one component, so
// membership of the first variable decides membership of the constraint.
QueryComponent ExtractComponent(const Query& q, std::vector<int> vars) {
  QueryComponent component;
  component.vars = std::move(vars);
  std::vector<int> to_local(q.num_vars(), -1);
  int num_free = 0;
  for (size_t i = 0; i < component.vars.size(); ++i) {
    const int v = component.vars[i];
    to_local[v] = static_cast<int>(i);
    if (v < q.num_free()) ++num_free;
  }
  // `vars` is sorted and the normalized query is free-first, so the
  // component's free variables occupy its local prefix.
  for (int v : component.vars) {
    component.query.AddVariable(q.var_name(v));
  }
  component.query.SetNumFree(num_free);
  component.existential = num_free == 0;

  for (const Atom& atom : q.atoms()) {
    if (atom.vars.empty() || to_local[atom.vars[0]] == -1) continue;
    Atom mapped;
    mapped.relation = atom.relation;
    mapped.negated = atom.negated;
    mapped.vars.reserve(atom.vars.size());
    for (int v : atom.vars) mapped.vars.push_back(to_local[v]);
    component.query.AddAtom(std::move(mapped));
  }
  for (const Disequality& d : q.disequalities()) {
    if (to_local[d.lhs] == -1) continue;
    component.query.AddDisequality(to_local[d.lhs], to_local[d.rhs]);
  }
  return component;
}

}  // namespace

CompiledQuery CompileQuery(const Query& q, const CompileOptions& opts) {
  CompiledQuery compiled;
  {
    obs::Span span("compile.normalize");
    NormalizedQuery normalized = NormalizeQuery(q);
    compiled.normalized = std::move(normalized.query);
    compiled.guards = std::move(normalized.guards);
    compiled.stats = normalized.stats;
  }

  const Query& nq = compiled.normalized;
  if (nq.num_vars() == 0) return compiled;  // Pure-guard query: no factors.

  obs::Span span("compile.factor_components");
  std::vector<std::vector<int>> components;
  if (opts.factor_components) {
    components = GaifmanGraph(nq).Components();
  } else {
    components.emplace_back(nq.num_vars());
    std::vector<int>& all = components.back();
    for (int v = 0; v < nq.num_vars(); ++v) all[v] = v;
  }
  compiled.components.reserve(components.size());
  for (std::vector<int>& vars : components) {
    QueryComponent component = ExtractComponent(nq, std::move(vars));
    component.shape = CanonicalQueryShape(component.query);
    compiled.components.push_back(std::move(component));
  }
  return compiled;
}

BudgetShare SplitBudget(double epsilon, double delta,
                        size_t counting_components, size_t total_components,
                        bool existential) {
  BudgetShare share;
  share.delta =
      total_components > 1 ? delta / static_cast<double>(total_components)
                           : delta;
  if (existential) {
    // A 0/1 factor survives any relative error below 1; don't spend the
    // shared epsilon budget on it.
    share.epsilon = 0.5;
  } else if (counting_components > 1) {
    share.epsilon = epsilon / (2.0 * static_cast<double>(counting_components));
  } else {
    share.epsilon = epsilon;
  }
  return share;
}

}  // namespace cqcount
