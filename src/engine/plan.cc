#include "engine/plan.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>

#include "compile/passes.h"
#include "hom/backtracking.h"

namespace cqcount {
namespace {

// SplitMix64-style mixing for colour refinement.
uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) h = Mix(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  return h;
}

// Canonical labelling by colour refinement with individualisation.
// Colours are isomorphism-invariant hashes; the search branches over
// members of the first ambiguous colour cell and keeps the minimal full
// encoding, so variable renamings and atom reorderings converge to one key.
class Canonicaliser {
 public:
  explicit Canonicaliser(const Query& q) : q_(q), n_(q.num_vars()) {
    occurrences_.resize(n_);
    const auto& atoms = q.atoms();
    for (size_t a = 0; a < atoms.size(); ++a) {
      for (size_t p = 0; p < atoms[a].vars.size(); ++p) {
        occurrences_[atoms[a].vars[p]].push_back(
            {static_cast<int>(a), static_cast<int>(p)});
      }
    }
    diseq_adj_.resize(n_);
    for (const Disequality& d : q.disequalities()) {
      diseq_adj_[d.lhs].push_back(d.rhs);
      diseq_adj_[d.rhs].push_back(d.lhs);
    }
  }

  CanonicalShape Run() {
    CanonicalShape shape;
    if (n_ == 0) {
      shape.key = Encode({});
      return shape;
    }
    best_key_.clear();
    int leaves_left = kMaxLeaves;
    Search(RefineToFixpoint(InitialColours()), &leaves_left);
    shape.key = best_key_;
    shape.to_canonical = best_perm_;
    return shape;
  }

 private:
  struct Occurrence {
    int atom;
    int pos;
  };

  static constexpr int kMaxLeaves = 512;

  std::vector<uint64_t> InitialColours() const {
    std::vector<uint64_t> colours(n_);
    const auto& atoms = q_.atoms();
    for (int v = 0; v < n_; ++v) {
      std::vector<uint64_t> sig;
      for (const Occurrence& o : occurrences_[v]) {
        const Atom& atom = atoms[o.atom];
        uint64_t s = HashString(atom.relation);
        s = Mix(s, atom.negated ? 2 : 1);
        s = Mix(s, static_cast<uint64_t>(atom.vars.size()));
        s = Mix(s, static_cast<uint64_t>(o.pos));
        sig.push_back(s);
      }
      std::sort(sig.begin(), sig.end());
      uint64_t c = v < q_.num_free() ? 0xF1EEULL : 0xE715ULL;
      c = Mix(c, static_cast<uint64_t>(diseq_adj_[v].size()));
      for (uint64_t s : sig) c = Mix(c, s);
      colours[v] = c;
    }
    return colours;
  }

  std::vector<uint64_t> RefineOnce(const std::vector<uint64_t>& colours) const {
    const auto& atoms = q_.atoms();
    std::vector<uint64_t> next(n_);
    for (int v = 0; v < n_; ++v) {
      std::vector<uint64_t> sig;
      for (const Occurrence& o : occurrences_[v]) {
        const Atom& atom = atoms[o.atom];
        uint64_t s = HashString(atom.relation);
        s = Mix(s, atom.negated ? 2 : 1);
        s = Mix(s, static_cast<uint64_t>(o.pos));
        for (size_t p = 0; p < atom.vars.size(); ++p) {
          s = Mix(s, Mix(static_cast<uint64_t>(p), colours[atom.vars[p]]));
        }
        sig.push_back(s);
      }
      std::sort(sig.begin(), sig.end());
      std::vector<uint64_t> dsig;
      for (int u : diseq_adj_[v]) dsig.push_back(colours[u]);
      std::sort(dsig.begin(), dsig.end());
      uint64_t c = Mix(0xC01ULL, colours[v]);
      for (uint64_t s : sig) c = Mix(c, s);
      for (uint64_t s : dsig) c = Mix(c, Mix(0xD15EULL, s));
      next[v] = c;
    }
    return next;
  }

  static size_t NumDistinct(const std::vector<uint64_t>& colours) {
    std::vector<uint64_t> sorted = colours;
    std::sort(sorted.begin(), sorted.end());
    return std::unique(sorted.begin(), sorted.end()) - sorted.begin();
  }

  std::vector<uint64_t> RefineToFixpoint(std::vector<uint64_t> colours) const {
    size_t distinct = NumDistinct(colours);
    for (int round = 0; round < n_; ++round) {
      std::vector<uint64_t> next = RefineOnce(colours);
      const size_t next_distinct = NumDistinct(next);
      colours = std::move(next);
      if (next_distinct == distinct) break;
      distinct = next_distinct;
    }
    return colours;
  }

  // Cells group variables with equal (free?, colour); free cells come
  // first so free variables always receive free canonical indices.
  std::vector<std::vector<int>> Cells(const std::vector<uint64_t>& colours) const {
    std::map<std::pair<int, uint64_t>, std::vector<int>> cells;
    for (int v = 0; v < n_; ++v) {
      cells[{v < q_.num_free() ? 0 : 1, colours[v]}].push_back(v);
    }
    std::vector<std::vector<int>> out;
    for (auto& [key, members] : cells) out.push_back(std::move(members));
    return out;
  }

  void Search(const std::vector<uint64_t>& colours, int* leaves_left) {
    if (*leaves_left <= 0) return;
    const std::vector<std::vector<int>> cells = Cells(colours);
    const std::vector<int>* ambiguous = nullptr;
    for (const auto& cell : cells) {
      if (cell.size() > 1) {
        ambiguous = &cell;
        break;
      }
    }
    if (ambiguous == nullptr) {
      --*leaves_left;
      std::vector<int> perm(n_);
      int next_id = 0;
      for (const auto& cell : cells) perm[cell[0]] = next_id++;
      std::string key = Encode(perm);
      if (best_key_.empty() || key < best_key_) {
        best_key_ = std::move(key);
        best_perm_ = std::move(perm);
      }
      return;
    }
    for (int v : *ambiguous) {
      if (*leaves_left <= 0) return;
      std::vector<uint64_t> child = colours;
      child[v] = Mix(0x1D1ULL, child[v]);
      Search(RefineToFixpoint(std::move(child)), leaves_left);
    }
  }

  std::string Encode(const std::vector<int>& perm) const {
    std::ostringstream out;
    out << "v" << n_ << "f" << q_.num_free() << "|";
    std::vector<std::string> atom_strs;
    for (const Atom& atom : q_.atoms()) {
      std::ostringstream a;
      if (atom.negated) a << "!";
      a << atom.relation << "(";
      for (size_t i = 0; i < atom.vars.size(); ++i) {
        if (i > 0) a << ",";
        a << perm[atom.vars[i]];
      }
      a << ")";
      atom_strs.push_back(a.str());
    }
    std::sort(atom_strs.begin(), atom_strs.end());
    for (const std::string& s : atom_strs) out << s << ";";
    std::vector<std::pair<int, int>> diseqs;
    for (const Disequality& d : q_.disequalities()) {
      diseqs.push_back(std::minmax(perm[d.lhs], perm[d.rhs]));
    }
    std::sort(diseqs.begin(), diseqs.end());
    for (const auto& [a, b] : diseqs) out << a << "!=" << b << ";";
    return out.str();
  }

  const Query& q_;
  const int n_;
  std::vector<std::vector<Occurrence>> occurrences_;
  std::vector<std::vector<int>> diseq_adj_;
  std::string best_key_;
  std::vector<int> best_perm_;
};

// H(phi) remapped into canonical numbering, with edges inserted in
// canonical (sorted) order. The decomposition search runs on this graph so
// the resulting plan is a pure function of the canonical shape — two
// isomorphic presentations racing on a cold cache must build identical
// plans, or batch results would depend on thread timing.
Hypergraph CanonicalHypergraph(const Query& q,
                               const std::vector<int>& to_canonical) {
  Hypergraph h = q.BuildHypergraph();
  Hypergraph canonical(h.num_vertices());
  std::vector<std::vector<Vertex>> edges;
  edges.reserve(h.edges().size());
  for (const auto& e : h.edges()) {
    std::vector<Vertex> mapped;
    mapped.reserve(e.size());
    for (Vertex v : e) mapped.push_back(to_canonical[v]);
    std::sort(mapped.begin(), mapped.end());
    edges.push_back(std::move(mapped));
  }
  std::sort(edges.begin(), edges.end());
  for (auto& e : edges) canonical.AddEdge(std::move(e));
  return canonical;
}

}  // namespace

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kExact:
      return "exact";
    case Strategy::kFptrasTreewidth:
      return "fptras-tw";
    case Strategy::kFptrasFhw:
      return "fptras-fhw";
    case Strategy::kAutomataFpras:
      return "automata-fpras";
  }
  return "unknown";
}

CanonicalShape CanonicalQueryShape(const Query& q) {
  return Canonicaliser(q).Run();
}

Query CanonicalQuery(const Query& q, const CanonicalShape& shape) {
  Query out;
  for (int v = 0; v < q.num_vars(); ++v) {
    out.AddVariable("v" + std::to_string(v));
  }
  out.SetNumFree(q.num_free());
  std::vector<Atom> atoms = q.atoms();
  for (Atom& atom : atoms) {
    for (int& v : atom.vars) v = shape.to_canonical[v];
  }
  std::sort(atoms.begin(), atoms.end(), [](const Atom& a, const Atom& b) {
    return std::tie(a.relation, a.negated, a.vars) <
           std::tie(b.relation, b.negated, b.vars);
  });
  for (Atom& atom : atoms) out.AddAtom(std::move(atom));
  std::vector<std::pair<int, int>> diseqs;
  for (const Disequality& d : q.disequalities()) {
    diseqs.push_back(
        std::minmax(shape.to_canonical[d.lhs], shape.to_canonical[d.rhs]));
  }
  std::sort(diseqs.begin(), diseqs.end());
  for (const auto& [a, b] : diseqs) out.AddDisequality(a, b);
  return out;
}

TreeDecomposition InstantiateDecomposition(
    const TreeDecomposition& canonical, const std::vector<int>& to_canonical) {
  std::vector<Vertex> from_canonical(to_canonical.size());
  for (size_t v = 0; v < to_canonical.size(); ++v) {
    from_canonical[to_canonical[v]] = static_cast<Vertex>(v);
  }
  TreeDecomposition out = canonical;
  for (auto& bag : out.bags) {
    for (Vertex& v : bag) v = from_canonical[v];
    std::sort(bag.begin(), bag.end());
  }
  return out;
}

namespace {

// Join nodes of the exact strategy's count of q when it finishes within
// `cap` nodes: ExecuteExact's count, as one descent with no governor (a
// request's governor is built after planning). Nothing when it does not,
// when the cap is not positive, or when db cannot serve q (a missing
// relation or a wrong arity).
std::optional<uint64_t> ExactJoinNodes(const Query& q,
                                       const CanonicalShape& shape,
                                       const Database& db, double cap) {
  if (!(cap > 0.0) || !q.CheckAgainstDatabase(db).ok()) return std::nullopt;
  const uint64_t budget =
      cap >= 0x1p64 ? UINT64_MAX : static_cast<uint64_t>(cap);
  const JoinCount count =
      CountAnswersJoin(CanonicalQuery(q, shape), db, budget);
  if (!count.complete) return std::nullopt;
  return count.nodes;
}

// The Figure-1 verdict from the two widths of H(phi).
Classification Classify(const Query& q, double treewidth, double fhw) {
  Classification cls;
  cls.kind = q.Kind();
  cls.treewidth = treewidth;
  cls.fhw = fhw;
  cls.phi_size = q.PhiSize();
  cls.num_free = q.num_free();
  cls.num_vars = q.num_vars();
  cls.fptras_bounded_arity = treewidth <= kTreewidthThreshold;
  cls.fptras_unbounded_arity =
      fhw <= kFhwThreshold && cls.kind != QueryKind::kEcq;
  cls.fpras = cls.kind == QueryKind::kCq && fhw <= kFhwThreshold;

  std::ostringstream verdict;
  if (cls.fptras_bounded_arity) {
    verdict << "Theorem 5 FPTRAS applies (tw " << treewidth << ")";
  } else if (cls.fptras_unbounded_arity) {
    verdict << "Theorem 13 FPTRAS applies (fhw " << fhw
            << ", unbounded-arity regime)";
  } else {
    verdict << "widths look unbounded: Observations 9/15 wall";
  }
  // Every FPTRAS verdict also settles the FPRAS question: Theorem 16 for
  // pure CQs of small fhw, Observation 10 otherwise.
  if (cls.fptras_bounded_arity || cls.fptras_unbounded_arity) {
    verdict << (cls.fpras ? "; Theorem 16 FPRAS applies"
                          : "; no FPRAS unless NP=RP (Obs 10)");
  }
  cls.verdict = verdict.str();
  return cls;
}

}  // namespace

Classification ClassifyQuery(const Query& q, const PlanOptions& opts) {
  // The planner only ever sees normalized queries (guards lifted out,
  // duplicate atoms merged), so classify that form too.
  const Query normalized = NormalizeQuery(q).query;
  const Hypergraph h = CanonicalHypergraph(
      normalized, CanonicalQueryShape(normalized).to_canonical);
  const int limit = opts.exact_decomposition_limit;
  return Classify(
      normalized,
      ComputeDecomposition(h, WidthObjective::kTreewidth, limit).width,
      ComputeDecomposition(h, WidthObjective::kFractionalHypertreewidth, limit)
          .width);
}

QueryPlan BuildQueryPlan(const Query& q, const CanonicalShape& shape,
                         const Database& db, const PlanOptions& opts) {
  QueryPlan plan;
  plan.shape_key = shape.key;

  Hypergraph h = CanonicalHypergraph(q, shape.to_canonical);
  FWidthResult tw = ComputeDecomposition(h, WidthObjective::kTreewidth,
                                         opts.exact_decomposition_limit);
  FWidthResult fhw =
      ComputeDecomposition(h, WidthObjective::kFractionalHypertreewidth,
                           opts.exact_decomposition_limit);
  plan.classification = Classify(q, tw.width, fhw.width);
  const Classification& cls = plan.classification;

  // The exact strategy is priced by running it: the very count
  // ExecuteExact runs, on the same canonical presentation, under the node
  // cap. A plan therefore stays a function of (shape, snapshot). The
  // decomposition pipelines cost ~n^(width+1) per oracle call times a
  // polylogarithmic number of calls (coarse).
  const std::optional<uint64_t> exact_nodes =
      ExactJoinNodes(q, shape, db, opts.exact_cost_limit);
  const double n = std::max<double>(1.0, db.universe_size());
  const double tw_cost = std::pow(n, std::min(tw.width + 1.0, 12.0)) * 64.0;
  const double fhw_cost = std::pow(n, std::min(fhw.width + 1.0, 12.0)) * 64.0;

  if (exact_nodes.has_value()) {
    plan.strategy = Strategy::kExact;
    plan.objective = WidthObjective::kTreewidth;
    plan.decomposition = tw;
    plan.cost_estimate = static_cast<double>(*exact_nodes);
  } else if (cls.fpras && !cls.fptras_bounded_arity) {
    // Pure CQ beyond the bounded-arity regime: the counting-automaton
    // FPRAS is the only tractable route (Theorem 16).
    plan.strategy = Strategy::kAutomataFpras;
    plan.objective = WidthObjective::kFractionalHypertreewidth;
    plan.decomposition = fhw;
    plan.cost_estimate = fhw_cost;
  } else if (cls.fptras_bounded_arity) {
    plan.strategy = Strategy::kFptrasTreewidth;
    plan.objective = WidthObjective::kTreewidth;
    plan.decomposition = tw;
    plan.cost_estimate = tw_cost;
  } else if (cls.fptras_unbounded_arity && fhw.width < tw.width) {
    plan.strategy = Strategy::kFptrasFhw;
    plan.objective = WidthObjective::kFractionalHypertreewidth;
    plan.decomposition = fhw;
    plan.cost_estimate = fhw_cost;
  } else {
    // Outside every tractable regime: the FPTRAS is still correct, only
    // its running-time guarantee degrades (Section 1.2).
    plan.strategy = Strategy::kFptrasTreewidth;
    plan.objective = WidthObjective::kTreewidth;
    plan.decomposition = tw;
    plan.cost_estimate = tw_cost;
  }

  // The search ran on the canonical hypergraph, so the decomposition is
  // already in canonical numbering.
  return plan;
}

}  // namespace cqcount
