// The Figure 1 navigator: classify a query against the paper's
// tractability landscape.
//
// Usage:
//   ./classify_queries                      # classify built-in examples
//   ./classify_queries 'ans(x) :- R(x, y).' # classify your own query
#include <cstdio>
#include <string>
#include <vector>

#include "decomposition/width_measures.h"
#include "engine/plan.h"
#include "query/parser.h"

using namespace cqcount;

static void Classify(const std::string& text) {
  auto query = ParseQuery(text);
  if (!query.ok()) {
    std::printf("%s\n  parse error: %s\n\n", text.c_str(),
                query.status().ToString().c_str());
    return;
  }
  // The planner's verdict and widths, plus an adaptive-width upper bound
  // (the Theorem 13 parameter) the planner does not compute.
  const Classification cls = ClassifyQuery(*query, PlanOptions{});
  Hypergraph h = query->BuildHypergraph();
  auto aw_ub = AdaptiveWidthUpperBound(h, 13);
  const char* kind = cls.kind == QueryKind::kCq    ? "CQ"
                     : cls.kind == QueryKind::kDcq ? "DCQ"
                                                   : "ECQ";
  std::printf("%s\n  kind=%s  arity=%d  tw<=%.0f  fhw<=%.2f", text.c_str(),
              kind, h.Arity(), cls.treewidth, cls.fhw);
  if (aw_ub.ok()) std::printf("  aw<=%.2f", *aw_ub);
  std::printf("\n  => %s\n\n", cls.verdict.c_str());
}

int main(int argc, char** argv) {
  std::printf("cqcount query classifier (Figure 1 of the paper)\n\n");
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) Classify(argv[i]);
    return 0;
  }
  const std::vector<std::string> examples = {
      "ans(x) :- F(x, y), F(x, z), y != z.",
      "ans(x, z) :- E(x, y), E(y, z).",
      "ans(a, b, c) :- R(a, b), S(b, c), T(a, c).",
      "ans(x) :- Adult(x), F(x, y), F(x, z), !F(y, z), y != z.",
      "ans(a, b, c, d) :- E(a, b), E(b, c), E(c, d), a != b, a != c, "
      "a != d, b != c, b != d, c != d.",
      "ans(a, e) :- R(a, b, c, d), S(b, c, d, e).",
  };
  for (const std::string& text : examples) Classify(text);
  return 0;
}
