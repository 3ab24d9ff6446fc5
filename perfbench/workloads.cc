#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "counting/exact_count.h"
#include "engine/plan.h"
#include "query/parser.h"
#include "util/random.h"

namespace perfbench {
namespace {

using cqcount::Database;
using cqcount::Rng;
using cqcount::Tuple;
using cqcount::Value;

void Require(const cqcount::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

uint64_t RequestSeed(uint64_t seed, uint64_t index) {
  const uint64_t s = cqcount::DeriveSeed(seed, {0x5EEDu, index});
  return s == 0 ? 1 : s;  // 0 would mean "engine default".
}

/// A simple graph whose vertices all have degree `degree`, apart from the
/// few stubs dropped as loops or repeated edges. Near-regular graphs keep
/// cycle and path counts, and so estimator cost, steady across seeds.
std::vector<std::pair<Value, Value>> NearRegularGraph(uint32_t n, int degree,
                                                      Rng& rng) {
  std::vector<Value> stubs;
  for (uint32_t v = 0; v < n; ++v) {
    for (int d = 0; d < degree; ++d) stubs.push_back(v);
  }
  rng.Shuffle(stubs);
  std::set<std::pair<Value, Value>> edges;
  for (size_t i = 0; i + 1 < stubs.size(); i += 2) {
    Value u = stubs[i], v = stubs[i + 1];
    if (u == v) continue;
    edges.insert({std::min(u, v), std::max(u, v)});
  }
  return {edges.begin(), edges.end()};
}

void AddUniformTuples(Database* db, const std::string& name, int arity,
                      int count, Rng& rng) {
  for (int i = 0; i < count; ++i) {
    Tuple t(arity);
    for (Value& v : t) v = static_cast<Value>(rng.UniformInt(db->universe_size()));
    Require(db->AddFact(name, t), "add " + name);
  }
}

/// The paper's running example: a symmetric friendship relation F, a unary
/// Adult relation and a 6-ary Event relation.
DatabaseInput SocialNetwork(const std::string& name, uint32_t people,
                            int friends, int events, Rng& rng) {
  DatabaseInput input;
  input.name = name;
  Database& db = input.staged;
  db.set_universe_size(people);
  Require(db.DeclareRelation("F", 2), "declare F");
  Require(db.DeclareRelation("Adult", 1), "declare Adult");
  Require(db.DeclareRelation("Event", 6), "declare Event");
  for (auto [u, v] : NearRegularGraph(people, friends, rng)) {
    Require(db.AddFact("F", {u, v}), "add F");
    Require(db.AddFact("F", {v, u}), "add F");
  }
  for (Value p = 0; p < people; ++p) {
    if (rng.Bernoulli(0.5)) Require(db.AddFact("Adult", {p}), "add Adult");
  }
  AddUniformTuples(&db, "Event", 6, events, rng);
  input.canonical = db;
  input.canonical.Canonicalize();
  return input;
}

/// A query template: head variables plus body literals (atoms and
/// disequalities) written over single-token variable names.
struct Template {
  std::vector<std::string> head;
  std::vector<std::string> body;
};

std::string Render(const Template& t) {
  std::string text = "ans(";
  for (size_t i = 0; i < t.head.size(); ++i) {
    text += (i > 0 ? ", " : "") + t.head[i];
  }
  text += ") :- ";
  for (size_t i = 0; i < t.body.size(); ++i) {
    text += (i > 0 ? ", " : "") + t.body[i];
  }
  return text + ".";
}

/// Calls `fn` on each lower-case identifier of `text` (the variables;
/// relation names are capitalised) and copies everything else to the
/// result, which collects what `fn` returns for the identifiers.
template <typename Fn>
std::string MapVariables(const std::string& text, Fn fn) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (std::isalpha(static_cast<unsigned char>(text[i]))) {
      size_t j = i;
      while (j < text.size() && std::isalnum(static_cast<unsigned char>(text[j]))) ++j;
      const std::string token = text.substr(i, j - i);
      out += std::islower(static_cast<unsigned char>(token[0])) ? fn(token) : token;
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

/// The same query under fresh variable names and a shuffled body: a new
/// text with the template's canonical shape.
std::string Disguise(const Template& t, Rng& rng) {
  std::map<std::string, std::string> names;
  std::set<std::string> used;
  auto rename = [&](const std::string& var) {
    auto [it, added] = names.emplace(var, "");
    if (added) {
      do {
        it->second = "v" + std::to_string(rng.UniformInt(1000));
      } while (!used.insert(it->second).second);
    }
    return it->second;
  };
  Template out;
  for (const std::string& literal : t.body) {
    out.body.push_back(MapVariables(literal, rename));
  }
  for (const std::string& h : t.head) out.head.push_back(rename(h));
  rng.Shuffle(out.body);
  return Render(out);
}

std::string CanonicalKey(const std::string& text) {
  auto query = cqcount::ParseQuery(text);
  Require(query.status(), "parse " + text);
  return cqcount::CanonicalQueryShape(*query).key;
}

/// Paths p0 - .. - pL over F (L = 2 or 3) with every edge in either
/// direction and each vertex optionally marked Adult or !Adult, answering
/// p0 or p1. Returns `count` templates of pairwise distinct canonical
/// shape, in seeded order: the batch workload's stream of new shapes.
/// Without disequalities the estimators settle them in milliseconds.
std::vector<Template> FreshShapes(size_t count, Rng& rng) {
  auto var = [](int i) { return "p" + std::to_string(i); };
  std::vector<Template> all;
  for (int length = 2; length <= 3; ++length) {
    int labelings = 1;
    for (int i = 0; i <= length; ++i) labelings *= 3;
    for (int labels = 0; labels < labelings; ++labels) {
      for (int directions = 0; directions < (1 << length); ++directions) {
        for (int free = 0; free < 2; ++free) {
          Template t;
          t.head.push_back(var(free));
          for (int i = 0; i < length; ++i) {
            const bool forward = (directions >> i) & 1;
            t.body.push_back("F(" + var(forward ? i : i + 1) + ", " +
                             var(forward ? i + 1 : i) + ")");
          }
          for (int i = 0, code = labels; i <= length; ++i, code /= 3) {
            if (code % 3 == 1) t.body.push_back("Adult(" + var(i) + ")");
            if (code % 3 == 2) t.body.push_back("!Adult(" + var(i) + ")");
          }
          all.push_back(std::move(t));
        }
      }
    }
  }
  rng.Shuffle(all);
  std::vector<Template> fresh;
  std::set<std::string> keys;
  for (Template& t : all) {
    if (fresh.size() == count) break;
    if (keys.insert(CanonicalKey(Render(t))).second) fresh.push_back(std::move(t));
  }
  return fresh;
}

/// Adds a reference for (`query`, `db`) unless present; returns its index.
size_t InternReference(Workload& w, std::map<std::pair<std::string, size_t>, size_t>& index,
                       const std::string& query, size_t db) {
  auto [it, added] = index.emplace(std::make_pair(query, db), w.references.size());
  if (added) w.references.push_back({query, db, 0});
  return it->second;
}

// heavy_single: one client, estimated shapes of all three estimators.
Workload HeavySingle(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "heavy_single";
  Rng rng(cqcount::DeriveSeed(seed, 1));
  w.dbs.push_back(SocialNetwork("social", tiny ? 16 : 56, 4, tiny ? 40 : 1000, rng));
  const std::vector<std::string> shapes = {
      // fptras-tw: six-cycle, 4-cycle with disequalities, 4-path with a
      // negated atom.
      "ans(a, d) :- F(a, b), F(b, c), F(c, d), F(d, e), F(e, f), F(f, a).",
      "ans(a, c) :- F(a, b), F(b, c), F(c, d), F(d, a), a != c, b != d.",
      "ans(a, d) :- F(a, b), F(b, c), F(c, d), !F(a, d), a != c.",
      // fptras-fhw: a 6-ary atom (treewidth 5, fhw 1) with a disequality.
      "ans(a, b) :- Event(a, b, c, d, e, f), a != b.",
      // automata-fpras: the same atom as a pure CQ.
      "ans(a, b, c) :- Event(a, b, c, d, e, f).",
  };
  for (const std::string& s : shapes) w.references.push_back({s, 0, 0});
  const size_t cycles = tiny ? 8 : 64;
  uint64_t index = 0;
  for (size_t c = 0; c < cycles; ++c) {
    std::vector<size_t> order(shapes.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    for (size_t s : order) {
      Item item;
      item.request.query = shapes[s];
      item.request.database = "social";
      item.request.seed = RequestSeed(seed, index++);
      item.ref = s;
      w.steps.push_back({{item}, false, -1});
    }
  }
  w.cycle_steps = shapes.size();
  w.gate_steps = shapes.size();
  w.replay_items = 2 * shapes.size();
  return w;
}

// batch_mixed: CountBatch of renamed light templates and a stream of new
// shapes over two databases that are re-registered on a fixed schedule.
Workload BatchMixed(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "batch_mixed";
  w.options.epsilon = 0.2;
  w.options.delta = 0.2;
  Rng rng(cqcount::DeriveSeed(seed, 2));
  const uint32_t people = tiny ? 60 : 400;
  w.dbs.push_back(SocialNetwork("net_a", people, 5, tiny ? 30 : 150, rng));
  w.dbs.push_back(SocialNetwork("net_b", people, 5, tiny ? 30 : 150, rng));
  const std::vector<Template> templates = {
      // Exact (two variables).
      {{"x", "y"}, {"F(x, y)", "Adult(x)"}},
      {{"x", "y"}, {"F(x, y)", "!Adult(y)"}},
      {{"x"}, {"F(x, y)", "Adult(y)", "x != y"}},
      // Light fptras-tw.
      {{"x"}, {"F(x, y)", "F(x, z)", "y != z"}},
      {{"x"}, {"F(x, y)", "F(y, z)", "x != z"}},
      // Disconnected: factored into Gaifman components.
      {{"x", "y"}, {"F(x, a)", "F(y, b)"}},
      {{"u"}, {"F(u, w)", "F(p, q)", "p != q"}},
      // automata-fpras and fptras-fhw over the 6-ary relation.
      {{"a", "b"}, {"Event(a, b, c, d, e, f)"}},
      {{"a"}, {"Event(a, b, c, d, e, f)", "b != c"}},
  };
  // More new shapes than the plan cache holds (256 entries), cycled, so
  // each one misses, evicts and runs the decomposition search.
  const std::vector<Template> fresh = FreshShapes(300, rng);
  const double fresh_share = 0.125;
  const size_t batch = tiny ? 8 : 16;
  const size_t batches = tiny ? 32 : 512;
  const size_t write_every = 8;

  std::map<std::pair<std::string, size_t>, size_t> ref_index;
  uint64_t index = 0;
  size_t fresh_used = 0;
  for (size_t b = 0; b < batches; ++b) {
    Step step;
    step.batch = true;
    for (size_t i = 0; i < batch; ++i) {
      const Template* t = nullptr;
      size_t db = 0;
      if (rng.Bernoulli(fresh_share)) {
        t = &fresh[fresh_used % fresh.size()];
        db = (fresh_used / fresh.size()) % w.dbs.size();
        ++fresh_used;
      } else {
        t = &templates[rng.UniformInt(templates.size())];
        db = rng.UniformInt(w.dbs.size());
      }
      Item item;
      item.request.query = Disguise(*t, rng);
      item.request.database = w.dbs[db].name;
      item.request.seed = RequestSeed(seed, index++);
      item.ref = InternReference(w, ref_index, Render(*t), db);
      step.items.push_back(std::move(item));
    }
    if ((b + 1) % write_every == 0) {
      step.reregister = static_cast<int>((b / write_every) % w.dbs.size());
    }
    w.steps.push_back(std::move(step));
  }
  w.cycle_steps = 1;
  w.gate_steps = 4;
  w.replay_items = tiny ? 16 : 96;
  return w;
}

/// Out-adjacency of a canonical binary relation (rows sorted by source).
struct Adjacency {
  std::vector<uint64_t> offsets;
  std::vector<Value> targets;

  Adjacency(const cqcount::Relation& f, uint32_t n) : offsets(n + 1, 0) {
    const Value* rows = f.base();
    for (size_t r = 0; r < f.size(); ++r) ++offsets[rows[2 * r] + 1];
    for (uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    targets.resize(f.size());
    for (size_t r = 0; r < f.size(); ++r) targets[r] = rows[2 * r + 1];
  }
  const Value* begin(Value v) const { return targets.data() + offsets[v]; }
  const Value* end(Value v) const { return targets.data() + offsets[v + 1]; }
  bool Has(Value u, Value v) const { return std::binary_search(begin(u), end(u), v); }
};

// storage_exact: exact one-free-variable joins over an mmap'd pack.
Workload StorageExact(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "storage_exact";
  w.pack = true;
  Rng rng(cqcount::DeriveSeed(seed, 3));
  const uint32_t people = tiny ? 4000 : 250000;
  const size_t rows = tiny ? 16000 : 1000000;
  const int tracked = tiny ? 100 : 1500;
  // A follower graph with locality: most edges point to a nearby id, a
  // quarter are followed back.
  std::vector<Value> f;
  f.reserve(2 * rows + 2);
  while (f.size() < 2 * rows) {
    const Value u = static_cast<Value>(rng.UniformInt(people));
    const Value v = rng.Bernoulli(0.6)
                        ? static_cast<Value>((u + 1 + rng.UniformInt(64)) % people)
                        : static_cast<Value>(rng.UniformInt(people));
    if (u == v) continue;
    f.insert(f.end(), {u, v});
    if (rng.Bernoulli(0.25)) f.insert(f.end(), {v, u});
  }
  std::vector<Value> t;
  for (int i = 0; i < tracked; ++i) t.push_back(static_cast<Value>(rng.UniformInt(people)));
  DatabaseInput input;
  input.name = "pack";
  input.canonical.set_universe_size(people);
  Require(input.canonical.AdoptRelation("F", cqcount::Relation(2, std::move(f))), "F");
  Require(input.canonical.AdoptRelation("Tracked", cqcount::Relation(1, std::move(t))),
          "Tracked");
  w.dbs.push_back(std::move(input));

  const std::vector<std::string> shapes = {
      "ans(x) :- Tracked(x), F(x, y), F(y, z), x != z.",
      "ans(x) :- Tracked(x), F(x, y), !F(y, x).",
      "ans(x) :- Tracked(x), F(x, y), F(y, z), F(z, x).",
      "ans(x) :- Tracked(x), F(x, y), F(y, x).",
  };
  for (const std::string& s : shapes) w.references.push_back({s, 0, 0});
  auto adjacency = std::make_shared<Adjacency>(w.dbs[0].canonical.relation("F"), people);
  const cqcount::Relation& tracked_rel = w.dbs[0].canonical.relation("Tracked");
  std::vector<Value> sources(tracked_rel.base(), tracked_rel.base() + tracked_rel.size());
  // Counted from an adjacency list, independently of the engine's joins.
  w.reference = [adjacency, sources, shapes](const ReferenceQuery& ref) {
    const Adjacency& adj = *adjacency;
    const size_t shape = std::find(shapes.begin(), shapes.end(), ref.query) - shapes.begin();
    uint64_t count = 0;
    for (Value x : sources) {
      bool found = false;
      for (const Value* y = adj.begin(x); y != adj.end(x) && !found; ++y) {
        switch (shape) {
          case 0:
            for (const Value* z = adj.begin(*y); z != adj.end(*y) && !found; ++z) {
              found = *z != x;
            }
            break;
          case 1:
            found = !adj.Has(*y, x);
            break;
          case 2:
            for (const Value* z = adj.begin(*y); z != adj.end(*y) && !found; ++z) {
              found = adj.Has(*z, x);
            }
            break;
          default:
            found = adj.Has(*y, x);
        }
      }
      count += found ? 1 : 0;
    }
    return count;
  };

  const size_t cycles = tiny ? 8 : 64;
  uint64_t index = 0;
  for (size_t c = 0; c < cycles; ++c) {
    std::vector<size_t> order(shapes.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    for (size_t s : order) {
      Item item;
      item.request.query = shapes[s];
      item.request.database = "pack";
      item.request.force_exact = true;
      item.request.seed = RequestSeed(seed, index++);
      item.ref = s;
      w.steps.push_back({{item}, false, -1});
    }
  }
  w.cycle_steps = shapes.size();
  w.gate_steps = shapes.size();
  w.replay_items = shapes.size();
  return w;
}

}  // namespace

Workload MakeWorkload(const std::string& name, uint64_t seed, bool tiny) {
  if (name == "heavy_single") return HeavySingle(seed, tiny);
  if (name == "batch_mixed") return BatchMixed(seed, tiny);
  if (name == "storage_exact") return StorageExact(seed, tiny);
  throw std::invalid_argument("unknown workload " + name);
}

void ComputeReferences(Workload& workload, int threads) {
  // Parsed up front, so that nothing on the worker threads can throw.
  std::vector<cqcount::Query> queries;
  if (!workload.reference) {
    for (const ReferenceQuery& ref : workload.references) {
      auto query = cqcount::ParseQuery(ref.query);
      Require(query.status(), "parse " + ref.query);
      queries.push_back(*std::move(query));
    }
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < workload.references.size(); i = next++) {
      ReferenceQuery& ref = workload.references[i];
      ref.exact = workload.reference
                      ? workload.reference(ref)
                      : cqcount::ExactCountAnswersBruteForce(
                            queries[i], workload.dbs[ref.db].canonical);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace perfbench
