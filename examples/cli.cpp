// cqcount command-line interface.
//
// Usage:
//   cli count    <query> <database-file> [epsilon] [delta] [flags]
//   cli exact    <query> <database-file> [flags]
//   cli explain  <query> <database-file> [flags]
//   cli stats    <query> <database-file> [epsilon] [delta] [flags]
//   cli batch    <query-file> <database-file> [threads] [epsilon] [delta]
//                [flags]
//   cli fpras    <query> <database-file> [epsilon]
//   cli sample   <query> <database-file> [count]
//   cli classify <query>
//   cli pack     <database-file> <segment-file>
//
// The engine commands (count, exact, explain, stats, batch) take the same
// flags, anywhere after the database file: --epsilon E, --delta D,
// --threads N (the engine's pool), --intra-threads N (lanes per count; 0
// automatic), --timeout-ms N, --max-oracle-calls N, --adaptive, --json,
// --trace FILE and --metrics. A positional sets the flag of its name. An
// unknown flag, a malformed value or an extra positional exits 2.
//
// <query> is a Datalog-style string such as
//   'ans(x) :- F(x, y), F(x, z), y != z.'
// <query-file> holds one query per line ('#' starts a comment line).
//
// <database-file> may be either the text format (database_io.h) or a
// packed columnar segment produced by `cli pack` (segment.h); the loader
// sniffs the magic bytes. Segments memory-map in O(1) regardless of row
// count, so packing pays off for databases reused across many runs.
//
// count/exact/explain/batch run through the CountingEngine: queries are
// rewritten (atom dedup, nullary guards), split into Gaifman components,
// planned per the paper's Figure 1 with per-component plans cached by
// canonical shape, and batches execute concurrently with deterministic
// per-item seeds. `explain` prints the per-component breakdown.
//
// Telemetry: --trace FILE writes a Chrome trace_event JSON of the run
// (chrome://tracing / Perfetto); --metrics dumps the process metric
// registry to stderr after the command; `stats` runs one count and dumps
// the registry JSON to stdout; `count --json` and `exact --json` print
// EngineResult::ToJson() (the result, its per-component records and the
// derived profile); `batch --json` prints one such document per line, in
// item order ({"error": "<status>"} for a failed item); `explain --json`
// prints Explanation::ToJson() (the per-component plans, budget split and
// observed shape history) without executing.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "automata/fpras.h"
#include "counting/sampler.h"
#include "engine/engine.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "relational/database_io.h"
#include "relational/segment.h"

using namespace cqcount;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cli count    <query> <db-file> [epsilon] [delta] [flags]\n"
      "      engine count (auto strategy; on timeout, an anytime partial\n"
      "      estimate with hard bounds)\n"
      "  cli exact    <query> <db-file> [flags]\n"
      "      engine exact count\n"
      "  cli explain  <query> <db-file> [flags]\n"
      "      plan + Figure 1 verdict, per-component breakdown\n"
      "  cli stats    <query> <db-file> [epsilon] [delta] [flags]\n"
      "      run one count, dump the metric registry JSON\n"
      "  cli batch    <query-file> <db-file> [threads] [epsilon] [delta] "
      "[flags]\n"
      "      concurrent batch counts\n"
      "  cli fpras    <query> <db-file> [epsilon]\n"
      "      FPRAS (Thm 16, pure CQ)\n"
      "  cli sample   <query> <db-file> [count]\n"
      "      answer samples\n"
      "  cli classify <query>\n"
      "      Figure 1 verdict (no db)\n"
      "  cli pack     <db-file> <segment-file>\n"
      "      pack a text database into a mmap-able columnar segment (all\n"
      "      db-taking commands accept either format)\n"
      "flags of count, exact, explain, stats and batch (a positional sets\n"
      "the flag of its name):\n"
      "  --epsilon E, --delta D   accuracy target\n"
      "  --threads N              engine pool size\n"
      "  --intra-threads N        lanes per count (0 = automatic)\n"
      "  --timeout-ms N           deadline per count\n"
      "  --max-oracle-calls N     oracle-call cap per count\n"
      "  --adaptive               accuracy scheduler: cost-weighted budget\n"
      "                           split + CLT early stop\n"
      "  --json                   JSON output (batch: one document per "
      "line)\n"
      "  --trace FILE             Chrome trace of the run\n"
      "  --metrics                metric registry to stderr\n");
  return 2;
}

StatusOr<std::vector<std::string>> ReadQueryFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open query file: " + path);
  std::vector<std::string> queries;
  std::string line;
  while (std::getline(in, line)) {
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    queries.push_back(line);
  }
  return queries;
}

// The settings of the engine commands (count, exact, explain, stats,
// batch), which all take the same flags. Zero keeps the engine's default.
struct EngineArgs {
  double epsilon = 0.0;
  double delta = 0.0;
  int threads = 0;          // <= 0: the engine's default pool size.
  int intra_threads = -1;   // -1: automatic lanes.
  uint64_t timeout_ms = 0;  // 0: no deadline.
  uint64_t max_oracle_calls = 0;
  bool adaptive = false;
  bool json = false;
  bool metrics = false;
  std::string trace_path;
};

// Reads all of `text` as a number into `out`.
template <typename T>
bool ParseNumber(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, out);
  return error == std::errc() && stop == end;
}

// The flags that take a value, by name without the "--"; a command's
// positionals set the same settings. A setter fails when its text does
// not parse.
using Setter = bool (*)(const char* text, EngineArgs& args);
const std::map<std::string, Setter>& ValueFlags() {
  static const auto* flags = new std::map<std::string, Setter>{
      {"epsilon",
       [](const char* t, EngineArgs& a) { return ParseNumber(t, a.epsilon); }},
      {"delta",
       [](const char* t, EngineArgs& a) { return ParseNumber(t, a.delta); }},
      {"threads",
       [](const char* t, EngineArgs& a) { return ParseNumber(t, a.threads); }},
      {"intra-threads",
       [](const char* t, EngineArgs& a) {
         return ParseNumber(t, a.intra_threads);
       }},
      {"timeout-ms",
       [](const char* t, EngineArgs& a) {
         return ParseNumber(t, a.timeout_ms);
       }},
      {"max-oracle-calls",
       [](const char* t, EngineArgs& a) {
         return ParseNumber(t, a.max_oracle_calls);
       }},
      {"trace",
       [](const char* t, EngineArgs& a) {
         a.trace_path = t;
         return true;
       }},
  };
  return *flags;
}

// Parses argv[4..] of an engine command: its flags anywhere, and its
// positionals in order (count and stats: epsilon, delta; batch: threads,
// epsilon, delta; exact and explain: none). Only "--" starts a flag, so
// "-1" is a positional. Prints why and returns false on an unknown flag,
// a missing or malformed value, or an extra positional.
bool ParseEngineArgs(const std::string& command, int argc, char** argv,
                     EngineArgs& args) {
  std::vector<std::string> positionals;
  if (command == "count" || command == "stats") {
    positionals = {"epsilon", "delta"};
  } else if (command == "batch") {
    positionals = {"threads", "epsilon", "delta"};
  }
  size_t next_positional = 0;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    bool* on = arg == "--adaptive" ? &args.adaptive
               : arg == "--json"   ? &args.json
               : arg == "--metrics" ? &args.metrics
                                    : nullptr;
    if (on != nullptr) {
      *on = true;
      continue;
    }
    std::string name;
    if (arg.rfind("--", 0) == 0) {
      name = arg.substr(2);
      if (ValueFlags().count(name) == 0) {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        return false;
      }
      if (++i >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return false;
      }
    } else if (next_positional < positionals.size()) {
      name = positionals[next_positional++];
    } else {
      std::fprintf(stderr, "too many %s arguments: %s\n", command.c_str(),
                   arg.c_str());
      return false;
    }
    if (!ValueFlags().at(name)(argv[i], args)) {
      std::fprintf(stderr, "bad value for %s: %s\n", name.c_str(), argv[i]);
      return false;
    }
  }
  return true;
}

CountingEngine MakeEngine(const EngineArgs& args) {
  EngineOptions opts;
  if (args.epsilon > 0) opts.epsilon = args.epsilon;
  if (args.delta > 0) opts.delta = args.delta;
  if (args.intra_threads >= 0) opts.intra_query_threads = args.intra_threads;
  if (args.threads > 0) opts.num_threads = args.threads;
  opts.adaptive = args.adaptive;
  return CountingEngine(opts);
}

// Writes the buffered spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto). Returns false (with a message) when the file can't be opened.
bool WriteTraceFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "trace error: cannot open %s\n", path.c_str());
    return false;
  }
  obs::TraceSink::Global().WriteChromeTrace(out);
  std::fprintf(stderr, "# trace: %zu events -> %s\n",
               obs::TraceSink::Global().event_count(), path.c_str());
  return true;
}

void DumpMetrics() {
  std::fputs(obs::MetricRegistry::Global().ToJson().c_str(), stderr);
  std::fputc('\n', stderr);
}

// Writes the trace and dumps the metrics an engine command asked for,
// then returns `code`, or 1 when the trace cannot be written.
int FinishEngineCommand(const EngineArgs& args, int code) {
  if (!args.trace_path.empty()) {
    obs::TraceSink::Global().Disable();
    if (!WriteTraceFile(args.trace_path)) return 1;
  }
  if (args.metrics) DumpMetrics();
  return code;
}

// The text report of one count: the estimate, then provenance lines.
void PrintCount(const EngineResult& result) {
  std::printf("%.2f%s%s\n", result.estimate, result.exact ? " (exact)" : "",
              result.partial ? " (partial)" : "");
  if (result.partial) {
    std::printf("# partial: reason=%s bounds=[%.2f, %.2f]\n",
                result.partial_reason.c_str(), result.lower_bound,
                result.upper_bound);
  }
  unsigned long long dp_decides = 0;
  bool dp_prepared = true;
  for (const ComponentResult& comp : result.components) {
    dp_decides += comp.dp_prepared_decides;
    dp_prepared = dp_prepared && comp.dp_prepared_path;
  }
  std::printf(
      "# strategy=%s width=%.2f components=%d oracle_calls=%llu "
      "dp_prepared_decides=%llu%s plan=%s plan_ms=%.2f exec_ms=%.2f\n",
      StrategyName(result.strategy), result.width, result.num_components,
      static_cast<unsigned long long>(result.oracle_calls), dp_decides,
      dp_prepared ? "" : " dp=monolithic-fallback",
      result.plan_cache_hit ? "cached" : "built", result.plan_millis,
      result.exec_millis);
  std::printf("# parallel: lanes=%d tasks=%llu worker_tasks=%llu\n",
              result.parallel.lanes,
              static_cast<unsigned long long>(result.parallel.tasks),
              static_cast<unsigned long long>(result.parallel.worker_tasks));
  if (result.adaptive) {
    for (size_t c = 0; c < result.components.size(); ++c) {
      const ComponentResult& comp = result.components[c];
      if (!comp.executed) continue;
      std::printf(
          "#   adaptive %zu: stop=%s runs=%d/%d rounds=%d cost=%s "
          "predicted_calls=%.0f observed_calls=%llu\n",
          c, StopReasonName(comp.stop_reason), comp.completed_runs,
          comp.total_runs, comp.rounds_executed, comp.cost_source.c_str(),
          comp.predicted_oracle_calls,
          static_cast<unsigned long long>(comp.estimator_calls));
    }
  }
  if (result.num_components > 1) {
    for (size_t c = 0; c < result.components.size(); ++c) {
      const ComponentResult& comp = result.components[c];
      if (!comp.executed) {
        // A false nullary guard zeroes the product before execution.
        std::printf("#   component %zu: skipped (false guard) strategy=%s "
                    "plan=%s\n",
                    c, StrategyName(comp.strategy),
                    comp.plan_cache_hit ? "cached" : "built");
        continue;
      }
      std::printf(
          "#   component %zu: factor=%.2f strategy=%s%s epsilon=%.3g "
          "plan=%s\n",
          c, comp.estimate, StrategyName(comp.strategy),
          comp.existential ? " (existential)" : "", comp.epsilon,
          comp.plan_cache_hit ? "cached" : "built");
    }
  }
}

// Runs `requests` as one batch and prints one line per item, in item
// order: its estimate, or with `json` its EngineResult::ToJson() (a
// failed item prints {"error": "<status>"}). The summary goes to stdout,
// or to stderr with `json`, so that every stdout line is one document.
// Returns 1 when an item failed.
int PrintBatch(CountingEngine& engine,
               const std::vector<CountRequest>& requests, bool json) {
  auto results = engine.CountBatch(requests);
  int failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      ++failures;
      const std::string status = results[i].status().ToString();
      if (json) {
        std::printf("{\"error\": \"%s\"}\n", obs::JsonEscape(status).c_str());
      } else {
        std::printf("[%zu] error: %s\n", i, status.c_str());
      }
      continue;
    }
    const EngineResult& r = *results[i];
    if (json) {
      std::printf("%s\n", r.ToJson().c_str());
      continue;
    }
    std::printf("[%zu] %.2f%s  strategy=%s components=%d plan=%s\n", i,
                r.estimate, r.exact ? " (exact)" : "", StrategyName(r.strategy),
                r.num_components, r.plan_cache_hit ? "cached" : "built");
  }
  PlanCacheStats stats = engine.CacheStats();
  std::fprintf(json ? stderr : stdout,
               "# %zu queries, %d failed | plan cache: %llu hits, %llu "
               "misses, %llu evictions\n",
               results.size(), failures,
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses),
               static_cast<unsigned long long>(stats.evictions));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];

  if (command == "classify") {
    auto query = ParseQuery(argv[2]);
    if (!query.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    // The planner's own classification: for a connected query this is
    // the verdict `explain` prints.
    const Classification cls = ClassifyQuery(*query, PlanOptions{});
    const char* kind = cls.kind == QueryKind::kCq    ? "CQ"
                       : cls.kind == QueryKind::kDcq ? "DCQ"
                                                     : "ECQ";
    std::printf("kind=%s arity=%d tw<=%.0f fhw<=%.2f ||phi||=%llu\n", kind,
                query->BuildHypergraph().Arity(), cls.treewidth, cls.fhw,
                static_cast<unsigned long long>(cls.phi_size));
    std::printf("%s\n", cls.verdict.c_str());
    return 0;
  }

  if (argc < 4) return Usage();
  const std::string db_path = argv[3];

  if (command == "pack") {
    // argv[2] is the input database (text or already-packed), argv[3]
    // the output segment path.
    auto db = LoadDatabaseAuto(argv[2]);
    if (!db.ok()) {
      std::fprintf(stderr, "database error: %s\n",
                   db.status().ToString().c_str());
      return 1;
    }
    db->Canonicalize();
    Status written = WriteSegmentDatabase(*db, db_path);
    if (!written.ok()) {
      std::fprintf(stderr, "pack error: %s\n", written.ToString().c_str());
      return 1;
    }
    size_t rows = 0;
    const std::vector<std::string> names = db->RelationNames();
    for (const std::string& name : names) rows += db->relation(name).size();
    std::fprintf(stderr, "# packed %zu relations (%zu rows) -> %s\n",
                 names.size(), rows, db_path.c_str());
    return 0;
  }

  if (command == "count" || command == "exact" || command == "explain" ||
      command == "stats" || command == "batch") {
    EngineArgs args;
    if (!ParseEngineArgs(command, argc, argv, args)) return Usage();
    std::vector<std::string> queries = {argv[2]};
    if (command == "batch") {
      auto file = ReadQueryFile(argv[2]);
      if (!file.ok()) {
        std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
        return 1;
      }
      queries = std::move(*file);
    }
    if (!args.trace_path.empty()) obs::TraceSink::Global().Enable();
    // --threads sizes the engine's one pool, which batch items and their
    // intra-query lanes share.
    CountingEngine engine = MakeEngine(args);
    Status registered = engine.RegisterDatabaseFile("db", db_path);
    if (!registered.ok()) {
      std::fprintf(stderr, "database error: %s\n",
                   registered.ToString().c_str());
      return 1;
    }
    if (command == "explain") {
      auto explanation = engine.Explain(argv[2], "db");
      if (!explanation.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     explanation.status().ToString().c_str());
        return FinishEngineCommand(args, 1);
      }
      if (args.json) {
        std::printf("%s\n", explanation->ToJson().c_str());
      } else {
        std::fputs(explanation->text.c_str(), stdout);
      }
      return FinishEngineCommand(args, 0);
    }
    std::vector<CountRequest> requests;
    for (const std::string& q : queries) {
      CountRequest request;
      request.query = q;
      request.database = "db";
      request.force_exact = command == "exact";
      request.time_budget_ms = args.timeout_ms;
      request.max_oracle_calls = args.max_oracle_calls;
      requests.push_back(request);
    }
    if (command == "batch") {
      return FinishEngineCommand(args,
                                 PrintBatch(engine, requests, args.json));
    }
    auto result = engine.Count(requests[0]);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return FinishEngineCommand(args, 1);
    }
    if (command == "stats") {
      // One count (estimate to stderr as provenance), registry to stdout.
      std::fprintf(stderr, "# %.2f%s strategy=%s oracle_calls=%llu\n",
                   result->estimate, result->exact ? " (exact)" : "",
                   StrategyName(result->strategy),
                   static_cast<unsigned long long>(result->oracle_calls));
      std::printf("%s\n", obs::MetricRegistry::Global().ToJson().c_str());
    } else if (args.json) {
      std::printf("%s\n", result->ToJson().c_str());
    } else {
      PrintCount(*result);
    }
    return FinishEngineCommand(args, 0);
  }

  // The remaining commands drive pipeline pieces directly.
  auto query = ParseQuery(argv[2]);
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  auto db = LoadDatabaseAuto(db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "database error: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  if (command == "fpras") {
    FprasOptions opts;
    opts.acjr.epsilon = argc > 4 ? std::atof(argv[4]) : 0.15;
    auto result = FprasCountCq(*query, *db, opts);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%.2f (fhw %.2f)\n", result->estimate, result->fhw);
    return 0;
  }
  if (command == "sample") {
    const int count = argc > 4 ? std::atoi(argv[4]) : 5;
    SamplerOptions opts;
    auto sampler = AnswerSampler::Create(*query, *db, opts);
    if (!sampler.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   sampler.status().ToString().c_str());
      return 1;
    }
    auto samples = (*sampler)->Sample(count);
    if (!samples.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   samples.status().ToString().c_str());
      return 1;
    }
    for (const Tuple& t : *samples) {
      for (size_t i = 0; i < t.size(); ++i) {
        std::printf(i + 1 == t.size() ? "%u\n" : "%u ", t[i]);
      }
    }
    return 0;
  }
  return Usage();
}
