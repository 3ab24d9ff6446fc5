// cqcount command-line interface.
//
// Usage:
//   cli count    <query> <database-file> [epsilon] [delta] [--json]
//                [--trace FILE] [--metrics]
//   cli exact    <query> <database-file> [--intra-threads N]
//                [--timeout-ms N] [--json]
//   cli explain  <query> <database-file> [--json]
//   cli batch    <query-file> <database-file> [--threads N] [--epsilon E]
//                [--delta D] [--trace FILE] [--metrics]
//                (positional [threads] [epsilon] [delta] also accepted)
//   cli stats    <query> <database-file> [epsilon] [delta]
//   cli fpras    <query> <database-file> [epsilon]
//   cli sample   <query> <database-file> [count]
//   cli classify <query>
//   cli pack     <database-file> <segment-file>
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
// the registry JSON to stdout; `count --json` prints
// EngineResult::ToJson() (the result, its per-component records and the
// derived profile); `explain --json` prints Explanation::ToJson() (the
// per-component plans, budget split and observed shape history) without
// executing.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "automata/fpras.h"
#include "counting/sampler.h"
#include "engine/engine.h"
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
      "  cli count    <query> <db-file> [epsilon] [delta] "
      "[--intra-threads N] [--timeout-ms N] [--max-oracle-calls N] "
      "[--adaptive] [--json] [--trace FILE] [--metrics]\n"
      "                                                     engine count "
      "(auto strategy; on timeout, an\n"
      "                                                     anytime partial "
      "estimate with hard bounds;\n"
      "                                                     --adaptive arms "
      "the accuracy scheduler:\n"
      "                                                     cost-weighted "
      "budget split + CLT early stop)\n"
      "  cli exact    <query> <db-file> [--intra-threads N] [--timeout-ms N] "
      "[--json]\n"
      "                                                     engine exact "
      "count\n"
      "  cli explain  <query> <db-file> [--json]            plan + Figure 1 "
      "verdict,\n"
      "                                                     per-component "
      "breakdown\n"
      "  cli batch    <query-file> <db-file> [--threads N] [--epsilon E] "
      "[--delta D] [--intra-threads N] [--adaptive] [--trace FILE] "
      "[--metrics]\n"
      "                                                     concurrent "
      "batch counts\n"
      "                                                     (positional "
      "[threads] [epsilon] [delta] also accepted)\n"
      "  cli stats    <query> <db-file> [epsilon] [delta]   run one count, "
      "dump metric registry JSON\n"
      "  cli fpras    <query> <db-file> [epsilon]           FPRAS "
      "(Thm 16, pure CQ)\n"
      "  cli sample   <query> <db-file> [count]             answer "
      "samples\n"
      "  cli classify <query>                               Figure 1 "
      "verdict (no db)\n"
      "  cli pack     <db-file> <segment-file>              pack a text "
      "database into a\n"
      "                                                     mmap-able "
      "columnar segment\n"
      "                                                     (all db-taking "
      "commands accept\n"
      "                                                     either format)\n");
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

CountingEngine MakeEngine(double epsilon, double delta,
                          int intra_threads = -1, bool adaptive = false,
                          int threads = 0) {
  EngineOptions opts;
  if (epsilon > 0) opts.epsilon = epsilon;
  if (delta > 0) opts.delta = delta;
  // -1 keeps the engine default (automatic: pool-sized lanes for long
  // counts, inline for cheap components).
  if (intra_threads >= 0) opts.intra_query_threads = intra_threads;
  // <= 0 keeps the engine's default pool size.
  if (threads > 0) opts.num_threads = threads;
  opts.adaptive = adaptive;
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
      command == "stats") {
    // count supports [epsilon] [delta] positionals plus --intra-threads
    // and the telemetry flags, which exact shares; stats takes [epsilon]
    // [delta].
    double epsilon = 0.0;
    double delta = 0.0;
    int intra_threads = -1;
    unsigned long long timeout_ms = 0;
    unsigned long long max_oracle_calls = 0;
    bool adaptive = false;
    bool as_json = false;
    bool dump_metrics = false;
    std::string trace_path;
    int positional = 0;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--intra-threads") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for --intra-threads\n");
          return 2;
        }
        intra_threads = std::atoi(argv[++i]);
      } else if (arg == "--timeout-ms") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for --timeout-ms\n");
          return 2;
        }
        timeout_ms = std::strtoull(argv[++i], nullptr, 10);
      } else if (arg == "--max-oracle-calls") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for --max-oracle-calls\n");
          return 2;
        }
        max_oracle_calls = std::strtoull(argv[++i], nullptr, 10);
      } else if (arg == "--trace") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for --trace\n");
          return 2;
        }
        trace_path = argv[++i];
      } else if (arg == "--adaptive") {
        adaptive = true;
      } else if (arg == "--json") {
        as_json = true;
      } else if (arg == "--metrics") {
        dump_metrics = true;
      } else if (positional == 0) {
        epsilon = std::atof(arg.c_str());
        ++positional;
      } else if (positional == 1) {
        delta = std::atof(arg.c_str());
        ++positional;
      } else {
        std::fprintf(stderr, "too many count arguments: %s\n", arg.c_str());
        return Usage();
      }
    }
    if (!trace_path.empty()) obs::TraceSink::Global().Enable();
    CountingEngine engine =
        MakeEngine(epsilon, delta, intra_threads, adaptive);
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
        return 1;
      }
      if (as_json) {
        std::printf("%s\n", explanation->ToJson().c_str());
      } else {
        std::fputs(explanation->text.c_str(), stdout);
      }
      return 0;
    }
    CountRequest count_request;
    count_request.query = argv[2];
    count_request.database = "db";
    count_request.force_exact = command == "exact";
    count_request.time_budget_ms = timeout_ms;
    count_request.max_oracle_calls = max_oracle_calls;
    auto result = engine.Count(count_request);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (command == "stats") {
      // One count (estimate to stderr as provenance), registry to stdout.
      std::fprintf(stderr, "# %.2f%s strategy=%s oracle_calls=%llu\n",
                   result->estimate, result->exact ? " (exact)" : "",
                   StrategyName(result->strategy),
                   static_cast<unsigned long long>(result->oracle_calls));
      std::printf("%s\n", obs::MetricRegistry::Global().ToJson().c_str());
      if (!trace_path.empty()) {
        obs::TraceSink::Global().Disable();
        if (!WriteTraceFile(trace_path)) return 1;
      }
      return 0;
    }
    if (!trace_path.empty()) {
      obs::TraceSink::Global().Disable();
      if (!WriteTraceFile(trace_path)) return 1;
    }
    if (as_json) {
      std::printf("%s\n", result->ToJson().c_str());
      if (dump_metrics) DumpMetrics();
      return 0;
    }
    std::printf("%.2f%s%s\n", result->estimate,
                result->exact ? " (exact)" : "",
                result->partial ? " (partial)" : "");
    if (result->partial) {
      std::printf("# partial: reason=%s bounds=[%.2f, %.2f]\n",
                  result->partial_reason.c_str(), result->lower_bound,
                  result->upper_bound);
    }
    unsigned long long dp_decides = 0;
    bool dp_prepared = true;
    for (const ComponentResult& comp : result->components) {
      dp_decides += comp.dp_prepared_decides;
      dp_prepared = dp_prepared && comp.dp_prepared_path;
    }
    std::printf(
        "# strategy=%s width=%.2f components=%d oracle_calls=%llu "
        "dp_prepared_decides=%llu%s plan=%s plan_ms=%.2f exec_ms=%.2f\n",
        StrategyName(result->strategy), result->width,
        result->num_components,
        static_cast<unsigned long long>(result->oracle_calls), dp_decides,
        dp_prepared ? "" : " dp=monolithic-fallback",
        result->plan_cache_hit ? "cached" : "built", result->plan_millis,
        result->exec_millis);
    std::printf(
        "# parallel: lanes=%d tasks=%llu worker_tasks=%llu\n",
        result->parallel.lanes,
        static_cast<unsigned long long>(result->parallel.tasks),
        static_cast<unsigned long long>(result->parallel.worker_tasks));
    if (result->adaptive) {
      for (size_t c = 0; c < result->components.size(); ++c) {
        const ComponentResult& comp = result->components[c];
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
    if (result->num_components > 1) {
      for (size_t c = 0; c < result->components.size(); ++c) {
        const ComponentResult& comp = result->components[c];
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
    if (dump_metrics) DumpMetrics();
    return 0;
  }

  if (command == "batch") {
    // --threads/--epsilon/--delta overrides; bare positionals (threads,
    // epsilon, delta in that order) are kept for compatibility.
    int threads = 0;
    double epsilon = 0.0;
    double delta = 0.0;
    int intra_threads = -1;
    bool adaptive = false;
    bool dump_metrics = false;
    std::string trace_path;
    int positional = 0;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      auto flag_value = [&](const char* name) -> const char* {
        if (arg != name) return nullptr;
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", name);
          std::exit(2);
        }
        return argv[++i];
      };
      if (const char* v = flag_value("--threads")) {
        threads = std::atoi(v);
      } else if (const char* v = flag_value("--epsilon")) {
        epsilon = std::atof(v);
      } else if (const char* v = flag_value("--delta")) {
        delta = std::atof(v);
      } else if (const char* v = flag_value("--intra-threads")) {
        intra_threads = std::atoi(v);
      } else if (const char* v = flag_value("--trace")) {
        trace_path = v;
      } else if (arg == "--adaptive") {
        adaptive = true;
      } else if (arg == "--metrics") {
        dump_metrics = true;
      } else if (arg.rfind("--", 0) == 0) {
        // Only "--" prefixes are flags: "-1" stays a valid positional
        // (threads <= 0 selects the engine's default pool).
        std::fprintf(stderr, "unknown batch flag: %s\n", arg.c_str());
        return Usage();
      } else {
        switch (positional++) {
          case 0: threads = std::atoi(arg.c_str()); break;
          case 1: epsilon = std::atof(arg.c_str()); break;
          case 2: delta = std::atof(arg.c_str()); break;
          default:
            std::fprintf(stderr, "too many batch arguments: %s\n",
                         arg.c_str());
            return Usage();
        }
      }
    }
    auto queries = ReadQueryFile(argv[2]);
    if (!queries.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   queries.status().ToString().c_str());
      return 1;
    }
    if (!trace_path.empty()) obs::TraceSink::Global().Enable();
    // --threads sizes the engine's one pool, which the batch items and
    // their intra-query lanes share.
    CountingEngine engine =
        MakeEngine(epsilon, delta, intra_threads, adaptive, threads);
    Status registered = engine.RegisterDatabaseFile("db", db_path);
    if (!registered.ok()) {
      std::fprintf(stderr, "database error: %s\n",
                   registered.ToString().c_str());
      return 1;
    }
    std::vector<CountRequest> requests;
    for (const std::string& q : *queries) {
      CountRequest request;
      request.query = q;
      request.database = "db";
      requests.push_back(request);
    }
    auto results = engine.CountBatch(requests);
    int failures = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ++failures;
        std::printf("[%zu] error: %s\n", i,
                    results[i].status().ToString().c_str());
        continue;
      }
      const EngineResult& r = *results[i];
      std::printf("[%zu] %.2f%s  strategy=%s components=%d plan=%s\n", i,
                  r.estimate, r.exact ? " (exact)" : "",
                  StrategyName(r.strategy), r.num_components,
                  r.plan_cache_hit ? "cached" : "built");
    }
    PlanCacheStats stats = engine.CacheStats();
    std::printf(
        "# %zu queries, %d failed | plan cache: %llu hits, %llu misses, "
        "%llu evictions\n",
        results.size(), failures, static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions));
    if (!trace_path.empty()) {
      obs::TraceSink::Global().Disable();
      if (!WriteTraceFile(trace_path)) return 1;
    }
    if (dump_metrics) DumpMetrics();
    return failures == 0 ? 0 : 1;
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
