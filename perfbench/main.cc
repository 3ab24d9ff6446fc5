// perfbench: drives CountingEngine through one workload as a closed-loop
// client and prints one JSON line of measurements. perfbench/run.py
// builds it, runs it and formats the result; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir DIR [--trace-out FILE] [--tiny] [--wrong-reference]
#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "relational/segment.h"
#include "relational/simd.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqcount::CountingEngine;
using cqcount::EngineResult;
using cqcount::StatusOr;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool wrong_reference = false;
  std::string data_dir = ".";
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--data-dir") {
      args.data_dir = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--wrong-reference") {
      args.wrong_reference = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  return args;
}

/// A minimal JSON object writer: keys in insertion order, numbers with
/// all their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& v) { return Raw(key, Quote(v)); }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Obj(const std::string& key, const JsonObject& v) { return Raw(key, v.str()); }
  JsonObject& Strs(const std::string& key, const std::vector<std::string>& v) {
    std::string list = "[";
    for (size_t i = 0; i < v.size(); ++i) list += (i > 0 ? "," : "") + Quote(v[i]);
    return Raw(key, list + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  JsonObject& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + value;
    return *this;
  }
  std::string body_;
};

/// Named metrics with units, in print order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    json_.Obj(name, JsonObject().Num("value", value).Str("unit", unit));
  }
  const JsonObject& json() const { return json_; }

 private:
  JsonObject json_;
};

/// Linearly interpolated quantile `q` of `values` (which must be non-empty).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Resident set size. Freed heap memory is first returned to the system:
/// how much of it the allocator keeps cached in its per-thread arenas
/// depends on scheduling, and would swing the reading run to run.
double RssMb() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kb = 0.0;
      status >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// The metric registry at one moment, by name.
class RegistrySnapshot {
 public:
  RegistrySnapshot() {
    for (auto& m : cqcount::obs::MetricRegistry::Global().Snapshot()) {
      metrics_[m.name] = m;
    }
  }
  /// Counter or gauge value, or a histogram's observation count.
  double Count(const std::string& name) const {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) return 0.0;
    return it->second.kind == cqcount::obs::MetricKind::kHistogram
               ? static_cast<double>(it->second.histogram.count)
               : static_cast<double>(it->second.value);
  }
  /// A histogram's sum of observations.
  double Sum(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : static_cast<double>(it->second.histogram.sum);
  }

 private:
  std::map<std::string, cqcount::obs::MetricSnapshot> metrics_;
};

/// Polls the executor queue-depth gauge on its own thread and keeps the
/// maximum (traced run only).
class QueueDepthSampler {
 public:
  QueueDepthSampler()
      : gauge_(cqcount::obs::MetricRegistry::Global().GetGauge(
            "executor.queue_depth", "Closures queued but not yet started, all pools")),
        thread_([this] {
          while (!stop_.load()) {
            max_.store(std::max(max_.load(), gauge_.Value()));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~QueueDepthSampler() { Stop(); }
  QueueDepthSampler(const QueueDepthSampler&) = delete;
  QueueDepthSampler& operator=(const QueueDepthSampler&) = delete;

  int64_t Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return max_.load();
  }

 private:
  cqcount::obs::Gauge& gauge_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> max_{0};
  std::thread thread_;
};

/// Checks every answer against its reference count.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) {}

  /// Returns false (and records why) when the request failed: an error
  /// status, a partial or non-converged result, or an estimate outside
  /// (1 +- epsilon) * exact (exact results must match exactly).
  bool Check(const Item& item, const StatusOr<EngineResult>& result) {
    ++attempted;
    const double exact = static_cast<double>(w_.references[item.ref].exact);
    std::string why;
    if (!result.ok()) {
      why = result.status().ToString();
    } else if (result->partial || !result->converged) {
      why = "partial or non-converged result";
    } else if (result->exact || item.request.force_exact) {
      if (result->estimate != exact) why = "exact count differs from reference";
    } else {
      const double epsilon =
          item.request.epsilon > 0 ? item.request.epsilon : w_.options.epsilon;
      const double error = exact == 0.0 ? std::abs(result->estimate)
                                         : std::abs(result->estimate - exact) / exact;
      rel_error_sum += error;
      ++rel_error_n;
      if (error > epsilon) why = "estimate outside (1 +- epsilon) * exact";
    }
    if (why.empty()) return true;
    ++failed;
    if (failures.size() < 5) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " (got %.17g, reference %.17g)",
                    result.ok() ? result->estimate : -1.0, exact);
      failures.push_back(item.request.query + ": " + why + buf);
    }
    return false;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  double rel_error_sum = 0.0;
  uint64_t rel_error_n = 0;
  std::vector<std::string> failures;

 private:
  const Workload& w_;
};

/// Set-up timings, and the engine that serves the requests with its pack.
struct Setup {
  std::unique_ptr<CountingEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> register_ms;
  std::vector<double> pack_ms;
  std::string pack_path;
};

/// One set-up, timed into `s`: from engine construction until every
/// database is registered. Copying the staged databases is the benchmark's
/// own work and stays outside the timed region. A pack is written to a file
/// named after `tag`, returned in `pack_path`.
std::unique_ptr<CountingEngine> SetUpOnce(const Workload& w, const Args& args,
                                          const std::string& tag, Setup& s,
                                          std::string* pack_path) {
  std::vector<cqcount::Database> copies;
  if (!w.pack) {
    for (const DatabaseInput& db : w.dbs) copies.push_back(db.staged);
  }
  const Clock::time_point start = Clock::now();
  auto engine = std::make_unique<CountingEngine>(w.options);
  for (size_t i = 0; i < w.dbs.size(); ++i) {
    const Clock::time_point reg = Clock::now();
    cqcount::Status status;
    if (w.pack) {
      *pack_path = args.data_dir + "/" + w.dbs[i].name + "-" + tag + ".seg";
      status = cqcount::WriteSegmentDatabase(w.dbs[i].canonical, *pack_path);
      s.pack_ms.push_back(SecondsSince(reg) * 1e3);
      const Clock::time_point open = Clock::now();
      if (status.ok()) status = engine->RegisterDatabaseFile(w.dbs[i].name, *pack_path);
      s.register_ms.push_back(SecondsSince(open) * 1e3);
    } else {
      status = engine->RegisterDatabase(w.dbs[i].name, std::move(copies[i]));
      s.register_ms.push_back(SecondsSince(reg) * 1e3);
    }
    if (!status.ok()) throw std::runtime_error("set-up: " + status.ToString());
  }
  s.setup_s.push_back(SecondsSince(start));
  return engine;
}

/// Set-ups of engines that are dropped at once: at least `min_reps`, and
/// until they have taken `min_seconds` together. Returns the wall time.
double SetUpSpares(const Workload& w, const Args& args, int min_reps, double min_seconds,
                   Setup& s) {
  const Clock::time_point start = Clock::now();
  double total_s = 0.0;
  for (int rep = 0; rep < min_reps || total_s < min_seconds; ++rep) {
    std::string pack_path;
    SetUpOnce(w, args, "spare", s, &pack_path).reset();
    total_s += s.setup_s.back();
    if (!pack_path.empty()) std::filesystem::remove(pack_path);
  }
  return SecondsSince(start);
}

/// What the engine reported, summed over the measured phase (the traced
/// run's engine-side per-layer numbers).
struct EngineTotals {
  double parse_ms = 0.0, compile_ms = 0.0, plan_ms = 0.0, execute_ms = 0.0;
  uint64_t components = 0;
  uint64_t executed_components = 0;
  uint64_t lanes = 0;
  uint64_t tasks = 0, worker_tasks = 0;
  std::map<std::string, double> strategy_ms;
  /// Scheduling-dependent: never compared between runs.
  uint64_t oracle_calls = 0;

  void Add(const EngineResult& r) {
    parse_ms += r.profile.parse_millis;
    compile_ms += r.profile.compile_millis;
    plan_ms += r.profile.plan_millis;
    execute_ms += r.profile.execute_millis;
    components += static_cast<uint64_t>(r.num_components);
    oracle_calls += r.oracle_calls;
    for (const cqcount::ComponentResult& c : r.components) {
      if (!c.executed) continue;
      ++executed_components;
      lanes += static_cast<uint64_t>(c.parallel.lanes);
      tasks += c.parallel.tasks;
      worker_tasks += c.parallel.worker_tasks;
      strategy_ms[cqcount::StrategyName(c.strategy)] += c.exec_millis;
    }
  }
};

/// The closed-loop client. A single-request step runs on the calling
/// thread; the client pins that thread to the next allowed CPU for the
/// duration of each Count, so that contention on any one core of a shared
/// machine is spread evenly over the run instead of deciding it. The full
/// mask is restored right after the call, so nothing else runs pinned.
class Client {
 public:
  Client(const Workload& w, CountingEngine& engine, Setup& setup)
      : w_(w), engine_(engine), setup_(setup) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Runs step `index` (mod the sequence length) and returns its results;
  /// `call_ms` is the Count/CountBatch time, `write_ms` the time of the
  /// re-registration that follows it (0 when none).
  std::vector<StatusOr<EngineResult>> Run(size_t index, double* call_ms, double* write_ms) {
    const Step& step = w_.steps[index % w_.steps.size()];
    std::vector<StatusOr<EngineResult>> results;
    if (step.batch) {
      std::vector<cqcount::CountRequest> requests;
      for (const Item& item : step.items) requests.push_back(item.request);
      const Clock::time_point start = Clock::now();
      results = engine_.CountBatch(requests);
      *call_ms = SecondsSince(start) * 1e3;
    } else {
      if (!cpus_.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
      }
      const Clock::time_point start = Clock::now();
      results.push_back(engine_.Count(step.items[0].request));
      *call_ms = SecondsSince(start) * 1e3;
      if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
    *write_ms = 0.0;
    if (step.reregister >= 0) {
      const DatabaseInput& db = w_.dbs[step.reregister];
      cqcount::Database copy = db.staged;
      const Clock::time_point start = Clock::now();
      cqcount::Status status = engine_.RegisterDatabase(db.name, std::move(copy));
      *write_ms = SecondsSince(start) * 1e3;
      setup_.register_ms.push_back(*write_ms);
      if (!status.ok()) throw std::runtime_error("re-register: " + status.ToString());
    }
    return results;
  }

 private:
  const Workload& w_;
  CountingEngine& engine_;
  Setup& setup_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_cpu_ = 0;
};

/// Writes the pack back and drops its pages from the page cache (untimed,
/// after set-up). The requests then fault in the pages they reach, which
/// storage.resident_mb reads after the measured phase. Pages a process has
/// mapped and touched stay resident.
void EvictFromPageCache(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  fdatasync(fd);
  posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  close(fd);
}

/// Time of one request cycle with the SIMD kernels forced to scalar,
/// divided by its time at the process's own level: the median over
/// `rounds` pairs, run back to back in this process on the same warm data,
/// the order of the two arms alternating between pairs. Every answer is
/// checked; failures go to `problems`.
double ScalarOverSimd(const Workload& w, Client& client, int rounds,
                      std::vector<std::string>* problems) {
  using cqcount::simd::Level;
  const Level native = cqcount::simd::ActiveLevel();
  Checker checker(w);
  std::vector<double> ratios;
  for (int round = 0; round < rounds; ++round) {
    double cycle_ms[2] = {0.0, 0.0};  // Native, scalar.
    for (int k = 0; k < 2; ++k) {
      const int arm = (round + k) % 2;
      cqcount::simd::SetLevelForTesting(arm == 0 ? native : Level::kScalar);
      for (size_t i = 0; i < w.cycle_steps; ++i) {
        double call_ms = 0.0, write_ms = 0.0;
        auto results = client.Run(i, &call_ms, &write_ms);
        cycle_ms[arm] += call_ms;
        for (size_t j = 0; j < results.size(); ++j) checker.Check(w.steps[i].items[j], results[j]);
      }
    }
    ratios.push_back(Ratio(cycle_ms[1], cycle_ms[0]));
  }
  cqcount::simd::SetLevelForTesting(native);
  for (const std::string& f : checker.failures) problems->push_back("SIMD A/B: " + f);
  return Quantile(ratios, 0.5);
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int Run(const Args& args) {
  Workload w = MakeWorkload(args.workload, args.seed, args.tiny);
  const int threads = 4;
  ComputeReferences(w, threads);  // Untimed.
  if (args.wrong_reference) w.references[0].exact = 2 * w.references[0].exact + 7;
  std::vector<std::string> problems;

  // Set-up: spare engines, then the one that serves the measured phase.
  const RegistrySnapshot before_setup;
  Setup setup;
  SetUpSpares(w, args, args.tiny ? 2 : 14, 0.0, setup);
  setup.engine = SetUpOnce(w, args, "serve", setup, &setup.pack_path);
  const RegistrySnapshot after_setup;
  if (w.pack) EvictFromPageCache(setup.pack_path);
  CountingEngine& engine = *setup.engine;
  Client client(w, engine, setup);
  Checker checker(w);

  // Gate: the leading steps once, untimed. Warms plans and pages, and
  // fixes the estimates every later run with this seed must reproduce.
  std::vector<double> gate;
  for (size_t i = 0; i < w.gate_steps; ++i) {
    double call_ms = 0.0, write_ms = 0.0;
    auto results = client.Run(i, &call_ms, &write_ms);
    const Step& step = w.steps[i];
    for (size_t j = 0; j < results.size(); ++j) {
      Checker gate_checker(w);
      if (!gate_checker.Check(step.items[j], results[j])) {
        problems.push_back("gate: " + gate_checker.failures[0]);
      }
      gate.push_back(results[j].ok() ? results[j]->estimate : -1.0);
    }
  }
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (double g : gate) digest = (digest ^ Bits(g)) * 0x100000001b3ULL;

  // Measured phase: cycles of steps until `seconds` of it have passed and
  // p90 has at least ten samples beyond it. An in-memory set-up takes well
  // under a millisecond, and on a shared machine its time drifts over
  // seconds; so untraced runs also set up spare engines after each cycle,
  // for a tenth of the cycle's time, and setup_s is the median over the
  // whole phase. The spare set-ups are not part of the phase's time.
  const size_t min_samples = args.tiny ? 10 : 110;
  const double hard_stop = std::max(2.0 * args.seconds, args.seconds + 30.0);
  std::vector<double> latency_ms;
  std::vector<double> first_estimates;
  const size_t keep_estimates = std::max(gate.size(), w.replay_items);
  EngineTotals totals;
  double busy_s = 0.0;
  std::unique_ptr<QueueDepthSampler> sampler;
  if (args.trace) sampler = std::make_unique<QueueDepthSampler>();
  const RegistrySnapshot before_phase;
  const Clock::time_point phase_start = Clock::now();
  Clock::time_point cycle_start = phase_start;
  double spares_s = 0.0;
  for (size_t index = 0;; ++index) {
    double call_ms = 0.0, write_ms = 0.0;
    auto results = client.Run(index, &call_ms, &write_ms);
    latency_ms.push_back(call_ms);
    busy_s += (call_ms + write_ms) / 1e3;
    const Step& step = w.steps[index % w.steps.size()];
    for (size_t j = 0; j < results.size(); ++j) {
      checker.Check(step.items[j], results[j]);
      if (results[j].ok()) totals.Add(*results[j]);
      if (first_estimates.size() < keep_estimates) {
        first_estimates.push_back(results[j].ok() ? results[j]->estimate : -1.0);
      }
    }
    if ((index + 1) % w.cycle_steps != 0) continue;
    if (!args.trace) spares_s += SetUpSpares(w, args, 1, 0.1 * SecondsSince(cycle_start), setup);
    const double elapsed = SecondsSince(phase_start);
    if ((elapsed - spares_s >= args.seconds && latency_ms.size() >= min_samples) ||
        elapsed >= hard_stop) {
      break;
    }
    cycle_start = Clock::now();
  }
  const RegistrySnapshot after_phase;
  const int64_t queue_depth_max = sampler ? sampler->Stop() : 0;
  const double rss_mb = RssMb();
  double resident_mb = 0.0;
  if (w.pack && args.trace) {
    auto view = cqcount::SegmentView::Open(setup.pack_path);
    if (view.ok()) {
      auto pages = (*view)->ResidentPages();
      if (pages.ok()) resident_mb = static_cast<double>(*pages) * sysconf(_SC_PAGESIZE) / 1e6;
    }
  }
  for (size_t i = 0; i < gate.size() && i < first_estimates.size(); ++i) {
    if (Bits(gate[i]) != Bits(first_estimates[i])) {
      problems.push_back("same-seed estimates differ between the gate and the measured phase");
      break;
    }
  }

  const double requests = static_cast<double>(checker.attempted);
  Metrics e2e;
  e2e.Add("throughput_qps", requests / busy_s, "1/s");
  e2e.Add("latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
  e2e.Add("setup_s", Quantile(setup.setup_s, 0.5), "s");
  // Printed but not bounded: on the shared development machine their
  // run-to-run spread exceeded any usable regression bound (p90 on
  // heavy_single, resident heap on batch_mixed).
  Metrics unbounded;
  unbounded.Add("latency_p90_ms", Quantile(latency_ms, 0.9), "ms");
  unbounded.Add("rss_mb", rss_mb, "MB");

  Metrics layers;
  if (args.trace) {
    // Replay the leading requests through the layer entry points, first
    // with the recorder off, then on: the difference is the tracing cost.
    std::vector<const Item*> items;
    for (const Step& step : w.steps) {
      for (const Item& item : step.items) {
        if (items.size() < w.replay_items) items.push_back(&item);
      }
    }
    std::vector<cqcount::Database> replay_dbs;
    if (w.pack) {
      auto db = cqcount::OpenSegmentDatabase(setup.pack_path);
      if (!db.ok()) throw std::runtime_error("open pack: " + db.status().ToString());
      replay_dbs.push_back(*std::move(db));
    } else {
      for (const DatabaseInput& db : w.dbs) {
        replay_dbs.push_back(db.canonical);
        replay_dbs.back().BuildZoneMaps();
      }
    }
    SpanRecorder off(false), on(true);
    double pass_s[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      SpanRecorder& recorder = pass == 0 ? off : on;
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < items.size(); ++i) {
        const Item& item = *items[i];
        auto replay = ReplayRequest(item.request, replay_dbs[w.references[item.ref].db],
                                    w.options, recorder, i);
        if (!replay.ok()) {
          problems.push_back("replay: " + replay.status().ToString());
        } else if (i < first_estimates.size() &&
                   Bits(*replay) != Bits(first_estimates[i])) {
          problems.push_back("replayed estimate differs from the engine's: " +
                             item.request.query);
        }
      }
      pass_s[pass] = SecondsSince(start);
    }
    if (!args.trace_out.empty()) {
      cqcount::Status status = on.WriteJsonLines(args.trace_out);
      if (!status.ok()) problems.push_back(status.ToString());
    }
    auto spans = on.Layers();
    auto span_ms = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : Ratio(it->second.self_ms, it->second.calls);
    };
    auto delta = [&](const std::string& name) {
      return after_phase.Count(name) - before_phase.Count(name);
    };
    auto per_request = [&](const std::string& name) { return Ratio(delta(name), requests); };
    const double hits = delta("plan_cache.hits"), misses = delta("plan_cache.misses");
    double strategy_total = 0.0;
    for (auto& [name, ms] : totals.strategy_ms) strategy_total += ms;

    layers.Add("query.parse_us", span_ms("query.ParseQuery") * 1e3, "us");
    layers.Add("compile.compile_us", span_ms("compile.CompileQuery") * 1e3, "us");
    layers.Add("compile.components_per_query", Ratio(totals.components, requests), "count");
    layers.Add("engine.plan_build_us", span_ms("engine.BuildQueryPlan") * 1e3, "us");
    layers.Add("engine.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
    layers.Add("engine.plan_cache_evictions", per_request("plan_cache.evictions"), "count/req");
    layers.Add("engine.register_ms", Mean(setup.register_ms), "ms");
    layers.Add("engine.phase_ms.parse", Ratio(totals.parse_ms, requests), "ms");
    layers.Add("engine.phase_ms.compile", Ratio(totals.compile_ms, requests), "ms");
    layers.Add("engine.phase_ms.plan", Ratio(totals.plan_ms, requests), "ms");
    layers.Add("engine.phase_ms.execute", Ratio(totals.execute_ms, requests), "ms");
    layers.Add("engine.lanes_granted_mean",
               Ratio(static_cast<double>(totals.lanes), totals.executed_components), "lanes");
    for (const char* strategy : {"exact", "fptras-tw", "fptras-fhw", "automata-fpras"}) {
      layers.Add(std::string("engine.strategy_share.") + strategy,
                 Ratio(totals.strategy_ms[strategy], strategy_total), "ratio");
    }
    layers.Add("counting.fptras_ms", span_ms("counting.ApproxCountAnswers"), "ms");
    layers.Add("counting.exact_ms", span_ms("counting.ExactCountAnswersBruteForce"), "ms");
    layers.Add("dlm.oracle_calls", per_request("dlm.oracle_calls"), "count/req");
    layers.Add("dlm.runs", per_request("dlm.runs"), "count/req");
    layers.Add("dlm.rounds", per_request("dlm.rounds"), "count/req");
    layers.Add("dlm.exact_ratio", Ratio(delta("dlm.exact_results"), delta("dlm.estimates")),
               "ratio");
    layers.Add("cc.colouring_trials_per_call",
               Ratio(delta("cc.colouring_trials_per_call"), delta("fptras.invocations")),
               "count");
    layers.Add("cc.hom_queries", per_request("cc.nondet.hom_queries"), "count/req");
    layers.Add("dp.prepared_decides", per_request("dp.prepared_decides"), "count/req");
    layers.Add("dp.cached_bag_rows", per_request("dp.cached_bag_rows"), "count/req");
    layers.Add("dp.monolithic_fallbacks", per_request("dp.monolithic_fallbacks"), "count/req");
    layers.Add("dp.decides_per_oracle_call",
               Ratio(delta("dp.prepared_decides"), delta("dlm.oracle_calls")), "ratio");
    layers.Add("automata.fpras_ms", span_ms("automata.FprasCountCq"), "ms");
    layers.Add("acjr.membership_tests", per_request("acjr.membership_tests"), "count/req");
    layers.Add("storage.pack_ms", setup.pack_ms.empty() ? 0.0 : Quantile(setup.pack_ms, 0.5),
               "ms");
    layers.Add("storage.open_us",
               Ratio(after_setup.Sum("storage.segment_open_us") -
                         before_setup.Sum("storage.segment_open_us"),
                     after_setup.Count("storage.segment_open_us") -
                         before_setup.Count("storage.segment_open_us")),
               "us");
    layers.Add("storage.mapped_mb", after_phase.Count("storage.mapped_bytes") / 1e6, "MB");
    layers.Add("storage.resident_mb", resident_mb, "MB");
    layers.Add("storage.zone_probes", per_request("storage.zone_probes"), "count/req");
    layers.Add("storage.zone_prunes", per_request("storage.zone_prunes"), "count/req");
    layers.Add("relational.scalar_over_simd",
               w.pack ? ScalarOverSimd(w, client, args.tiny ? 1 : 12, &problems) : 0.0, "ratio");
    layers.Add("executor.tasks_executed", per_request("executor.tasks_executed"), "count/req");
    layers.Add("executor.help_runs", per_request("executor.help_runs"), "count/req");
    layers.Add("executor.worker_share",
               Ratio(static_cast<double>(totals.worker_tasks), totals.tasks), "ratio");
    layers.Add("executor.queue_depth_max", static_cast<double>(queue_depth_max), "count");
    layers.Add("obs.trace_overhead_pct", 100.0 * Ratio(pass_s[1] - pass_s[0], pass_s[0]), "%");
  }

  JsonObject fingerprint;
  fingerprint.Num("hardware_threads", std::thread::hardware_concurrency())
      .Num("nproc", Nproc())
      .Str("simd", cqcount::simd::LevelName(cqcount::simd::ActiveLevel()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Num("seed", static_cast<double>(args.seed));
  JsonObject info;
  info.Num("samples", static_cast<double>(latency_ms.size()))
      .Num("requests", requests)
      .Num("failed_frac", Ratio(static_cast<double>(checker.failed), requests))
      .Num("rel_error_mean", Ratio(checker.rel_error_sum, checker.rel_error_n))
      .Num("approximate_requests", static_cast<double>(checker.rel_error_n))
      .Num("setup_reps", static_cast<double>(setup.setup_s.size()))
      .Num("measured_s", SecondsSince(phase_start))
      .Num("engine_oracle_calls_nondet", static_cast<double>(totals.oracle_calls));

  for (const std::string& f : checker.failures) problems.push_back(f);
  JsonObject out;
  out.Str("workload", w.name)
      .Bool("trace", args.trace)
      .Bool("tiny", args.tiny)
      .Bool("correct", checker.failed == 0 && problems.empty())
      .Num("attempted", requests)
      .Num("failed", static_cast<double>(checker.failed))
      .Strs("problems", problems)
      .Str("gate_digest", Hex(digest))
      .Obj("end_to_end", e2e.json())
      .Obj("unbounded", unbounded.json())
      .Obj("per_layer", layers.json())
      .Obj("info", info)
      .Obj("fingerprint", fingerprint);

  setup.engine.reset();
  if (!setup.pack_path.empty()) std::filesystem::remove(setup.pack_path);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
