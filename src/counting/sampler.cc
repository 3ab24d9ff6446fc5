#include "counting/sampler.h"

#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cqcount {
namespace {

// Accuracy of the per-split sub-counts during descent: looser is faster,
// and sub-counts below the estimator's exact budget are exact anyway.
constexpr double kDescentEpsilon = 0.3;
constexpr double kDescentDelta = 0.25;

// One add per public sampler operation — never inside the JVV descent.
struct SamplerMetrics {
  obs::Counter& samples = obs::MetricRegistry::Global().GetCounter(
      "sampler.samples", "Answer tuples drawn via the JVV descent");
  obs::Counter& rejections = obs::MetricRegistry::Global().GetCounter(
      "sampler.membership_checks",
      "Amplified membership decisions (Member calls)");

  static SamplerMetrics& Get() {
    static SamplerMetrics* metrics = new SamplerMetrics();
    return *metrics;
  }
};

// Eager registration at load: every metric name appears in `stats` JSON
// (schema validation) even on code paths that never touch it.
[[maybe_unused]] const SamplerMetrics& kSamplerMetricsInit = SamplerMetrics::Get();

// EdgeFree oracle restricted to a box: local part i indexes the global
// range [lo_i, lo_i + size_i).
class BoxRestrictedOracle : public EdgeFreeOracle {
 public:
  BoxRestrictedOracle(EdgeFreeOracle* base, uint32_t universe,
                      const std::vector<std::pair<uint32_t, uint32_t>>& box)
      : base_(base), universe_(universe), box_(box) {}

  bool IsEdgeFree(const PartiteSubset& parts) override {
    PartiteSubset global;
    global.parts.resize(parts.parts.size());
    for (size_t i = 0; i < parts.parts.size(); ++i) {
      const Bitset& local_mask = parts.parts[i];
      Bitset& global_mask = global.parts[i];
      global_mask.Assign(universe_, false);
      for (size_t local = local_mask.FindNext(0); local < local_mask.size();
           local = local_mask.FindNext(local + 1)) {
        global_mask.Set(box_[i].first + local);
      }
    }
    return base_->IsEdgeFree(global);
  }

  // Fork = box view over a fork of the base oracle (lets the DLM
  // estimation of the whole-box count fan across lanes).
  std::unique_ptr<EdgeFreeOracle> Fork() override {
    std::unique_ptr<EdgeFreeOracle> base_fork = base_->Fork();
    auto fork = std::make_unique<BoxRestrictedOracle>(base_fork.get(),
                                                      universe_, box_);
    fork->owned_base_ = std::move(base_fork);
    return fork;
  }

 private:
  EdgeFreeOracle* base_;
  uint32_t universe_;
  const std::vector<std::pair<uint32_t, uint32_t>>& box_;
  std::unique_ptr<EdgeFreeOracle> owned_base_;
};

}  // namespace

AnswerSampler::AnswerSampler(const Query& q, const Database& db,
                             const SamplerOptions& opts)
    : query_(q), db_(db), opts_(opts), rng_(opts.approx.seed ^ 0x5A5A5A5AULL) {
  Hypergraph h = q.BuildHypergraph();
  FWidthResult width =
      opts.approx.precomputed_decomposition
          ? *opts.approx.precomputed_decomposition
          : ComputeDecomposition(h, opts.approx.objective,
                                 opts.approx.exact_decomposition_limit);
  width_ = width.width;
  hom_ = std::make_unique<DecompositionHomOracle>(q, db,
                                                  width.decomposition);
  ColourCodingOptions cc;
  cc.per_call_failure = opts.approx.PerCallFailure();
  cc.seed = opts.approx.seed ^ 0x1234567ULL;
  cc.governor = opts.approx.governor;
  oracle_ = std::make_unique<ColourCodingEdgeFreeOracle>(
      q, hom_.get(), db.universe_size(), cc);
}

StatusOr<std::unique_ptr<AnswerSampler>> AnswerSampler::Create(
    const Query& q, const Database& db, const SamplerOptions& opts) {
  Status s = q.Validate();
  if (!s.ok()) return s;
  s = q.CheckAgainstDatabase(db);
  if (!s.ok()) return s;
  if (q.num_free() < 1) {
    return Status::InvalidArgument("sampling requires >= 1 free variable");
  }
  if (db.universe_size() == 0) {
    return Status::InvalidArgument("empty universe");
  }
  return std::unique_ptr<AnswerSampler>(new AnswerSampler(q, db, opts));
}

StatusOr<Tuple> AnswerSampler::SampleOne() {
  obs::Span span("sampler.sample_one");
  SamplerMetrics::Get().samples.Increment();
  const int l = query_.num_free();
  const uint32_t n = db_.universe_size();
  std::vector<std::pair<uint32_t, uint32_t>> box(l, {0u, n});

  // Counts the answers inside `b` (exact when small). Each count is a
  // pure function of (box, seed): the oracle answers subsets
  // deterministically (subset-keyed colourings). `lanes` > 1 lets the
  // count fan out across the DLM estimator's lanes; only the whole-box
  // count does, since per-call forking of the oracle stack would dominate
  // the cost of the cheap descent sub-counts.
  auto count_box = [&](const std::vector<std::pair<uint32_t, uint32_t>>& b,
                       uint64_t seed, int lanes) -> StatusOr<double> {
    BoxRestrictedOracle restricted(oracle_.get(), n, b);
    std::vector<uint32_t> sizes;
    sizes.reserve(b.size());
    for (const auto& [lo, hi] : b) sizes.push_back(hi - lo);
    DlmOptions dlm = opts_.approx.dlm;
    static_cast<EstimateInputs&>(dlm) = {
        .epsilon = kDescentEpsilon,
        .delta = kDescentDelta,
        .seed = seed,
        .pool = lanes > 1 ? opts_.approx.pool : nullptr,
        .intra_threads = lanes,
        .governor = opts_.approx.governor};
    auto result = DlmCountEdges(sizes, restricted, dlm);
    if (!result.ok()) return result.status();
    return result->estimate;
  };

  auto total = count_box(box, rng_.Next(), opts_.approx.intra_threads);
  if (!total.ok()) return total.status();
  if (*total <= 0.0) return Status::NotFound("answer set is empty");

  for (;;) {
    // Descent-step checkpoint: a sample is the deterministic work unit —
    // an interrupted descent is abandoned wholesale (no partial tuple),
    // surfacing the typed cause.
    if (opts_.approx.governor != nullptr &&
        opts_.approx.governor->Check() != GovernanceState::kRunning) {
      return opts_.approx.governor->ToStatus("sampler descent");
    }
    // Locate the widest dimension; stop when the box is a single cell.
    int widest = -1;
    uint32_t width = 1;
    for (int i = 0; i < l; ++i) {
      const uint32_t w = box[i].second - box[i].first;
      if (w > width) {
        width = w;
        widest = i;
      }
    }
    if (widest < 0) break;
    const auto [lo, hi] = box[widest];
    const uint32_t mid = lo + (hi - lo) / 2;

    auto left = box;
    left[widest] = {lo, mid};
    auto right = box;
    right[widest] = {mid, hi};
    // Both seeds are drawn before either count: every level consumes two
    // draws, whether or not a count fails.
    const uint64_t seed_left = rng_.Next();
    const uint64_t seed_right = rng_.Next();
    const StatusOr<double> m_left = count_box(left, seed_left, 1);
    if (!m_left.ok()) return m_left.status();
    const StatusOr<double> m_right = count_box(right, seed_right, 1);
    if (!m_right.ok()) return m_right.status();
    const double total_mass = *m_left + *m_right;
    if (total_mass <= 0.0) {
      return Status::Internal("sampler descended into an empty box");
    }
    box = rng_.UniformDouble() * total_mass < *m_left ? left : right;
  }

  Tuple answer(l);
  for (int i = 0; i < l; ++i) answer[i] = box[i].first;
  return answer;
}

StatusOr<std::vector<Tuple>> AnswerSampler::Sample(int count) {
  std::vector<Tuple> samples;
  samples.reserve(count);
  for (int i = 0; i < count; ++i) {
    auto one = SampleOne();
    if (!one.ok()) return one.status();
    samples.push_back(*std::move(one));
  }
  return samples;
}

bool AnswerSampler::Member(const Tuple& answer, double delta) {
  obs::Span span("sampler.member");
  SamplerMetrics::Get().rejections.Increment();
  assert(static_cast<int>(answer.size()) == query_.num_free());
  const uint32_t n = db_.universe_size();
  VarDomains domains;
  domains.allowed.resize(query_.num_vars());
  for (int i = 0; i < query_.num_free(); ++i) {
    domains.allowed[i].Assign(n, false);
    if (answer[i] < n) domains.allowed[i].Set(answer[i]);
  }
  return DecideAnySolution(query_, hom_.get(), n, domains, delta, rng_);
}

}  // namespace cqcount
