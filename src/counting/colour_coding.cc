#include "counting/colour_coding.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

namespace cqcount {
namespace {

// Q = ceil(ln(1/delta')) * 4^{|Delta|}, clamped to at least one trial.
// Without disequalities there is nothing to colour (Lemma 22): one
// decision answers the call exactly, so Q = 1.
uint64_t NumTrials(size_t num_disequalities, double per_call_failure) {
  if (num_disequalities == 0) return 1;
  const double log_term = std::ceil(std::log(1.0 / per_call_failure));
  double trials = std::max(1.0, log_term);
  for (size_t i = 0; i < num_disequalities; ++i) trials *= 4.0;
  // Clamp to something addressable; ||phi|| is a parameter, so this is the
  // paper's exp(O(||phi||^2)) factor showing up in practice.
  return static_cast<uint64_t>(std::min(trials, 1e15));
}

// Sorted, duplicate-free list of disequality endpoint variables — the
// only variables whose domains change across colouring trials.
std::vector<int> EndpointVars(const Query& q) {
  std::vector<int> vars;
  for (const Disequality& d : q.disequalities()) {
    vars.push_back(d.lhs);
    vars.push_back(d.rhs);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

}  // namespace

namespace internal {

// Per-trial overlay builder: one packed mask per endpoint variable,
// intersected across the disequalities that constrain it. Buffers are
// reused across trials and oracle calls (no per-trial allocation after
// warm-up). One instance per oracle: Draw() output is valid until the
// next Draw().
class TrialOverlay {
 public:
  explicit TrialOverlay(const Query& q)
      : disequalities_(q.disequalities()), endpoint_vars_(EndpointVars(q)) {
    masks_.resize(endpoint_vars_.size());
    slot_of_.assign(static_cast<size_t>(q.num_vars()), -1);
    for (size_t k = 0; k < endpoint_vars_.size(); ++k) {
      slot_of_[static_cast<size_t>(endpoint_vars_[k])] =
          static_cast<int>(k);
    }
  }

  const std::vector<int>& endpoint_vars() const { return endpoint_vars_; }

  /// Draws one colouring per disequality from `rng` (the per-trial
  /// derived stream) and returns the merged per-endpoint restrictions.
  /// The views are valid until the next Draw().
  const std::vector<DomainRestriction>& Draw(Rng& rng, uint32_t universe) {
    touched_.assign(masks_.size(), 0);
    for (const Disequality& d : disequalities_) {
      // f_eta : U(D) -> {r, b} uniformly at random; the smaller endpoint
      // must land red, the larger blue (Definition 26's R_eta / B_eta).
      rng.RandomMaskInto(colouring_, universe, 0.5);
      Apply(d.lhs, /*want_red=*/true);
      Apply(d.rhs, /*want_red=*/false);
    }
    restrictions_.clear();
    for (size_t k = 0; k < masks_.size(); ++k) {
      restrictions_.push_back({endpoint_vars_[k], &masks_[k]});
    }
    return restrictions_;
  }

 private:
  void Apply(int var, bool want_red) {
    const int slot = slot_of_[static_cast<size_t>(var)];
    Bitset& mask = masks_[static_cast<size_t>(slot)];
    if (!touched_[static_cast<size_t>(slot)]) {
      mask = colouring_;
      if (!want_red) mask.FlipAll();
      touched_[static_cast<size_t>(slot)] = 1;
      return;
    }
    if (want_red) {
      mask.IntersectWith(colouring_);
    } else {
      mask.IntersectWithComplement(colouring_);
    }
  }

  const std::vector<Disequality>& disequalities_;
  std::vector<int> endpoint_vars_;
  std::vector<int> slot_of_;
  std::vector<Bitset> masks_;
  std::vector<char> touched_;
  std::vector<DomainRestriction> restrictions_;
  Bitset colouring_;
};

}  // namespace internal

using internal::TrialOverlay;

ColourCodingEdgeFreeOracle::ColourCodingEdgeFreeOracle(
    const Query& q, HomOracle* hom, uint32_t universe_size,
    const ColourCodingOptions& opts)
    : query_(q),
      hom_(hom),
      universe_(universe_size),
      trials_per_call_(
          NumTrials(q.disequalities().size(), opts.per_call_failure)),
      opts_(opts),
      lane_(hom->NewLane()),
      overlay_(std::make_unique<TrialOverlay>(q)),
      hom_queries_(std::make_shared<std::atomic<uint64_t>>(0)) {}

ColourCodingEdgeFreeOracle::~ColourCodingEdgeFreeOracle() = default;

std::unique_ptr<EdgeFreeOracle> ColourCodingEdgeFreeOracle::Fork() {
  auto fork = std::make_unique<ColourCodingEdgeFreeOracle>(query_, hom_,
                                                           universe_, opts_);
  fork->hom_queries_ = hom_queries_;
  return fork;
}

bool ColourCodingEdgeFreeOracle::IsEdgeFree(const PartiteSubset& parts) {
  assert(static_cast<int>(parts.parts.size()) == query_.num_free());

  // Base domains: free variable i restricted to V_i, existentials free.
  // Fixed across all trials of this call (Lemma 22): the lane hoists
  // every base-dependent cost out of the trial loop in Prepare.
  VarDomains base;
  base.allowed.resize(static_cast<size_t>(query_.num_vars()));
  for (int i = 0; i < query_.num_free(); ++i) {
    base.allowed[static_cast<size_t>(i)] = parts.parts[i];
    base.allowed[static_cast<size_t>(i)].Resize(universe_, false);
    // Fast path: an empty V_i admits no edge (word-parallel scan).
    if (base.allowed[static_cast<size_t>(i)].None()) return true;
  }

  lane_->Prepare(base, overlay_->endpoint_vars());
  if (query_.disequalities().empty()) {
    hom_queries_->fetch_add(1, std::memory_order_relaxed);
    return !lane_->Decide({});
  }

  // Colourings are a pure function of (seed, subset, trial): every fork
  // draws the identical masks for trial t of this subset.
  const uint64_t call_seed =
      DeriveSeed(opts_.seed, HashPartiteSubset(parts));
  uint64_t trial = 0;
  for (; trial < trials_per_call_; ++trial) {
    // Trial-batch checkpoint: a fired governor truncates the loop (the
    // enclosing governed work unit is discarded wholesale, so the
    // truncated verdict never feeds a reported estimate).
    if ((trial & 63u) == 0u && opts_.governor != nullptr &&
        opts_.governor->Check() != GovernanceState::kRunning) {
      break;
    }
    Rng trial_rng(DeriveSeed(call_seed, trial));
    const std::vector<DomainRestriction>& extra =
        overlay_->Draw(trial_rng, universe_);
    if (lane_->Decide(extra)) {  // Witness: has an edge.
      hom_queries_->fetch_add(trial + 1, std::memory_order_relaxed);
      return false;
    }
  }
  hom_queries_->fetch_add(trial, std::memory_order_relaxed);
  return true;
}

bool DecideAnySolution(const Query& q, HomOracle* hom, uint32_t universe_size,
                       const VarDomains& base_domains, double delta, Rng& rng,
                       uint64_t* decisions) {
  const auto& disequalities = q.disequalities();
  if (disequalities.empty()) {
    if (decisions != nullptr) *decisions = 1;
    return hom->Decide(base_domains);
  }
  TrialOverlay overlay(q);
  std::unique_ptr<HomLane> lane = hom->NewLane();
  lane->Prepare(base_domains, overlay.endpoint_vars());
  const uint64_t trials = NumTrials(disequalities.size(), delta);
  uint64_t trial = 0;
  bool found = false;
  while (trial < trials && !found) {
    found = lane->Decide(overlay.Draw(rng, universe_size));
    ++trial;
  }
  if (decisions != nullptr) *decisions = trial;
  return found;
}

}  // namespace cqcount
