#include "relational/structure.h"

#include <cassert>
#include <mutex>
#include <tuple>

#include "obs/metrics.h"

namespace cqcount {
namespace {

// storage.projection_* metrics, registered at load so a `stats` dump lists
// them before the first join. Added once per memo build, never per row
// read.
struct ProjectionMetrics {
  obs::Counter& built = obs::MetricRegistry::Global().GetCounter(
      "storage.projections_built",
      "join projections built by database projection memos");
  obs::Counter& rows = obs::MetricRegistry::Global().GetCounter(
      "storage.projection_rows", "rows of the join projections built");

  static ProjectionMetrics& Get() {
    static ProjectionMetrics* metrics = new ProjectionMetrics();
    return *metrics;
  }
};

[[maybe_unused]] const ProjectionMetrics& kProjectionMetricsInit =
    ProjectionMetrics::Get();

}  // namespace

struct Structure::ProjectionMemo {
  using Key = std::tuple<std::string, std::vector<int>, std::vector<int>>;

  // Held across each build, so concurrent first requests for a key wait
  // for one build.
  std::mutex mu;
  std::map<Key, std::shared_ptr<const Relation>> entries;
  // Values charged against the bound: rows x columns of each kept entry's
  // source, an upper bound of its size known before the build.
  uint64_t charged = 0;
};

Structure::Structure() : Structure(0) {}

Structure::Structure(uint32_t universe_size)
    : universe_size_(universe_size),
      projections_(std::make_shared<ProjectionMemo>()) {}

void Structure::DropProjections() {
  // Loaders mutate once per fact; a memo that no copy shares and that is
  // still empty is already fresh.
  if (projections_ != nullptr && projections_.use_count() == 1) {
    std::lock_guard<std::mutex> lock(projections_->mu);
    if (projections_->entries.empty()) return;
  }
  projections_ = std::make_shared<ProjectionMemo>();
}

void Structure::set_universe_size(uint32_t n) {
  DropProjections();
  universe_size_ = n;
}

Status Structure::DeclareRelation(const std::string& name, int arity) {
  DropProjections();
  if (arity < 0) {
    return Status::InvalidArgument("relation arity must be non-negative: " +
                                   name);
  }
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    if (it->second.arity() != arity) {
      return Status::InvalidArgument("relation redeclared with new arity: " +
                                     name);
    }
    return Status::Ok();
  }
  relations_.emplace(name, Relation(arity));
  return Status::Ok();
}

bool Structure::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

int Structure::Arity(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? -1 : it->second.arity();
}

Status Structure::AddFact(const std::string& name, Tuple t) {
  DropProjections();
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation not declared: " + name);
  }
  if (static_cast<int>(t.size()) != it->second.arity()) {
    return Status::InvalidArgument("fact arity mismatch for " + name);
  }
  for (Value v : t) {
    if (v >= universe_size_) {
      return Status::InvalidArgument("fact value outside universe in " + name);
    }
  }
  it->second.Add(std::move(t));
  return Status::Ok();
}

Status Structure::AdoptRelation(const std::string& name, Relation relation) {
  DropProjections();
  if (!relation.canonical()) {
    return Status::FailedPrecondition("adopting a non-canonical relation: " +
                                      name);
  }
  auto it = relations_.find(name);
  if (it != relations_.end() && it->second.arity() != relation.arity()) {
    return Status::InvalidArgument("relation redeclared with new arity: " +
                                   name);
  }
  relations_.insert_or_assign(name, std::move(relation));
  return Status::Ok();
}

void Structure::Canonicalize() {
  DropProjections();
  for (auto& [name, rel] : relations_) rel.Canonicalize();
}

bool Structure::IsCanonical() const {
  for (const auto& [name, rel] : relations_) {
    if (!rel.canonical()) return false;
  }
  return true;
}

const Relation& Structure::relation(const std::string& name) const {
  auto it = relations_.find(name);
  assert(it != relations_.end() && "relation not declared");
  return it->second;
}

Relation* Structure::mutable_relation(const std::string& name) {
  DropProjections();
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

std::shared_ptr<const Relation> Structure::Projection(
    const std::string& name, const std::vector<int>& positions,
    const std::vector<int>& same_as) const {
  assert(projections_ != nullptr && "projection of a moved-from structure");
  const Relation& source = relation(name);
  auto build = [&] {
    auto out =
        std::make_shared<const Relation>(source.Project(positions, same_as));
    ProjectionMetrics& metrics = ProjectionMetrics::Get();
    metrics.built.Increment();
    metrics.rows.Add(out->size());
    return out;
  };
  ProjectionMemo& memo = *projections_;
  const uint64_t charge = source.size() * positions.size();
  const uint64_t bound = kProjectionMemoFactor * Size();
  ProjectionMemo::Key key(name, positions, same_as);
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    auto it = memo.entries.find(key);
    if (it != memo.entries.end()) return it->second;
    if (memo.charged + charge <= bound) {
      memo.charged += charge;
      return memo.entries.emplace(std::move(key), build()).first->second;
    }
  }
  return build();  // Past the bound: built for this caller, not kept.
}

std::vector<std::string> Structure::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

uint64_t Structure::Size() const {
  uint64_t size = relations_.size() + universe_size_;
  for (const auto& [name, rel] : relations_) {
    size += rel.size() * static_cast<uint64_t>(rel.arity());
  }
  return size;
}

uint64_t Structure::NumFacts() const {
  uint64_t facts = 0;
  for (const auto& [name, rel] : relations_) facts += rel.size();
  return facts;
}

}  // namespace cqcount
