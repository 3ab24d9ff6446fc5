#include "relational/structure.h"

#include <cassert>

namespace cqcount {

Status Structure::DeclareRelation(const std::string& name, int arity) {
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
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
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
