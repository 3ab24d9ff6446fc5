// Relational structures / databases (Section 2.2).
//
// A structure A has a finite universe U(A) = {0, .., N-1} and, for every
// relation symbol of its signature, a relation of the declared arity.
// Databases are structures (the paper uses them interchangeably).
//
// Relations stay immutable once canonical. Beside them a structure owns a
// projection memo: the sorted, column-reordered or filtered copies that
// joins read (Projection). Each is built once per snapshot and key, on
// first request, and shared read-only by every later reader, so a join
// pays for its descent and not for re-sorting its inputs. The memo is
// synchronised inside the structure: one lock, held across each build,
// so concurrent first requests for one key wait for a single build.
// Copies share the memo until one of them mutates, and every mutator
// starts a fresh one, so a memoised projection always matches its
// relations.
#ifndef CQCOUNT_RELATIONAL_STRUCTURE_H_
#define CQCOUNT_RELATIONAL_STRUCTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "util/status.h"

namespace cqcount {

/// The projection memo keeps at most this many times the structure's own
/// Size() in values (each entry charged rows x columns of its source). A
/// projection past the bound is built for its caller and not kept.
inline constexpr uint64_t kProjectionMemoFactor = 4;

/// A relational structure with named relations over a dense universe.
class Structure {
 public:
  Structure();
  /// Creates a structure with universe {0, .., universe_size-1}.
  explicit Structure(uint32_t universe_size);

  uint32_t universe_size() const { return universe_size_; }
  void set_universe_size(uint32_t n);

  /// Declares a relation symbol with the given arity (idempotent when the
  /// arity matches). Fails if redeclared with a different arity.
  Status DeclareRelation(const std::string& name, int arity);

  /// True if `name` is declared.
  bool HasRelation(const std::string& name) const;

  /// Arity of `name`; -1 when undeclared.
  int Arity(const std::string& name) const;

  /// Adds a fact. The relation must be declared, the tuple must have the
  /// right arity and its values must lie in the universe.
  Status AddFact(const std::string& name, Tuple t);

  /// Installs a fully-built relation under `name` (declaring it if
  /// needed), replacing any existing rows — the wholesale path used by
  /// the segment reader to adopt mmap-backed relations and by bulk
  /// loaders. The relation must be canonical; arity conflicts with a
  /// prior declaration fail.
  Status AdoptRelation(const std::string& name, Relation relation);

  /// Does nothing (and so keeps the projection memo): relations carry no
  /// zone maps, and segment files keep their zone blocks only for the
  /// universe check at open. It stays only because perfbench's replay
  /// (perfbench/main.cc) calls it; delete it once that call goes.
  void BuildZoneMaps() {}

  /// Canonicalises every relation (sort + dedup). Must be called after
  /// the last AddFact and before the structure is read by the query
  /// layers; afterwards the relations are read-only and the structure can
  /// be shared across threads. Idempotent.
  void Canonicalize();

  /// True when every relation is canonical (no staged facts pending).
  bool IsCanonical() const;

  /// The relation for `name` (must be declared).
  const Relation& relation(const std::string& name) const;
  /// Starts a fresh projection memo: finish writing through the pointer
  /// before the next Projection call.
  Relation* mutable_relation(const std::string& name);

  /// relation(name).Project(positions, same_as), built once per snapshot
  /// and key while the memo has room (kProjectionMemoFactor): a repeated
  /// request returns the same object. Thread-safe; `name` must be
  /// declared and canonical.
  std::shared_ptr<const Relation> Projection(
      const std::string& name, const std::vector<int>& positions,
      const std::vector<int>& same_as) const;

  /// Declared relation names in sorted order.
  std::vector<std::string> RelationNames() const;

  /// ||A|| = |sig(A)| + |U(A)| + sum_R |R^A| * ar(R) (Section 2.2).
  uint64_t Size() const;

  /// Number of facts across all relations.
  uint64_t NumFacts() const;

 private:
  struct ProjectionMemo;

  /// Gives this structure a memo of its own, empty: called by every
  /// mutator, so the memo never serves rows that have since changed.
  void DropProjections();

  uint32_t universe_size_ = 0;
  std::map<std::string, Relation> relations_;
  // Shared by copies until one of them mutates.
  std::shared_ptr<ProjectionMemo> projections_;
};

/// Databases are structures.
using Database = Structure;

}  // namespace cqcount

#endif  // CQCOUNT_RELATIONAL_STRUCTURE_H_
