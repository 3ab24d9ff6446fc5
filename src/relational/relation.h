// Relations: sets of tuples over a universe of dense 32-bit values.
//
// Storage layer
// -------------
// A Relation stores its tuples in ONE contiguous, arity-strided buffer:
// tuple i occupies values [i*arity, (i+1)*arity). There is no per-tuple
// heap allocation and no pointer chase; a scan is a linear walk and a
// prefix range is a strided binary search, both cache-friendly. Sorted,
// duplicate-free order is a *construction-time* invariant: writers stage
// rows with Add()/AppendRow() and then call Canonicalize() exactly once,
// after which every accessor is genuinely read-only (no mutable members,
// no lazy const mutation), so a canonical Relation is safe to share
// across threads without synchronisation.
//
// Tuples are exposed as TupleView — a (pointer, length) span into the
// flat buffer. Views are invalidated by Add/AppendRow/Canonicalize, like
// vector iterators; materialise with MaterializeTuple when a view must
// outlive its relation's next mutation.
//
// Storage backends
// ----------------
// A canonical Relation reads through one base pointer that resolves to
// either its owned vector or a borrowed memory-mapped span (a segment
// file's data block, kept alive by a shared handle). Every accessor —
// flat(), operator[], NarrowRange, IndexOf, .. — goes through base(), so
// the two backends are observationally identical and engine estimates
// stay bit-for-bit the same whichever one backs the data. Mapped
// relations are born canonical and immutable; the mutating stagers
// (Add/AppendRow) are owned-storage only.
#ifndef CQCOUNT_RELATIONAL_RELATION_H_
#define CQCOUNT_RELATIONAL_RELATION_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace cqcount {

/// A universe element. Universes are dense: {0, .., N-1}.
using Value = uint32_t;

/// Largest relation arity the database readers (text and `.seg` packs)
/// accept.
inline constexpr uint64_t kMaxRelationArity = uint64_t{1} << 20;

/// An owned tuple of universe elements (boxed; used at API boundaries and
/// for staging — the storage layer itself is flat).
using Tuple = std::vector<Value>;

/// Lexicographic three-way compare of two equal-length value spans.
inline int CompareValues(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// A borrowed, non-owning view of one tuple inside a flat buffer.
/// Invalidated by any mutation of the owning container.
class TupleView {
 public:
  using value_type = Value;

  TupleView() = default;
  TupleView(const Value* data, size_t size) : data_(data), size_(size) {}

  const Value* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Value operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  friend bool operator==(TupleView a, TupleView b) {
    return a.size_ == b.size_ && CompareValues(a.data_, b.data_, a.size_) == 0;
  }
  friend bool operator!=(TupleView a, TupleView b) { return !(a == b); }
  friend bool operator<(TupleView a, TupleView b) {
    const size_t n = a.size_ < b.size_ ? a.size_ : b.size_;
    const int c = CompareValues(a.data_, b.data_, n);
    if (c != 0) return c < 0;
    return a.size_ < b.size_;
  }

 private:
  const Value* data_ = nullptr;
  size_t size_ = 0;
};

/// A borrowed, non-owning view of a whole flat value buffer (the
/// storage-backend-neutral return type of Relation::flat(): owned vectors
/// and mmap'd spans read identically through it).
class ValueSpan {
 public:
  using value_type = Value;

  ValueSpan() = default;
  ValueSpan(const Value* data, size_t size) : data_(data), size_(size) {}

  const Value* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Value operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  friend bool operator==(ValueSpan a, ValueSpan b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(ValueSpan a, ValueSpan b) { return !(a == b); }
  friend bool operator==(ValueSpan a, const std::vector<Value>& b) {
    return a == ValueSpan(b.data(), b.size());
  }
  friend bool operator==(const std::vector<Value>& a, ValueSpan b) {
    return b == a;
  }

 private:
  const Value* data_ = nullptr;
  size_t size_ = 0;
};

/// Borrows a whole owned tuple as a view.
inline TupleView AsView(const Tuple& t) { return TupleView(t.data(), t.size()); }

/// Copies a view out into an owned Tuple (compatibility shim for callers
/// that need ownership, e.g. across a mutation of the source relation).
inline Tuple MaterializeTuple(TupleView v) {
  return Tuple(v.begin(), v.end());
}

inline bool operator==(TupleView a, const Tuple& b) { return a == AsView(b); }
inline bool operator==(const Tuple& a, TupleView b) { return AsView(a) == b; }

/// Projects `t` onto `positions` into the reusable `scratch` buffer
/// (cleared first). The allocation-free sibling of Relation::Project for
/// one-tuple-at-a-time hot paths.
inline void ProjectInto(TupleView t, const std::vector<int>& positions,
                        Tuple& scratch) {
  scratch.clear();
  for (int p : positions) scratch.push_back(t[static_cast<size_t>(p)]);
}

/// A dynamic array of fixed-width tuples in one flat buffer. The minimal
/// mutable sibling of Relation: no ordering invariant, just allocation-free
/// row storage (used for DP tables, sketches, scratch projections).
/// Width 0 is supported (rows carry no payload; only the count matters).
class FlatTuples {
 public:
  FlatTuples() = default;
  explicit FlatTuples(int width) : width_(width) { assert(width >= 0); }

  int width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    size_ = 0;
    data_.clear();
  }
  /// clear() plus a (possibly different) width, keeping the allocation —
  /// the reuse idiom of per-trial DP scratch tables.
  void Reset(int width) {
    assert(width >= 0);
    width_ = width;
    size_ = 0;
    data_.clear();
  }
  void reserve(size_t rows) { data_.reserve(rows * width_); }

  TupleView operator[](size_t i) const {
    assert(i < size_);
    return TupleView(data_.data() + i * width_, width_);
  }
  TupleView back() const { return (*this)[size_ - 1]; }

  /// Appends one row and returns a pointer to its `width()` slots.
  Value* AppendRow() {
    data_.resize(data_.size() + width_);
    ++size_;
    return data_.data() + data_.size() - width_;
  }
  void PushBack(TupleView v) {
    assert(static_cast<int>(v.size()) == width_);
    data_.insert(data_.end(), v.begin(), v.end());
    ++size_;
  }

  /// Index of the first row >= key (a `width()`-long span) in a
  /// lexicographically sorted FlatTuples.
  size_t LowerBound(const Value* key) const {
    size_t lo = 0, hi = size_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (CompareValues(data_.data() + mid * width_, key, width_) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const std::vector<Value>& data() const { return data_; }

 private:
  int width_ = 0;
  size_t size_ = 0;  // Explicit: width 0 stores no payload per row.
  std::vector<Value> data_;
};

/// A finite relation of fixed arity with flat, arity-strided storage.
///
/// Lifecycle: stage rows via Add()/AppendRow(), then call Canonicalize()
/// once to establish the sorted duplicate-free invariant. All read
/// accessors except size()/empty()/arity() require a canonical relation
/// (enforced by assert in debug builds) and never mutate, so canonical
/// relations are safe for concurrent readers.
class Relation {
 public:
  Relation() = default;
  /// Creates an empty relation of the given arity (arity >= 0; arity 0
  /// holds at most the empty tuple, as bag solutions of an empty bag).
  explicit Relation(int arity) : arity_(arity) { assert(arity >= 0); }
  /// Adopts `rows.size() / arity` staged rows and canonicalises them.
  Relation(int arity, std::vector<Value> rows);

  /// Adopts a borrowed, already-canonical (sorted, duplicate-free,
  /// row-major) buffer of `rows` tuples — the mmap'd segment backend.
  /// `keepalive` pins the mapping (all relations of one segment share
  /// it). The relation is born canonical and immutable: mutating stagers
  /// assert.
  static Relation FromMappedSpan(int arity, size_t rows, const Value* data,
                                 std::shared_ptr<const void> keepalive);

  /// True when reads resolve to a borrowed mmap'd span rather than the
  /// owned vector.
  bool is_mapped() const { return mapped_ != nullptr; }

  /// The storage base pointer: the owned buffer or the mapped span.
  /// Requires canonical (owned buffers may reallocate while staging).
  const Value* base() const {
    assert(!dirty_ && "read access to a non-canonical Relation");
    return mapped_ != nullptr ? mapped_ : data_.data();
  }

  int arity() const { return arity_; }
  /// Number of tuples. Before Canonicalize() this counts staged rows,
  /// duplicates included.
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  /// True once the sorted/dedup invariant holds (no staged rows pending).
  bool canonical() const { return !dirty_; }

  /// Stages a tuple (must have the relation's arity). Invalidates views.
  /// Owned storage only: mapped relations are immutable.
  void Add(const Tuple& t) {
    assert(t.size() == static_cast<size_t>(arity_));
    AppendSpan(t.data());
  }
  void Add(TupleView t) {
    assert(t.size() == static_cast<size_t>(arity_));
    AppendSpan(t.data());
  }
  void Add(std::initializer_list<Value> values) {
    assert(values.size() == static_cast<size_t>(arity_));
    assert(mapped_ == nullptr && "mutating a mapped Relation");
    data_.insert(data_.end(), values.begin(), values.end());
    ++num_rows_;
    dirty_ = true;
  }
  /// Stages one uninitialised row; write exactly arity() values through
  /// the returned pointer. Invalidates views. Owned storage only.
  Value* AppendRow() {
    assert(mapped_ == nullptr && "mutating a mapped Relation");
    data_.resize(data_.size() + arity_);
    ++num_rows_;
    dirty_ = true;
    return data_.data() + data_.size() - arity_;
  }

  /// Sorts lexicographically and removes duplicates. Idempotent; no-op on
  /// an already-canonical relation. Skips the sort when staged rows are
  /// already in order (the common case for enumeration outputs).
  void Canonicalize();

  /// True if `t` is a member; a tuple of the wrong arity is never a
  /// member. Requires canonical.
  bool Contains(const Tuple& t) const {
    if (t.size() != static_cast<size_t>(arity_)) return false;
    return IndexOf(t.data()) >= 0;
  }
  /// Pointer-span variant under a distinct name: an overload would make
  /// `Contains({0})` bind the literal 0 to the pointer (null-pointer
  /// constant) instead of building a one-element Tuple.
  bool ContainsRow(const Value* t) const { return IndexOf(t) >= 0; }

  /// Index of the tuple equal to the arity()-long span `t`, or -1.
  /// Requires canonical. (Replaces hash-map side indexes: canonical order
  /// makes the relation its own index.)
  ptrdiff_t IndexOf(const Value* t) const;
  ptrdiff_t IndexOf(TupleView t) const {
    assert(t.size() == static_cast<size_t>(arity_));
    return IndexOf(t.data());
  }

  /// The i-th tuple in lexicographic order. Requires canonical.
  TupleView operator[](size_t i) const {
    assert(i < num_rows_);
    return TupleView(base() + i * arity_, arity_);
  }

  /// Value at (row, column) without forming a view. Requires canonical.
  Value At(size_t row, size_t col) const {
    assert(row < num_rows_ && col < static_cast<size_t>(arity_));
    return base()[row * arity_ + col];
  }

  /// The raw flat buffer (size() * arity() values, row-major, sorted) as
  /// a backend-neutral span: owned vector or mmap'd segment data.
  ValueSpan flat() const {
    return ValueSpan(base(), num_rows_ * static_cast<size_t>(arity_));
  }

  /// Iteration over tuples as views.
  class ViewIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TupleView;
    using difference_type = ptrdiff_t;
    using pointer = const TupleView*;
    using reference = TupleView;

    ViewIterator(const Relation* rel, size_t index)
        : rel_(rel), index_(index) {}
    TupleView operator*() const { return (*rel_)[index_]; }
    ViewIterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const ViewIterator& o) const { return index_ == o.index_; }
    bool operator!=(const ViewIterator& o) const { return index_ != o.index_; }

   private:
    const Relation* rel_;
    size_t index_;
  };
  ViewIterator begin() const {
    assert(!dirty_ && "read access to a non-canonical Relation");
    return ViewIterator(this, 0);
  }
  ViewIterator end() const { return ViewIterator(this, num_rows_); }

  /// The half-open index range [lo, hi) of tuples whose first `len`
  /// entries equal `prefix` within [from, to). Requires canonical.
  std::pair<size_t, size_t> PrefixRange(const Value* prefix, size_t len,
                                        size_t from, size_t to) const;
  std::pair<size_t, size_t> PrefixRange(const Tuple& prefix, size_t from,
                                        size_t to) const {
    return PrefixRange(prefix.data(), prefix.size(), from, to);
  }

  /// Narrows [from, to) — whose rows share a common prefix of length
  /// `col` — to the subrange whose column `col` equals `v`. The trie-join
  /// descent step. Requires canonical.
  std::pair<size_t, size_t> NarrowRange(size_t from, size_t to, size_t col,
                                        Value v) const;

  /// End of the run of rows sharing column `col`'s value with row `from`
  /// within [from, to); the pivot-side half of NarrowRange when the lower
  /// bound is already known. Requires canonical.
  size_t GroupEnd(size_t from, size_t to, size_t col) const;

  /// Projects onto the given column positions (in the given order),
  /// deduplicating the result. A non-empty `same_as` (one entry per
  /// column) first drops every row whose column p differs from column
  /// `same_as[p]`: the repeated-variable filter of an atom such as
  /// E(x, x), written {0, 0}. Requires canonical.
  Relation Project(const std::vector<int>& positions,
                   const std::vector<int>& same_as = {}) const;

  /// Returns the same tuple set with columns permuted: column i of the
  /// result is column `order[i]` of this relation. Requires canonical.
  Relation Reorder(const std::vector<int>& order) const;

  bool operator==(const Relation& other) const;

 private:
  void AppendSpan(const Value* values) {
    assert(mapped_ == nullptr && "mutating a mapped Relation");
    data_.insert(data_.end(), values, values + arity_);
    ++num_rows_;
    dirty_ = true;
  }

  int arity_ = 0;
  size_t num_rows_ = 0;
  bool dirty_ = false;
  std::vector<Value> data_;  // Owned backend: rows*arity values, row-major.
  // Mapped backend: borrowed canonical span + the handle pinning it (one
  // segment mapping shared by all its relations). Null for owned storage.
  const Value* mapped_ = nullptr;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace cqcount

#endif  // CQCOUNT_RELATIONAL_RELATION_H_
