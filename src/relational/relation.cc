#include "relational/relation.h"

#include <algorithm>

#include "relational/simd.h"

namespace cqcount {
namespace {

// True when the staged rows are already sorted and duplicate-free — the
// common case for trie-join enumeration output, which is emitted in
// lexicographic order. Checking costs one linear pass and saves the sort.
bool IsCanonicalOrder(const std::vector<Value>& data, size_t rows,
                      size_t arity) {
  for (size_t i = 1; i < rows; ++i) {
    if (CompareValues(data.data() + (i - 1) * arity,
                      data.data() + i * arity, arity) >= 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Relation Relation::FromMappedSpan(int arity, size_t rows, const Value* data,
                                  std::shared_ptr<const void> keepalive) {
  assert(arity >= 1);
  Relation r(arity);
  r.num_rows_ = rows;
  r.mapped_ = data;
  r.keepalive_ = std::move(keepalive);
  r.dirty_ = false;  // Canonical order is a segment-format invariant.
  return r;
}

Relation::Relation(int arity, std::vector<Value> rows) : arity_(arity) {
  assert(arity >= 0);
  if (arity == 0) {
    // Arity 0 carries no payload; adopting a non-empty buffer would be a
    // caller bug, and dividing by zero below must never happen.
    assert(rows.empty());
    return;
  }
  assert(rows.size() % static_cast<size_t>(arity) == 0);
  num_rows_ = rows.size() / static_cast<size_t>(arity);
  data_ = std::move(rows);
  dirty_ = num_rows_ > 0;
  Canonicalize();
}

void Relation::Canonicalize() {
  if (!dirty_) return;
  dirty_ = false;
  const size_t arity = static_cast<size_t>(arity_);
  if (arity_ == 0) {
    // Only the empty tuple exists; dedup to at most one row.
    num_rows_ = num_rows_ > 0 ? 1 : 0;
    return;
  }
  if (IsCanonicalOrder(data_, num_rows_, arity)) return;
  if (arity_ == 1) {
    std::sort(data_.begin(), data_.end());
    data_.erase(std::unique(data_.begin(), data_.end()), data_.end());
    num_rows_ = data_.size();
    return;
  }
  if (arity_ == 2) {
    // Pack each row into one uint64 so the sort runs on plain integers.
    std::vector<uint64_t> packed(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) {
      packed[i] = (static_cast<uint64_t>(data_[2 * i]) << 32) | data_[2 * i + 1];
    }
    std::sort(packed.begin(), packed.end());
    packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
    num_rows_ = packed.size();
    data_.resize(num_rows_ * 2);
    for (size_t i = 0; i < num_rows_; ++i) {
      data_[2 * i] = static_cast<Value>(packed[i] >> 32);
      data_[2 * i + 1] = static_cast<Value>(packed[i]);
    }
    return;
  }
  // General arity: argsort row indices, then gather unique rows. The sort
  // runs on the first two columns packed into one integer, as for arity
  // 2; only rows that tie on them compare their remaining columns.
  struct KeyedRow {
    uint64_t key;
    uint32_t row;
  };
  const Value* base = data_.data();
  std::vector<KeyedRow> index(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    const Value* row = base + i * arity;
    index[i] = {(static_cast<uint64_t>(row[0]) << 32) | row[1],
                static_cast<uint32_t>(i)};
  }
  std::sort(index.begin(), index.end(),
            [](const KeyedRow& a, const KeyedRow& b) { return a.key < b.key; });
  for (size_t lo = 0; lo < num_rows_;) {
    size_t hi = lo + 1;
    while (hi < num_rows_ && index[hi].key == index[lo].key) ++hi;
    if (hi - lo > 1) {
      std::sort(index.begin() + lo, index.begin() + hi,
                [&](const KeyedRow& a, const KeyedRow& b) {
                  return CompareValues(base + a.row * arity + 2,
                                       base + b.row * arity + 2,
                                       arity - 2) < 0;
                });
    }
    lo = hi;
  }
  std::vector<Value> sorted;
  sorted.reserve(data_.size());
  size_t out_rows = 0;
  for (size_t i = 0; i < num_rows_; ++i) {
    const Value* row = base + index[i].row * arity;
    if (out_rows > 0 &&
        CompareValues(sorted.data() + (out_rows - 1) * arity, row, arity) ==
            0) {
      continue;
    }
    sorted.insert(sorted.end(), row, row + arity);
    ++out_rows;
  }
  data_ = std::move(sorted);
  num_rows_ = out_rows;
}

ptrdiff_t Relation::IndexOf(const Value* t) const {
  assert(!dirty_ && "read access to a non-canonical Relation");
  if (arity_ == 0) return num_rows_ > 0 ? 0 : -1;
  const size_t arity = static_cast<size_t>(arity_);
  size_t lo = 0, hi = num_rows_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int c = CompareValues(base() + mid * arity, t, arity);
    if (c < 0) {
      lo = mid + 1;
    } else if (c > 0) {
      hi = mid;
    } else {
      return static_cast<ptrdiff_t>(mid);
    }
  }
  return -1;
}

std::pair<size_t, size_t> Relation::PrefixRange(const Value* prefix,
                                                size_t len, size_t from,
                                                size_t to) const {
  assert(!dirty_ && "read access to a non-canonical Relation");
  const size_t arity = static_cast<size_t>(arity_);
  if (len > arity) {
    // No tuple has a prefix longer than its arity: the range is empty,
    // positioned after the rows ordered before the (truncated) prefix.
    size_t lo = from, hi = to;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (CompareValues(base() + mid * arity, prefix, arity) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return {lo, lo};
  }
  const size_t k = len;
  size_t lo = from, hi = to;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareValues(base() + mid * arity, prefix, k) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t lower = lo;
  hi = to;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareValues(base() + mid * arity, prefix, k) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {lower, lo};
}

std::pair<size_t, size_t> Relation::NarrowRange(size_t from, size_t to,
                                                size_t col, Value v) const {
  assert(!dirty_ && "read access to a non-canonical Relation");
  assert(col < static_cast<size_t>(arity_));
  const size_t arity = static_cast<size_t>(arity_);
  const Value* keys = base() + col;
  // Live join ranges shrink fast; a short linear scan beats any search's
  // branch misses on small ranges.
  constexpr size_t kLinearThreshold = 12;
  size_t lo = from;
  if (to - from <= kLinearThreshold) {
    while (lo < to && keys[lo * arity] < v) ++lo;
    size_t end = lo;
    while (end < to && keys[end * arity] == v) ++end;
    return {lo, end};
  }
  // Hybrid galloping search: bisect to a window, vector-scan the rest
  // (see simd.h). Identical results at every SIMD level.
  lo = from + simd::LowerBoundStrided(keys + from * arity, arity, to - from, v);
  if (lo == to || keys[lo * arity] != v) return {lo, lo};
  const size_t hi =
      lo + simd::UpperBoundStrided(keys + lo * arity, arity, to - lo, v);
  return {lo, hi};
}

size_t Relation::GroupEnd(size_t from, size_t to, size_t col) const {
  assert(!dirty_ && "read access to a non-canonical Relation");
  assert(from < to && col < static_cast<size_t>(arity_));
  const size_t arity = static_cast<size_t>(arity_);
  const Value* keys = base() + col;
  const Value v = keys[from * arity];
  // Gallop: value runs are short in practice, so probe forward before
  // falling back to a vectorised upper bound over the remainder.
  size_t end = from + 1;
  size_t step = 1;
  while (end < to && keys[end * arity] == v) {
    end += step;
    step *= 2;
  }
  const size_t lo = end - step / 2;  // Last known-equal position + 1.
  const size_t hi = end < to ? end : to;
  return lo + simd::UpperBoundStrided(keys + lo * arity, arity, hi - lo, v);
}

Relation Relation::Project(const std::vector<int>& positions,
                           const std::vector<int>& same_as) const {
  assert(!dirty_ && "read access to a non-canonical Relation");
  assert(same_as.empty() || same_as.size() == static_cast<size_t>(arity_));
  Relation out(static_cast<int>(positions.size()));
  out.data_.reserve(num_rows_ * positions.size());
  const size_t arity = static_cast<size_t>(arity_);
  for (size_t i = 0; i < num_rows_; ++i) {
    const Value* row = base() + i * arity;
    bool consistent = true;
    for (size_t p = 0; p < same_as.size() && consistent; ++p) {
      consistent = row[p] == row[same_as[p]];
    }
    if (!consistent) continue;
    Value* dst = out.AppendRow();
    for (size_t j = 0; j < positions.size(); ++j) {
      assert(positions[j] >= 0 && positions[j] < arity_);
      dst[j] = row[positions[j]];
    }
  }
  out.Canonicalize();
  return out;
}

Relation Relation::Reorder(const std::vector<int>& order) const {
  assert(static_cast<int>(order.size()) == arity_);
  return Project(order);
}

bool Relation::operator==(const Relation& other) const {
  assert(!dirty_ && !other.dirty_ &&
         "comparing non-canonical Relations");
  return arity_ == other.arity_ && num_rows_ == other.num_rows_ &&
         flat() == other.flat();
}

}  // namespace cqcount
