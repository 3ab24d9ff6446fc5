// Memory-mapped columnar segment files: the out-of-core storage backend.
//
// One segment file packs one whole database — universe size plus every
// relation — into a page-aligned, mmap-able layout:
//
//   offset 0                FileHeader (64 B): magic "CQSEGDB1", version,
//                           zone-block rows, universe size, relation
//                           count, directory offset, total file bytes
//   per relation            data block   (page-aligned): rows*arity
//                           uint32 values, row-major, canonical sort
//                           order (sorted, duplicate-free — the Relation
//                           invariant, preserved on disk)
//                           zone block   (64 B-aligned): for each block
//                           of 1024 rows (the last may be short) and
//                           each column, that column's min then max
//   directory_offset        relation_count * DirEntry (64 B each):
//                           name, arity, rows, data/zone offsets
//   tail                    Trailer (32 B): data checksum, directory
//                           checksum, end magic "CQSEGEND", zone checksum
//
// Checksums are FNV-1a 64. Opening verifies the header, directory,
// trailer AND the zone checksum (all O(blocks) bytes) but NOT the data
// checksum — that keeps open O(1) in file size (microseconds for
// 10^8-tuple files; the OS pages data in on demand). Zone blocks must be
// integrity-checked at every open because the O(1) universe
// certification trusts zone maxima in place of the data pages; the data
// checksum covers only the O(rows) data pages and is opt-in via
// verify_data_checksum. Without that audit a corrupt data page can still
// hold a value at or past the universe, so code that indexes arrays by
// value drops such rows. All integers are little-endian host format; the
// format is an operational cache, not an archival interchange format.
//
// A SegmentView owns the mapping; OpenSegmentDatabase wraps each
// relation in a Relation::FromMappedSpan that shares the view, so the
// Database reads identically to an in-memory one (same canonical order
// => bit-identical estimates) while costing no load time and no resident
// memory beyond what queries actually touch. Zone blocks serve only the
// universe check at open; nothing reads them afterwards.
#ifndef CQCOUNT_RELATIONAL_SEGMENT_H_
#define CQCOUNT_RELATIONAL_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "relational/structure.h"
#include "util/status.h"

namespace cqcount {

/// Maximum relation-name length storable in a directory entry.
constexpr size_t kSegmentMaxNameLen = 31;

/// Streams a database into a segment file: Create, then for each
/// relation either AddRelation (from an in-memory Relation) or
/// BeginRelation/AppendRow/EndRelation (rows must arrive in strictly
/// ascending canonical order — lets writers emit 10^8-tuple relations
/// without materialising them), then Finish. Abandoning a writer without
/// Finish leaves an unreadable file (the header stays unpatched).
class SegmentWriter {
 public:
  static StatusOr<std::unique_ptr<SegmentWriter>> Create(
      const std::string& path, uint64_t universe_size);
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Starts a relation. Names are limited to kSegmentMaxNameLen bytes and
  /// must be unique; arity must be >= 1 (arity-0 relations carry no
  /// columnar payload and are not representable in a segment).
  Status BeginRelation(const std::string& name, int arity);
  /// Appends one row (arity values, each < universe size, strictly
  /// greater than the previous row in lexicographic order).
  Status AppendRow(const Value* row);
  /// Closes the open relation and writes its zone block.
  Status EndRelation();

  /// BeginRelation + AppendRow* + EndRelation over a canonical Relation.
  Status AddRelation(const std::string& name, const Relation& relation);

  /// Writes directory + trailer, patches the header, flushes and closes.
  Status Finish();

 private:
  SegmentWriter() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct SegmentOpenOptions {
  /// Also verify the full data checksum (reads every byte: O(file), only
  /// for integrity audits; the default keeps open O(1)).
  bool verify_data_checksum = false;
};

/// A read-only mapping of one segment file. Immutable and internally
/// synchronisation-free after Open, so any number of threads may read
/// through one view concurrently. Held by shared_ptr; Relations created
/// over it keep it alive.
class SegmentView {
 public:
  struct RelationEntry {
    std::string name;
    int arity = 0;
    uint64_t rows = 0;
    const Value* data = nullptr;   // rows*arity values, canonical order.
    // Per block b and column c: min at zones[(b*arity + c)*2], max at the
    // next entry; ceil(rows / 1024) * arity * 2 values, null when empty.
    const Value* zones = nullptr;
  };

  static StatusOr<std::shared_ptr<const SegmentView>> Open(
      const std::string& path, const SegmentOpenOptions& options = {});
  ~SegmentView();

  SegmentView(const SegmentView&) = delete;
  SegmentView& operator=(const SegmentView&) = delete;

  uint64_t universe_size() const { return universe_size_; }
  const std::vector<RelationEntry>& relations() const { return relations_; }
  /// Total bytes mapped (the file size).
  size_t mapped_bytes() const { return map_len_; }
  /// Pages of the mapping currently resident in memory (mincore walk:
  /// O(pages), diagnostics only). Updates the storage.pages_resident
  /// gauge as a side effect.
  StatusOr<size_t> ResidentPages() const;

 private:
  SegmentView() = default;
  void* map_ = nullptr;
  size_t map_len_ = 0;
  uint64_t universe_size_ = 0;
  std::vector<RelationEntry> relations_;
};

/// True when `path` exists and starts with the segment magic (the
/// format sniff used by LoadDatabaseAuto).
bool LooksLikeSegmentFile(const std::string& path);

/// Packs a canonical database into a segment file.
Status WriteSegmentDatabase(const Database& db, const std::string& path);

/// Opens a segment file as a Database of mmap-backed relations sharing
/// one SegmentView. O(1) in data size; counted in storage.* metrics.
StatusOr<Database> OpenSegmentDatabase(const std::string& path,
                                       const SegmentOpenOptions& options = {});

/// Loads a database from either format: segment files are detected by
/// magic and mmap'd, anything else parses as the text format.
StatusOr<Database> LoadDatabaseAuto(const std::string& path);

}  // namespace cqcount

#endif  // CQCOUNT_RELATIONAL_SEGMENT_H_
