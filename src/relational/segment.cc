#include "relational/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>

#include "obs/metrics.h"
#include "relational/database_io.h"

namespace cqcount {
namespace {

constexpr char kMagic[8] = {'C', 'Q', 'S', 'E', 'G', 'D', 'B', '1'};
constexpr char kEndMagic[8] = {'C', 'Q', 'S', 'E', 'G', 'E', 'N', 'D'};
constexpr uint32_t kVersion = 1;
constexpr uint64_t kDataAlign = 4096;  // Page-align relation data blocks.
constexpr uint64_t kMinorAlign = 64;   // Zone blocks and the directory.

// Zone blocks: rows are cut into blocks of kZoneBlockRows tuples (the last
// block may be short), and for block b and column c the relation's zone
// block holds the column's min at entry (b*arity + c)*2 and its max at the
// entry after it. The header records the block size; the format fixes it.
constexpr uint64_t kZoneBlockRows = 1024;

uint64_t ZoneEntryCount(uint64_t arity, uint64_t rows) {
  return (rows + kZoneBlockRows - 1) / kZoneBlockRows * arity * 2;
}

// On-disk structs. Fields are naturally aligned and the format is
// host-endian (an operational cache, not an interchange format).
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t zone_block_rows;
  uint64_t universe_size;
  uint32_t relation_count;
  uint32_t pad0;
  uint64_t directory_offset;
  uint64_t file_bytes;
  uint64_t reserved[2];
};
static_assert(sizeof(FileHeader) == 64, "segment header must be 64 bytes");

struct DirEntry {
  char name[kSegmentMaxNameLen + 1];  // NUL-terminated.
  uint32_t arity;
  uint32_t pad0;
  uint64_t rows;
  uint64_t data_offset;
  uint64_t zone_offset;
};
static_assert(sizeof(DirEntry) == 64, "directory entry must be 64 bytes");

struct Trailer {
  uint64_t data_checksum;
  uint64_t dir_checksum;
  char end_magic[8];
  // Zone blocks get their own ALWAYS-verified checksum (O(blocks) bytes,
  // so open stays O(1) in data size): the O(1) open certifies every
  // value against the universe from zone maxima alone, so the zones must
  // be integrity-checked even when the O(rows) data audit is skipped —
  // otherwise corrupt zones that understate the data would let
  // out-of-universe values through to index-by-value sites.
  uint64_t zone_checksum;
};
static_assert(sizeof(Trailer) == 32, "segment trailer must be 32 bytes");

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvUpdate(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// storage.* metrics, registered eagerly so a `stats` dump lists the full
// name set before the first segment is touched.
struct StorageMetrics {
  obs::Counter& segment_opens = obs::MetricRegistry::Global().GetCounter(
      "storage.segment_opens", "segment databases opened (mmap)");
  obs::Histogram& segment_open_us = obs::MetricRegistry::Global().GetHistogram(
      "storage.segment_open_us",
      "segment open latency, microseconds (O(1) in data size)");
  obs::Gauge& mapped_bytes = obs::MetricRegistry::Global().GetGauge(
      "storage.mapped_bytes", "bytes of live segment mappings");
  obs::Gauge& pages_resident = obs::MetricRegistry::Global().GetGauge(
      "storage.pages_resident",
      "resident pages of the last-audited segment mapping (mincore)");

  static StorageMetrics& Get() {
    static StorageMetrics* metrics = new StorageMetrics();
    return *metrics;
  }
};

[[maybe_unused]] const StorageMetrics& kStorageMetricsInit =
    StorageMetrics::Get();

Status Invalid(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("segment file " + path + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentWriter
// ---------------------------------------------------------------------------

struct SegmentWriter::Impl {
  std::string path;
  std::FILE* file = nullptr;
  uint64_t offset = 0;
  uint64_t universe_size = 0;
  uint64_t data_checksum = kFnvOffset;  // Data pages only (opt-in audit).
  uint64_t zone_checksum = kFnvOffset;  // Zone blocks (always verified).
  std::vector<DirEntry> directory;
  std::set<std::string> names;
  bool finished = false;

  // Open-relation state.
  bool in_relation = false;
  std::string rel_name;
  int arity = 0;
  uint64_t rows = 0;
  uint64_t data_offset = 0;
  Tuple prev_row;
  std::vector<Value> zone_entries;
  std::vector<Value> buffer;  // Staged rows, flushed in large writes.

  static constexpr size_t kBufferValues = 1 << 16;

  Status WriteRaw(const void* p, size_t n, bool checksum) {
    if (std::fwrite(p, 1, n, file) != n) {
      return Status::Internal("segment write failed: " + path);
    }
    if (checksum) data_checksum = FnvUpdate(data_checksum, p, n);
    offset += n;
    return Status::Ok();
  }

  Status PadTo(uint64_t align) {
    static const char zeros[kDataAlign] = {};
    const uint64_t rem = offset % align;
    if (rem == 0) return Status::Ok();
    return WriteRaw(zeros, static_cast<size_t>(align - rem), false);
  }

  Status FlushBuffer() {
    if (buffer.empty()) return Status::Ok();
    Status s = WriteRaw(buffer.data(), buffer.size() * sizeof(Value), true);
    buffer.clear();
    return s;
  }
};

SegmentWriter::~SegmentWriter() {
  if (impl_ != nullptr && impl_->file != nullptr) std::fclose(impl_->file);
}

StatusOr<std::unique_ptr<SegmentWriter>> SegmentWriter::Create(
    const std::string& path, uint64_t universe_size) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot create segment file: " + path);
  }
  auto writer = std::unique_ptr<SegmentWriter>(new SegmentWriter());
  writer->impl_ = std::make_unique<Impl>();
  writer->impl_->path = path;
  writer->impl_->file = file;
  writer->impl_->universe_size = universe_size;
  // Header placeholder; Finish() seeks back and writes the real one.
  const char zeros[sizeof(FileHeader)] = {};
  Status s = writer->impl_->WriteRaw(zeros, sizeof(FileHeader), false);
  if (!s.ok()) return s;
  return writer;
}

Status SegmentWriter::BeginRelation(const std::string& name, int arity) {
  Impl& im = *impl_;
  if (im.finished) return Status::FailedPrecondition("writer already finished");
  if (im.in_relation) {
    return Status::FailedPrecondition("BeginRelation while a relation is open");
  }
  if (arity < 1) {
    return Status::InvalidArgument(
        "segment relations must have arity >= 1: " + name);
  }
  if (name.empty() || name.size() > kSegmentMaxNameLen) {
    return Status::InvalidArgument("segment relation name too long: " + name);
  }
  if (!im.names.insert(name).second) {
    return Status::InvalidArgument("duplicate relation in segment: " + name);
  }
  Status s = im.PadTo(kDataAlign);
  if (!s.ok()) return s;
  im.in_relation = true;
  im.rel_name = name;
  im.arity = arity;
  im.rows = 0;
  im.data_offset = im.offset;
  im.prev_row.clear();
  im.zone_entries.clear();
  im.buffer.clear();
  im.buffer.reserve(Impl::kBufferValues);
  return Status::Ok();
}

Status SegmentWriter::AppendRow(const Value* row) {
  Impl& im = *impl_;
  if (!im.in_relation) {
    return Status::FailedPrecondition("AppendRow without BeginRelation");
  }
  const size_t arity = static_cast<size_t>(im.arity);
  for (size_t c = 0; c < arity; ++c) {
    if (row[c] >= im.universe_size) {
      return Status::InvalidArgument("row value outside universe in " +
                                     im.rel_name);
    }
  }
  if (im.rows > 0 &&
      CompareValues(im.prev_row.data(), row, arity) >= 0) {
    return Status::InvalidArgument(
        "rows must be strictly ascending (canonical order) in " +
        im.rel_name);
  }
  // Zone accumulation: extend on block boundary, else fold min/max.
  const size_t block = static_cast<size_t>(im.rows / kZoneBlockRows);
  if (block * arity * 2 >= im.zone_entries.size()) {
    for (size_t c = 0; c < arity; ++c) {
      im.zone_entries.push_back(row[c]);
      im.zone_entries.push_back(row[c]);
    }
  } else {
    Value* entry = im.zone_entries.data() + block * arity * 2;
    for (size_t c = 0; c < arity; ++c) {
      if (row[c] < entry[c * 2]) entry[c * 2] = row[c];
      if (row[c] > entry[c * 2 + 1]) entry[c * 2 + 1] = row[c];
    }
  }
  im.prev_row.assign(row, row + arity);
  im.buffer.insert(im.buffer.end(), row, row + arity);
  ++im.rows;
  if (im.buffer.size() + arity > Impl::kBufferValues) return im.FlushBuffer();
  return Status::Ok();
}

Status SegmentWriter::EndRelation() {
  Impl& im = *impl_;
  if (!im.in_relation) {
    return Status::FailedPrecondition("EndRelation without BeginRelation");
  }
  Status s = im.FlushBuffer();
  if (!s.ok()) return s;
  s = im.PadTo(kMinorAlign);
  if (!s.ok()) return s;
  const uint64_t zone_offset = im.offset;
  if (!im.zone_entries.empty()) {
    const size_t zone_bytes = im.zone_entries.size() * sizeof(Value);
    s = im.WriteRaw(im.zone_entries.data(), zone_bytes, false);
    if (!s.ok()) return s;
    im.zone_checksum =
        FnvUpdate(im.zone_checksum, im.zone_entries.data(), zone_bytes);
  }
  DirEntry entry{};
  std::memcpy(entry.name, im.rel_name.data(), im.rel_name.size());
  entry.arity = static_cast<uint32_t>(im.arity);
  entry.rows = im.rows;
  entry.data_offset = im.data_offset;
  entry.zone_offset = zone_offset;
  im.directory.push_back(entry);
  im.in_relation = false;
  return Status::Ok();
}

Status SegmentWriter::AddRelation(const std::string& name,
                                  const Relation& relation) {
  if (!relation.canonical()) {
    return Status::FailedPrecondition("packing a non-canonical relation: " +
                                      name);
  }
  Status s = BeginRelation(name, relation.arity());
  if (!s.ok()) return s;
  const Value* base = relation.base();
  const size_t arity = static_cast<size_t>(relation.arity());
  for (size_t i = 0; i < relation.size(); ++i) {
    s = AppendRow(base + i * arity);
    if (!s.ok()) return s;
  }
  return EndRelation();
}

Status SegmentWriter::Finish() {
  Impl& im = *impl_;
  if (im.finished) return Status::FailedPrecondition("writer already finished");
  if (im.in_relation) {
    return Status::FailedPrecondition("Finish with a relation still open");
  }
  Status s = im.PadTo(kMinorAlign);
  if (!s.ok()) return s;
  const uint64_t directory_offset = im.offset;
  if (!im.directory.empty()) {
    s = im.WriteRaw(im.directory.data(),
                    im.directory.size() * sizeof(DirEntry), false);
    if (!s.ok()) return s;
  }

  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.zone_block_rows = static_cast<uint32_t>(kZoneBlockRows);
  header.universe_size = im.universe_size;
  header.relation_count = static_cast<uint32_t>(im.directory.size());
  header.directory_offset = directory_offset;
  header.file_bytes = im.offset + sizeof(Trailer);

  Trailer trailer{};
  trailer.data_checksum = im.data_checksum;
  trailer.zone_checksum = im.zone_checksum;
  uint64_t dir_checksum = FnvUpdate(kFnvOffset, &header, sizeof(header));
  dir_checksum = FnvUpdate(dir_checksum, im.directory.data(),
                           im.directory.size() * sizeof(DirEntry));
  trailer.dir_checksum = dir_checksum;
  std::memcpy(trailer.end_magic, kEndMagic, sizeof(kEndMagic));
  s = im.WriteRaw(&trailer, sizeof(trailer), false);
  if (!s.ok()) return s;

  if (std::fseek(im.file, 0, SEEK_SET) != 0 ||
      std::fwrite(&header, 1, sizeof(header), im.file) != sizeof(header) ||
      std::fflush(im.file) != 0) {
    return Status::Internal("segment header write failed: " + im.path);
  }
  std::fclose(im.file);
  im.file = nullptr;
  im.finished = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// SegmentView
// ---------------------------------------------------------------------------

SegmentView::~SegmentView() {
  if (map_ != nullptr) {
    StorageMetrics::Get().mapped_bytes.Add(-static_cast<int64_t>(map_len_));
    ::munmap(map_, map_len_);
  }
}

StatusOr<std::shared_ptr<const SegmentView>> SegmentView::Open(
    const std::string& path, const SegmentOpenOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open segment file: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat segment file: " + path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len < sizeof(FileHeader) + sizeof(Trailer)) {
    ::close(fd);
    return Invalid(path, "truncated (smaller than header + trailer)");
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps its own reference.
  if (map == MAP_FAILED) {
    return Status::Internal("mmap failed for segment file: " + path);
  }
  auto view = std::shared_ptr<SegmentView>(new SegmentView());
  view->map_ = map;
  view->map_len_ = len;
  StorageMetrics::Get().mapped_bytes.Add(static_cast<int64_t>(len));

  const unsigned char* bytes = static_cast<const unsigned char*>(map);
  FileHeader header{};
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Invalid(path, "bad magic (not a segment file)");
  }
  if (header.version != kVersion) {
    return Invalid(path,
                   "unsupported version " + std::to_string(header.version));
  }
  if (header.zone_block_rows != kZoneBlockRows) {
    return Invalid(path, "zone block size mismatch");
  }
  if (header.file_bytes != len) {
    return Invalid(path, "truncated (header records " +
                             std::to_string(header.file_bytes) +
                             " bytes, file has " + std::to_string(len) + ")");
  }
  const uint64_t dir_bytes =
      static_cast<uint64_t>(header.relation_count) * sizeof(DirEntry);
  if (header.directory_offset < sizeof(FileHeader) ||
      header.directory_offset % kMinorAlign != 0 ||
      header.directory_offset + dir_bytes + sizeof(Trailer) != len) {
    return Invalid(path, "corrupt directory bounds");
  }
  Trailer trailer{};
  std::memcpy(&trailer, bytes + len - sizeof(Trailer), sizeof(trailer));
  if (std::memcmp(trailer.end_magic, kEndMagic, sizeof(kEndMagic)) != 0) {
    return Invalid(path, "missing end magic (incomplete write?)");
  }
  uint64_t dir_checksum = FnvUpdate(kFnvOffset, &header, sizeof(header));
  dir_checksum = FnvUpdate(dir_checksum, bytes + header.directory_offset,
                           static_cast<size_t>(dir_bytes));
  if (dir_checksum != trailer.dir_checksum) {
    return Invalid(path, "directory checksum mismatch");
  }

  view->universe_size_ = header.universe_size;
  view->relations_.reserve(header.relation_count);
  uint64_t data_checksum = kFnvOffset;
  uint64_t zone_checksum = kFnvOffset;
  std::set<std::string> seen;
  for (uint32_t i = 0; i < header.relation_count; ++i) {
    DirEntry entry{};
    std::memcpy(&entry, bytes + header.directory_offset + i * sizeof(DirEntry),
                sizeof(entry));
    if (entry.name[0] == '\0' ||
        std::memchr(entry.name, '\0', sizeof(entry.name)) == nullptr) {
      return Invalid(path, "corrupt relation name in directory");
    }
    RelationEntry rel;
    rel.name = entry.name;
    if (!seen.insert(rel.name).second) {
      return Invalid(path, "duplicate relation: " + rel.name);
    }
    if (entry.arity == 0) {
      return Invalid(path, "arity-0 relation not representable: " + rel.name);
    }
    if (entry.arity > kMaxRelationArity) {
      return Invalid(path, "implausible arity for " + rel.name);
    }
    rel.arity = static_cast<int>(entry.arity);
    rel.rows = entry.rows;
    // Bound rows before forming byte sizes so the arithmetic below
    // cannot overflow (all blocks live strictly before the directory).
    if (entry.rows > header.directory_offset / sizeof(Value) / entry.arity) {
      return Invalid(path, "row count exceeds file capacity for " + rel.name);
    }
    const uint64_t data_bytes = entry.rows * entry.arity * sizeof(Value);
    const uint64_t zone_values = ZoneEntryCount(entry.arity, entry.rows);
    const uint64_t zone_bytes = zone_values * sizeof(Value);
    if (entry.data_offset % sizeof(Value) != 0 ||
        entry.data_offset < sizeof(FileHeader) ||
        entry.data_offset + data_bytes > header.directory_offset ||
        entry.zone_offset % sizeof(Value) != 0 ||
        entry.zone_offset < sizeof(FileHeader) ||
        entry.zone_offset + zone_bytes > header.directory_offset) {
      return Invalid(path, "corrupt block bounds for " + rel.name);
    }
    rel.data = reinterpret_cast<const Value*>(bytes + entry.data_offset);
    rel.zones = zone_values > 0 ? reinterpret_cast<const Value*>(
                                      bytes + entry.zone_offset)
                                : nullptr;
    zone_checksum = FnvUpdate(zone_checksum, bytes + entry.zone_offset,
                              static_cast<size_t>(zone_bytes));
    if (options.verify_data_checksum) {
      data_checksum = FnvUpdate(data_checksum, rel.data,
                                static_cast<size_t>(data_bytes));
    }
    view->relations_.push_back(std::move(rel));
  }
  // Zone blocks are always verified (O(blocks) — open stays O(1) in data
  // size) BEFORE they are trusted below: the universe certification
  // reads zone maxima in place of the O(rows) data pages, so corrupt
  // zones that understate the data must not pass.
  if (zone_checksum != trailer.zone_checksum) {
    return Invalid(path, "zone checksum mismatch");
  }
  for (const RelationEntry& rel : view->relations_) {
    const uint64_t zone_values =
        ZoneEntryCount(static_cast<uint64_t>(rel.arity), rel.rows);
    // Zone blocks are exact per-block bounds, so this O(blocks) walk
    // certifies every value is inside the universe without touching the
    // O(rows) data pages.
    for (uint64_t z = 1; z < zone_values; z += 2) {
      if (rel.zones[z] >= header.universe_size) {
        return Invalid(path, "value outside universe in " + rel.name);
      }
    }
  }
  if (options.verify_data_checksum &&
      data_checksum != trailer.data_checksum) {
    return Invalid(path, "data checksum mismatch");
  }
  return std::shared_ptr<const SegmentView>(std::move(view));
}

StatusOr<size_t> SegmentView::ResidentPages() const {
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return Status::Internal("sysconf(_SC_PAGESIZE) failed");
  const size_t pages = (map_len_ + static_cast<size_t>(page) - 1) /
                       static_cast<size_t>(page);
  std::vector<unsigned char> vec(pages);
  if (::mincore(map_, map_len_, vec.data()) != 0) {
    return Status::Internal("mincore failed");
  }
  size_t resident = 0;
  for (unsigned char v : vec) resident += v & 1u;
  StorageMetrics::Get().pages_resident.Set(static_cast<int64_t>(resident));
  return resident;
}

// ---------------------------------------------------------------------------
// Database-level helpers
// ---------------------------------------------------------------------------

bool LooksLikeSegmentFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[8] = {};
  const size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  return got == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

Status WriteSegmentDatabase(const Database& db, const std::string& path) {
  if (!db.IsCanonical()) {
    return Status::FailedPrecondition(
        "packing a non-canonical database (call Canonicalize first)");
  }
  auto writer = SegmentWriter::Create(path, db.universe_size());
  if (!writer.ok()) return writer.status();
  for (const std::string& name : db.RelationNames()) {
    Status s = (*writer)->AddRelation(name, db.relation(name));
    if (!s.ok()) return s;
  }
  return (*writer)->Finish();
}

StatusOr<Database> OpenSegmentDatabase(const std::string& path,
                                       const SegmentOpenOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  auto view_or = SegmentView::Open(path, options);
  if (!view_or.ok()) return view_or.status();
  std::shared_ptr<const SegmentView> view = *view_or;
  if (view->universe_size() > UINT32_MAX) {
    return Invalid(path, "universe too large for 32-bit values");
  }
  Database db(static_cast<uint32_t>(view->universe_size()));
  for (const SegmentView::RelationEntry& rel : view->relations()) {
    Status s = db.AdoptRelation(
        rel.name,
        Relation::FromMappedSpan(rel.arity, static_cast<size_t>(rel.rows),
                                 rel.data, view));
    if (!s.ok()) return s;
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  StorageMetrics::Get().segment_opens.Increment();
  StorageMetrics::Get().segment_open_us.Observe(
      static_cast<uint64_t>(micros));
  return db;
}

StatusOr<Database> LoadDatabaseAuto(const std::string& path) {
  if (LooksLikeSegmentFile(path)) return OpenSegmentDatabase(path);
  return ReadDatabaseFile(path);
}

}  // namespace cqcount
