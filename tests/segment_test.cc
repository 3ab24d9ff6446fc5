// Segment file robustness tests (relational/segment.h): roundtrip
// property (random databases pack -> mmap -> bitwise-equal scans, exact
// zone blocks), typed-Status rejection of corrupt files (truncation, bad
// magic, bad version, checksum mismatch, arity-0), memory safety on a
// data value past the universe and on seeded mutants of a pack, and many
// concurrent readers over one SegmentView.
#include "relational/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/fpras.h"
#include "counting/exact_count.h"
#include "counting/fptras.h"
#include "counting/sampler.h"
#include "query/parser.h"
#include "relational/database_io.h"
#include "relational/relation.h"
#include "relational/structure.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace cqcount {
namespace {

class SegmentTest : public ::testing::Test {
 protected:
  // A fresh path per test under the build tree's temp dir; removed on
  // teardown so reruns start clean.
  std::string TempPath(const std::string& tag) {
    std::string path = ::testing::TempDir() + "cqseg_" + tag + "_" +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                       ".seg";
    paths_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }
  std::vector<std::string> paths_;
};

Database SmallDatabase() {
  Database db(50);
  (void)db.DeclareRelation("E", 2);
  (void)db.DeclareRelation("L", 1);
  for (Value a = 0; a < 20; ++a) {
    (void)db.AddFact("E", {a, (a * 7 + 3) % 50});
    (void)db.AddFact("E", {a, (a * 13 + 1) % 50});
  }
  for (Value v = 0; v < 50; v += 3) (void)db.AddFact("L", {v});
  db.Canonicalize();
  return db;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Checks that the writer's zone block holds, for every block of 1024 rows
// (the last may be short) and every column, that block's exact min and
// max: the universe check at open trusts these maxima in place of the
// data pages.
void ExpectZoneBlocksExact(const std::string& path) {
  constexpr uint64_t kBlockRows = 1024;
  const std::vector<char> bytes = ReadAll(path);
  uint32_t header_block_rows = 0;  // The u32 after magic and version.
  std::memcpy(&header_block_rows, bytes.data() + 12, sizeof(uint32_t));
  EXPECT_EQ(header_block_rows, kBlockRows);
  auto view = SegmentView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (const SegmentView::RelationEntry& rel : (*view)->relations()) {
    const uint64_t arity = static_cast<uint64_t>(rel.arity);
    if (rel.rows == 0) {
      EXPECT_EQ(rel.zones, nullptr) << rel.name;
      continue;
    }
    ASSERT_NE(rel.zones, nullptr) << rel.name;
    for (uint64_t first = 0; first < rel.rows; first += kBlockRows) {
      const uint64_t block = first / kBlockRows;
      const uint64_t end = std::min(rel.rows, first + kBlockRows);
      for (uint64_t c = 0; c < arity; ++c) {
        Value lo = UINT32_MAX, hi = 0;
        for (uint64_t r = first; r < end; ++r) {
          lo = std::min(lo, rel.data[r * arity + c]);
          hi = std::max(hi, rel.data[r * arity + c]);
        }
        const Value* entry = rel.zones + (block * arity + c) * 2;
        EXPECT_EQ(entry[0], lo)
            << rel.name << " block " << block << " column " << c;
        EXPECT_EQ(entry[1], hi)
            << rel.name << " block " << block << " column " << c;
      }
    }
  }
}

// A pack with relations of arity 2 and 3 over a small universe, so every
// estimator in the mutation test finishes in milliseconds on intact data.
Database MutationDatabase() {
  Rng rng(20261017);
  Database db(16);
  (void)db.DeclareRelation("F", 2);
  (void)db.DeclareRelation("T", 3);
  for (int i = 0; i < 48; ++i) {
    (void)db.AddFact("F", {static_cast<Value>(rng.UniformInt(16)),
                           static_cast<Value>(rng.UniformInt(16))});
  }
  for (int i = 0; i < 64; ++i) {
    (void)db.AddFact("T", {static_cast<Value>(rng.UniformInt(16)),
                           static_cast<Value>(rng.UniformInt(16)),
                           static_cast<Value>(rng.UniformInt(16))});
  }
  db.Canonicalize();
  return db;
}

// [begin, end) byte ranges of every relation's data page, read from the
// directory (relation_count at header byte 24, directory offset at 32;
// per 64 B entry: arity at 32, rows at 40, data offset at 48).
std::vector<std::pair<size_t, size_t>> DataRanges(
    const std::vector<char>& bytes) {
  uint32_t count = 0;
  uint64_t dir = 0;
  std::memcpy(&count, bytes.data() + 24, sizeof(count));
  std::memcpy(&dir, bytes.data() + 32, sizeof(dir));
  std::vector<std::pair<size_t, size_t>> ranges;
  for (uint32_t i = 0; i < count; ++i) {
    const char* entry = bytes.data() + dir + i * 64;
    uint32_t arity = 0;
    uint64_t rows = 0, offset = 0;
    std::memcpy(&arity, entry + 32, sizeof(arity));
    std::memcpy(&rows, entry + 40, sizeof(rows));
    std::memcpy(&offset, entry + 48, sizeof(offset));
    ranges.emplace_back(offset, offset + rows * arity * sizeof(Value));
  }
  return ranges;
}

// One mutant of `clean`; the kind cycles with the seed: truncation,
// random byte flips, random u32 overwrites inside the data pages, and
// self-splices.
std::vector<char> Mutate(const std::vector<char>& clean,
                         const std::vector<std::pair<size_t, size_t>>& data,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<char> bytes = clean;
  switch (seed % 4) {
    case 0:
      bytes.resize(rng.UniformInt(bytes.size()));
      break;
    case 1: {
      const uint64_t flips = 1 + rng.UniformInt(8);
      for (uint64_t f = 0; f < flips; ++f) {
        bytes[rng.UniformInt(bytes.size())] ^=
            static_cast<char>(1 + rng.UniformInt(255));
      }
      break;
    }
    case 2: {
      const uint64_t writes = 1 + rng.UniformInt(4);
      for (uint64_t w = 0; w < writes; ++w) {
        const auto& [begin, end] = data[rng.UniformInt(data.size())];
        const size_t slot =
            begin + rng.UniformInt((end - begin) / sizeof(Value)) *
                        sizeof(Value);
        // Half the time a small value, in or just past the universe of
        // 16; otherwise any u32.
        const Value value = rng.Bernoulli(0.5)
                                ? static_cast<Value>(rng.UniformInt(40))
                                : static_cast<Value>(rng.Next());
        std::memcpy(bytes.data() + slot, &value, sizeof(value));
      }
      break;
    }
    default: {  // Copy one stretch of the file over another.
      const size_t len = 1 + rng.UniformInt(256);
      const size_t from = rng.UniformInt(bytes.size() - len);
      const size_t to = rng.UniformInt(bytes.size() - len);
      std::memmove(bytes.data() + to, bytes.data() + from, len);
      break;
    }
  }
  return bytes;
}

TEST_F(SegmentTest, RoundTripPreservesEveryRelationBitwise) {
  const std::string path = TempPath("roundtrip");
  Database db = SmallDatabase();
  ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());

  auto mapped = OpenSegmentDatabase(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->universe_size(), db.universe_size());
  ASSERT_EQ(mapped->RelationNames(), db.RelationNames());
  for (const std::string& name : db.RelationNames()) {
    const Relation& want = db.relation(name);
    const Relation& got = mapped->relation(name);
    EXPECT_TRUE(got.is_mapped());
    EXPECT_EQ(got.arity(), want.arity());
    ASSERT_EQ(got.size(), want.size());
    // Bitwise scan equality via the flat span, plus accessor agreement.
    EXPECT_TRUE(got.flat() == want.flat());
    EXPECT_EQ(got, want);
  }
}

TEST_F(SegmentTest, RoundTripPropertyOnRandomDatabases) {
  Rng rng(20260808);
  for (int trial = 0; trial < 12; ++trial) {
    const std::string path = TempPath("prop" + std::to_string(trial));
    Query q = testing_util::RandomQuery(rng);
    const uint32_t universe = 4 + static_cast<uint32_t>(rng.UniformInt(20));
    Database db =
        testing_util::RandomDatabaseFor(q, universe, 0.3, rng);
    ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());

    auto mapped = OpenSegmentDatabase(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_EQ(mapped->RelationNames(), db.RelationNames());
    for (const std::string& name : db.RelationNames()) {
      const Relation& want = db.relation(name);
      const Relation& got = mapped->relation(name);
      ASSERT_EQ(got.size(), want.size()) << name;
      EXPECT_EQ(got, want) << name;
      // Random point probes agree between backends.
      for (int probe = 0; probe < 16 && want.size() > 0; ++probe) {
        Tuple t(want.arity());
        if (rng.Bernoulli(0.5)) {
          const size_t row = rng.UniformInt(want.size());
          for (int c = 0; c < want.arity(); ++c) t[c] = want[row][c];
        } else {
          for (int c = 0; c < want.arity(); ++c) {
            t[c] = static_cast<Value>(rng.UniformInt(universe));
          }
        }
        EXPECT_EQ(got.Contains(t), want.Contains(t)) << name;
      }
    }
    ExpectZoneBlocksExact(path);
  }

  // Relations spanning several zone blocks and ending in a short one.
  const std::string path = TempPath("propblocks");
  Database db(5000);
  (void)db.DeclareRelation("Pairs", 2);
  (void)db.DeclareRelation("Triples", 3);
  for (int i = 0; i < 2600; ++i) {
    (void)db.AddFact("Pairs", {static_cast<Value>(rng.UniformInt(900)),
                               static_cast<Value>(rng.UniformInt(5000))});
  }
  for (int i = 0; i < 1100; ++i) {
    (void)db.AddFact("Triples", {static_cast<Value>(rng.UniformInt(300)),
                                 static_cast<Value>(rng.UniformInt(5000)),
                                 static_cast<Value>(rng.UniformInt(5000))});
  }
  db.Canonicalize();
  for (const std::string& name : db.RelationNames()) {
    ASSERT_GT(db.relation(name).size(), 1024u) << name;
    ASSERT_NE(db.relation(name).size() % 1024, 0u) << name;
  }
  ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());
  ExpectZoneBlocksExact(path);
}

TEST_F(SegmentTest, FullChecksumVerificationPassesOnCleanFile) {
  const std::string path = TempPath("audit");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  SegmentOpenOptions audit;
  audit.verify_data_checksum = true;
  EXPECT_TRUE(OpenSegmentDatabase(path, audit).ok());
}

TEST_F(SegmentTest, RejectsMissingFile) {
  auto view = SegmentView::Open(TempPath("missing"));
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kNotFound);
}

TEST_F(SegmentTest, RejectsTruncatedFile) {
  const std::string path = TempPath("trunc");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Chop at several depths: inside the trailer, inside the directory,
  // inside the header.
  for (size_t keep : {bytes.size() - 8, bytes.size() / 2, size_t{48},
                      size_t{10}, size_t{0}}) {
    std::vector<char> cut(bytes.begin(), bytes.begin() + keep);
    WriteAll(path, cut);
    auto view = SegmentView::Open(path);
    ASSERT_FALSE(view.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes";
  }
}

TEST_F(SegmentTest, RejectsBadMagic) {
  const std::string path = TempPath("magic");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  // The auto-loader then treats it as text and fails in the parser, but
  // never crashes.
  EXPECT_FALSE(LooksLikeSegmentFile(path));
  EXPECT_FALSE(LoadDatabaseAuto(path).ok());
}

TEST_F(SegmentTest, RejectsBadVersion) {
  const std::string path = TempPath("version");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = 99;  // version field follows the 8-byte magic.
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, RejectsDirectoryCorruption) {
  const std::string path = TempPath("dircorrupt");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Flip one byte of the first directory entry's name; the directory
  // checksum must catch it even though open never reads the data blocks.
  const size_t dir_guess = bytes.size() - 32 - 2 * 64;
  bytes[dir_guess] ^= 0x5A;
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, ZoneCorruptionRejectedAtPlainOpen) {
  // The O(1) open certifies every value against the universe from the
  // zone maxima alone, so zone blocks must be covered by an
  // always-verified checksum: a corrupt zone that understates the data
  // (here: zeroed, so any out-of-universe value would "pass") has to be
  // rejected WITHOUT the opt-in full data audit.
  const std::string path = TempPath("zonecorrupt");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Locate the first relation's zone block via its directory entry
  // (directory = 2 entries of 64 B just before the 32 B trailer;
  // zone_offset is the u64 at byte 56 of an entry).
  const size_t dir = bytes.size() - 32 - 2 * 64;
  uint64_t zone_offset = 0;
  std::memcpy(&zone_offset, bytes.data() + dir + 56, sizeof(zone_offset));
  ASSERT_LT(zone_offset + 8, bytes.size());
  // Zero the first column's MAX (bytes 4..7 of the zone block; its min
  // at bytes 0..3 is already 0) — the certification-relevant bound.
  for (int b = 4; b < 8; ++b) bytes[zone_offset + b] = 0;
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);  // Plain open, no data audit.
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, DataCorruptionCaughtOnlyByFullAudit) {
  const std::string path = TempPath("datacorrupt");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Flip a value byte inside the first (page-aligned) data block without
  // breaking the relation's sort order: bump the low byte of a value.
  bytes[4096 + 1] ^= 0x01;
  WriteAll(path, bytes);
  // O(1) open does not read data blocks, so it succeeds...
  EXPECT_TRUE(SegmentView::Open(path).ok());
  // ...but the opt-in full audit flags the mismatch.
  SegmentOpenOptions audit;
  audit.verify_data_checksum = true;
  auto audited = SegmentView::Open(path, audit);
  ASSERT_FALSE(audited.ok());
  EXPECT_EQ(audited.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, DataValueOutsideUniverseIsMemorySafe) {
  // Plain open certifies the universe from zone maxima and never reads
  // the data pages, so a pack whose data page holds a value at or past
  // the universe opens fine while its zone blocks are intact. The
  // estimators must then stay memory-safe: the decomposition solver and
  // the sampler's counts index per-value arrays by row value.
  const std::string path = TempPath("outside");
  Database db(20);
  (void)db.DeclareRelation("F", 2);
  for (Value a = 0; a < 20; ++a) {
    (void)db.AddFact("F", {a, (a * 7 + 3) % 20});
    (void)db.AddFact("F", {a, (a * 11 + 5) % 20});
  }
  db.Canonicalize();
  ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());
  std::vector<char> bytes = ReadAll(path);
  // The one directory entry sits just before the 32 B trailer; its rows
  // count is the u64 at byte 40 and its data offset the u64 at byte 48.
  const size_t dir = bytes.size() - 32 - 64;
  uint64_t rows = 0, data_offset = 0;
  std::memcpy(&rows, bytes.data() + dir + 40, sizeof(rows));
  std::memcpy(&data_offset, bytes.data() + dir + 48, sizeof(data_offset));
  ASSERT_EQ(rows, 40u);
  // The last value of the last row: raising it keeps canonical order.
  const Value outside = 0x00FFFFF0;
  std::memcpy(bytes.data() + data_offset + (rows * 2 - 1) * sizeof(Value),
              &outside, sizeof(outside));
  WriteAll(path, bytes);

  SegmentOpenOptions audit;
  audit.verify_data_checksum = true;
  EXPECT_FALSE(OpenSegmentDatabase(path, audit).ok());
  auto mapped = OpenSegmentDatabase(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  auto q = ParseQuery("ans(x) :- F(x, y), F(x, z), y != z.");
  ASSERT_TRUE(q.ok());
  ApproxOptions opts;
  opts.seed = 7;
  auto count = ApproxCountAnswers(*q, *mapped, opts);
  EXPECT_TRUE(count.ok()) << count.status().ToString();

  SamplerOptions sampler_opts;
  sampler_opts.approx.seed = 7;
  auto sampler = AnswerSampler::Create(*q, *mapped, sampler_opts);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  EXPECT_TRUE((*sampler)->Sample(3).ok());
}

TEST_F(SegmentTest, MutantsFailTypedOrCountWithoutMemoryErrors) {
  // Every mutant must either fail to open with a typed status, or open
  // and get through the estimators. Plain open never reads the data
  // pages, so data-page mutants open and hand unsorted or out-of-universe
  // rows to the counting code; on such data only memory safety is
  // required (run under the sanitizers), not correct answers.
  constexpr uint64_t kMutants = 256;
  const std::string path = TempPath("mutant");
  ASSERT_TRUE(WriteSegmentDatabase(MutationDatabase(), path).ok());
  const std::vector<char> clean = ReadAll(path);
  const auto data = DataRanges(clean);
  ASSERT_EQ(data.size(), 2u);

  auto disequality = ParseQuery("ans(x) :- F(x, y), F(x, z), y != z.");
  auto negation = ParseQuery("ans(x, y) :- F(x, y), T(x, y, z), !F(y, z).");
  auto pure = ParseQuery("ans(x) :- T(x, y, z), F(z, x).");
  ASSERT_TRUE(disequality.ok() && negation.ok() && pure.ok());
  ApproxOptions approx;
  approx.epsilon = 0.5;
  approx.delta = 0.25;
  FprasOptions fpras;
  fpras.acjr.epsilon = 0.5;
  fpras.acjr.delta = 0.25;

  uint64_t opened = 0;
  for (uint64_t seed = 0; seed < kMutants; ++seed) {
    SCOPED_TRACE("mutant seed " + std::to_string(seed));
    WriteAll(path, Mutate(clean, data, seed));
    auto db = OpenSegmentDatabase(path);
    if (!db.ok()) {
      EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument)
          << db.status().ToString();
      continue;
    }
    ++opened;
    approx.seed = seed;
    (void)ApproxCountAnswers(*disequality, *db, approx);
    (void)ApproxCountAnswers(*negation, *db, approx);
    (void)ExactCountAnswersBruteForce(*negation, *db);
    fpras.acjr.seed = seed;
    (void)FprasCountCq(*pure, *db, fpras);
  }
  // Data-page overwrites keep the zone blocks intact, so at least those
  // mutants open and reach the estimators.
  EXPECT_GE(opened, kMutants / 4);
}

TEST_F(SegmentTest, RejectsArityZeroRelations) {
  const std::string path = TempPath("arity0");
  auto writer = SegmentWriter::Create(path, 10);
  ASSERT_TRUE(writer.ok());
  Status s = (*writer)->BeginRelation("G", 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // A database holding a nullary guard relation is therefore unpackable.
  Database db(10);
  (void)db.DeclareRelation("guard", 0);
  (void)db.AddFact("guard", {});
  db.Canonicalize();
  Status packed = WriteSegmentDatabase(db, path);
  ASSERT_FALSE(packed.ok());
  EXPECT_EQ(packed.code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, WriterEnforcesNameAndOrderInvariants) {
  const std::string path = TempPath("invariants");
  auto writer = SegmentWriter::Create(path, 100);
  ASSERT_TRUE(writer.ok());
  // Over-long names are rejected.
  EXPECT_EQ((*writer)
                ->BeginRelation(std::string(kSegmentMaxNameLen + 1, 'n'), 1)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->BeginRelation("R", 2).ok());
  const Value row1[] = {3, 4};
  ASSERT_TRUE((*writer)->AppendRow(row1).ok());
  // Out-of-order and duplicate rows are rejected.
  const Value row_dup[] = {3, 4};
  EXPECT_EQ((*writer)->AppendRow(row_dup).code(),
            StatusCode::kInvalidArgument);
  const Value row_less[] = {2, 9};
  EXPECT_EQ((*writer)->AppendRow(row_less).code(),
            StatusCode::kInvalidArgument);
  // Values at/above the universe are rejected.
  const Value row_big[] = {3, 100};
  EXPECT_EQ((*writer)->AppendRow(row_big).code(),
            StatusCode::kInvalidArgument);
  // Duplicate relation names are rejected.
  ASSERT_TRUE((*writer)->EndRelation().ok());
  EXPECT_EQ((*writer)->BeginRelation("R", 1).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, ManyConcurrentReadersOverOneView) {
  const std::string path = TempPath("concurrent");
  Database db = SmallDatabase();
  ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());
  auto mapped = OpenSegmentDatabase(path);
  ASSERT_TRUE(mapped.ok());
  const Relation& shared = mapped->relation("E");
  const Relation& truth = db.relation("E");

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int iter = 0; iter < 2000; ++iter) {
        const Value key = static_cast<Value>(rng.UniformInt(50));
        const auto got = shared.NarrowRange(0, shared.size(), 0, key);
        const auto want = truth.NarrowRange(0, truth.size(), 0, key);
        if (got != want) mismatches.fetch_add(1);
        Tuple probe = {key, static_cast<Value>(rng.UniformInt(50))};
        if (shared.Contains(probe) != truth.Contains(probe)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(SegmentTest, ViewReportsMappingDiagnostics) {
  const std::string path = TempPath("diag");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  auto view = SegmentView::Open(path);
  ASSERT_TRUE(view.ok());
  EXPECT_GT((*view)->mapped_bytes(), 0u);
  auto resident = (*view)->ResidentPages();
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  // The header/directory/trailer walk at open touches at least one page.
  EXPECT_GE(*resident, 1u);
}

}  // namespace
}  // namespace cqcount
