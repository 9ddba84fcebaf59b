// Round-trip, corruption and mutation-fuzz coverage for the binary
// `.ardac` columnar table format, plus the DataRepository directory loader
// that uses it as a table cache (fresh-cache hits, stale-cache refresh,
// and graceful fallback to CSV on any corrupt cache file).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "dataframe/column_stats.h"
#include "dataframe/columnar_io.h"
#include "dataframe/csv.h"
#include "dataframe/mapped_columnar.h"
#include "discovery/repository.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace arda::df {
namespace {

namespace fs = std::filesystem;

DataFrame MakeTypedFrame() {
  Column d = Column::Empty("d", DataType::kDouble);
  d.AppendDouble(1.5);
  d.AppendNull();
  d.AppendDouble(-0.0);
  d.AppendDouble(std::numeric_limits<double>::quiet_NaN());
  d.AppendDouble(std::numeric_limits<double>::infinity());
  d.AppendDouble(1e-320);  // subnormal
  Column i = Column::Empty("i", DataType::kInt64);
  i.AppendInt64(std::numeric_limits<int64_t>::min());
  i.AppendInt64(-1);
  i.AppendNull();
  i.AppendInt64(0);
  i.AppendInt64(std::numeric_limits<int64_t>::max());
  i.AppendInt64(7);
  Column s = Column::Empty("s", DataType::kString);
  s.AppendString("plain");
  s.AppendString("");
  s.AppendString(std::string("nul\0byte", 8));
  s.AppendNull();
  s.AppendString("comma, \"quote\"\nnewline");
  s.AppendString("\xC3\xA9");
  DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(std::move(d)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(i)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(s)).ok());
  return frame;
}

void WriteFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Overwrites the little-endian u32 header field at `offset` (4 = format
// version, 16 = column count).
std::string WithHeaderU32(std::string bytes, size_t offset, uint32_t value) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return bytes;
}

void ExpectFramesIdentical(const DataFrame& a, const DataFrame& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumCols(), b.NumCols());
  for (size_t c = 0; c < a.NumCols(); ++c) {
    const Column& ca = a.col(c);
    const Column& cb = b.col(c);
    EXPECT_EQ(ca.name(), cb.name());
    ASSERT_EQ(ca.type(), cb.type());
    for (size_t r = 0; r < a.NumRows(); ++r) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r)) << "col " << c << " row " << r;
      if (ca.IsNull(r)) continue;
      switch (ca.type()) {
        case DataType::kDouble: {
          // Bit-identical, including NaN payloads and signed zero.
          uint64_t ba, bb;
          double da = ca.DoubleAt(r), db = cb.DoubleAt(r);
          static_assert(sizeof(ba) == sizeof(da));
          std::memcpy(&ba, &da, 8);
          std::memcpy(&bb, &db, 8);
          EXPECT_EQ(ba, bb) << "col " << c << " row " << r;
          break;
        }
        case DataType::kInt64:
          EXPECT_EQ(ca.Int64At(r), cb.Int64At(r))
              << "col " << c << " row " << r;
          break;
        case DataType::kString:
          EXPECT_EQ(ca.StringAt(r), cb.StringAt(r))
              << "col " << c << " row " << r;
          break;
      }
    }
  }
}

TEST(ColumnarIoTest, RoundTripsTypedFrameInMemory) {
  DataFrame frame = MakeTypedFrame();
  std::string bytes = WriteColumnarString(frame);
  Result<DataFrame> back = ReadColumnarString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(frame, *back);
}

TEST(ColumnarIoTest, RoundTripsThroughFile) {
  DataFrame frame = MakeTypedFrame();
  const std::string path = testing::TempDir() + "/arda_columnar_rt.ardac";
  ASSERT_TRUE(WriteColumnar(frame, path).ok());
  Result<DataFrame> back = ReadColumnar(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(frame, *back);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RoundTripsEmptyFrames) {
  DataFrame empty;
  Result<DataFrame> back = ReadColumnarString(WriteColumnarString(empty));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumCols(), 0u);
  EXPECT_EQ(back->NumRows(), 0u);

  DataFrame zero_rows;
  ASSERT_TRUE(
      zero_rows.AddColumn(Column::Empty("a", DataType::kDouble)).ok());
  ASSERT_TRUE(
      zero_rows.AddColumn(Column::Empty("b", DataType::kString)).ok());
  back = ReadColumnarString(WriteColumnarString(zero_rows));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumCols(), 2u);
  EXPECT_EQ(back->NumRows(), 0u);
  EXPECT_EQ(back->col(0).type(), DataType::kDouble);
  EXPECT_EQ(back->col(1).type(), DataType::kString);
}

TEST(ColumnarIoTest, LargeMixedCsvRoundTripIsByteIdentical) {
  // The acceptance fixture: a ~100k-row mixed-type table goes
  // CSV -> DataFrame -> .ardac -> DataFrame with nothing lost; the CSV
  // serialization of both frames must match byte for byte.
  Rng rng(99);
  std::string csv = "id,value,count,city\n";
  static const char* kCities[] = {"boston", "cambridge", "somerville",
                                  "medford"};
  for (size_t i = 0; i < 100000; ++i) {
    csv += std::to_string(i);
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += std::to_string(rng.Normal());
    csv += ',';
    if (rng.UniformUint64(20) != 0) {
      csv += std::to_string(rng.UniformUint64(1000));
    }
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += kCities[rng.UniformUint64(4)];
    csv += '\n';
  }
  Result<DataFrame> parsed = ReadCsvString(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumRows(), 100000u);
  EXPECT_EQ(parsed->col("id").type(), DataType::kInt64);
  EXPECT_EQ(parsed->col("value").type(), DataType::kDouble);
  EXPECT_EQ(parsed->col("count").type(), DataType::kInt64);
  EXPECT_EQ(parsed->col("city").type(), DataType::kString);

  const std::string path = testing::TempDir() + "/arda_columnar_big.ardac";
  ASSERT_TRUE(WriteColumnar(*parsed, path).ok());
  Result<DataFrame> back = ReadColumnar(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(*parsed, *back);
  EXPECT_EQ(WriteCsvString(*parsed), WriteCsvString(*back));
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RejectsBadMagic) {
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  bytes[0] = 'X';
  Result<DataFrame> r = ReadColumnarString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST(ColumnarIoTest, RejectsVersionSkew) {
  // Version 3 is the only one read: the retired 1 and 2 are version skew
  // like any future version, for the eager and the mapped reader alike.
  const std::string bytes = WriteColumnarString(MakeTypedFrame());
  const std::string path = testing::TempDir() + "/arda_columnar_skew.ardac";
  for (uint32_t version : {1u, 2u, 4u, 99u}) {
    const std::string skewed = WithHeaderU32(bytes, 4, version);
    Result<DataFrame> r = ReadColumnarString(skewed);
    ASSERT_FALSE(r.ok()) << "version " << version;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
        << "version " << version;
    EXPECT_NE(r.status().message().find("version"), std::string::npos);
    WriteFile(path, skewed);
    Result<DataFrame> mapped = MapColumnar(path);
    ASSERT_FALSE(mapped.ok()) << "version " << version;
    EXPECT_EQ(mapped.status().code(), StatusCode::kFailedPrecondition)
        << "version " << version;
  }
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, ImplausibleColumnCountFailsBothReaders) {
  // The header lies outside both checksums. A column count the index
  // cannot hold must fail before it sizes any allocation: reserving
  // 0x7fffffff index entries throws std::bad_alloc.
  const std::string bytes =
      WithHeaderU32(WriteColumnarString(MakeTypedFrame()), 16, 0x7fffffff);
  Result<DataFrame> r = ReadColumnarString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("column count"), std::string::npos);

  const std::string path = testing::TempDir() + "/arda_columnar_cols.ardac";
  WriteFile(path, bytes);
  Result<DataFrame> mapped = MapColumnar(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RejectsChecksumMismatch) {
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  bytes[bytes.size() - 1] ^= 0x40;  // flip a payload bit
  Result<DataFrame> r = ReadColumnarString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST(ColumnarIoTest, RejectsTrailingGarbage) {
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  Result<DataFrame> r = ReadColumnarString(bytes + std::string(4, '\0'));
  ASSERT_FALSE(r.ok());
  // The appended bytes perturb the checksum before trailing-byte
  // detection; either way the read must fail cleanly.
}

TEST(ColumnarIoTest, EveryTruncationFailsCleanly) {
  // Slicing the file at every possible length must yield a Status —
  // never a crash or an out-of-range read.
  std::string bytes = WriteColumnarString(MakeTypedFrame());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<DataFrame> r = ReadColumnarString(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

TEST(ColumnarIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadColumnar("/nonexistent/arda.ardac").ok());
}

// --- Meta block: source fingerprint + statistics catalog ---

TEST(ColumnarIoTest, MetaBlockRoundTrips) {
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 1234;
  meta.source_hash = 0xDEADBEEFCAFEF00DULL;
  meta.stats = ComputeTableStats(frame);
  std::string bytes = WriteColumnarString(frame, &meta);

  ColumnarMeta back_meta;
  Result<DataFrame> back = ReadColumnarString(bytes, &back_meta);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectFramesIdentical(frame, *back);
  EXPECT_EQ(back_meta.source_size, 1234u);
  EXPECT_EQ(back_meta.source_hash, 0xDEADBEEFCAFEF00DULL);
  ASSERT_EQ(back_meta.stats.columns.size(), frame.NumCols());
  for (size_t c = 0; c < frame.NumCols(); ++c) {
    const ColumnStats& expected = meta.stats.columns[c];
    const ColumnStats& got = back_meta.stats.columns[c];
    EXPECT_EQ(got.row_count, expected.row_count);
    EXPECT_EQ(got.non_null_count, expected.non_null_count);
    EXPECT_EQ(got.has_range, expected.has_range);
    if (got.has_range) {
      EXPECT_EQ(got.min, expected.min);
      EXPECT_EQ(got.max, expected.max);
    }
    EXPECT_EQ(got.hll, expected.hll);
    EXPECT_EQ(got.minhash, expected.minhash);
  }
}

TEST(ColumnarIoTest, EveryTruncationOfStatsFileFailsCleanly) {
  // Same contract as EveryTruncationFailsCleanly, over a file that
  // carries the full stats meta block.
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 42;
  meta.source_hash = 43;
  meta.stats = ComputeTableStats(frame);
  std::string bytes = WriteColumnarString(frame, &meta);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<DataFrame> r = ReadColumnarString(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

// --- Mutation fuzz: neither reader may crash on a damaged file ---

TEST(ColumnarFuzzTest, MutatedFilesFailOrReadBackTheOriginal) {
  // Every column type, nulls, an empty string and a stats meta block.
  const DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 321;
  meta.source_hash = 0x5eed;
  meta.stats = ComputeTableStats(frame);
  const std::string original = WriteColumnarString(frame, &meta);
  uint64_t index_end = 0;
  for (size_t i = 0; i < 8; ++i) {
    index_end |= static_cast<uint64_t>(
                     static_cast<unsigned char>(original[32 + i]))
                 << (8 * i);
  }
  ASSERT_LT(index_end, original.size());

  // Re-serializing is deterministic and covers names, types, null masks,
  // value bits and the whole meta block, so byte equality with the
  // original file means the read returned exactly what was written.
  auto is_original = [&](const DataFrame& got, const ColumnarMeta& m) {
    if (!m.stats.Empty() && m.stats.columns.size() != got.NumCols()) {
      return false;
    }
    return WriteColumnarString(got, &m) == original;
  };
  const std::string path = testing::TempDir() + "/arda_columnar_fuzz.ardac";
  // The eager reader checks every byte, so it fails or returns the
  // original. The mapped reader skips the payload checksum by design: a
  // payload mutation may change its values but must not crash it; any
  // other mutation fails or returns the original.
  auto check = [&](const std::string& bytes, bool payload_only,
                   const std::string& what) {
    ColumnarMeta got_meta;
    Result<DataFrame> eager = ReadColumnarString(bytes, &got_meta);
    if (eager.ok()) {
      EXPECT_TRUE(is_original(*eager, got_meta)) << what;
    }
    WriteFile(path, bytes);
    Result<DataFrame> mapped = MapColumnar(path, &got_meta);
    if (mapped.ok() && !payload_only) {
      EXPECT_TRUE(is_original(*mapped, got_meta)) << what;
    }
  };

  // Each header byte zeroed, saturated and bit-flipped: header fields sit
  // outside both checksums, so this is where the readers are most exposed.
  for (size_t i = 0; i < 48; ++i) {
    for (unsigned char v : {0x00, 0xff}) {
      std::string bytes = original;
      bytes[i] = static_cast<char>(v);
      check(bytes, false, StrFormat("header byte %zu = %#x", i, v));
    }
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = original;
      bytes[i] ^= static_cast<char>(1 << bit);
      check(bytes, false, StrFormat("header byte %zu bit %d", i, bit));
    }
  }
  // Seeded random overwrites (1-8 bytes), bit flips, truncations and
  // appended bytes anywhere in the file.
  Rng rng(2029);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string bytes = original;
    const size_t offset = rng.UniformUint64(original.size());
    bool payload_only = false;
    std::string what;
    switch (rng.UniformUint64(4)) {
      case 0: {
        const size_t len = std::min<size_t>(1 + rng.UniformUint64(8),
                                            bytes.size() - offset);
        for (size_t i = 0; i < len; ++i) {
          bytes[offset + i] = static_cast<char>(rng.UniformUint64(256));
        }
        payload_only = offset >= index_end;
        what = StrFormat("overwrite %zu bytes at %zu", len, offset);
        break;
      }
      case 1: {
        const int bit = static_cast<int>(rng.UniformUint64(8));
        bytes[offset] ^= static_cast<char>(1 << bit);
        payload_only = offset >= index_end;
        what = StrFormat("flip bit %d at %zu", bit, offset);
        break;
      }
      case 2:
        bytes.resize(offset);
        what = StrFormat("truncate to %zu", offset);
        break;
      default: {
        const size_t len = 1 + rng.UniformUint64(16);
        for (size_t i = 0; i < len; ++i) {
          bytes.push_back(static_cast<char>(rng.UniformUint64(256)));
        }
        what = StrFormat("append %zu bytes", len);
        break;
      }
    }
    check(bytes, payload_only, what);
  }
  std::remove(path.c_str());
}

// --- DataRepository::LoadDirectory cache behavior ---

struct TempTree {
  fs::path data_dir;
  fs::path cache_dir;
  TempTree(const char* tag) {
    data_dir = fs::path(testing::TempDir()) / (std::string(tag) + "_data");
    cache_dir =
        fs::path(testing::TempDir()) / (std::string(tag) + "_cache");
    fs::remove_all(data_dir);
    fs::remove_all(cache_dir);
    fs::create_directories(data_dir);
  }
  ~TempTree() {
    std::error_code ec;
    fs::remove_all(data_dir, ec);
    fs::remove_all(cache_dir, ec);
  }
};

TEST(RepositoryCacheTest, WritesCacheThenLoadsFromIt) {
  TempTree tree("arda_repo_cache");
  WriteFile(tree.data_dir / "t.csv", "a,b\n1,x\n2,y\n");

  discovery::DataRepository first;
  discovery::LoadStats stats1;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats1)
                  .ok());
  EXPECT_EQ(stats1.tables_loaded, 1u);
  EXPECT_EQ(stats1.cache_hits, 0u);
  EXPECT_EQ(stats1.cache_writes, 1u);
  EXPECT_TRUE(fs::exists(tree.cache_dir / "t.ardac"));

  discovery::DataRepository second;
  discovery::LoadStats stats2;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats2)
                  .ok());
  EXPECT_EQ(stats2.tables_loaded, 1u);
  EXPECT_EQ(stats2.cache_hits, 1u);
  EXPECT_EQ(stats2.cache_writes, 0u);
  EXPECT_TRUE(stats2.fallbacks.empty());
  const DataFrame& t = second.GetOrDie("t");
  EXPECT_EQ(t.col("a").Int64At(1), 2);
  EXPECT_EQ(t.col("b").StringAt(0), "x");
}

TEST(RepositoryCacheTest, StaleCacheIsRefreshedFromCsv) {
  TempTree tree("arda_repo_stale");
  WriteFile(tree.data_dir / "t.csv", "a\n1\n");
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  // Make the CSV strictly newer than the cache entry.
  WriteFile(tree.data_dir / "t.csv", "a\n42\n");
  fs::last_write_time(tree.cache_dir / "t.ardac",
                      fs::last_write_time(tree.data_dir / "t.csv") -
                          std::chrono::seconds(5));

  discovery::DataRepository second;
  discovery::LoadStats stats;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats)
                  .ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_writes, 1u);
  EXPECT_EQ(second.GetOrDie("t").col("a").Int64At(0), 42);

  // A cache without a source fingerprint is stale even when it is newer
  // than its CSV: re-parsed and rewritten with a fingerprint, and no
  // fallback recorded (it is not corrupt).
  Result<DataFrame> old_table = ReadCsvString("a\n1\n");
  ASSERT_TRUE(old_table.ok());
  WriteFile(tree.cache_dir / "t.ardac", WriteColumnarString(*old_table));
  fs::last_write_time(tree.cache_dir / "t.ardac",
                      fs::last_write_time(tree.data_dir / "t.csv") +
                          std::chrono::seconds(5));
  discovery::DataRepository third;
  discovery::LoadStats stats3;
  ASSERT_TRUE(third
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats3)
                  .ok());
  EXPECT_EQ(stats3.cache_hits, 0u);
  EXPECT_EQ(stats3.cache_writes, 1u);
  EXPECT_TRUE(stats3.fallbacks.empty());
  EXPECT_EQ(third.GetOrDie("t").col("a").Int64At(0), 42);
  ColumnarMeta meta;
  ASSERT_TRUE(ReadColumnar((tree.cache_dir / "t.ardac").string(), &meta)
                  .ok());
  const std::string csv = ReadFile(tree.data_dir / "t.csv");
  EXPECT_EQ(meta.source_size, csv.size());
  EXPECT_EQ(meta.source_hash, StatsFnv1a64(csv));
}

TEST(RepositoryCacheTest, CorruptCacheFallsBackToCsv) {
  TempTree tree("arda_repo_corrupt");
  WriteFile(tree.data_dir / "t.csv", "a,b\n7,x\n");
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  const fs::path cache = tree.cache_dir / "t.ardac";
  const std::string valid = ReadFile(cache);
  // Each damaged cache is written after the CSV, so it would be used if
  // it were valid.
  const std::string damaged[] = {
      "ARDCgarbage-not-a-valid-file",
      WithHeaderU32(valid, 16, 0x7fffffff),  // implausible column count
      WithHeaderU32(valid, 4, 2),            // retired format version
  };
  for (const std::string& bytes : damaged) {
    SCOPED_TRACE(bytes.substr(0, 24));
    WriteFile(cache, bytes);
    metrics::GlobalRegistry().ResetForTest();
    discovery::DataRepository second;
    discovery::LoadStats stats;
    ASSERT_TRUE(second
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), {}, &stats)
                    .ok());
    EXPECT_EQ(stats.tables_loaded, 1u);
    EXPECT_EQ(stats.cache_hits, 0u);
    ASSERT_EQ(stats.fallbacks.size(), 1u);
    EXPECT_EQ(stats.fallbacks[0].table, "t");
    // The fallback increments the skips.ingest counter exactly once (the
    // report/counter lockstep the fault matrix asserts).
    EXPECT_EQ(metrics::GlobalRegistry().Snapshot().CounterValue(
                  "skips.ingest"),
              1u);
    // The table itself is fine — re-parsed from the CSV...
    EXPECT_EQ(second.GetOrDie("t").col("a").Int64At(0), 7);
    // ...the bad cache entry has been rewritten as a valid v3 file...
    EXPECT_EQ(stats.cache_writes, 1u);
    EXPECT_EQ(ReadFile(cache), valid);
    // ...and the next load is a hit.
    discovery::DataRepository third;
    discovery::LoadStats stats3;
    ASSERT_TRUE(third
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), {}, &stats3)
                    .ok());
    EXPECT_EQ(stats3.cache_hits, 1u);
    EXPECT_TRUE(stats3.fallbacks.empty());
  }
}

TEST(RepositoryCacheTest, BadCsvIsRecordedAndSkipped) {
  TempTree tree("arda_repo_badcsv");
  WriteFile(tree.data_dir / "good.csv", "a\n1\n");
  WriteFile(tree.data_dir / "bad.csv", "a,b\n1\n");  // ragged
  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(tree.data_dir.string(), "", {}, &stats)
                  .ok());
  EXPECT_EQ(stats.tables_loaded, 1u);
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_EQ(stats.failures[0].table, "bad");
  EXPECT_TRUE(repo.Has("good"));
  EXPECT_FALSE(repo.Has("bad"));
}

TEST(RepositoryCacheTest, NoCacheDirMeansNoCacheFiles) {
  TempTree tree("arda_repo_nocache");
  WriteFile(tree.data_dir / "t.csv", "a\n1\n");
  discovery::DataRepository repo;
  discovery::LoadStats stats;
  ASSERT_TRUE(repo.LoadDirectory(tree.data_dir.string(), "", {}, &stats)
                  .ok());
  EXPECT_EQ(stats.tables_loaded, 1u);
  EXPECT_EQ(stats.cache_writes, 0u);
  EXPECT_FALSE(fs::exists(tree.cache_dir));
}

TEST(RepositoryCacheTest, MissingDataDirFails) {
  discovery::DataRepository repo;
  EXPECT_FALSE(
      repo.LoadDirectory("/nonexistent/arda_data", "", {}, nullptr).ok());
}

TEST(RepositoryCacheTest, RewriteAtSameMtimeIsDetectedByFingerprint) {
  // Regression test for the mtime-granularity staleness bug: a CSV
  // rewritten within the filesystem's timestamp granularity (cache mtime
  // >= CSV mtime) used to keep serving the stale cache. The source
  // fingerprint (size + content hash) in the cache meta block must catch
  // it regardless of timestamps.
  TempTree tree("arda_repo_samemtime");
  WriteFile(tree.data_dir / "t.csv", "a\n1\n");
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  // Rewrite the CSV with same-length different content, then force the
  // cache entry's mtime to be strictly NEWER than the CSV — the
  // worst case for an mtime-only freshness check.
  WriteFile(tree.data_dir / "t.csv", "a\n2\n");
  fs::last_write_time(tree.cache_dir / "t.ardac",
                      fs::last_write_time(tree.data_dir / "t.csv") +
                          std::chrono::seconds(5));

  discovery::DataRepository second;
  discovery::LoadStats stats;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats)
                  .ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_writes, 1u);
  EXPECT_EQ(second.GetOrDie("t").col("a").Int64At(0), 2);
}

TEST(RepositoryCacheTest, StatsAreServedFromCacheWithoutRecompute) {
  TempTree tree("arda_repo_statshit");
  WriteFile(tree.data_dir / "t.csv", "a,b\n1,x\n2,y\n2,z\n");
  discovery::DataRepository first;
  ASSERT_TRUE(first
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());

  metrics::GlobalRegistry().ResetForTest();
  discovery::DataRepository second;
  discovery::LoadStats stats;
  ASSERT_TRUE(second
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &stats)
                  .ok());
  ASSERT_EQ(stats.cache_hits, 1u);
  const TableStats* table_stats = second.Stats("t");
  ASSERT_NE(table_stats, nullptr);
  ASSERT_EQ(table_stats->columns.size(), 2u);
  EXPECT_EQ(table_stats->columns[0].row_count, 3u);
  EXPECT_EQ(table_stats->columns[0].non_null_count, 3u);
  EXPECT_TRUE(table_stats->columns[0].has_range);
  EXPECT_EQ(table_stats->columns[0].min, 1.0);
  EXPECT_EQ(table_stats->columns[0].max, 2.0);
  EXPECT_NEAR(table_stats->columns[0].DistinctEstimate(), 2.0, 0.5);
  // A cache hit serves the catalog from the meta block — no per-column
  // stats computation runs.
  EXPECT_EQ(metrics::GlobalRegistry().Snapshot().CounterValue(
                "stats.columns_computed"),
            0u);
  // Unknown tables have no catalog entry.
  EXPECT_EQ(second.Stats("nope"), nullptr);
}

}  // namespace
}  // namespace arda::df
