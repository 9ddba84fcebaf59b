// Out-of-core repository coverage: the mmap-backed `.ardac` reader
// (dataframe/mapped_columnar.h), the borrowed-column lifetime contract,
// the stat-based file sizing, the repository's map_cache mode, and the
// radix-partitioned join / group-by kernels' bit-identity at every
// partition count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "dataframe/aggregate.h"
#include "dataframe/column_stats.h"
#include "dataframe/columnar_io.h"
#include "dataframe/csv.h"
#include "dataframe/mapped_columnar.h"
#include "dataframe/partition.h"
#include "discovery/repository.h"
#include "join/join_executor.h"
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
  d.AppendDouble(2.25);
  Column i = Column::Empty("i", DataType::kInt64);
  i.AppendInt64(-7);
  i.AppendInt64(41);
  i.AppendNull();
  i.AppendInt64(0);
  Column s = Column::Empty("s", DataType::kString);
  s.AppendString("plain");
  s.AppendString("");
  s.AppendNull();
  s.AppendString("comma, \"quote\"\nnewline");
  DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(std::move(d)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(i)).ok());
  EXPECT_TRUE(frame.AddColumn(std::move(s)).ok());
  return frame;
}

void WriteFileBytes(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good());
}

void ExpectFramesIdentical(const DataFrame& a, const DataFrame& b) {
  // CSV serialization covers names, order, null masks and the repo's
  // deterministic numeric rendering in one comparison.
  EXPECT_EQ(WriteCsvString(a), WriteCsvString(b));
}

// --- MapColumnar: the mmap-backed v3 reader ---

TEST(MappedColumnarTest, MappedReadMatchesEagerRead) {
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 77;
  meta.source_hash = 0xABCDEF;
  meta.stats = ComputeTableStats(frame);
  const std::string path = testing::TempDir() + "/arda_map_rt.ardac";
  ASSERT_TRUE(WriteColumnar(frame, path, &meta).ok());

  ColumnarMeta eager_meta, mapped_meta;
  Result<DataFrame> eager = ReadColumnar(path, &eager_meta);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  Result<DataFrame> mapped = MapColumnar(path, &mapped_meta);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectFramesIdentical(frame, *eager);
  ExpectFramesIdentical(frame, *mapped);
  EXPECT_EQ(mapped_meta.source_size, 77u);
  EXPECT_EQ(mapped_meta.source_hash, 0xABCDEFu);
  EXPECT_EQ(mapped_meta.stats.columns.size(), frame.NumCols());
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, MappedReadMatchesEagerOnLargeMixedTable) {
  Rng rng(7);
  std::string csv = "id,value,count,city\n";
  static const char* kCities[] = {"boston", "cambridge", "somerville"};
  for (size_t i = 0; i < 20000; ++i) {
    csv += std::to_string(i);
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += std::to_string(rng.Normal());
    csv += ',';
    if (rng.UniformUint64(20) != 0) {
      csv += std::to_string(rng.UniformUint64(1000));
    }
    csv += ',';
    if (rng.UniformUint64(20) != 0) csv += kCities[rng.UniformUint64(3)];
    csv += '\n';
  }
  Result<DataFrame> parsed = ReadCsvString(csv);
  ASSERT_TRUE(parsed.ok());
  const std::string path = testing::TempDir() + "/arda_map_big.ardac";
  ASSERT_TRUE(WriteColumnar(*parsed, path).ok());
  Result<DataFrame> mapped = MapColumnar(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectFramesIdentical(*parsed, *mapped);
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, EveryTruncationFailsWithStatusNotSigbus) {
  // The v3 safety contract: every extent is validated against the real
  // file size before the first payload access, so a truncated file of
  // ANY length yields a Status — never a SIGBUS on a fault-in past EOF.
  DataFrame frame = MakeTypedFrame();
  ColumnarMeta meta;
  meta.source_size = 42;
  meta.source_hash = 43;
  meta.stats = ComputeTableStats(frame);
  const std::string bytes = WriteColumnarString(frame, &meta);
  const std::string path = testing::TempDir() + "/arda_map_trunc.ardac";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(path, bytes.substr(0, len));
    EXPECT_FALSE(MapColumnar(path).ok()) << "prefix length " << len;
  }
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, RejectsCorruptIndex) {
  DataFrame frame = MakeTypedFrame();
  std::string bytes = WriteColumnarString(frame);
  const std::string path = testing::TempDir() + "/arda_map_corrupt.ardac";
  bytes[50] ^= 0x01;  // inside the column index: name bytes
  WriteFileBytes(path, bytes);
  Result<DataFrame> mapped = MapColumnar(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, MissingFileFails) {
  EXPECT_FALSE(MapColumnar("/nonexistent/arda.ardac").ok());
}

TEST(MappedColumnarTest, BorrowedColumnsMaterializeOnMutation) {
  // Columns of a mapped frame borrow validity/data straight out of the
  // mapping; any mutation must first copy them into owned storage (and
  // keep reads consistent), never write through the mapping.
  DataFrame frame = MakeTypedFrame();
  const std::string path = testing::TempDir() + "/arda_map_mut.ardac";
  ASSERT_TRUE(WriteColumnar(frame, path).ok());
  Result<DataFrame> mapped = MapColumnar(path);
  ASSERT_TRUE(mapped.ok());

  Column d = mapped->col("d");  // copy shares the borrow
  d.AppendDouble(9.75);
  ASSERT_EQ(d.size(), 5u);
  EXPECT_EQ(d.DoubleAt(0), 1.5);
  EXPECT_TRUE(d.IsNull(1));
  EXPECT_EQ(d.DoubleAt(4), 9.75);
  Column i = mapped->col("i");
  i.AppendNull();
  ASSERT_EQ(i.size(), 5u);
  EXPECT_EQ(i.Int64At(1), 41);
  EXPECT_TRUE(i.IsNull(4));
  // The mapped frame itself is untouched by the materialized copies.
  ExpectFramesIdentical(frame, *mapped);
  std::remove(path.c_str());
}

TEST(MappedColumnarTest, RewriteKeepsLiveMappingIntact) {
  // WriteColumnar lands in a temp file and rename()s into place: a live
  // mapping of the previous cache generation keeps its old inode, so the
  // COW snapshot contract ("never unmap a table mid-request") holds even
  // while ingest rewrites the same path.
  DataFrame old_frame = MakeTypedFrame();
  const std::string path = testing::TempDir() + "/arda_map_rename.ardac";
  ASSERT_TRUE(WriteColumnar(old_frame, path).ok());
  Result<DataFrame> mapped_old = MapColumnar(path);
  ASSERT_TRUE(mapped_old.ok());

  DataFrame new_frame;
  ASSERT_TRUE(
      new_frame.AddColumn(Column::Int64("z", {5, 6, 7})).ok());
  ASSERT_TRUE(WriteColumnar(new_frame, path).ok());

  // The old mapping still serves the old bytes; a fresh map sees the new.
  ExpectFramesIdentical(old_frame, *mapped_old);
  Result<DataFrame> mapped_new = MapColumnar(path);
  ASSERT_TRUE(mapped_new.ok());
  ExpectFramesIdentical(new_frame, *mapped_new);
  std::remove(path.c_str());
}

// --- FileSizeBytes: the stat-based 64-bit size probe ---

TEST(FileSizeBytesTest, ReportsExactSizeAndExplicitErrors) {
  const std::string path = testing::TempDir() + "/arda_fsize.bin";
  WriteFileBytes(path, std::string(12345, 'x'));
  Result<uint64_t> size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 12345u);
  std::remove(path.c_str());
  Result<uint64_t> missing = FileSizeBytes(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST(FileSizeBytesTest, SizesPastTwoGiBAreNotTruncated) {
  // The old fseek+ftell probe returned a `long`, which wraps past 2 GiB
  // on ILP32 and turned huge caches into a silent zero-byte reserve. A
  // sparse file checks the 64-bit path without touching 2 GiB of disk.
  const std::string path = testing::TempDir() + "/arda_fsize_sparse.bin";
  const uint64_t want = (uint64_t{1} << 31) + 8;
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
  }
  std::error_code ec;
  fs::resize_file(path, want, ec);
  if (ec) GTEST_SKIP() << "filesystem rejects sparse files: "
                       << ec.message();
  Result<uint64_t> size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, want);
  std::remove(path.c_str());
}

// --- DataRepository map_cache mode ---

struct TempTree {
  fs::path data_dir;
  fs::path cache_dir;
  explicit TempTree(const char* tag) {
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

TEST(RepositoryMapCacheTest, MappedLoadServesIdenticalTables) {
  TempTree tree("arda_oocore_repo");
  WriteFileBytes(tree.data_dir / "t.csv", "a,b,c\n1,2.5,x\n2,,y\n3,7.5,\n");
  WriteFileBytes(tree.data_dir / "u.csv", "k,v\n10,0.5\n20,0.25\n");

  discovery::DataRepository eager;
  discovery::LoadStats warm_stats;
  ASSERT_TRUE(eager
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, &warm_stats)
                  .ok());
  EXPECT_EQ(warm_stats.cache_writes, 2u);

  discovery::DataRepository mapped;
  discovery::LoadOptions options;
  options.map_cache = true;
  discovery::LoadStats stats;
  ASSERT_TRUE(mapped
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), options, &stats)
                  .ok());
  EXPECT_EQ(stats.tables_loaded, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_TRUE(stats.fallbacks.empty());
  ExpectFramesIdentical(eager.GetOrDie("t"), mapped.GetOrDie("t"));
  ExpectFramesIdentical(eager.GetOrDie("u"), mapped.GetOrDie("u"));
  // The persisted stats catalog rides along with the mapped hit too.
  EXPECT_NE(mapped.Stats("t"), nullptr);
}

TEST(RepositoryMapCacheTest, CorruptCacheDegradesToCsv) {
  TempTree tree("arda_oocore_corrupt");
  WriteFileBytes(tree.data_dir / "t.csv", "a\n1\n2\n");
  discovery::DataRepository warm;
  ASSERT_TRUE(warm
                  .LoadDirectory(tree.data_dir.string(),
                                 tree.cache_dir.string(), {}, nullptr)
                  .ok());
  const fs::path cache = tree.cache_dir / "t.ardac";
  std::string valid;
  {
    std::ifstream in(cache, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Little-endian u32 header fields: 4 = format version, 16 = column
  // count.
  auto with_header_u32 = [&](size_t offset, uint32_t value) {
    std::string bytes = valid;
    for (size_t i = 0; i < 4; ++i) {
      bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    return bytes;
  };
  std::string bad_index = valid;
  bad_index[52] = '\xff';  // inside the column index: checksum mismatch
  const std::string damaged[] = {
      bad_index,
      with_header_u32(16, 0x7fffffff),  // implausible column count
      with_header_u32(4, 2),            // retired format version
  };
  for (size_t i = 0; i < std::size(damaged); ++i) {
    SCOPED_TRACE(i);
    WriteFileBytes(cache, damaged[i]);
    discovery::DataRepository repo;
    discovery::LoadOptions options;
    options.map_cache = true;
    discovery::LoadStats stats;
    ASSERT_TRUE(repo
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), options, &stats)
                    .ok());
    EXPECT_TRUE(repo.Has("t"));
    EXPECT_EQ(stats.cache_hits, 0u);
    ASSERT_EQ(stats.fallbacks.size(), 1u);
    EXPECT_EQ(repo.GetOrDie("t").col("a").Int64At(1), 2);
    // The cache is rewritten as a valid v3 file, so the next mapped load
    // is a hit.
    EXPECT_EQ(stats.cache_writes, 1u);
    discovery::DataRepository next;
    discovery::LoadStats next_stats;
    ASSERT_TRUE(next
                    .LoadDirectory(tree.data_dir.string(),
                                   tree.cache_dir.string(), options,
                                   &next_stats)
                    .ok());
    EXPECT_EQ(next_stats.cache_hits, 1u);
    EXPECT_TRUE(next_stats.fallbacks.empty());
  }
}

// --- radix partitioning primitives ---

TEST(PartitionTest, EveryRowLandsInExactlyOnePartitionAscending) {
  DataFrame frame;
  std::vector<int64_t> keys;
  std::vector<double> soft;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(i % 23);
    soft.push_back(static_cast<double>(i % 7) * 1.5);
  }
  ASSERT_TRUE(frame.AddColumn(Column::Int64("k", keys)).ok());
  ASSERT_TRUE(frame.AddColumn(Column::Double("s", soft)).ok());

  std::vector<PartitionKeySpec> specs(2);
  specs[0].col = 0;
  specs[0].native = true;
  specs[1].col = 1;
  specs[1].granularity = 2.0;
  for (size_t p : {size_t{1}, size_t{2}, size_t{7}}) {
    std::vector<std::vector<size_t>> parts =
        PartitionRowsByKey(frame, specs, p);
    ASSERT_EQ(parts.size(), p);
    std::set<size_t> seen;
    for (const std::vector<size_t>& rows : parts) {
      for (size_t j = 0; j < rows.size(); ++j) {
        if (j > 0) EXPECT_LT(rows[j - 1], rows[j]);
        EXPECT_TRUE(seen.insert(rows[j]).second) << "row " << rows[j];
      }
    }
    EXPECT_EQ(seen.size(), frame.NumRows());
    // Equal keys colocate: rows with identical key tuples share a
    // partition (the property the per-partition build/probe relies on).
    std::vector<size_t> partition_of(frame.NumRows());
    for (size_t pi = 0; pi < parts.size(); ++pi) {
      for (size_t row : parts[pi]) partition_of[row] = pi;
    }
    for (size_t r = 0; r < frame.NumRows(); ++r) {
      // i % 23 and bucket(i % 7 * 1.5, 2.0) repeat with period 161.
      if (r + 161 < frame.NumRows()) {
        EXPECT_EQ(partition_of[r], partition_of[r + 161]) << "row " << r;
      }
    }
  }
}

TEST(PartitionTest, ChoosePartitionCountScalesWithBudget) {
  EXPECT_EQ(ChoosePartitionCount(5, 1000, 10), 5u);  // explicit wins
  EXPECT_EQ(ChoosePartitionCount(0, 0, 1 << 30), 1u);  // no budget
  EXPECT_EQ(ChoosePartitionCount(0, 100, 50), 1u);
  EXPECT_EQ(ChoosePartitionCount(0, 100, 250), 3u);
  EXPECT_EQ(ChoosePartitionCount(0, 1, uint64_t{1} << 40), 256u);  // clamp
}

TEST(PartitionTest, MemoryBudgetForcesPartitioningWithIdenticalOutput) {
  Rng rng(13);
  DataFrame frame;
  std::vector<int64_t> keys;
  std::vector<double> vals;
  Column tags = Column::Empty("t", DataType::kString);
  for (int i = 0; i < 500; ++i) {
    keys.push_back(i % 37);
    vals.push_back(rng.Normal());
    tags.AppendString(i % 3 == 0 ? "odd" : "even");
  }
  ASSERT_TRUE(frame.AddColumn(Column::Int64("k", keys)).ok());
  ASSERT_TRUE(frame.AddColumn(Column::Double("v", vals)).ok());
  ASSERT_TRUE(frame.AddColumn(std::move(tags)).ok());

  AggregateOptions single;
  Result<DataFrame> reference = GroupByAggregate(frame, {"k"}, single);
  ASSERT_TRUE(reference.ok());

  AggregateOptions budgeted;
  budgeted.memory_budget_bytes = 64;  // far below the frame estimate
  Result<DataFrame> bounded = GroupByAggregate(frame, {"k"}, budgeted);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(WriteCsvString(*reference), WriteCsvString(*bounded));

  for (size_t p : {size_t{1}, size_t{2}, size_t{7}}) {
    AggregateOptions pinned;
    pinned.partition_count = p;
    Result<DataFrame> parts = GroupByAggregate(frame, {"k"}, pinned);
    ASSERT_TRUE(parts.ok()) << "partitions " << p;
    EXPECT_EQ(WriteCsvString(*reference), WriteCsvString(*parts))
        << "partitions " << p;
  }
}

TEST(PartitionTest, JoinMemoryBudgetIsBitInvariant) {
  // Hard join with duplicate foreign keys (forces the partitioned
  // dup-detect + pre-aggregate + probe pipeline) and null keys on both
  // sides; the budgeted output must match the single-pass bytes exactly.
  Rng rng(29);
  DataFrame base;
  {
    Column id = Column::Empty("id", DataType::kInt64);
    Column city = Column::Empty("city", DataType::kString);
    Column y = Column::Empty("y", DataType::kDouble);
    static const char* kCities[] = {"ann arbor", "boston", "cambridge"};
    for (int i = 0; i < 150; ++i) {
      if (i % 13 == 12) {
        id.AppendNull();
      } else {
        id.AppendInt64(i % 31);
      }
      city.AppendString(kCities[i % 3]);
      y.AppendDouble(rng.Normal());
    }
    ASSERT_TRUE(base.AddColumn(std::move(id)).ok());
    ASSERT_TRUE(base.AddColumn(std::move(city)).ok());
    ASSERT_TRUE(base.AddColumn(std::move(y)).ok());
  }
  DataFrame foreign;
  {
    Column fid = Column::Empty("fid", DataType::kInt64);
    Column fcity = Column::Empty("fcity", DataType::kString);
    Column score = Column::Empty("score", DataType::kDouble);
    static const char* kCities[] = {"ann arbor", "boston", "cambridge"};
    for (int i = 0; i < 220; ++i) {
      if (i % 17 == 16) {
        fid.AppendNull();
      } else {
        fid.AppendInt64(i % 31);  // duplicates force pre-aggregation
      }
      fcity.AppendString(kCities[i % 3]);
      if (i % 11 == 10) {
        score.AppendNull();
      } else {
        score.AppendDouble(rng.Normal());
      }
    }
    ASSERT_TRUE(foreign.AddColumn(std::move(fid)).ok());
    ASSERT_TRUE(foreign.AddColumn(std::move(fcity)).ok());
    ASSERT_TRUE(foreign.AddColumn(std::move(score)).ok());
  }
  discovery::CandidateJoin cand;
  cand.foreign_table = "aug";
  cand.keys = {
      discovery::JoinKeyPair{"id", "fid", discovery::KeyKind::kHard},
      discovery::JoinKeyPair{"city", "fcity", discovery::KeyKind::kHard}};

  Rng jrng(3);
  Result<DataFrame> reference =
      join::ExecuteLeftJoin(base, foreign, cand, {}, &jrng);
  ASSERT_TRUE(reference.ok());
  const std::string reference_csv = WriteCsvString(*reference);

  join::JoinOptions budgeted;
  budgeted.memory_budget_bytes = 64;
  Rng brng(3);
  Result<DataFrame> bounded =
      join::ExecuteLeftJoin(base, foreign, cand, budgeted, &brng);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(reference_csv, WriteCsvString(*bounded));

  for (size_t p : {size_t{1}, size_t{2}, size_t{7}}) {
    join::JoinOptions pinned;
    pinned.partition_count = p;
    Rng prng(3);
    Result<DataFrame> parts =
        join::ExecuteLeftJoin(base, foreign, cand, pinned, &prng);
    ASSERT_TRUE(parts.ok()) << "partitions " << p;
    EXPECT_EQ(reference_csv, WriteCsvString(*parts)) << "partitions " << p;
  }
}

// --- ParseByteSize: the --memory-budget spelling ---

TEST(ParseByteSizeTest, ParsesSuffixesAndRejectsGarbage) {
  uint64_t out = 0;
  EXPECT_TRUE(ParseByteSize("0", &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(ParseByteSize("12345", &out));
  EXPECT_EQ(out, 12345u);
  EXPECT_TRUE(ParseByteSize("64k", &out));
  EXPECT_EQ(out, 64u << 10);
  EXPECT_TRUE(ParseByteSize("3M", &out));
  EXPECT_EQ(out, uint64_t{3} << 20);
  EXPECT_TRUE(ParseByteSize("2g", &out));
  EXPECT_EQ(out, uint64_t{2} << 30);
  EXPECT_TRUE(ParseByteSize(" 8m ", &out));
  EXPECT_EQ(out, uint64_t{8} << 20);
  EXPECT_FALSE(ParseByteSize("", &out));
  EXPECT_FALSE(ParseByteSize("k", &out));
  EXPECT_FALSE(ParseByteSize("-1", &out));
  EXPECT_FALSE(ParseByteSize("1.5g", &out));
  EXPECT_FALSE(ParseByteSize("10q", &out));
  EXPECT_FALSE(ParseByteSize("64kb", &out));
  EXPECT_FALSE(ParseByteSize("99999999999999999999g", &out));
}

}  // namespace
}  // namespace arda::df
