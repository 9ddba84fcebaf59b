#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "dataframe/column.h"
#include "dataframe/data_frame.h"
#include "dataframe/key_encoder.h"
#include "util/rng.h"

namespace arda::df {
namespace {

Column MakeDoubles() {
  return Column::Double("d", {1.0, 2.0, 3.0});
}

TEST(ColumnTest, TypedConstructionAndAccess) {
  Column d = Column::Double("d", {1.5, 2.5});
  EXPECT_EQ(d.type(), DataType::kDouble);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.DoubleAt(1), 2.5);

  Column i = Column::Int64("i", {7, -2});
  EXPECT_EQ(i.Int64At(0), 7);
  EXPECT_DOUBLE_EQ(i.NumericAt(1), -2.0);

  Column s = Column::String("s", {"a", "b"});
  EXPECT_EQ(s.StringAt(1), "b");
  EXPECT_FALSE(s.IsNumeric());
}

TEST(ColumnTest, NullsTracked) {
  Column c = Column::Empty("c", DataType::kDouble);
  c.AppendDouble(1.0);
  c.AppendNull();
  c.AppendDouble(3.0);
  EXPECT_EQ(c.NullCount(), 1u);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(0));
  c.SetDouble(1, 2.0);
  EXPECT_EQ(c.NullCount(), 0u);
  c.SetNull(0);
  EXPECT_TRUE(c.IsNull(0));
}

TEST(ColumnTest, AppendFromPreservesNulls) {
  Column src = Column::Empty("x", DataType::kString);
  src.AppendString("v");
  src.AppendNull();
  Column dst = Column::Empty("x", DataType::kString);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_EQ(dst.StringAt(0), "v");
  EXPECT_TRUE(dst.IsNull(1));
}

TEST(ColumnTest, TakeReordersAndRepeats) {
  Column c = MakeDoubles();
  Column t = c.Take({2, 0, 0});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.DoubleAt(0), 3.0);
  EXPECT_DOUBLE_EQ(t.DoubleAt(1), 1.0);
  EXPECT_DOUBLE_EQ(t.DoubleAt(2), 1.0);
}

TEST(ColumnTest, MedianOddAndEven) {
  Column odd = Column::Double("o", {5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(odd.NumericMedian(), 3.0);
  Column even = Column::Double("e", {4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.NumericMedian(), 2.5);
}

TEST(ColumnTest, MedianIgnoresNulls) {
  Column c = Column::Empty("c", DataType::kDouble);
  c.AppendDouble(10.0);
  c.AppendNull();
  c.AppendDouble(20.0);
  EXPECT_DOUBLE_EQ(c.NumericMedian(), 15.0);
  EXPECT_DOUBLE_EQ(c.NumericMean(), 15.0);
}

TEST(ColumnTest, EmptyNumericStatsAreZero) {
  Column c = Column::Empty("c", DataType::kDouble);
  EXPECT_DOUBLE_EQ(c.NumericMedian(), 0.0);
  EXPECT_DOUBLE_EQ(c.NumericMean(), 0.0);
}

TEST(ColumnTest, DistinctValuesSortedAndNullFree) {
  Column c = Column::Empty("c", DataType::kString);
  c.AppendString("b");
  c.AppendString("a");
  c.AppendNull();
  c.AppendString("b");
  std::vector<std::string> distinct = c.DistinctValuesAsString();
  ASSERT_EQ(distinct.size(), 2u);
  EXPECT_EQ(distinct[0], "a");
  EXPECT_EQ(distinct[1], "b");
}

TEST(ColumnTest, ValueToString) {
  Column d = Column::Double("d", {2.5});
  EXPECT_EQ(d.ValueToString(0), "2.5");
  Column i = Column::Int64("i", {-3});
  EXPECT_EQ(i.ValueToString(0), "-3");
  Column n = Column::Empty("n", DataType::kDouble);
  n.AppendNull();
  EXPECT_EQ(n.ValueToString(0), "");
}

TEST(DataFrameTest, AddColumnEnforcesInvariants) {
  DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(MakeDoubles()).ok());
  // Duplicate name.
  EXPECT_EQ(frame.AddColumn(MakeDoubles()).code(),
            StatusCode::kAlreadyExists);
  // Length mismatch.
  EXPECT_EQ(frame.AddColumn(Column::Double("e", {1.0})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(frame.NumRows(), 3u);
  EXPECT_EQ(frame.NumCols(), 1u);
}

DataFrame MakeFrame() {
  DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(Column::Int64("id", {1, 2, 3})).ok());
  EXPECT_TRUE(frame.AddColumn(Column::Double("v", {0.1, 0.2, 0.3})).ok());
  EXPECT_TRUE(frame.AddColumn(Column::String("s", {"x", "y", "z"})).ok());
  return frame;
}

TEST(DataFrameTest, ColumnLookup) {
  DataFrame frame = MakeFrame();
  EXPECT_TRUE(frame.HasColumn("v"));
  EXPECT_FALSE(frame.HasColumn("nope"));
  EXPECT_EQ(frame.ColumnIndex("s"), 2u);
  EXPECT_EQ(frame.ColumnIndex("nope"), DataFrame::kNpos);
  EXPECT_EQ(frame.col("id").Int64At(2), 3);
}

TEST(DataFrameTest, SchemaAndNames) {
  DataFrame frame = MakeFrame();
  std::vector<Field> schema = frame.schema();
  ASSERT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema[1].name, "v");
  EXPECT_EQ(schema[1].type, DataType::kDouble);
  EXPECT_EQ(frame.ColumnNames(),
            (std::vector<std::string>{"id", "v", "s"}));
}

TEST(DataFrameTest, TakeSelectsRows) {
  DataFrame frame = MakeFrame();
  DataFrame taken = frame.Take({2, 0});
  EXPECT_EQ(taken.NumRows(), 2u);
  EXPECT_EQ(taken.col("s").StringAt(0), "z");
  EXPECT_EQ(taken.col("id").Int64At(1), 1);
}

TEST(DataFrameTest, SelectAndDrop) {
  DataFrame frame = MakeFrame();
  Result<DataFrame> selected = frame.Select({"s", "id"});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->ColumnNames(),
            (std::vector<std::string>{"s", "id"}));
  EXPECT_FALSE(frame.Select({"missing"}).ok());

  DataFrame dropped = frame.Drop({"v", "not_there"});
  EXPECT_EQ(dropped.NumCols(), 2u);
  EXPECT_FALSE(dropped.HasColumn("v"));
}

TEST(DataFrameTest, RemoveAndRename) {
  DataFrame frame = MakeFrame();
  EXPECT_TRUE(frame.RemoveColumn("v").ok());
  EXPECT_FALSE(frame.RemoveColumn("v").ok());
  EXPECT_TRUE(frame.RenameColumn("s", "label").ok());
  EXPECT_TRUE(frame.HasColumn("label"));
  EXPECT_FALSE(frame.RenameColumn("label", "id").ok());  // collision
}

TEST(DataFrameTest, HStackPrefixesCollisions) {
  DataFrame a = MakeFrame();
  DataFrame b = MakeFrame();
  ASSERT_TRUE(a.HStack(b, "t.").ok());
  EXPECT_EQ(a.NumCols(), 6u);
  EXPECT_TRUE(a.HasColumn("t.id"));
  EXPECT_TRUE(a.HasColumn("t.v"));
}

TEST(DataFrameTest, HStackRowMismatchFails) {
  DataFrame a = MakeFrame();
  DataFrame b;
  ASSERT_TRUE(b.AddColumn(Column::Double("w", {1.0})).ok());
  EXPECT_FALSE(a.HStack(b, "t.").ok());
}

TEST(DataFrameTest, VStackAppendsRows) {
  DataFrame a = MakeFrame();
  DataFrame b = MakeFrame();
  ASSERT_TRUE(a.VStack(b).ok());
  EXPECT_EQ(a.NumRows(), 6u);
  EXPECT_EQ(a.col("s").StringAt(5), "z");
}

TEST(DataFrameTest, VStackSchemaMismatchFails) {
  DataFrame a = MakeFrame();
  DataFrame b = MakeFrame();
  ASSERT_TRUE(b.RenameColumn("v", "w").ok());
  EXPECT_FALSE(a.VStack(b).ok());
}

TEST(DataFrameTest, HeadRendersTable) {
  DataFrame frame = MakeFrame();
  std::string head = frame.Head(2);
  EXPECT_NE(head.find("id"), std::string::npos);
  EXPECT_NE(head.find("0.1"), std::string::npos);
  EXPECT_EQ(head.find("0.3"), std::string::npos);  // only 2 rows shown
}

// The KeyEncoder equality rule spelled as text, for the hash-map oracle:
// one field per key column, null as a marker no rendered value carries.
std::string OracleKey(const DataFrame& frame, const std::vector<size_t>& cols,
                      size_t row) {
  std::string key;
  for (size_t c : cols) {
    const Column& col = frame.col(c);
    key += col.IsNull(row) ? "\x01" : "\x02" + col.ValueToString(row);
    key += '\x1f';
  }
  return key;
}

TEST(KeyEncoderTest, ProbeAllMatchesProbeAndHashMapOracle) {
  // Int64 (native dictionary), string (rendered dictionary) and composite
  // keys, with nulls on both sides. The probe side draws from wider
  // ranges than the build side, so it misses the column dictionaries and,
  // for the composite key, pairs known values into unknown tuples.
  // Thousands of rows in tables sized to twice the row count leave many
  // home slots taken by another key, so lookups walk past collisions.
  Rng rng(515);
  auto make = [&](size_t rows, uint64_t id_range, uint64_t city_range) {
    Column id = Column::Empty("id", DataType::kInt64);
    Column city = Column::Empty("city", DataType::kString);
    for (size_t r = 0; r < rows; ++r) {
      if (rng.UniformUint64(20) == 0) {
        id.AppendNull();
      } else {
        id.AppendInt64(static_cast<int64_t>(rng.UniformUint64(id_range)) -
                       100);
      }
      if (rng.UniformUint64(20) == 0) {
        city.AppendNull();
      } else {
        city.AppendString("c" + std::to_string(rng.UniformUint64(city_range)));
      }
    }
    DataFrame frame;
    EXPECT_TRUE(frame.AddColumn(std::move(id)).ok());
    EXPECT_TRUE(frame.AddColumn(std::move(city)).ok());
    return frame;
  };
  const DataFrame build = make(4000, 1500, 60);
  const DataFrame probe = make(6000, 2500, 90);

  const struct {
    const char* name;
    std::vector<size_t> cols;
  } key_sets[] = {{"int64", {0}}, {"string", {1}}, {"composite", {0, 1}}};
  for (const auto& [name, cols] : key_sets) {
    SCOPED_TRACE(name);
    // Oracle: group ids in first-occurrence order over the build rows.
    std::unordered_map<std::string, uint64_t> oracle;
    for (size_t r = 0; r < build.NumRows(); ++r) {
      const std::string key = OracleKey(build, cols, r);
      if (oracle.count(key) == 0) {
        const uint64_t gid = oracle.size();
        oracle[key] = gid;
      }
    }
    KeyEncoder encoder(build, cols);
    ASSERT_EQ(encoder.num_groups(), oracle.size());
    for (size_t r = 0; r < build.NumRows(); ++r) {
      ASSERT_EQ(encoder.GroupOf(r), oracle.at(OracleKey(build, cols, r)));
    }

    std::vector<uint64_t> all(probe.NumRows());
    encoder.ProbeAll(probe, cols, all.data());
    size_t hits = 0;
    for (size_t r = 0; r < probe.NumRows(); ++r) {
      auto it = oracle.find(OracleKey(probe, cols, r));
      const uint64_t expected =
          it == oracle.end() ? KeyEncoder::kMiss : it->second;
      ASSERT_EQ(all[r], expected) << "row " << r;
      ASSERT_EQ(encoder.Probe(probe, cols, r), expected) << "row " << r;
      if (expected != KeyEncoder::kMiss) ++hits;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, probe.NumRows());
  }
}

}  // namespace
}  // namespace arda::df
