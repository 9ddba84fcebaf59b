// Hot-path kernel benchmarks: single-thread decision-tree fitting on the
// Table-6 micro config (digits + 10x injected noise) and composite-key
// hash-join / group-by row throughput. These are the two kernels every
// ARDA layer bottoms out in (forest ranking, RIFS, join execution), so
// their single-thread cost gates the whole pipeline.
//
// Timings are emitted either as an aligned table or, with --json, as a
// machine-readable record that tools/run_bench.sh archives into
// BENCH_*.json trajectory files (see docs/benchmarks.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <cstring>

#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "bench/bench_common.h"
#include "data/generators.h"
#include "dataframe/aggregate.h"
#include "dataframe/columnar_io.h"
#include "dataframe/csv.h"
#include "dataframe/mapped_columnar.h"
#include "discovery/discovery.h"
#include "discovery/repository.h"
#include "join/join_executor.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "simd/aligned.h"
#include "simd/simd.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace arda::bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KernelResult {
  std::string name;
  double seconds = 0.0;        // best-of-N wall time for one repetition
  double items_per_second = 0.0;
  uint64_t checksum = 0;       // output fingerprint (guards dead-code elim)
};

// Times one call of `fn` (returning a checksum) into `result`, keeping
// the best time seen so far.
template <typename Fn>
void TimeRep(Fn&& fn, KernelResult* result) {
  double start = NowSeconds();
  result->checksum = fn();
  double elapsed = NowSeconds() - start;
  if (elapsed < result->seconds) result->seconds = elapsed;
}

void SetThroughput(size_t items, KernelResult* result) {
  if (result->seconds > 0.0) {
    result->items_per_second = static_cast<double>(items) / result->seconds;
  }
}

// Runs `fn` (returning a checksum) `reps` times and keeps the best time.
template <typename Fn>
KernelResult Measure(const std::string& name, size_t items, size_t reps,
                     Fn&& fn) {
  KernelResult result;
  result.name = name;
  result.seconds = 1e300;
  for (size_t i = 0; i < reps; ++i) TimeRep(fn, &result);
  SetThroughput(items, &result);
  return result;
}

df::DataFrame MakeJoinTable(size_t rows, size_t key_space, size_t values,
                            uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids(rows);
  std::vector<std::string> cities(rows);
  static const char* kCities[] = {"boston", "cambridge", "somerville",
                                  "medford", "quincy", "newton",
                                  "brookline", "waltham"};
  for (size_t i = 0; i < rows; ++i) {
    ids[i] = static_cast<int64_t>(rng.UniformUint64(key_space));
    cities[i] = kCities[rng.UniformUint64(8)];
  }
  df::DataFrame table;
  ARDA_CHECK(table.AddColumn(df::Column::Int64("id", std::move(ids))).ok());
  ARDA_CHECK(
      table.AddColumn(df::Column::String("city", std::move(cities))).ok());
  for (size_t c = 0; c < values; ++c) {
    std::vector<double> col(rows);
    for (double& x : col) x = rng.Normal();
    ARDA_CHECK(
        table.AddColumn(df::Column::Double("v" + std::to_string(c), col))
            .ok());
  }
  return table;
}

// Mixed-type table shaped like real ingest input: int64 ids, doubles,
// low-cardinality strings, and ~5% nulls in every non-key column.
df::DataFrame MakeMixedTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  static const char* kCities[] = {"boston", "cambridge", "somerville",
                                  "medford", "quincy", "newton",
                                  "brookline", "waltham"};
  df::Column id = df::Column::Empty("id", df::DataType::kInt64);
  df::Column value = df::Column::Empty("value", df::DataType::kDouble);
  df::Column count = df::Column::Empty("count", df::DataType::kInt64);
  df::Column city = df::Column::Empty("city", df::DataType::kString);
  for (size_t r = 0; r < rows; ++r) {
    id.AppendInt64(static_cast<int64_t>(r));
    if (rng.UniformUint64(20) == 0) {
      value.AppendNull();
    } else {
      value.AppendDouble(rng.Normal());
    }
    if (rng.UniformUint64(20) == 0) {
      count.AppendNull();
    } else {
      count.AppendInt64(static_cast<int64_t>(rng.UniformUint64(1000)));
    }
    if (rng.UniformUint64(20) == 0) {
      city.AppendNull();
    } else {
      city.AppendString(kCities[rng.UniformUint64(8)]);
    }
  }
  df::DataFrame table;
  ARDA_CHECK(table.AddColumn(std::move(id)).ok());
  ARDA_CHECK(table.AddColumn(std::move(value)).ok());
  ARDA_CHECK(table.AddColumn(std::move(count)).ok());
  ARDA_CHECK(table.AddColumn(std::move(city)).ok());
  return table;
}

uint64_t HashFrame(const df::DataFrame& frame) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t c = 0; c < frame.NumCols(); ++c) {
    const df::Column& col = frame.col(c);
    for (size_t r = 0; r < col.size(); ++r) {
      std::string v = col.IsNull(r) ? "\x01" : col.ValueToString(r);
      for (char ch : v) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

std::vector<KernelResult> RunAll(const BenchOptions& options, bool smoke) {
  std::vector<KernelResult> results;
  const size_t reps = smoke ? 1 : 3;

  // --- Decision-tree fit, Table-6 micro config (digits + noise). ---
  {
    double multiplier = smoke ? 2.0 : 10.0;
    data::MicroBenchmark digits =
        data::MakeDigitsBenchmark(options.seed, multiplier);
    ml::TreeConfig config;
    config.task = ml::TaskType::kClassification;
    config.seed = options.seed;
    const size_t cells = digits.data.NumRows() * digits.data.NumFeatures();
    results.push_back(Measure(
        "tree_fit_digits", cells, reps, [&]() -> uint64_t {
          ml::DecisionTree tree(config);
          tree.Fit(digits.data.x, digits.data.y);
          return tree.NumNodes();
        }));
  }

  // --- Regression tree fit (dense synthetic, all features per node). ---
  {
    Rng rng(options.seed ^ 0x51ULL);
    const size_t rows = smoke ? 500 : 2000;
    const size_t cols = smoke ? 40 : 120;
    la::Matrix x(rows, cols);
    std::vector<double> y(rows);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) x(r, c) = rng.Normal();
      y[r] = x(r, 0) - 0.5 * x(r, 1) + rng.Normal(0.0, 0.1);
    }
    ml::TreeConfig config;
    config.task = ml::TaskType::kRegression;
    config.seed = options.seed;
    results.push_back(
        Measure("tree_fit_regression", rows * cols, reps, [&]() -> uint64_t {
          ml::DecisionTree tree(config);
          tree.Fit(x, y);
          return tree.NumNodes();
        }));
  }

  // --- Single-thread random-forest fit (sqrt feature sampling). ---
  {
    data::MicroBenchmark digits =
        data::MakeDigitsBenchmark(options.seed, smoke ? 2.0 : 10.0);
    ml::ForestConfig config;
    config.task = ml::TaskType::kClassification;
    config.num_trees = smoke ? 4 : 10;
    config.num_threads = 1;
    config.seed = options.seed;
    const size_t cells = digits.data.NumRows() * digits.data.NumFeatures();
    results.push_back(Measure(
        "forest_fit_digits_1thread", cells, reps, [&]() -> uint64_t {
          ml::RandomForest forest(config);
          forest.Fit(digits.data.x, digits.data.y);
          return static_cast<uint64_t>(
              forest.feature_importances().size());
        }));
  }

  // --- Composite-key hash join (int64 + string hard keys). ---
  {
    const size_t rows = smoke ? 20000 : 200000;
    df::DataFrame base = MakeJoinTable(rows, rows / 2, 2, 101);
    df::DataFrame foreign = MakeJoinTable(rows, rows / 2, 4, 202);
    discovery::CandidateJoin cand;
    cand.foreign_table = "f";
    cand.keys = {
        discovery::JoinKeyPair{"id", "id", discovery::KeyKind::kHard},
        discovery::JoinKeyPair{"city", "city", discovery::KeyKind::kHard}};
    results.push_back(
        Measure("hash_join_composite", rows, reps, [&]() -> uint64_t {
          Rng rng(3);
          auto joined = join::ExecuteLeftJoin(base, foreign, cand, {}, &rng);
          ARDA_CHECK(joined.ok());
          return joined.value().NumRows();
        }));
  }

  // --- Group-by aggregation on a composite key. ---
  {
    const size_t rows = smoke ? 20000 : 200000;
    df::DataFrame table = MakeJoinTable(rows, rows / 8, 4, 303);
    results.push_back(
        Measure("group_by_composite", rows, reps, [&]() -> uint64_t {
          auto grouped = df::GroupByAggregate(table, {"id", "city"});
          ARDA_CHECK(grouped.ok());
          return grouped.value().NumRows();
        }));
  }

  // --- Ingest: chunked CSV parse vs. binary columnar cache. The ratio
  // csv_read_mixed / columnar_read_mixed is the repeat-run speedup the
  // .ardac table cache buys (acceptance floor: 2x, tracked in
  // BENCH_PR5.json). ---
  {
    namespace fs = std::filesystem;
    const size_t rows = smoke ? 10000 : 100000;
    df::DataFrame table = MakeMixedTable(rows, options.seed ^ 0x1157ULL);
    const fs::path dir = fs::temp_directory_path();
    const std::string csv_path = (dir / "arda_bench_ingest.csv").string();
    const std::string ardac_path =
        (dir / "arda_bench_ingest.ardac").string();
    ARDA_CHECK(df::WriteCsvFile(table, csv_path).ok());
    // The frames are hashed outside the timed region (per-cell string
    // formatting would otherwise dominate both timings and flatten the
    // csv-vs-columnar ratio); the hash still lands in the JSON checksum
    // and both paths must agree on it.
    df::DataFrame from_csv, from_columnar;
    results.push_back(
        Measure("csv_read_mixed", rows, reps, [&]() -> uint64_t {
          auto frame = df::ReadCsvFile(csv_path);
          ARDA_CHECK(frame.ok());
          from_csv = std::move(frame).value();
          return from_csv.NumRows();
        }));
    results.back().checksum = HashFrame(from_csv);
    const uint64_t csv_hash = results.back().checksum;
    results.push_back(
        Measure("columnar_write_mixed", rows, reps, [&]() -> uint64_t {
          ARDA_CHECK(df::WriteColumnar(table, ardac_path).ok());
          return rows;
        }));
    results.push_back(
        Measure("columnar_read_mixed", rows, reps, [&]() -> uint64_t {
          auto frame = df::ReadColumnar(ardac_path);
          ARDA_CHECK(frame.ok());
          from_columnar = std::move(frame).value();
          return from_columnar.NumRows();
        }));
    results.back().checksum = HashFrame(from_columnar);
    ARDA_CHECK(results.back().checksum == csv_hash);
    // Mapped open of the same cache file: the timed region covers what an
    // out-of-core load pays per table — header + column-index validation
    // and the eager string-column decode — while the numeric payload
    // stays untouched until the hash outside the timed region faults it
    // in. The ratio columnar_read_mixed / columnar_map_mixed is the
    // open-cost saving mmap buys (tracked in BENCH_PR10.json); the
    // checksum must still match the CSV parse byte for byte.
    df::DataFrame from_mapped;
    results.push_back(
        Measure("columnar_map_mixed", rows, reps, [&]() -> uint64_t {
          auto frame = df::MapColumnar(ardac_path);
          ARDA_CHECK(frame.ok());
          from_mapped = std::move(frame).value();
          return from_mapped.NumRows();
        }));
    results.back().checksum = HashFrame(from_mapped);
    ARDA_CHECK(results.back().checksum == csv_hash);
    // Drop the live mapping before unlinking its file.
    from_mapped = df::DataFrame();
    std::error_code ec;
    fs::remove(csv_path, ec);
    fs::remove(ardac_path, ec);
  }

  // --- Discovery scoring: exact value rescan vs. statistics catalog.
  // The ratio discovery_exact_rescan / discovery_catalog is the speedup
  // the sketch-backed catalog buys on a wide repository (acceptance
  // floor: 5x on the >=200-table pool, tracked in BENCH_PR6.json). ---
  {
    const size_t tables = smoke ? 40 : 220;
    const size_t rows = smoke ? 500 : 2000;
    Rng rng(options.seed ^ 0xD15CULL);
    discovery::DataRepository repo;
    df::DataFrame base;
    std::vector<int64_t> base_ids(rows);
    for (size_t i = 0; i < rows; ++i) {
      base_ids[i] = static_cast<int64_t>(i);
    }
    std::vector<double> y(rows);
    for (double& v : y) v = rng.Normal();
    ARDA_CHECK(base.AddColumn(df::Column::Int64("id", base_ids)).ok());
    ARDA_CHECK(base.AddColumn(df::Column::Double("y", y)).ok());
    ARDA_CHECK(repo.Add("base", std::move(base)).ok());
    for (size_t t = 0; t < tables; ++t) {
      // Shift each table's key domain so containment against the base
      // spans the full [0, 1] range across the pool.
      const int64_t offset = static_cast<int64_t>((t * rows) / tables);
      std::vector<int64_t> ids(rows);
      for (size_t i = 0; i < rows; ++i) {
        ids[i] = offset + static_cast<int64_t>(i);
      }
      std::vector<double> v(rows);
      for (double& x : v) x = rng.Normal();
      df::DataFrame foreign;
      ARDA_CHECK(foreign.AddColumn(df::Column::Int64("id", ids)).ok());
      ARDA_CHECK(
          foreign
              .AddColumn(df::Column::Double("v" + std::to_string(t), v))
              .ok());
      ARDA_CHECK(repo.Add("t" + std::to_string(t), std::move(foreign)).ok());
    }
    // The real pipeline computes the catalog once at ingest (or loads it
    // from the .ardac meta block); warm it outside the timed region so
    // the kernels compare scoring cost, not stats computation.
    for (const std::string& name : repo.Names()) repo.Stats(name);
    // Candidate-order fingerprint: cross-run determinism per mode is what
    // tools/run_bench.sh verifies.
    auto fingerprint =
        [](const std::vector<discovery::CandidateJoin>& candidates) {
          uint64_t h = 1469598103934665603ULL;
          auto mix = [&h](const std::string& s) {
            for (char ch : s) {
              h ^= static_cast<unsigned char>(ch);
              h *= 1099511628211ULL;
            }
            h ^= '|';
            h *= 1099511628211ULL;
          };
          for (const discovery::CandidateJoin& c : candidates) {
            mix(c.foreign_table);
            for (const discovery::JoinKeyPair& k : c.keys) {
              mix(k.base_column);
              mix(k.foreign_column);
            }
          }
          return h;
        };
    discovery::DiscoveryOptions exact_options;
    exact_options.scoring = discovery::DiscoveryScoring::kExact;
    results.push_back(Measure(
        "discovery_exact_rescan", tables, reps, [&]() -> uint64_t {
          return fingerprint(discovery::DiscoverCandidates(
              repo, "base", "y", exact_options));
        }));
    const discovery::DiscoveryOptions catalog_options;  // default scoring
    results.push_back(Measure(
        "discovery_catalog", tables, reps, [&]() -> uint64_t {
          return fingerprint(discovery::DiscoverCandidates(
              repo, "base", "y", catalog_options));
        }));
  }

  // --- End-to-end join + aggregate checksum workload (output hash). ---
  {
    const size_t rows = smoke ? 5000 : 40000;
    df::DataFrame table = MakeJoinTable(rows, rows / 8, 3, 404);
    results.push_back(
        Measure("group_by_hash_fingerprint", rows, 1, [&]() -> uint64_t {
          auto grouped = df::GroupByAggregate(table, {"id", "city"});
          ARDA_CHECK(grouped.ok());
          return HashFrame(grouped.value());
        }));
  }

  // --- Scalar-vs-SIMD dispatch pairs: the same workload pinned to each
  // dispatch level (<name>_scalar / <name>_avx2). Checksums must match
  // bit for bit — the pair is also a determinism check — and the
  // --assert-simd-floor flag (the perfsmoke lane) requires >=2x on every
  // pair. The two levels alternate rep by rep and each keeps its best of
  // 9 reps (1 with --smoke), so a slow stretch of a shared machine lands
  // on both sides instead of on one. The _avx2 rows are omitted on
  // machines without AVX2. ---
  {
    struct LevelRestore {
      simd::SimdLevel prev = simd::ActiveLevel();
      ~LevelRestore() { simd::SetLevel(prev); }
    } restore;
    const size_t pair_reps = smoke ? 1 : 9;
    auto measure_pair = [&](const std::string& name, size_t items,
                            const std::function<uint64_t()>& fn) {
      const bool avx2 = simd::Avx2Supported();
      KernelResult scalar_result{name + "_scalar", 1e300, 0.0, 0};
      KernelResult avx2_result{name + "_avx2", 1e300, 0.0, 0};
      for (size_t i = 0; i < pair_reps; ++i) {
        ARDA_CHECK(simd::SetLevel(simd::SimdLevel::kScalar));
        TimeRep(fn, &scalar_result);
        if (avx2) {
          ARDA_CHECK(simd::SetLevel(simd::SimdLevel::kAvx2));
          TimeRep(fn, &avx2_result);
          ARDA_CHECK(avx2_result.checksum == scalar_result.checksum);
        }
      }
      SetThroughput(items, &scalar_result);
      results.push_back(scalar_result);
      if (avx2) {
        SetThroughput(items, &avx2_result);
        results.push_back(avx2_result);
      }
    };
    auto bits_of = [](double d) {
      uint64_t b;
      std::memcpy(&b, &d, sizeof(b));
      return b;
    };

    // Split-search gather + class-square scan: the decision tree's
    // per-node path gathers values and targets through a node's sorted
    // ranks from the training view's rank tables (the shuffled index
    // models that gather), then ScanThresholds reads the labels from the
    // gathered targets and calls ClassSquares once per row — with
    // continuous features every value is a distinct candidate threshold,
    // so that is the dense shape — on a many-class target, over a
    // node-sized slice (tree nodes shrink geometrically, so most scans
    // are cache-resident).
    {
      const size_t n = smoke ? 50000 : 200000;
      const size_t num_classes = 64;
      Rng rng(4404);
      std::vector<double> col(n), y(n);
      std::vector<uint32_t> idx(n);
      for (size_t i = 0; i < n; ++i) {
        col[i] = rng.Normal();
        y[i] = static_cast<double>(rng.UniformUint64(num_classes));
        idx[i] = static_cast<uint32_t>(i);
      }
      // Shuffled gather order models the sorted ranks' table positions.
      for (size_t i = n - 1; i > 0; --i) {
        std::swap(idx[i], idx[rng.UniformUint64(i + 1)]);
      }
      std::vector<double> vals(n), ys(n);
      std::vector<double> left_counts(num_classes, 0.0);
      std::vector<double> class_counts(num_classes);
      for (size_t c = 0; c < num_classes; ++c) {
        class_counts[c] = static_cast<double>(n / num_classes);
      }
      measure_pair("simd_split_scan", n, [&]() -> uint64_t {
        simd::GatherValsTargets(col.data(), y.data(), idx.data(), n,
                                vals.data(), ys.data());
        std::fill(left_counts.begin(), left_counts.end(), 0.0);
        uint64_t h = 0;
        for (size_t i = 0; i < n; ++i) {
          left_counts[static_cast<size_t>(ys[i])] += 1.0;
          double left_sq = 0.0, right_sq = 0.0;
          simd::ClassSquares(left_counts.data(), class_counts.data(),
                             num_classes, &left_sq, &right_sq);
          h ^= bits_of(left_sq) + bits_of(right_sq) + i;
        }
        h ^= bits_of(vals[n / 2]) ^ bits_of(ys[n / 3]);
        return h;
      });
    }

    // Squared Euclidean distance — the KNN Predict shape: each
    // query is scored against the whole row-major training matrix with
    // the batch kernel (geo joins hit the single-pair kernel at 2-3
    // dims). The training set is KNN-sized (1024 x 64 = 512 KiB), so the
    // pair measures compute, not DRAM streaming.
    {
      const size_t dims = 64;
      const size_t points = 1024;
      const size_t num_queries = smoke ? 40 : 200;
      Rng rng(5505);
      // The matrix must sit on a 64-byte boundary like the production KNN
      // buffer: a 16-byte-aligned std::vector makes every other 32-byte
      // load straddle a cache line, a heap-layout coin flip worth ~25%.
      simd::AlignedVector<double> queries(num_queries * dims);
      simd::AlignedVector<double> matrix(points * dims);
      for (double& v : queries) v = rng.Normal();
      for (double& v : matrix) v = rng.Normal();
      std::vector<double> d2(points);
      measure_pair("simd_distance", num_queries * points * dims,
                   [&]() -> uint64_t {
                     uint64_t h = 0;
                     for (size_t q = 0; q < num_queries; ++q) {
                       simd::SquaredDistanceToMany(queries.data() + q * dims,
                                                   matrix.data(), points,
                                                   dims, d2.data());
                       for (size_t p = 0; p < points; ++p) {
                         h ^= bits_of(d2[p]) + p;
                       }
                     }
                     return h;
                   });
    }

    // Bulk little-endian numeric decode (the .ardac columnar read path).
    {
      const size_t n = smoke ? 400000 : 2000000;
      Rng rng(6606);
      std::vector<char> src(n * 8);
      for (size_t i = 0; i < n; ++i) {
        // Encode finite doubles so the checksum is NaN-payload free.
        double v = rng.Normal();
        std::memcpy(src.data() + i * 8, &v, 8);
      }
      std::vector<double> dst(n);
      measure_pair("simd_decode", n, [&]() -> uint64_t {
        simd::DecodeU64LeToDouble(src.data(), n, dst.data());
        uint64_t h = 0;
        for (size_t i = 0; i < n; i += 97) h ^= bits_of(dst[i]) + i;
        return h;
      });
    }
  }

  return results;
}

// Names of the scalar-vs-SIMD pairs checked by --assert-simd-floor.
constexpr const char* kSimdPairs[] = {"simd_split_scan", "simd_distance",
                                      "simd_decode"};

// Returns false (after printing per-pair speedups) unless every one of
// the kSimdPairs reaches `floor` on this machine.
bool CheckSimdFloor(const std::vector<KernelResult>& results, double floor) {
  auto seconds_of = [&](const std::string& name) -> double {
    for (const KernelResult& r : results) {
      if (r.name == name) return r.seconds;
    }
    return -1.0;
  };
  size_t met = 0;
  std::fprintf(stderr, "simd floor check (>=%.1fx on all %zu pairs):\n",
               floor, std::size(kSimdPairs));
  for (const char* pair : kSimdPairs) {
    double scalar = seconds_of(std::string(pair) + "_scalar");
    double avx2 = seconds_of(std::string(pair) + "_avx2");
    if (scalar <= 0.0 || avx2 <= 0.0) {
      std::fprintf(stderr, "  %-22s missing\n", pair);
      continue;
    }
    double speedup = scalar / avx2;
    if (speedup >= floor) ++met;
    std::fprintf(stderr, "  %-22s %.2fx%s\n", pair, speedup,
                 speedup >= floor ? "" : "  (below floor)");
  }
  std::fprintf(stderr, "  -> %zu of %zu pairs at the floor\n", met,
               std::size(kSimdPairs));
  return met == std::size(kSimdPairs);
}

// Evicts `path` from the page cache (fsync + POSIX_FADV_DONTNEED) so the
// mapped phase of the --oocore scenario starts cold — the regime the
// out-of-core mode exists for (a pool 10x memory cannot be cache-hot).
// Freshly written files sit in the cache as large folios, and mapping a
// large folio makes the whole folio resident: without the eviction the
// RSS bound would measure the kernel's folio accounting, not the mapped
// path's laziness. No-op off Linux.
void DropFromPageCache(const std::string& path) {
#if defined(__linux__)
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
#else
  (void)path;
#endif
}

// Samples VmHWM into the existing `process.peak_rss_bytes` gauge and
// returns its current value (0 on platforms without the interface).
double PeakRssGauge() {
  arda::metrics::UpdatePeakRssGauge();
  arda::metrics::MetricsSnapshot snapshot =
      arda::metrics::GlobalRegistry().Snapshot();
  for (const arda::metrics::GaugeSnapshot& g : snapshot.gauges) {
    if (g.name == "process.peak_rss_bytes") return g.value;
  }
  return 0.0;
}

// --- Out-of-core bound scenario (`--oocore`). ---
//
// Builds an `.ardac` v3 pool roughly 10x a process memory budget (40
// tables, 1 int64 key + 20 double columns each), opens every table with
// MapColumnar, and runs the budget-partitioned group-by over ~10% of the
// pool's columns (the key plus one value column per table). Because
// mapped columns fault in lazily, peak RSS should grow by about the
// touched 2-of-21 column slice (~0.95x budget) plus transient partition
// frames; the scenario asserts the growth stays under 1.5x the budget,
// read from the same VmHWM gauge the CLI stage summary prints. An eager
// loader would grow by the full pool (10x) and fail loudly. Exit 1 on a
// violation; numbers land in BENCH_PR10.json via --json.
int RunOutOfCore(uint64_t budget_bytes, bool json) {
  namespace fs = std::filesystem;
  constexpr size_t kTables = 40;
  constexpr size_t kValueCols = 20;
  // ~9 bytes per numeric cell on disk (8 value + 1 validity byte); 40
  // tables of pool/40 rows each put the pool at ~10x the budget.
  const uint64_t pool_target = budget_bytes * 10;
  const size_t rows = std::max<uint64_t>(
      1024, pool_target / kTables / ((kValueCols + 1) * 9));
  const fs::path dir = fs::temp_directory_path() / "arda_bench_oocore";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  auto table_path = [&](size_t t) {
    return (dir / ("t" + std::to_string(t) + ".ardac")).string();
  };

  // Generate and write one table at a time so the generation phase's own
  // peak stays near one table, not the pool.
  Rng rng(0x00C0DEULL);
  uint64_t pool_bytes = 0;
  for (size_t t = 0; t < kTables; ++t) {
    df::DataFrame table;
    std::vector<int64_t> key(rows);
    for (int64_t& k : key) {
      k = static_cast<int64_t>(rng.UniformUint64(1024));
    }
    ARDA_CHECK(table.AddColumn(df::Column::Int64("key", key)).ok());
    for (size_t c = 0; c < kValueCols; ++c) {
      std::vector<double> v(rows);
      for (double& x : v) x = rng.Normal();
      ARDA_CHECK(
          table.AddColumn(df::Column::Double("v" + std::to_string(c), v))
              .ok());
    }
    ARDA_CHECK(df::WriteColumnar(table, table_path(t)).ok());
    pool_bytes += static_cast<uint64_t>(fs::file_size(table_path(t), ec));
    DropFromPageCache(table_path(t));
  }

  // VmHWM is monotone, so the bound is on growth over the post-generation
  // baseline. A slurped load would add ~pool_bytes here and trip the
  // ceiling by a wide margin.
  const double baseline = PeakRssGauge();

  double open_seconds = NowSeconds();
  std::vector<df::DataFrame> pool;
  pool.reserve(kTables);
  for (size_t t = 0; t < kTables; ++t) {
    auto mapped = df::MapColumnar(table_path(t));
    ARDA_CHECK(mapped.ok());
    pool.push_back(std::move(mapped).value());
  }
  open_seconds = NowSeconds() - open_seconds;
  const double after_open = PeakRssGauge();

  df::AggregateOptions agg;
  // Each scan's working set is a 2-column borrowed slice, far below the
  // process budget; hand the kernel a small fraction of it so the radix
  // partitioning genuinely engages (fan-out >= 2) instead of resolving
  // to one partition.
  agg.memory_budget_bytes =
      std::max<uint64_t>(1, budget_bytes / 128);
  double scan_seconds = NowSeconds();
  uint64_t checksum = 0;
  size_t groups = 0;
  for (size_t t = 0; t < kTables; ++t) {
    df::DataFrame narrow;
    ARDA_CHECK(narrow.AddColumn(pool[t].col(0)).ok());
    ARDA_CHECK(narrow.AddColumn(pool[t].col(1 + t % kValueCols)).ok());
    auto grouped = df::GroupByAggregate(narrow, {"key"}, agg);
    ARDA_CHECK(grouped.ok());
    groups += grouped.value().NumRows();
    checksum ^= HashFrame(grouped.value()) * (t + 1);
  }
  scan_seconds = NowSeconds() - scan_seconds;

  const double peak = PeakRssGauge();
  const double growth = peak - baseline;
  const double ceiling = 1.5 * static_cast<double>(budget_bytes);
  const bool gauge_available = baseline > 0.0 && peak > 0.0;
  const bool pass = !gauge_available || growth <= ceiling;

  pool.clear();
  fs::remove_all(dir, ec);

  if (json) {
    std::printf("{\n");
    std::printf("  \"bench\": \"kernels_oocore\",\n");
    std::printf("  \"budget_bytes\": %llu,\n",
                static_cast<unsigned long long>(budget_bytes));
    std::printf("  \"pool_bytes\": %llu,\n",
                static_cast<unsigned long long>(pool_bytes));
    std::printf("  \"tables\": %zu,\n", kTables);
    std::printf("  \"rows_per_table\": %zu,\n", rows);
    std::printf("  \"map_open_seconds\": %.6f,\n", open_seconds);
    std::printf("  \"partitioned_scan_seconds\": %.6f,\n", scan_seconds);
    std::printf("  \"groups\": %zu,\n", groups);
    std::printf("  \"checksum\": %llu,\n",
                static_cast<unsigned long long>(checksum));
    std::printf("  \"peak_rss_baseline_bytes\": %.0f,\n", baseline);
    std::printf("  \"peak_rss_after_open_bytes\": %.0f,\n", after_open);
    std::printf("  \"peak_rss_bytes\": %.0f,\n", peak);
    std::printf("  \"peak_rss_growth_bytes\": %.0f,\n", growth);
    std::printf("  \"ceiling_bytes\": %.0f,\n", ceiling);
    std::printf("  \"gauge_available\": %s,\n",
                gauge_available ? "true" : "false");
    std::printf("  \"pass\": %s\n", pass ? "true" : "false");
    std::printf("}\n");
  } else {
    std::printf("=== Out-of-core bound (pool 10x budget) ===\n");
    std::printf("budget       %10.1f MiB\n",
                static_cast<double>(budget_bytes) / (1 << 20));
    std::printf("pool         %10.1f MiB (%zu tables x %zu rows)\n",
                static_cast<double>(pool_bytes) / (1 << 20), kTables,
                rows);
    std::printf("map open     %10.4f s\n", open_seconds);
    std::printf("scan         %10.4f s (%zu groups)\n", scan_seconds,
                groups);
    std::printf("RSS growth   %10.1f MiB (ceiling %.1f MiB)\n",
                growth / (1 << 20), ceiling / (1 << 20));
  }
  if (!gauge_available) {
    std::fprintf(stderr,
                 "oocore: peak-RSS gauge unavailable here; bound not "
                 "asserted\n");
    return 0;
  }
  if (!pass) {
    std::fprintf(stderr,
                 "oocore bound FAILED: peak RSS grew %.1f MiB > %.1f MiB "
                 "ceiling (1.5x budget)\n",
                 growth / (1 << 20), ceiling / (1 << 20));
    return 1;
  }
  return 0;
}

void PrintJson(const std::vector<KernelResult>& results, uint64_t seed,
               bool smoke, bool tracing) {
  std::printf("{\n");
  std::printf("  \"bench\": \"kernels\",\n");
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(seed));
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"tracing\": %s,\n", tracing ? "true" : "false");
  std::printf("  \"simd_level\": \"%s\",\n",
              arda::simd::DispatchSummary().c_str());
  std::printf("  \"simd_supported\": \"%s\",\n",
              arda::simd::Avx2Supported() ? "avx2" : "scalar");
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::printf("    {\"name\": \"%s\", \"seconds\": %.6f, "
                "\"items_per_second\": %.1f, \"checksum\": %llu}%s\n",
                arda::JsonEscape(r.name).c_str(), r.seconds,
                r.items_per_second,
                static_cast<unsigned long long>(r.checksum),
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace
}  // namespace arda::bench

int main(int argc, char** argv) {
  using namespace arda::bench;
  BenchOptions options = ParseOptions(argc, argv);
  bool smoke = false;
  bool tracing = false;
  bool assert_simd_floor = false;
  bool oocore = false;
  uint64_t oocore_budget = 8ULL << 20;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
    // Runs the out-of-core bound scenario (mmap'd 10x-budget pool,
    // partitioned group-by, peak-RSS ceiling) instead of the kernel
    // sweep. --oocore-budget=SIZE (k/m/g suffixes) overrides the 8 MiB
    // default process budget.
    if (std::string(argv[i]) == "--oocore") oocore = true;
    if (std::string_view(argv[i]).rfind("--oocore-budget=", 0) == 0) {
      if (!arda::ParseByteSize(std::string_view(argv[i]).substr(16),
                               &oocore_budget) ||
          oocore_budget == 0) {
        std::fprintf(stderr, "bad --oocore-budget value\n");
        return 2;
      }
    }
    // Arms span tracing for the whole run: measures the instrumentation
    // overhead (tools/run_bench.sh --trace-overhead diffs on vs. off) and
    // doubles as a determinism check since checksums must not move.
    if (std::string(argv[i]) == "--trace") tracing = true;
    // Fails (exit 1) unless all 3 scalar-vs-SIMD pairs reach 2x; no-op
    // on machines without AVX2 (there is nothing to compare).
    if (std::string(argv[i]) == "--assert-simd-floor") {
      assert_simd_floor = true;
    }
  }
  if (tracing) arda::trace::Enable();
  if (oocore) return RunOutOfCore(oocore_budget, options.json);
  std::vector<KernelResult> results = RunAll(options, smoke);
  if (options.json) {
    PrintJson(results, options.seed, smoke, tracing);
  } else {
    std::printf("=== Hot-path kernel benchmarks ===\n");
    PrintRow({"kernel", "seconds", "items/s"}, 28);
    PrintRule(3, 28);
    for (const KernelResult& r : results) {
      PrintRow({r.name, arda::StrFormat("%.4fs", r.seconds),
                arda::StrFormat("%.0f", r.items_per_second)},
               28);
    }
  }
  if (assert_simd_floor) {
    if (!arda::simd::Avx2Supported()) {
      std::fprintf(stderr,
                   "simd floor check skipped: AVX2 unsupported here\n");
      return 0;
    }
    if (!CheckSimdFloor(results, 2.0)) {
      std::fprintf(stderr, "simd floor check FAILED\n");
      return 1;
    }
  }
  return 0;
}
