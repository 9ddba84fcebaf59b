// Kernel-level determinism tests for the arda_simd dispatch layer: every
// kernel must produce bit-identical output at every supported dispatch
// level, including unaligned heads and short tails (inputs smaller than
// one vector width). See DESIGN.md "SIMD dispatch".

#include "simd/simd.h"

#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "simd/aligned.h"
#include "util/metrics.h"

namespace arda::simd {
namespace {

// Deterministic xorshift so the fixtures never depend on libc rand.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

// The size sweep used by every kernel test: zero, sub-vector-width
// tails (the AVX2 width is 4 for 64-bit lanes), exact multiples, and
// off-by-one straddles.
const size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,  31, 32,
                         33, 63, 64, 65, 100, 255, 256, 1000};

// Restores the entry dispatch level when a test exits.
class LevelGuard {
 public:
  LevelGuard() : saved_(ActiveLevel()) {}
  ~LevelGuard() { SetLevel(saved_); }

 private:
  SimdLevel saved_;
};

// Runs `body` once per supported dispatch level (always at least
// scalar). The body receives the level for labeling assertions.
template <typename Body>
void ForEachLevel(const Body& body) {
  LevelGuard guard;
  ASSERT_TRUE(SetLevel(SimdLevel::kScalar));
  body(SimdLevel::kScalar);
  if (Avx2Supported()) {
    ASSERT_TRUE(SetLevel(SimdLevel::kAvx2));
    body(SimdLevel::kAvx2);
  }
}

TEST(SimdDispatchTest, LevelRoundTrip) {
  LevelGuard guard;
  EXPECT_TRUE(SetLevel(SimdLevel::kScalar));
  EXPECT_EQ(ActiveLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(ActiveLevelName(), "scalar");
  if (Avx2Supported()) {
    EXPECT_TRUE(SetLevel(SimdLevel::kAvx2));
    EXPECT_EQ(ActiveLevel(), SimdLevel::kAvx2);
    EXPECT_STREQ(ActiveLevelName(), "avx2");
  } else {
    EXPECT_FALSE(SetLevel(SimdLevel::kAvx2));
    EXPECT_EQ(ActiveLevel(), SimdLevel::kScalar);
  }
}

TEST(SimdDispatchTest, SpecParsing) {
  LevelGuard guard;
  EXPECT_TRUE(SetLevelFromSpec("scalar"));
  EXPECT_EQ(ActiveLevel(), SimdLevel::kScalar);
  EXPECT_EQ(DispatchSummary(), "scalar");
  EXPECT_TRUE(SetLevelFromSpec("auto"));
  EXPECT_EQ(ActiveLevel(),
            Avx2Supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar);
  EXPECT_EQ(DispatchSummary(), ActiveLevelName());
  EXPECT_FALSE(SetLevelFromSpec("sse9"));
  EXPECT_FALSE(SetLevelFromSpec(""));
  EXPECT_EQ(SetLevelFromSpec("avx2"), Avx2Supported());
}

TEST(SimdDispatchTest, MetricsGauge) {
  LevelGuard guard;
  ASSERT_TRUE(SetLevel(SimdLevel::kScalar));
  PublishLevelMetrics();
  metrics::MetricsSnapshot snapshot = metrics::GlobalRegistry().Snapshot();
  bool found = false;
  for (const metrics::GaugeSnapshot& g : snapshot.gauges) {
    if (g.name == "simd.level") {
      EXPECT_EQ(g.value, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SimdDispatchTest, AlignedAllocator) {
  AlignedVector<double> v(1000, 1.5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kAlign, 0u);
  AlignedVector<uint32_t> w(17);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(w.data()) % kAlign, 0u);
}

TEST(SimdKernelsTest, TupleHashBatchMatchesScalar) {
  for (size_t n : kSizes) {
    for (size_t num_cols : {size_t{1}, size_t{2}, size_t{5}}) {
      uint64_t state = 0x5555 + n + num_cols;
      std::vector<uint32_t> ids(num_cols * (n + 3));
      for (uint32_t& id : ids) {
        id = static_cast<uint32_t>(NextRand(&state) % 1000);
      }
      const size_t stride = n + 3;  // deliberately != n
      std::vector<uint64_t> reference;
      ForEachLevel([&](SimdLevel level) {
        std::vector<uint64_t> out(n, 0);
        TupleHashBatch(ids.data(), num_cols, stride, n, out.data());
        if (level == SimdLevel::kScalar) {
          reference = out;
        } else {
          EXPECT_EQ(out, reference) << "n=" << n << " cols=" << num_cols;
        }
      });
    }
  }
}

TEST(SimdKernelsTest, ClassSquaresMatchesScalarOnCounts) {
  for (size_t num_classes : kSizes) {
    uint64_t state = 0x3333 + num_classes;
    std::vector<double> class_counts(num_classes);
    std::vector<double> left_counts(num_classes);
    for (size_t c = 0; c < num_classes; ++c) {
      const uint64_t total = NextRand(&state) % 50000;
      class_counts[c] = static_cast<double>(total);
      left_counts[c] = static_cast<double>(NextRand(&state) % (total + 1));
    }
    double ref_l = 0.0, ref_r = 0.0;
    ForEachLevel([&](SimdLevel level) {
      double l = -1.0, r = -1.0;
      ClassSquares(left_counts.data(), class_counts.data(), num_classes,
                   &l, &r);
      if (level == SimdLevel::kScalar) {
        ref_l = l;
        ref_r = r;
      } else {
        // Bitwise equality, not near-equality.
        EXPECT_EQ(std::memcmp(&l, &ref_l, sizeof l), 0)
            << "classes=" << num_classes;
        EXPECT_EQ(std::memcmp(&r, &ref_r, sizeof r), 0)
            << "classes=" << num_classes;
      }
    });
  }
}

TEST(SimdKernelsTest, GatherValsTargetsMatchesScalar) {
  const size_t num_rows = 512;
  uint64_t state = 0x2468;
  std::vector<double> col(num_rows);
  std::vector<double> y(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    col[r] = static_cast<double>(NextRand(&state)) / 1e17;
    y[r] = static_cast<double>(NextRand(&state)) / 1e18;
  }
  for (size_t n : kSizes) {
    std::vector<uint32_t> idx(n);
    for (uint32_t& i : idx) {
      i = static_cast<uint32_t>(NextRand(&state) % num_rows);
    }
    std::vector<double> ref_vals, ref_ys;
    ForEachLevel([&](SimdLevel level) {
      std::vector<double> vals(n, -1.0), ys(n, -1.0);
      GatherValsTargets(col.data(), y.data(), idx.data(), n, vals.data(),
                        ys.data());
      if (level == SimdLevel::kScalar) {
        ref_vals = vals;
        ref_ys = ys;
      } else {
        EXPECT_EQ(vals, ref_vals) << "n=" << n;
        EXPECT_EQ(ys, ref_ys) << "n=" << n;
      }
    });
  }
}

TEST(SimdKernelsTest, SquaredDistanceBitIdenticalAcrossLevels) {
  uint64_t state = 0x1357;
  for (size_t n : kSizes) {
    // Offset start by 1 to exercise unaligned bases too.
    std::vector<double> a(n + 1), b(n + 1);
    for (size_t i = 0; i <= n; ++i) {
      a[i] = static_cast<double>(static_cast<int64_t>(NextRand(&state) %
                                                      1000000) -
                                 500000) /
             997.0;
      b[i] = static_cast<double>(static_cast<int64_t>(NextRand(&state) %
                                                      1000000) -
                                 500000) /
             991.0;
    }
    for (size_t offset : {size_t{0}, size_t{1}}) {
      if (offset > n) continue;
      const size_t len = n - offset;
      double ref = 0.0;
      ForEachLevel([&](SimdLevel level) {
        const double d =
            SquaredDistance(a.data() + offset, b.data() + offset, len);
        if (level == SimdLevel::kScalar) {
          ref = d;
        } else {
          EXPECT_EQ(std::memcmp(&d, &ref, sizeof d), 0)
              << "n=" << len << " offset=" << offset;
        }
      });
    }
  }
  // The short-vector path is the plain sequential sum (what the geo-join
  // goldens pin): check it explicitly for 2-D.
  const double a2[2] = {1.5, -2.25};
  const double b2[2] = {0.25, 7.0};
  const double d0 = a2[0] - b2[0];
  const double d1 = a2[1] - b2[1];
  double expected = d0 * d0;
  expected += d1 * d1;
  ForEachLevel([&](SimdLevel) {
    EXPECT_EQ(SquaredDistance(a2, b2, 2), expected);
  });
}

TEST(SimdKernelsTest, SquaredDistanceToManyMatchesPairwiseAtEveryLevel) {
  uint64_t state = 0x9753;
  // Dim sweep crosses the vec boundary (dims < 4 takes the sequential
  // path); point counts cover the 4-row batch tail.
  for (size_t dims : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                      size_t{7}, size_t{8}, size_t{17}, size_t{64}}) {
    for (size_t points : {size_t{1}, size_t{3}, size_t{5}, size_t{8},
                          size_t{9}, size_t{16}, size_t{20}}) {
      std::vector<double> query(dims), base(points * dims);
      for (double& v : query) {
        v = static_cast<double>(static_cast<int64_t>(NextRand(&state) %
                                                     1000000) -
                                500000) /
            997.0;
      }
      for (double& v : base) {
        v = static_cast<double>(static_cast<int64_t>(NextRand(&state) %
                                                     1000000) -
                                500000) /
            991.0;
      }
      std::vector<double> ref(points);
      ForEachLevel([&](SimdLevel level) {
        std::vector<double> out(points, -1.0);
        SquaredDistanceToMany(query.data(), base.data(), points, dims,
                              out.data());
        // Every row must equal the single-pair kernel bit for bit (which
        // the test above pins as level-invariant itself).
        for (size_t p = 0; p < points; ++p) {
          const double pair =
              SquaredDistance(query.data(), base.data() + p * dims, dims);
          EXPECT_EQ(std::memcmp(&out[p], &pair, sizeof pair), 0)
              << "dims=" << dims << " points=" << points << " p=" << p;
        }
        if (level == SimdLevel::kScalar) {
          ref = out;
        } else {
          EXPECT_EQ(out, ref) << "dims=" << dims << " points=" << points;
        }
      });
    }
  }
}

TEST(SimdKernelsTest, DecodeU64LeMatchesScalar) {
  for (size_t n : kSizes) {
    uint64_t state = 0x8642 + n;
    std::vector<char> src(n * 8 + 1);
    for (char& c : src) c = static_cast<char>(NextRand(&state) & 0xff);
    std::vector<double> ref_d;
    std::vector<int64_t> ref_i;
    ForEachLevel([&](SimdLevel level) {
      std::vector<double> d(n, 0.0);
      std::vector<int64_t> i64(n, 0);
      // +1: unaligned source, the common case for packed .ardac blocks.
      DecodeU64LeToDouble(src.data() + 1, n, d.data());
      DecodeU64LeToInt64(src.data() + 1, n, i64.data());
      if (level == SimdLevel::kScalar) {
        ref_d = d;
        ref_i = i64;
      } else {
        EXPECT_EQ(i64, ref_i) << "n=" << n;
        // memcmp, not ==, so NaN payloads compare too.
        ASSERT_EQ(d.size(), ref_d.size());
        if (n > 0) {
          EXPECT_EQ(std::memcmp(d.data(), ref_d.data(), n * sizeof(double)),
                    0)
              << "n=" << n;
        }
      }
    });
  }
}

}  // namespace
}  // namespace arda::simd
