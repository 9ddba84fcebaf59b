// Self-test of the benchmark's own arithmetic (bench_stats.h): the tail
// percentile rule, the failure share, and signal-table attribution on a
// tiny hand-built repository. run.py runs it after every build and
// refuses to measure when it fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "dataframe/column.h"
#include "dataframe/data_frame.h"
#include "discovery/repository.h"

namespace arda::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // deliberately unsorted
}

void TestPercentiles() {
  Expect(Near(Median({3, 1, 2}), 2.0), "median of odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of even count");
  Expect(Near(GeometricMean({2, 8}), 4.0), "geometric mean");
  // Doubling any one of four values moves the mean by 2^(1/4).
  Expect(Near(GeometricMean({0.5, 2, 3, 20}) / GeometricMean({0.5, 1, 3, 20}),
              std::pow(2.0, 0.25)),
         "geometric mean weighs a cheap value like a costly one");
  Expect(GeometricMean({}) == 0.0, "geometric mean of nothing");

  // 100 samples: p90 sits at rank 90 with exactly 10 samples above it.
  Tail t = TailPercentile(OneTo(100));
  Expect(t.ok && t.percent == 90 && Near(t.value, 90.0) && t.beyond == 10,
         "p90 of 100 samples keeps 10 beyond");
  // 50 samples: p90 has 5 beyond, so the rule falls back to p80 (rank 40,
  // 10 beyond).
  t = TailPercentile(OneTo(50));
  Expect(t.ok && t.percent == 80 && Near(t.value, 40.0) && t.beyond == 10,
         "50 samples fall back to p80");
  // 31 samples: p67 is rank ceil(20.77) = 21 with 10 beyond; p68 would be
  // rank 22 with only 9.
  t = TailPercentile(OneTo(31));
  Expect(t.ok && t.percent == 67 && Near(t.value, 21.0) && t.beyond == 10,
         "31 samples use p67");
  // 19 samples: even the median has only 9 above it.
  t = TailPercentile(OneTo(19));
  Expect(!t.ok && t.samples == 19, "19 samples have no tail");
}

void TestFailedShare() {
  Expect(Near(FailedShare(0, 40), 0.0), "no failures");
  Expect(Near(FailedShare(3, 40), 0.075), "3 of 40 failed");
  Expect(Near(FailedShare(0, 0), 0.0), "nothing attempted");
}

df::DataFrame Table(const std::vector<std::string>& columns) {
  df::DataFrame frame;
  for (const std::string& name : columns) {
    Status st = frame.AddColumn(df::Column::Double(name, {1.0, 2.0}));
    (void)st;
  }
  return frame;
}

void TestAttribution() {
  // base(id, y); two signal tables and two noise tables. "score" exists in
  // two tables, so it is ambiguous unprefixed; ARDA renames the second
  // joined copy "noise_b.score".
  discovery::DataRepository repo;
  Status st = repo.Add("base", Table({"id", "y"}));
  st = repo.Add("weather", Table({"id", "temp"}));
  st = repo.Add("events", Table({"id", "crowd", "score"}));
  st = repo.Add("noise_a", Table({"id", "junk"}));
  st = repo.Add("noise_b", Table({"id", "score"}));
  (void)st;
  ColumnAttributor attributor(repo, "base");
  Expect(attributor.SourceTable("temp") == "weather", "unique column");
  Expect(attributor.SourceTable("score").empty(), "ambiguous column");
  Expect(attributor.SourceTable("noise_b.score") == "noise_b",
         "collision-prefixed column");
  Expect(attributor.SourceTable("noise_b.score_1") == "noise_b",
         "repeated collision suffix");
  Expect(attributor.SourceTable("y").empty(), "base column is not foreign");

  // Kept: temp (weather), crowd (events), noise_b.score (noise_b). Joined:
  // all four foreign tables.
  const Quality q = ScoreAugmentation(
      {"id", "y", "temp", "crowd", "noise_b.score"}, {"id", "y"},
      {"weather", "events", "noise_a", "noise_b"}, {"weather", "events"},
      attributor);
  Expect(q.signal_total == 2 && q.signal_kept == 2, "both signal tables kept");
  Expect(q.noise_total == 2 && q.noise_kept == 1, "one of two noise kept");
  Expect(q.unattributed == 0, "every column attributed");
  Expect(Near(q.SignalRecall(), 1.0) && Near(q.NoiseKept(), 0.5),
         "recall and noise share");

  const Quality partial = ScoreAugmentation(
      {"id", "y", "temp", "score"}, {"id", "y"}, {"weather", "noise_a"},
      {"weather", "events"}, attributor);
  Expect(partial.signal_kept == 1 && partial.unattributed == 1 &&
             partial.noise_total == 1 && partial.noise_kept == 0,
         "ambiguous column is unattributed, events missed");
}

}  // namespace
}  // namespace arda::perfbench

int main() {
  arda::perfbench::TestPercentiles();
  arda::perfbench::TestFailedShare();
  arda::perfbench::TestAttribution();
  if (arda::perfbench::g_failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
