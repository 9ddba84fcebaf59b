// Observability subsystem tests: the span tracer (util/trace.h) and the
// metrics registry (util/metrics.h), plus the JSON surfaces they export
// through (trace-event documents, the run report's `metrics` section and
// the shared JsonEscape helper). The trace-event output is validated with
// a real JSON parser, not substring checks, so an escaping or comma bug
// fails loudly here before Perfetto ever sees a file.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/arda.h"
#include "core/report_io.h"
#include "data/generators.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace arda {
namespace {

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser — enough of RFC 8259 to validate
// everything this repo emits (objects, arrays, strings with escapes,
// numbers, booleans, null).

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::kBool;
        out->boolean = true;
        return ConsumeLiteral("true");
      case 'f':
        out->kind = JsonValue::kBool;
        out->boolean = false;
        return ConsumeLiteral("false");
      case 'n':
        out->kind = JsonValue::kNull;
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ConsumeLiteral(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (!Consume(*p)) return false;
    }
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) return false;
    out->kind = JsonValue::kNumber;
    out->number = v;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare ctrl
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The repo only emits \u00XX for control bytes; decode those
          // directly and reject surrogates (never produced).
          if (code >= 0xD800 && code <= 0xDFFF) return false;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else {
            out->push_back('?');  // decoded but not needed by any test
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue item;
      if (!ParseValue(&item)) return false;
      out->array.push_back(std::move(item));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
      SkipWs();
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
      SkipWs();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Leaves tracing disabled and empty no matter how a test exits.
struct TraceGuard {
  TraceGuard() {
    trace::Disable();
    trace::Reset();
  }
  ~TraceGuard() {
    trace::Disable();
    trace::Reset();
  }
};

// Parses the current trace document and returns the traceEvents array.
std::vector<JsonValue> ParsedTraceEvents() {
  const std::string json = trace::ToJson();
  JsonValue doc;
  JsonParser parser(json);
  EXPECT_TRUE(parser.Parse(&doc)) << json;
  EXPECT_EQ(doc.kind, JsonValue::kObject);
  const JsonValue* unit = doc.Find("displayTimeUnit");
  EXPECT_NE(unit, nullptr);
  if (unit != nullptr) EXPECT_EQ(unit->str, "ms");
  const JsonValue* events = doc.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return {};
  EXPECT_EQ(events->kind, JsonValue::kArray);
  return events->array;
}

std::vector<const JsonValue*> EventsNamed(
    const std::vector<JsonValue>& events, const std::string& name) {
  std::vector<const JsonValue*> out;
  for (const JsonValue& e : events) {
    const JsonValue* n = e.Find("name");
    if (n != nullptr && n->str == name) out.push_back(&e);
  }
  return out;
}

// ---------------------------------------------------------------------
// JsonEscape (shared helper — satellite bugfix surface).

TEST(JsonEscapeTest, RoundTripsNastyStrings) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  const std::string wrapped = "\"" + JsonEscape(nasty) + "\"";
  JsonValue value;
  JsonParser parser(wrapped);
  ASSERT_TRUE(parser.Parse(&value)) << wrapped;
  EXPECT_EQ(value.kind, JsonValue::kString);
  EXPECT_EQ(value.str, nasty);
}

TEST(JsonEscapeTest, LeavesPlainTextAlone) {
  EXPECT_EQ(JsonEscape("plain text 123"), "plain text 123");
}

// ---------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistryTest, CounterAndGaugeBasics) {
  metrics::Registry registry;
  metrics::Counter& c = registry.GetCounter("test.counter");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.Value(), 5u);
  EXPECT_EQ(&registry.GetCounter("test.counter"), &c);

  metrics::Gauge& g = registry.GetGauge("test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.SetMax(1.0);  // lower value must not win
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.SetMax(7.0);
  EXPECT_DOUBLE_EQ(g.Value(), 7.0);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesAreInclusive) {
  metrics::Histogram h({1.0, 10.0, 100.0});
  // "le" semantics: a value exactly on a bound lands in that bucket.
  h.Observe(1.0);    // bucket 0 (le 1)
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0001); // bucket 1 (le 10)
  h.Observe(10.0);   // bucket 1
  h.Observe(100.0);  // bucket 2 (le 100)
  h.Observe(100.5);  // overflow (+Inf)
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_DOUBLE_EQ(h.Min(), 0.5);
  EXPECT_DOUBLE_EQ(h.Max(), 100.5);
  EXPECT_NEAR(h.Sum(), 1.0 + 0.5 + 1.0001 + 10.0 + 100.0 + 100.5, 1e-9);
}

TEST(MetricsRegistryTest, EmptyHistogramReportsZeroMinMax) {
  metrics::Histogram h({1.0});
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
}

TEST(MetricsRegistryTest, DefaultBucketsAreStrictlyIncreasing) {
  for (const std::vector<double>* bounds :
       {&metrics::LatencyBucketsSeconds(), &metrics::SizeBuckets()}) {
    ASSERT_FALSE(bounds->empty());
    for (size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
}

TEST(MetricsRegistryTest, ResetKeepsCachedReferencesValid) {
  metrics::Registry registry;
  metrics::Counter& c = registry.GetCounter("cached.counter");
  metrics::Histogram& h = registry.GetHistogram("cached.hist", {1.0, 2.0});
  c.Increment(3);
  h.Observe(1.5);
  registry.ResetForTest();
  // The same objects, zeroed in place: old references keep working.
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.bounds().size(), 2u);  // bounds survive the reset
  c.Increment();
  h.Observe(5.0);
  EXPECT_EQ(registry.GetCounter("cached.counter").Value(), 1u);
  EXPECT_EQ(registry.GetHistogram("cached.hist", {}).BucketCounts()[2], 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  metrics::Registry registry;
  registry.GetCounter("b.counter").Increment(2);
  registry.GetCounter("a.counter").Increment();
  registry.GetGauge("z.gauge").Set(-1.5);
  registry.GetHistogram("m.hist", {1.0}).Observe(0.5);
  metrics::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.counter");
  EXPECT_EQ(snap.counters[1].name, "b.counter");
  EXPECT_EQ(snap.CounterValue("b.counter"), 2u);
  EXPECT_EQ(snap.CounterValue("missing"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, -1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].bucket_counts.size(), 2u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(MetricsRegistryTest, MetricsToJsonParses) {
  metrics::Registry registry;
  registry.GetCounter("skips.join").Increment(3);
  registry.GetGauge("process.peak_rss_bytes").Set(1.5e8);
  registry.GetHistogram("stage.join", metrics::LatencyBucketsSeconds())
      .Observe(0.25);
  const std::string json = core::MetricsToJson(registry.Snapshot());
  JsonValue doc;
  JsonParser parser(json);
  ASSERT_TRUE(parser.Parse(&doc)) << json;
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("skips.join")->number, 3.0);
  const JsonValue* hists = doc.Find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->array.size(), 1u);
  const JsonValue& h = hists->array[0];
  EXPECT_EQ(h.Find("name")->str, "stage.join");
  const JsonValue* buckets = h.Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_FALSE(buckets->array.empty());
  // Overflow bucket is the string "+Inf", Prometheus-style.
  EXPECT_EQ(buckets->array.back().Find("le")->str, "+Inf");
}

// ---------------------------------------------------------------------
// Span tracer.

TEST(TraceTest, DisabledSpansRecordNothing) {
  TraceGuard guard;
  ASSERT_FALSE(trace::Enabled());
  {
    trace::TraceSpan span("disabled_span", "test");
    trace::TraceSpan detailed("disabled_span", "test", "payload");
    EXPECT_EQ(span.span_id(), 0u);
    trace::CounterEvent("disabled_counter", 1.0);
  }
  EXPECT_EQ(trace::EventCount(), 0u);
}

TEST(TraceTest, SpanNestingStaysWithinParent) {
  TraceGuard guard;
  trace::Enable();
  {
    trace::TraceSpan outer("outer_span", "test");
    {
      trace::TraceSpan inner("inner_span", "test");
    }
  }
  trace::Disable();
  std::vector<JsonValue> events = ParsedTraceEvents();
  std::vector<const JsonValue*> outer = EventsNamed(events, "outer_span");
  std::vector<const JsonValue*> inner = EventsNamed(events, "inner_span");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  const double outer_ts = outer[0]->Find("ts")->number;
  const double outer_end = outer_ts + outer[0]->Find("dur")->number;
  const double inner_ts = inner[0]->Find("ts")->number;
  const double inner_end = inner_ts + inner[0]->Find("dur")->number;
  // The exporter rounds to 3 decimals (nanosecond resolution in µs).
  const double eps = 0.002;
  EXPECT_GE(inner_ts, outer_ts - eps);
  EXPECT_LE(inner_end, outer_end + eps);
  EXPECT_EQ(outer[0]->Find("ph")->str, "X");
  EXPECT_EQ(outer[0]->Find("cat")->str, "test");
}

TEST(TraceTest, MultiThreadBuffersMergeIntoOneDocument) {
  TraceGuard guard;
  trace::Enable();
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      trace::TraceSpan span("worker_span", "test");
    });
  }
  for (std::thread& t : threads) t.join();
  trace::Disable();
  std::vector<JsonValue> events = ParsedTraceEvents();
  std::vector<const JsonValue*> workers = EventsNamed(events, "worker_span");
  ASSERT_EQ(workers.size(), static_cast<size_t>(kThreads));
  std::set<double> tids;
  std::set<double> span_ids;
  for (const JsonValue* e : workers) {
    tids.insert(e->Find("tid")->number);
    const JsonValue* args = e->Find("args");
    ASSERT_NE(args, nullptr);
    span_ids.insert(args->Find("span_id")->number);
  }
  // Each thread got its own buffer/tid, and span ids never collide.
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(span_ids.size(), static_cast<size_t>(kThreads));
  // One thread_name metadata record per participating thread.
  std::vector<const JsonValue*> meta = EventsNamed(events, "thread_name");
  EXPECT_GE(meta.size(), static_cast<size_t>(kThreads));
}

TEST(TraceTest, CounterEventsAndDetailsSurviveExport) {
  TraceGuard guard;
  trace::Enable();
  trace::CounterEvent("queue_depth", 42.0);
  {
    trace::TraceSpan span("detailed_span", "test",
                          "weird \"detail\"\nwith\\escapes");
  }
  trace::Disable();
  std::vector<JsonValue> events = ParsedTraceEvents();
  std::vector<const JsonValue*> counters = EventsNamed(events, "queue_depth");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0]->Find("ph")->str, "C");
  EXPECT_DOUBLE_EQ(counters[0]->Find("args")->Find("value")->number, 42.0);
  std::vector<const JsonValue*> detailed =
      EventsNamed(events, "detailed_span");
  ASSERT_EQ(detailed.size(), 1u);
  EXPECT_EQ(detailed[0]->Find("args")->Find("detail")->str,
            "weird \"detail\"\nwith\\escapes");
}

TEST(TraceTest, ResetDropsEventsAndRestartsSequences) {
  TraceGuard guard;
  trace::Enable();
  uint64_t first_id = 0;
  {
    trace::TraceSpan span("reset_span", "test");
    first_id = span.span_id();
  }
  EXPECT_GT(trace::EventCount(), 0u);
  trace::Reset();
  EXPECT_EQ(trace::EventCount(), 0u);
  {
    trace::TraceSpan span("reset_span", "test");
    // Same thread, sequence restarted: the id repeats deterministically.
    EXPECT_EQ(span.span_id(), first_id);
  }
  trace::Disable();
}

TEST(TraceTest, EmptyTraceIsStillValidJson) {
  TraceGuard guard;
  std::vector<JsonValue> events = ParsedTraceEvents();
  EXPECT_TRUE(events.empty());
}

TEST(TraceTest, StageScopeFeedsStageHistogram) {
  TraceGuard guard;
  metrics::GlobalRegistry().ResetForTest();
  {
    trace::StageScope scope("unit_test_stage");
  }
  metrics::MetricsSnapshot snap = metrics::GlobalRegistry().Snapshot();
  bool found = false;
  for (const metrics::HistogramSnapshot& h : snap.histograms) {
    if (h.name == "stage.unit_test_stage") {
      found = true;
      EXPECT_EQ(h.count, 1u);
    }
  }
  EXPECT_TRUE(found);
  // Tracing was disabled: the scope's span must not have recorded.
  EXPECT_EQ(trace::EventCount(), 0u);
}

TEST(TraceTest, RifsRunRecordsItsStagesWithoutChangingTheReport) {
  TraceGuard guard;
  data::Scenario scenario =
      data::MakePovertyScenario(13, data::ScenarioScale::kSmall);
  core::ArdaConfig config;
  config.seed = 33;
  config.rifs.num_rounds = 3;
  config.num_threads = 2;

  metrics::GlobalRegistry().ResetForTest();
  Result<core::ArdaReport> plain = core::Arda(config).Run(scenario.MakeTask());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  std::map<std::string, uint64_t> stage_counts;
  for (const metrics::HistogramSnapshot& h :
       metrics::GlobalRegistry().Snapshot().histograms) {
    stage_counts[h.name] = h.count;
  }
  // Noise and the sweep run once per RunRifs call, sparse ranking once
  // per round of each call.
  const uint64_t noise = stage_counts["stage.rifs.noise"];
  EXPECT_GT(noise, 0u);
  EXPECT_EQ(stage_counts["stage.rifs.threshold_sweep"], noise);
  EXPECT_EQ(stage_counts["stage.rifs.rank_sparse"],
            noise * config.rifs.num_rounds);

  trace::Enable();
  Result<core::ArdaReport> traced = core::Arda(config).Run(scenario.MakeTask());
  trace::Disable();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  std::set<std::string> span_names;
  for (const JsonValue& event : ParsedTraceEvents()) {
    const JsonValue* name = event.Find("name");
    if (name != nullptr) span_names.insert(name->str);
  }
  for (const char* stage :
       {"rifs.noise", "rifs.rank_sparse", "rifs.threshold_sweep"}) {
    EXPECT_EQ(span_names.count(stage), 1u) << stage;
  }
  EXPECT_EQ(core::DeterministicReportJson(*plain),
            core::DeterministicReportJson(*traced));
}

// ---------------------------------------------------------------------
// Report JSON (satellite: escaping + metrics section).

TEST(ReportJsonTest, NastyStringsStillParse) {
  core::ArdaReport report;
  report.base_score = 0.5;
  report.final_score = 0.75;
  report.selected_features = {"ok_feature", "weird\"quote", "tab\there",
                              "back\\slash"};
  core::BatchLog batch;
  batch.tables = {"table\nwith_newline"};
  report.batches.push_back(batch);
  report.skipped_candidates.push_back(
      {"bad\"table", "join", "reason with \"quotes\" and \\slashes\\"});
  metrics::Registry registry;
  registry.GetCounter("skips.join").Increment();
  registry.GetHistogram("stage.join", {1e-3, 1.0}).Observe(0.1);
  report.metrics = registry.Snapshot();

  const std::string json = core::ReportToJson(report);
  JsonValue doc;
  JsonParser parser(json);
  ASSERT_TRUE(parser.Parse(&doc)) << json;
  const JsonValue* skipped = doc.Find("skipped_candidates");
  ASSERT_NE(skipped, nullptr);
  ASSERT_EQ(skipped->array.size(), 1u);
  EXPECT_EQ(skipped->array[0].Find("table")->str, "bad\"table");
  EXPECT_EQ(skipped->array[0].Find("reason")->str,
            "reason with \"quotes\" and \\slashes\\");
  const JsonValue* features = doc.Find("selected_features");
  ASSERT_NE(features, nullptr);
  EXPECT_EQ(features->array[1].str, "weird\"quote");
  const JsonValue* metrics_obj = doc.Find("metrics");
  ASSERT_NE(metrics_obj, nullptr);
  EXPECT_DOUBLE_EQ(metrics_obj->Find("counters")->Find("skips.join")->number,
                   1.0);
}

}  // namespace
}  // namespace arda
