// End-to-end ARDA benchmark. One process runs one workload from a seed,
// checks every augmentation it produces, and prints one JSON result line
// last (see README.md for the workloads, metrics and result format):
//
//   perfbench --workload rifs_scenarios|lake_filter|serve_mixed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// perfbench_traced is the same program linked with the layer wrappers of
// layer_wraps.cc; only it can report per-layer metrics (--trace 1).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "core/arda.h"
#include "core/options.h"
#include "core/report_io.h"
#include "data/generators.h"
#include "dataframe/csv.h"
#include "discovery/repository.h"
#include "layers.h"
#include "service/service.h"
#include "service/wire.h"
#include "simd/simd.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace arda::perfbench {
namespace {

namespace fs = std::filesystem;

#ifdef PERFBENCH_TRACED
constexpr bool kTracedBinary = true;
#else
constexpr bool kTracedBinary = false;
#endif

// Threads of one pipeline run on the in-process workloads.
constexpr size_t kPipelineThreads = 2;
// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
// lake_filter: school (L) pools per run, each from its own sub-seed.
constexpr size_t kLakePools = 12;
// serve_mixed: closed-loop client connections, and the ingest cadence
// (client 0 re-ingests after every kIngestEvery of its augments).
constexpr size_t kServeClients = 3;
constexpr size_t kIngestEvery = 6;
// serve_mixed: one augment in kRepeatEvery repeats an earlier request.
constexpr uint64_t kRepeatEvery = 5;
// serve_mixed: the quality metrics score the first this-many fresh
// requests of the (deterministic) request stream.
constexpr size_t kQualityRequests = 12;

struct Args {
  std::string workload;
  uint64_t seed = 17;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "rifs_scenarios|lake_filter|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + flag);
    }
    int64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseInt64(value, &n) && n >= 0) {
      args.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds" && ParseInt64(value, &n) && n > 0) {
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--work-dir" && !value.empty()) {
      args.work_dir = value;
    } else {
      Usage("bad argument " + flag + " " + value);
    }
  }
  if (args.workload != "rifs_scenarios" && args.workload != "lake_filter" &&
      args.workload != "serve_mixed") {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// ---------------------------------------------------------------------
// Environment stamp.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "model name")) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

std::string SanitizerName() {
  std::string name = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (name.empty()) name = "address";
#endif
#if defined(__SANITIZE_THREAD__)
  if (name.empty()) name = "thread";
#endif
  return name;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------
// Scoring one augmentation from its deterministic report.

// Ground truth of the scenario an augmentation ran on.
struct Truth {
  std::vector<std::string> base_columns;
  std::vector<std::string> signal_tables;
  const ColumnAttributor* attributor = nullptr;
};

struct Augmentation {
  std::string scenario;
  bool first = true;  // the first run of its inputs in this window
  Quality quality;
  double improvement_pct = 0.0;
  size_t batches = 0;
  size_t accepted_batches = 0;
  size_t features_considered = 0;
  size_t features_kept = 0;
};

// Parses a DeterministicReportJson payload into `out`; false when the
// payload is not a report.
bool ScoreReport(const std::string& report_json, const Truth& truth,
                 Augmentation* out) {
  Result<json::Value> parsed = json::Parse(report_json);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const json::Value* columns = parsed->Find("augmented_columns");
  const json::Value* batches = parsed->Find("batches");
  if (columns == nullptr || !columns->is_array() || batches == nullptr ||
      !batches->is_array()) {
    return false;
  }
  std::vector<std::string> augmented;
  for (const json::Value& c : columns->AsArray()) {
    augmented.push_back(c.AsString());
  }
  std::vector<std::string> joined;
  out->batches = batches->AsArray().size();
  for (const json::Value& batch : batches->AsArray()) {
    if (batch.BoolOr("accepted", false)) ++out->accepted_batches;
    out->features_considered +=
        static_cast<size_t>(batch.IntOr("features_considered", 0));
    out->features_kept += static_cast<size_t>(batch.IntOr("features_kept", 0));
    if (const json::Value* tables = batch.Find("tables")) {
      for (const json::Value& t : tables->AsArray()) {
        joined.push_back(t.AsString());
      }
    }
  }
  out->improvement_pct = parsed->NumberOr("improvement_percent", 0.0);
  out->quality = ScoreAugmentation(augmented, truth.base_columns, joined,
                                   truth.signal_tables, *truth.attributor);
  return true;
}

// ---------------------------------------------------------------------
// What one measurement window produced.

struct ServiceWindow {
  int window_id = 0;
  std::vector<double> fresh_roundtrips;  // augment requests with a new seed
  std::map<std::string, std::vector<double>> fresh_by_scenario;
  std::vector<double> all_roundtrips;    // every request sent
  std::vector<double> ingest_seconds;
  size_t augments = 0;   // augment requests sent
  size_t completed = 0;  // ... answered "ok"
  size_t repeats = 0;
  size_t ingests = 0;
  size_t overloaded = 0;
  size_t errors = 0;
  size_t mismatches = 0;
  size_t tables_loaded = 0;     // by ingests
  size_t table_cache_hits = 0;  // ... served from a fresh `.ardac` cache
  uint64_t server_requests = 0;
  double server_seconds = 0.0;
  uint64_t cache_hits = 0;
};

struct Window {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double peak_rss_mib = 0.0;  // process VmHWM when the window ended
  size_t attempted = 0;
  size_t failed = 0;
  // Tables loaded by the window's (re-)loads, and how many came from a
  // fresh `.ardac` cache.
  size_t tables_loaded = 0;
  size_t cache_hits = 0;
  std::vector<Augmentation> augmentations;
  // Wall seconds of each augmentation by scenario ("school_l#<k>" for a
  // lake pool; for the service, the round trips of fresh requests by base
  // table).
  std::map<std::string, std::vector<double>> augment_seconds;
  std::set<std::string> digests;  // one per distinct request
  ServiceWindow service;
  LayerSnapshot layers;
  metrics::MetricsSnapshot registry_before;
  metrics::MetricsSnapshot registry_after;

  // Geometric mean over scenarios (pools) of each one's median seconds,
  // or over those of `scenario` only. Scenario costs differ by several
  // times; the geometric mean gives each the same weight, so doubling any
  // one of n moves it by 2^(1/n), however cheap that scenario is.
  double AugmentSeconds(const std::string& scenario = "") const {
    std::vector<double> medians;
    for (const auto& [name, seconds] : augment_seconds) {
      if (scenario.empty() || name.substr(0, name.find('#')) == scenario) {
        medians.push_back(Median(seconds));
      }
    }
    return GeometricMean(medians);
  }
};

struct Workload {
  std::vector<double> setup_seconds;
  size_t threads = 1;
  // Runs the measurement window for `seconds` (at least one full pass).
  std::function<Window(double seconds)> measure;
  // Output checks that run after the clock stops (serve_mixed); only the
  // first window scores the quality set.
  std::function<void(Window*, bool score_quality)> check;
  std::function<void()> teardown;
};

// ---------------------------------------------------------------------
// Workload: rifs_scenarios.

struct ScenarioCase {
  data::Scenario scenario;
  std::unique_ptr<ColumnAttributor> attributor;
  Truth truth;
};

std::unique_ptr<ScenarioCase> MakeCase(data::Scenario scenario) {
  auto c = std::make_unique<ScenarioCase>();
  c->scenario = std::move(scenario);
  c->attributor = std::make_unique<ColumnAttributor>(c->scenario.repo,
                                                     c->scenario.name);
  c->truth.base_columns = c->scenario.base.ColumnNames();
  c->truth.signal_tables = c->scenario.signal_tables;
  c->truth.attributor = c->attributor.get();
  return c;
}

std::vector<data::Scenario> MakeRifsScenarios(uint64_t seed) {
  std::vector<data::Scenario> out;
  out.push_back(data::MakePickupScenario(seed));
  out.push_back(data::MakePovertyScenario(seed));
  out.push_back(data::MakeSchoolScenario(/*large=*/false, seed));
  out.push_back(data::MakeTaxiScenario(seed));
  return out;
}

// Runs one in-process augmentation, checks its report against the first
// report of the same case, and records it in `window`; its time counts
// `load_seconds` of loading the pool first.
void RunAndRecord(const core::ArdaConfig& config,
                  const core::AugmentationTask& task, const Truth& truth,
                  const std::string& name,
                  std::map<std::string, std::string>* first_reports,
                  Window* window, double load_seconds = 0.0) {
  ++window->attempted;
  Stopwatch watch;
  Result<core::ArdaReport> report = core::Arda(config).Run(task);
  const double seconds = watch.ElapsedSeconds();
  if (!report.ok()) {
    std::fprintf(stderr, "augmentation %s failed: %s\n", name.c_str(),
                 report.status().ToString().c_str());
    ++window->failed;
    return;
  }
  const std::string json = core::DeterministicReportJson(*report);
  auto [it, inserted] = first_reports->emplace(name, json);
  Augmentation a;
  a.scenario = name;
  a.first = inserted;
  if ((!inserted && it->second != json) || !ScoreReport(json, truth, &a)) {
    std::fprintf(stderr, "augmentation %s: report differs from the first "
                         "run of the same inputs\n", name.c_str());
    ++window->failed;
    return;
  }
  window->digests.insert(name + ":" + Digest(json));
  window->augmentations.push_back(a);
  window->augment_seconds[name].push_back(load_seconds + seconds);
}

Workload RifsScenarios(const Args& args) {
  auto cases = std::make_shared<std::vector<std::unique_ptr<ScenarioCase>>>();
  Workload w;
  w.threads = kPipelineThreads;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch watch;
    std::vector<data::Scenario> scenarios = MakeRifsScenarios(args.seed);
    w.setup_seconds.push_back(watch.ElapsedSeconds());
    cases->clear();
    for (data::Scenario& s : scenarios) cases->push_back(MakeCase(std::move(s)));
  }
  auto first_reports = std::make_shared<std::map<std::string, std::string>>();
  const uint64_t seed = args.seed;
  w.measure = [cases, first_reports, seed](double seconds) {
    core::ArdaConfig config;
    config.seed = seed;
    config.num_threads = kPipelineThreads;
    Window window;
    Stopwatch wall;
    do {
      for (const auto& c : *cases) {
        RunAndRecord(config, c->scenario.MakeTask(), c->truth,
                     c->scenario.name, first_reports.get(), &window);
      }
    } while (wall.ElapsedSeconds() < seconds);
    return window;
  };
  return w;
}

// ---------------------------------------------------------------------
// Workload: lake_filter.

Status WriteRepository(const discovery::DataRepository& repo,
                       const fs::path& dir) {
  fs::create_directories(dir);
  for (const std::string& name : repo.Names()) {
    ARDA_RETURN_IF_ERROR(df::WriteCsvFile(repo.GetOrDie(name),
                                          (dir / (name + ".csv")).string()));
  }
  return Status::Ok();
}

core::AugmentationTask LakeTask(const discovery::DataRepository& repo,
                                const data::Scenario& scenario) {
  core::AugmentationTask task;
  task.base = repo.GetOrDie(scenario.name);
  task.target_column = scenario.target_column;
  task.task = scenario.task;
  task.repo = &repo;
  task.base_table_name = scenario.name;
  return task;
}

Result<core::ArdaConfig> LakeConfig(const data::Scenario& scenario,
                                    const std::string& selector,
                                    uint64_t seed, size_t threads) {
  core::RunOptions options;
  options.task = scenario.task == ml::TaskType::kClassification
                     ? "classification"
                     : "regression";
  options.selector = selector;
  options.seed = seed;
  options.num_threads = threads;
  return core::MakeArdaConfig(options);
}

// One school (L) pool of lake_filter, written as CSVs to its own
// directory with its own `.ardac` cache.
struct LakePool {
  std::unique_ptr<ScenarioCase> c;
  std::string name;  // "school_l#<k>": the per-pool key of the checks
  fs::path data_dir;
  fs::path cache_dir;
  core::ArdaConfig config;
};

Workload LakeFilter(const Args& args, const fs::path& dir) {
  // Which tables a selector keeps, and so how long the run takes, depends
  // on chance correlations in one generated pool; several pools per run
  // keep the figures steady across seeds.
  auto pools = std::make_shared<std::vector<LakePool>>();
  Workload w;
  w.threads = kPipelineThreads;
  for (size_t k = 0; k < kLakePools; ++k) {
    const uint64_t pool_seed = args.seed * kLakePools + k;
    LakePool pool;
    pool.c = MakeCase(data::MakeSchoolScenario(/*large=*/true, pool_seed));
    pool.name = StrFormat("%s#%zu", pool.c->scenario.name.c_str(), k);
    pool.data_dir = dir / StrFormat("data%zu", k);
    pool.cache_dir = dir / StrFormat("cache%zu", k);
    Status written = WriteRepository(pool.c->scenario.repo, pool.data_dir);
    Result<core::ArdaConfig> config = LakeConfig(
        pool.c->scenario, "mutual_info", pool_seed, kPipelineThreads);
    if (!written.ok() || !config.ok()) {
      std::fprintf(stderr, "lake pool %zu: %s %s\n", k,
                   written.ToString().c_str(),
                   config.status().ToString().c_str());
      std::exit(1);
    }
    pool.config = *config;
    // Set-up: the cold load that parses every CSV and writes the cache.
    discovery::DataRepository repo;
    discovery::LoadStats stats;
    Stopwatch watch;
    Status loaded = repo.LoadDirectory(pool.data_dir.string(),
                                       pool.cache_dir.string(), {}, &stats);
    w.setup_seconds.push_back(watch.ElapsedSeconds());
    if (!loaded.ok() || stats.cache_writes != pool.c->scenario.repo.size()) {
      std::fprintf(stderr, "cold load failed: %s (%zu cache writes)\n",
                   loaded.ToString().c_str(), stats.cache_writes);
      std::exit(1);
    }
    pools->push_back(std::move(pool));
  }
  auto first_reports = std::make_shared<std::map<std::string, std::string>>();
  w.measure = [pools, first_reports](double seconds) {
    Window window;
    Stopwatch wall;
    // Round-robin over the pools, at least one full round.
    for (size_t i = 0; i < pools->size() || wall.ElapsedSeconds() < seconds;
         ++i) {
      const LakePool& pool = (*pools)[i % pools->size()];
      // The one-shot CLI path: a warm-cache load of the whole pool, then
      // an augmentation with built-in discovery.
      Stopwatch op;
      discovery::DataRepository repo;
      discovery::LoadStats stats;
      Status loaded = repo.LoadDirectory(pool.data_dir.string(),
                                         pool.cache_dir.string(), {}, &stats);
      const double load_seconds = op.ElapsedSeconds();
      window.tables_loaded += stats.tables_loaded;
      window.cache_hits += stats.cache_hits;
      if (!loaded.ok() || stats.cache_hits != stats.tables_loaded) {
        std::fprintf(stderr, "warm load failed: %s\n",
                     loaded.ToString().c_str());
        ++window.attempted;
        ++window.failed;
        continue;
      }
      RunAndRecord(pool.config, LakeTask(repo, pool.c->scenario),
                   pool.c->truth, pool.name, first_reports.get(), &window,
                   load_seconds);
    }
    return window;
  };
  return w;
}

// ---------------------------------------------------------------------
// Workload: serve_mixed.

// One augment request a client sends.
struct ServeRequest {
  size_t scenario = 0;
  std::string selector;
  uint64_t seed = 0;
  bool repeat = false;

  std::string Json(const data::Scenario& s) const {
    std::map<std::string, json::Value> m;
    m.emplace("type", json::Value::MakeString("augment"));
    m.emplace("base", json::Value::MakeString(s.name));
    m.emplace("target", json::Value::MakeString(s.target_column));
    m.emplace("task", json::Value::MakeString(
                          s.task == ml::TaskType::kClassification
                              ? "classification"
                              : "regression"));
    m.emplace("selector", json::Value::MakeString(selector));
    m.emplace("threads", json::Value::MakeInt(1));
    m.emplace("seed", json::Value::MakeInt(static_cast<int64_t>(seed)));
    return json::Serialize(json::Value::MakeObject(std::move(m)));
  }
  std::string Key() const {
    return StrFormat("%zu/%s/%llu", scenario, selector.c_str(),
                     static_cast<unsigned long long>(seed));
  }
};

// The request with sequence number `index` of a run with workload seed
// `seed`: a pure function of both, so the request stream repeats exactly
// whichever client sends each request. Scenarios rotate; every
// kRepeatEvery-th request repeats the one three slots earlier (a fresh
// one, usually answered by then) and should hit the result cache.
ServeRequest RequestAt(uint64_t seed, uint64_t index, size_t num_cases) {
  if (index >= 3 && index % kRepeatEvery == kRepeatEvery - 1) {
    ServeRequest earlier = RequestAt(seed, index - 3, num_cases);
    earlier.repeat = true;
    return earlier;
  }
  ServeRequest request;
  request.scenario = index % num_cases;
  request.selector = (index / num_cases) % 2 == 0 ? "mutual_info" : "f_test";
  request.seed = seed * 1000003 + index;
  return request;
}

// A reply kept for the post-window check against an in-process run.
struct ServeReply {
  ServeRequest request;
  std::string report_json;
  int64_t generation = 0;
  int window_id = 0;
};

struct ServeState {
  uint64_t seed = 0;
  std::vector<std::unique_ptr<ScenarioCase>> cases;
  fs::path data_dir;
  fs::path cache_dir;
  // The table client 0 rewrites before each ingest, and its two contents.
  std::string ingest_table;
  std::string ingest_csv[2];
  int ingest_version = 0;  // content currently on disk
  std::map<int64_t, int> version_of_generation;
  std::unique_ptr<service::ArdaService> server;
  int window_id = 0;
  std::mutex mu;  // guards the fields below
  uint64_t request_index = 0;  // continues across windows: fresh seeds
  std::vector<ServeReply> replies;
};

Status WriteText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return out ? Status::Ok()
             : Status::IoError("cannot write " + path.string());
}

Result<json::Value> Call(service::ServiceClient* client,
                         const std::string& request) {
  ARDA_ASSIGN_OR_RETURN(std::string reply, client->RoundTrip(request));
  return json::Parse(reply);
}

// service.request_seconds (count, sum) from a `stats` reply.
bool ServerLatency(service::ServiceClient* client, uint64_t* count,
                   double* sum, uint64_t* cache_hits) {
  Result<json::Value> stats = Call(client, "{\"type\": \"stats\"}");
  if (!stats.ok()) return false;
  const json::Value* m = stats->Find("metrics");
  if (m == nullptr) return false;
  *cache_hits = 0;
  if (const json::Value* counters = m->Find("counters")) {
    *cache_hits = static_cast<uint64_t>(
        counters->IntOr("service.result_cache_hits_total", 0));
  }
  const json::Value* histograms = m->Find("histograms");
  if (histograms == nullptr) return false;
  for (const json::Value& h : histograms->AsArray()) {
    if (h.StringOr("name", "") == "service.request_seconds") {
      *count = static_cast<uint64_t>(h.IntOr("count", 0));
      *sum = h.NumberOr("sum", 0.0);
      return true;
    }
  }
  return false;
}

// One closed-loop client: sends augments until `deadline` (a Stopwatch
// reading); client 0 also rewrites the ingest table and re-ingests.
void ServeClient(ServeState* state, size_t client_index, uint16_t port,
                 const Stopwatch& wall, double deadline,
                 ServiceWindow* out) {
  Result<service::ServiceClient> client =
      service::ServiceClient::Connect(port);
  if (!client.ok()) {
    ++out->errors;
    return;
  }
  size_t since_ingest = 0;
  while (wall.ElapsedSeconds() < deadline) {
    ServeRequest request;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      request = RequestAt(state->seed, state->request_index++,
                          state->cases.size());
    }
    const std::string payload =
        request.Json(state->cases[request.scenario]->scenario);
    Stopwatch rt;
    Result<json::Value> reply = Call(&*client, payload);
    const double seconds = rt.ElapsedSeconds();
    out->all_roundtrips.push_back(seconds);
    ++out->augments;
    if (!reply.ok()) {  // the connection is gone: stop this client
      ++out->errors;
      std::fprintf(stderr, "augment round trip failed: %s\n",
                   reply.status().ToString().c_str());
      return;
    }
    const std::string status = reply->StringOr("status", "");
    if (status == "overloaded") {
      ++out->overloaded;
    } else if (status != "ok") {
      ++out->errors;
      std::fprintf(stderr, "augment failed: %s\n",
                   reply->StringOr("error", "?").c_str());
    } else {
      ++out->completed;
      if (request.repeat) {
        ++out->repeats;
      } else {
        out->fresh_roundtrips.push_back(seconds);
        out->fresh_by_scenario[state->cases[request.scenario]->scenario.name]
            .push_back(seconds);
      }
      std::lock_guard<std::mutex> lock(state->mu);
      state->replies.push_back({request, reply->StringOr("report_json", ""),
                                reply->IntOr("generation", -1),
                                state->window_id});
    }
    if (client_index == 0 && ++since_ingest == kIngestEvery &&
        wall.ElapsedSeconds() < deadline) {
      since_ingest = 0;
      state->ingest_version ^= 1;
      Status wrote = WriteText(state->data_dir / (state->ingest_table + ".csv"),
                               state->ingest_csv[state->ingest_version]);
      Stopwatch ingest_watch;
      Result<json::Value> ingested =
          wrote.ok() ? Call(&*client, "{\"type\": \"ingest\"}")
                     : Result<json::Value>(wrote);
      const double ingest_seconds = ingest_watch.ElapsedSeconds();
      out->all_roundtrips.push_back(ingest_seconds);
      ++out->ingests;
      if (!ingested.ok() || ingested->StringOr("status", "") != "ok") {
        ++out->errors;
        continue;
      }
      out->ingest_seconds.push_back(ingest_seconds);
      out->tables_loaded +=
          static_cast<size_t>(ingested->IntOr("tables_loaded", 0));
      out->table_cache_hits +=
          static_cast<size_t>(ingested->IntOr("cache_hits", 0));
      std::lock_guard<std::mutex> lock(state->mu);
      state->version_of_generation[ingested->IntOr("generation", -1)] =
          state->ingest_version;
    }
  }
}

Status StartServer(ServeState* state) {
  service::ServiceConfig config;
  config.data_dir = state->data_dir.string();
  config.table_cache = state->cache_dir.string();
  state->server = std::make_unique<service::ArdaService>(config);
  ARDA_RETURN_IF_ERROR(state->server->Start());
  ARDA_ASSIGN_OR_RETURN(service::ServiceClient client,
                        service::ServiceClient::Connect(state->server->port()));
  ARDA_ASSIGN_OR_RETURN(json::Value pong,
                        Call(&client, "{\"type\": \"ping\"}"));
  if (pong.StringOr("status", "") != "ok") {
    return Status::Internal("ping did not return ok");
  }
  return Status::Ok();
}

// One in-process reference run: a request on one data version, the
// replies that must equal it, and whether it is in the quality set.
struct Reference {
  ServeRequest request;
  int version = -1;
  std::vector<const ServeReply*> replies;
  bool quality = false;
  std::string report_json;
};

// Re-runs every distinct reply of window `window_id` in-process on the
// data version its generation served and counts the replies whose report
// differs. With `quality` it also runs the first kQualityRequests fresh
// requests of the stream on the original data and scores them into
// `quality`, so the quality metrics cover the same requests whatever the
// window managed to send.
size_t CheckReplies(ServeState* state, int window_id,
                    std::set<std::string>* digests,
                    std::vector<Augmentation>* quality) {
  std::map<std::pair<std::string, int>, Reference> todo;
  for (const ServeReply& reply : state->replies) {
    if (reply.window_id != window_id) continue;
    auto it = state->version_of_generation.find(reply.generation);
    const int version =
        it == state->version_of_generation.end() ? -1 : it->second;
    Reference& ref = todo[{reply.request.Key(), version}];
    ref.request = reply.request;
    ref.version = version;
    ref.replies.push_back(&reply);
  }
  if (quality != nullptr) {
    size_t fresh = 0;
    for (uint64_t index = 0; fresh < kQualityRequests; ++index) {
      const ServeRequest request =
          RequestAt(state->seed, index, state->cases.size());
      if (request.repeat) continue;
      ++fresh;
      Reference& ref = todo[{request.Key(), 0}];
      ref.request = request;
      ref.version = 0;
      ref.quality = true;
    }
  }
  // One repository per data version, loaded the way the service loads.
  std::vector<std::unique_ptr<discovery::DataRepository>> repos(2);
  const int on_disk = state->ingest_version;
  for (int version : {on_disk ^ 1, on_disk}) {
    Status wrote = WriteText(state->data_dir / (state->ingest_table + ".csv"),
                             state->ingest_csv[version]);
    auto repo = std::make_unique<discovery::DataRepository>();
    Status loaded = repo->LoadDirectory(state->data_dir.string(),
                                        state->cache_dir.string());
    if (wrote.ok() && loaded.ok()) repos[version] = std::move(repo);
  }
  std::vector<Reference*> work;
  for (auto& [key, ref] : todo) work.push_back(&ref);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < work.size(); i = next++) {
      Reference& ref = *work[i];
      const ScenarioCase& c = *state->cases[ref.request.scenario];
      if (ref.version < 0 || repos[ref.version] == nullptr) continue;
      Result<core::ArdaConfig> config =
          LakeConfig(c.scenario, ref.request.selector, ref.request.seed, 1);
      if (!config.ok()) continue;
      Result<core::ArdaReport> report =
          core::Arda(*config).Run(LakeTask(*repos[ref.version], c.scenario));
      if (report.ok()) ref.report_json = core::DeterministicReportJson(*report);
    }
  };
  // The clock has stopped, so the reference runs may use every core.
  const size_t check_threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < check_threads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  size_t mismatches = 0;
  std::string all_digests;
  for (const Reference* ref : work) {
    for (const ServeReply* reply : ref->replies) {
      if (ref->report_json.empty() || reply->report_json != ref->report_json) {
        ++mismatches;
      }
    }
    if (!ref->quality) continue;
    const ScenarioCase& c = *state->cases[ref->request.scenario];
    Augmentation a;
    a.scenario = c.scenario.name;
    if (ScoreReport(ref->report_json, c.truth, &a)) {
      quality->push_back(a);
      all_digests += ref->request.Key() + ":" + Digest(ref->report_json) + "\n";
    } else {
      ++mismatches;
    }
  }
  if (quality != nullptr) {
    digests->insert(StrFormat("quality set of %zu requests:",
                              kQualityRequests) + Digest(all_digests));
  }
  return mismatches;
}

Workload ServeMixed(const Args& args, const fs::path& dir) {
  auto state = std::make_shared<ServeState>();
  state->seed = args.seed;
  state->data_dir = dir / "data";
  state->cache_dir = dir / "cache";
  state->cases.push_back(
      MakeCase(data::MakeSchoolScenario(/*large=*/true, args.seed)));
  state->cases.push_back(MakeCase(data::MakePovertyScenario(args.seed)));
  state->cases.push_back(MakeCase(data::MakeTaxiScenario(args.seed)));
  // One directory serves all three pools, so their table names must not
  // collide; the attributors index the pool of their own scenario.
  std::set<std::string> names;
  for (const auto& c : state->cases) {
    for (const std::string& name : c->scenario.repo.Names()) {
      if (!names.insert(name).second) {
        std::fprintf(stderr, "table %s appears in two pools\n", name.c_str());
        std::exit(1);
      }
    }
    Status written = WriteRepository(c->scenario.repo, state->data_dir);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      std::exit(1);
    }
  }
  // The re-ingested table: the poverty pool's first noise table, whose
  // second content is the same rows in reverse order.
  const data::Scenario& poverty = state->cases[1]->scenario;
  for (const discovery::CandidateJoin& c : poverty.candidates) {
    if (std::find(poverty.signal_tables.begin(), poverty.signal_tables.end(),
                  c.foreign_table) == poverty.signal_tables.end()) {
      state->ingest_table = c.foreign_table;
      break;
    }
  }
  const df::DataFrame& table = poverty.repo.GetOrDie(state->ingest_table);
  std::vector<size_t> reversed(table.NumRows());
  for (size_t r = 0; r < reversed.size(); ++r) {
    reversed[r] = reversed.size() - 1 - r;
  }
  state->ingest_csv[0] = df::WriteCsvString(table);
  state->ingest_csv[1] = df::WriteCsvString(table.Take(reversed));
  state->version_of_generation[1] = 0;

  Workload w;
  w.threads = kServeClients;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state->server.reset();
    fs::remove_all(state->cache_dir);
    Stopwatch watch;
    Status started = StartServer(state.get());
    w.setup_seconds.push_back(watch.ElapsedSeconds());
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      std::exit(1);
    }
  }
  w.measure = [state](double seconds) {
    Window window;
    service::ServiceClient* stats_client = nullptr;
    Result<service::ServiceClient> client =
        service::ServiceClient::Connect(state->server->port());
    if (client.ok()) stats_client = &*client;
    uint64_t count0 = 0, count1 = 0, hits0 = 0, hits1 = 0;
    double sum0 = 0.0, sum1 = 0.0;
    const bool stats_ok =
        stats_client != nullptr &&
        ServerLatency(stats_client, &count0, &sum0, &hits0);
    window.service.window_id = ++state->window_id;
    std::vector<ServiceWindow> per_client(kServeClients);
    Stopwatch wall;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kServeClients; ++c) {
      clients.emplace_back(ServeClient, state.get(), c, state->server->port(),
                           std::cref(wall), seconds, &per_client[c]);
    }
    for (std::thread& t : clients) t.join();
    window.wall_seconds = wall.ElapsedSeconds();
    ServiceWindow& s = window.service;
    for (const ServiceWindow& c : per_client) {
      s.fresh_roundtrips.insert(s.fresh_roundtrips.end(),
                                c.fresh_roundtrips.begin(),
                                c.fresh_roundtrips.end());
      s.all_roundtrips.insert(s.all_roundtrips.end(), c.all_roundtrips.begin(),
                              c.all_roundtrips.end());
      s.ingest_seconds.insert(s.ingest_seconds.end(), c.ingest_seconds.begin(),
                              c.ingest_seconds.end());
      s.augments += c.augments;
      s.completed += c.completed;
      s.repeats += c.repeats;
      s.ingests += c.ingests;
      s.overloaded += c.overloaded;
      s.errors += c.errors;
      window.tables_loaded += c.tables_loaded;
      window.cache_hits += c.table_cache_hits;
      for (const auto& [name, seconds] : c.fresh_by_scenario) {
        std::vector<double>& all = window.augment_seconds[name];
        all.insert(all.end(), seconds.begin(), seconds.end());
      }
    }
    if (stats_ok && ServerLatency(stats_client, &count1, &sum1, &hits1)) {
      // The closing stats request itself is not in the count yet, but the
      // opening one is; both are sub-millisecond.
      s.server_requests = count1 - count0;
      s.server_seconds = sum1 - sum0;
      s.cache_hits = hits1 - hits0;
    } else {
      ++s.errors;
    }
    return window;
  };
  w.check = [state](Window* window, bool score_quality) {
    ServiceWindow& s = window->service;
    s.mismatches = CheckReplies(
        state.get(), s.window_id, &window->digests,
        score_quality ? &window->augmentations : nullptr);
    window->attempted = s.augments + s.ingests;
    window->failed = s.overloaded + s.errors + s.mismatches;
  };
  w.teardown = [state] { state->server.reset(); };
  return w;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                     metrics[i].unit);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

const metrics::HistogramSnapshot* FindHistogram(
    const metrics::MetricsSnapshot& snapshot, const std::string& name) {
  for (const metrics::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string sanitizer = SanitizerName();
  std::printf("# env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "affinity_cpus=%zu cpu=\"%s\" simd=\"%s\" build_type=%s "
              "sanitizer=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), AffinityCpus(),
              CpuModel().c_str(), simd::DispatchSummary().c_str(),
              PERFBENCH_BUILD_TYPE, sanitizer.empty() ? "none" : sanitizer.c_str());
  if (!sanitizer.empty()) {
    std::fprintf(stderr, "refusing to measure a %s-sanitizer build\n",
                 sanitizer.c_str());
    return 3;
  }
  if (args.trace && !kTracedBinary) {
    std::fprintf(stderr, "--trace 1 needs the perfbench_traced binary\n");
    return 2;
  }

  const fs::path dir = fs::path(args.work_dir) /
                       StrFormat("%s-%d", args.workload.c_str(), getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);

  Workload workload;
  if (args.workload == "rifs_scenarios") {
    workload = RifsScenarios(args);
  } else if (args.workload == "lake_filter") {
    workload = LakeFilter(args, dir);
  } else {
    workload = ServeMixed(args, dir);
  }

  // One untraced window; --trace 1 splits --seconds between it and a
  // traced window (each still at least one full pass or round), and the
  // tracing overhead is the ratio of the two.
  const double window_seconds = args.trace ? args.seconds / 2 : args.seconds;
  auto run_window = [&](bool traced) {
    ArmLayers(traced);
    if (traced) trace::Enable();
    const LayerSnapshot layers_before = SnapshotLayers();
    const metrics::MetricsSnapshot registry_before =
        metrics::GlobalRegistry().Snapshot();
    const double cpu_before = CpuSeconds();
    Stopwatch wall;
    Window window = workload.measure(window_seconds);
    if (window.wall_seconds == 0.0) window.wall_seconds = wall.ElapsedSeconds();
    window.cpu_seconds = CpuSeconds() - cpu_before;
    window.peak_rss_mib = PeakRssMiB();
    window.layers = SnapshotLayers().Since(layers_before);
    window.registry_before = registry_before;
    window.registry_after = metrics::GlobalRegistry().Snapshot();
    if (traced) trace::Disable();
    ArmLayers(false);
    return window;
  };
  Window window = run_window(false);
  Window traced;
  if (args.trace) traced = run_window(true);
  if (workload.check) {
    workload.check(&window, true);
    if (args.trace) workload.check(&traced, false);
  }
  if (args.trace) {
    const fs::path trace_path =
        fs::path(args.work_dir) /
        StrFormat("trace-%s.json", args.workload.c_str());
    Status wrote = trace::WriteJson(trace_path.string());
    std::printf("# perfetto trace: %s (%zu events%s)\n",
                trace_path.string().c_str(), trace::EventCount(),
                wrote.ok() ? "" : ", write failed");
  }
  if (workload.teardown) workload.teardown();
  fs::remove_all(dir);

  const size_t attempted = window.attempted + traced.attempted;
  const size_t failed = window.failed + traced.failed;
  // Quality counts each distinct augmentation once (a repeated pass
  // reproduces the same report, checked above), so it repeats exactly for
  // a seed however many passes the window managed.
  Quality quality;
  double improvement_sum = 0.0;
  double improvement_min = 0.0;
  size_t distinct = 0;
  for (const Augmentation& a : window.augmentations) {
    if (!a.first) continue;
    quality += a.quality;
    improvement_min = distinct == 0 ? a.improvement_pct
                                    : std::min(improvement_min,
                                               a.improvement_pct);
    improvement_sum += a.improvement_pct;
    ++distinct;
  }
  const double improvement_mean =
      distinct == 0 ? 0.0 : improvement_sum / static_cast<double>(distinct);
  const bool correct =
      failed == 0 && attempted > 0 && distinct > 0 && quality.unattributed == 0;

  std::printf("# setup_s samples:");
  for (double s : workload.setup_seconds) std::printf(" %.4f", s);
  std::printf("\n");
  for (const auto& [name, seconds] : window.augment_seconds) {
    std::printf("# augment_s.%s: median %.4f over %zu\n", name.c_str(),
                Median(seconds), seconds.size());
  }
  for (const std::string& d : window.digests) {
    std::printf("# report digest %s\n", d.c_str());
  }
  std::printf("# quality over %zu distinct augmentations: signal %zu/%zu "
              "kept, noise %zu/%zu kept, unattributed %zu, improvement_pct "
              "min %.4f mean %.4f\n",
              distinct, quality.signal_kept, quality.signal_total,
              quality.noise_kept, quality.noise_total, quality.unattributed,
              improvement_min, improvement_mean);

  const ServiceWindow& s = window.service;
  if (args.workload == "serve_mixed") {
    const Tail tail = TailPercentile(s.fresh_roundtrips);
    std::printf("# serve: %zu augments (%zu repeats), %zu ingests, "
                "%zu overloaded, %zu errors, %zu mismatches; fresh "
                "round-trip p50 %.4f over %zu, tail p%d %.4f (%zu beyond)\n",
                s.augments, s.repeats, s.ingests, s.overloaded, s.errors,
                s.mismatches, Median(s.fresh_roundtrips),
                s.fresh_roundtrips.size(), tail.percent, tail.value,
                tail.beyond);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const size_t completed = args.workload == "serve_mixed"
                                 ? window.service.completed
                                 : window.augmentations.size();
    metrics = {
        {"setup_s", Median(workload.setup_seconds), "s"},
        {"augment_s", window.AugmentSeconds(), "s"},
        {"augments_per_s",
         static_cast<double>(completed) / window.wall_seconds, "1/s"},
        {"ok_share", 1.0 - FailedShare(failed, attempted), "share"},
        {"signal_recall", quality.SignalRecall(), "share"},
        {"noise_rejected", 1.0 - quality.NoiseKept(), "share"},
    };
  } else {
    const LayerSnapshot& l = traced.layers;
    const double runs =
        std::max<double>(1.0, static_cast<double>(l[Layer::kRun].calls));
    auto per_run = [&](Layer layer) { return l[layer].seconds / runs; };
    auto stage = [&](const char* name) {
      const metrics::HistogramSnapshot* after =
          FindHistogram(traced.registry_after, name);
      const metrics::HistogramSnapshot* before =
          FindHistogram(traced.registry_before, name);
      return (after ? after->sum : 0.0) - (before ? before->sum : 0.0);
    };
    std::printf("# layer                  calls   seconds  (per run)   "
                "stage.* cross-check\n");
    const std::map<Layer, const char*> stage_of = {
        {Layer::kSelect, "stage.select"},
        {Layer::kFinalScore, "stage.final_estimate"},
        {Layer::kJoinExecute, "stage.join"},
        {Layer::kImpute, "stage.impute"},
        {Layer::kEncode, "stage.encode"},
        {Layer::kDiscover, "stage.discovery"},
        {Layer::kCoreset, "stage.coreset"},
        {Layer::kRun, "stage.arda.run"},
    };
    for (size_t i = 0; i < kNumLayers; ++i) {
      const Layer layer = static_cast<Layer>(i);
      auto it = stage_of.find(layer);
      std::printf("# %-22s %6llu %9.4f %9.4f   %s %s\n", LayerName(layer),
                  static_cast<unsigned long long>(l[layer].calls),
                  l[layer].seconds, per_run(layer),
                  it == stage_of.end() ? "" : it->second,
                  it == stage_of.end()
                      ? ""
                      : StrFormat("%.4f", stage(it->second)).c_str());
    }
    const double untraced_s = window.AugmentSeconds();
    const double traced_s = traced.AugmentSeconds();
    const double overhead_pct =
        untraced_s > 0.0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0;
    const double unaccounted =
        l.run_seconds > 0.0 ? 1.0 - l.covered_seconds / l.run_seconds : 0.0;
    const double featsel_ml_share =
        l.run_seconds > 0.0 ? l.featsel_ml_seconds / l.run_seconds : 0.0;
    std::printf("# tracing overhead %.2f%% (augment_s %.4f traced vs %.4f "
                "untraced); unaccounted share of core.run %.4f; featsel+ml "
                "share %.4f\n",
                overhead_pct, traced_s, untraced_s, unaccounted,
                featsel_ml_share);
    // Batch counts are results, not timings: they come from the distinct
    // augmentations of the untraced window, like the quality metrics.
    size_t batches = 0, accepted = 0, considered = 0, kept = 0;
    for (const Augmentation& a : window.augmentations) {
      if (!a.first) continue;
      batches += a.batches;
      accepted += a.accepted_batches;
      considered += a.features_considered;
      kept += a.features_kept;
    }
    const double n_aug = std::max<double>(1.0, static_cast<double>(distinct));
    const ServiceWindow& ts = traced.service;
    const Tail tail = TailPercentile(ts.fresh_roundtrips);
    const double roundtrip = ts.all_roundtrips.empty()
        ? 0.0
        : std::accumulate(ts.all_roundtrips.begin(), ts.all_roundtrips.end(),
                          0.0) / static_cast<double>(ts.all_roundtrips.size());
    const double server = ts.server_requests == 0
        ? 0.0
        : ts.server_seconds / static_cast<double>(ts.server_requests);
    const double loads =
        std::max<double>(1.0, static_cast<double>(l[Layer::kLoad].calls));
    // Layer times and counts are per Arda::Run in the traced window (a
    // workload that never reaches a layer reports 0 for it); loads and
    // service latencies are per load and per request.
    metrics = {
        // Per-scenario times of the untraced window: the factors of the
        // end-to-end augment_s (0 for a scenario the workload does not run).
        {"augment_s.pickup", window.AugmentSeconds("pickup"), "s"},
        {"augment_s.poverty", window.AugmentSeconds("poverty"), "s"},
        {"augment_s.school_s", window.AugmentSeconds("school_s"), "s"},
        {"augment_s.taxi", window.AugmentSeconds("taxi"), "s"},
        {"augment_s.school_l", window.AugmentSeconds("school_l"), "s"},
        {"featsel.noise_s", per_run(Layer::kNoise), "s/run"},
        {"featsel.rank_forest_s", per_run(Layer::kRankForest), "s/run"},
        {"featsel.rank_sparse_s", per_run(Layer::kRankSparse), "s/run"},
        {"featsel.select_s", per_run(Layer::kSelect), "s/run"},
        {"ml.score_s", per_run(Layer::kScore), "s/run"},
        {"ml.score_calls", static_cast<double>(l[Layer::kScore].calls) / runs,
         "count/run"},
        {"ml.final_score_s", per_run(Layer::kFinalScore), "s/run"},
        {"join.execute_s", per_run(Layer::kJoinExecute), "s/run"},
        {"join.calls",
         static_cast<double>(l[Layer::kJoinExecute].calls) / runs,
         "count/run"},
        {"join.failed",
         static_cast<double>(l[Layer::kJoinExecute].failures) / runs,
         "count/run"},
        {"join.impute_s", per_run(Layer::kImpute), "s/run"},
        {"dataframe.encode_s", per_run(Layer::kEncode), "s/run"},
        {"discovery.discover_s", per_run(Layer::kDiscover), "s/run"},
        {"discovery.candidates",
         static_cast<double>(l[Layer::kDiscover].items) / runs, "count/run"},
        {"coreset.sample_s", per_run(Layer::kCoreset), "s/run"},
        {"dataframe.load_s", l[Layer::kLoad].seconds / loads, "s/load"},
        {"dataframe.cache_hit_ratio",
         traced.tables_loaded == 0
             ? 0.0
             : static_cast<double>(traced.cache_hits) /
                   static_cast<double>(traced.tables_loaded),
         "share"},
        {"service.roundtrip_s", roundtrip, "s/request"},
        {"service.roundtrip_tail_s", tail.value, "s/request"},
        {"service.server_s", server, "s/request"},
        {"service.wire_s", ts.server_requests == 0 ? 0.0 : roundtrip - server,
         "s/request"},
        {"service.cache_hit_ratio",
         ts.augments == 0 ? 0.0
                          : static_cast<double>(ts.cache_hits) /
                                static_cast<double>(ts.augments),
         "share"},
        {"service.overloaded", static_cast<double>(ts.overloaded), "count"},
        {"service.ingest_p50_s", Median(ts.ingest_seconds), "s/ingest"},
        {"core.run_s", per_run(Layer::kRun), "s/run"},
        {"core.batches", static_cast<double>(batches) / n_aug, "count/run"},
        {"core.accept_ratio",
         batches == 0 ? 0.0
                      : static_cast<double>(accepted) /
                            static_cast<double>(batches),
         "share"},
        {"core.improvement_pct", improvement_mean, "%"},
        {"featsel.kept_ratio",
         considered == 0 ? 0.0
                         : static_cast<double>(kept) /
                               static_cast<double>(considered),
         "share"},
        {"util.cpu_util",
         traced.cpu_seconds /
             (traced.wall_seconds * static_cast<double>(workload.threads)),
         "share"},
        {"util.peak_rss_mib", traced.peak_rss_mib, "MiB"},
        {"trace.overhead_pct", overhead_pct, "%"},
        {"trace.unaccounted_share", unaccounted, "share"},
        {"trace.featsel_ml_share", featsel_ml_share, "share"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace arda::perfbench

int main(int argc, char** argv) { return arda::perfbench::Main(argc, argv); }
