#include "service/service.h"

#include <optional>
#include <utility>

#include "core/options.h"
#include "core/report_io.h"
#include "dataframe/csv.h"
#include "simd/simd.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define ARDA_SERVICE_HAVE_PIPE 1
#endif

#include <future>

namespace arda::service {

namespace {

// Response payloads are json::Serialize output (members in sorted key
// order), so two processes building the same logical response agree on
// the bytes — the service half of the byte-identity contract. Status and
// error responses carry the request id for log correlation; augment "ok"
// responses never do (they ARE the byte-identity surface, and two
// clients sending the same request must read the same bytes).
std::string StatusResponse(const char* status, const std::string& error,
                           const std::string& request_id = "") {
  std::map<std::string, json::Value> members;
  members.emplace("status", json::Value::MakeString(status));
  if (!error.empty()) {
    members.emplace("error", json::Value::MakeString(error));
  }
  if (!request_id.empty()) {
    members.emplace("request_id", json::Value::MakeString(request_id));
  }
  return json::Serialize(json::Value::MakeObject(std::move(members)));
}

std::string ShuttingDownResponse(const std::string& request_id) {
  return StatusResponse("shutting_down",
                        "server is draining; retry against a new instance",
                        request_id);
}

// Reads an integer request field. Absent (or not a number) gives
// `fallback`; a number whose value is not an integer in int64 range
// (1e300, 99999999999999999999, 2.5) is an error that names the field.
Result<int64_t> IntField(const json::Value& request, const char* field,
                         int64_t fallback) {
  const json::Value* value = request.Find(field);
  if (value == nullptr || !value->is_number()) return fallback;
  std::optional<int64_t> parsed = value->ToInt64();
  if (!parsed.has_value()) {
    return Status::InvalidArgument(StrFormat(
        "\"%s\" must be an integer in int64 range, got %.17g", field,
        value->AsDouble()));
  }
  return *parsed;
}

// The request fields that determine augmentation results, in their
// canonical (CLI-equivalent) spelling. `threads` is deliberately not one
// of them: results are thread-count-invariant, so requests differing only
// in `threads` share a resident result. Seeds travel as int64 on the wire
// and are reinterpreted as uint64, so negative seeds are valid.
Result<core::RunOptions> OptionsFromRequest(const json::Value& request) {
  core::RunOptions options;
  options.task = request.StringOr("task", options.task);
  options.selector = request.StringOr("selector", options.selector);
  options.plan = request.StringOr("plan", options.plan);
  options.plan_order = request.StringOr("plan_order", options.plan_order);
  options.soft_join = request.StringOr("soft_join", options.soft_join);
  ARDA_ASSIGN_OR_RETURN(
      int64_t seed,
      IntField(request, "seed", static_cast<int64_t>(options.seed)));
  options.seed = static_cast<uint64_t>(seed);
  ARDA_ASSIGN_OR_RETURN(int64_t threads, IntField(request, "threads", 0));
  options.num_threads = static_cast<size_t>(threads);
  // Like `threads`, `memory_budget` never affects results (partitioned
  // kernels are bit-identical to single-pass), so it is also excluded
  // from the canonical key below.
  ARDA_ASSIGN_OR_RETURN(int64_t memory_budget,
                        IntField(request, "memory_budget", 0));
  options.memory_budget_bytes = static_cast<uint64_t>(memory_budget);
  return options;
}

std::string CanonicalAugmentKey(const json::Value& request,
                                const core::RunOptions& options,
                                uint64_t generation) {
  std::map<std::string, json::Value> members;
  members.emplace("base",
                  json::Value::MakeString(request.StringOr("base", "")));
  members.emplace("target",
                  json::Value::MakeString(request.StringOr("target", "")));
  members.emplace("task", json::Value::MakeString(options.task));
  members.emplace("selector", json::Value::MakeString(options.selector));
  members.emplace("plan", json::Value::MakeString(options.plan));
  members.emplace("plan_order",
                  json::Value::MakeString(options.plan_order));
  members.emplace("soft_join", json::Value::MakeString(options.soft_join));
  members.emplace("seed", json::Value::MakeInt(
                              static_cast<int64_t>(options.seed)));
  return json::Serialize(json::Value::MakeObject(std::move(members))) +
         "@" + StrFormat("%llu", static_cast<unsigned long long>(generation));
}

}  // namespace

ArdaService::ArdaService(ServiceConfig config)
    : config_(std::move(config)) {}

ArdaService::~ArdaService() {
  if (started_) {
    BeginShutdown();
    Wait();
  }
#if defined(ARDA_SERVICE_HAVE_PIPE)
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
#endif
}

Result<ArdaService::Snapshot> ArdaService::LoadSnapshot(
    const std::string& data_dir, const std::string& table_cache,
    size_t load_threads, bool map_cache, uint64_t generation,
    const discovery::DataRepository* base) {
  Snapshot snapshot;
  snapshot.generation = generation;
  // Ingest starts from a copy of the serving repository: the copy shares
  // every frame (copy-on-write at table granularity), LoadDirectory
  // replaces only the tables it re-loads, and tables whose `.ardac` cache
  // is fresh cost a fingerprint check instead of a parse. The published
  // snapshot is never mutated — in-flight requests keep the shared_ptr
  // they started with.
  auto repo = base == nullptr
                  ? std::make_shared<discovery::DataRepository>()
                  : std::make_shared<discovery::DataRepository>(*base);
  discovery::LoadOptions load_options;
  load_options.csv.num_threads = load_threads;
  // Out-of-core mode: serve fresh v3 caches through an mmap. The frames
  // hold the mapping alive through shared ownership, so the COW swap
  // below never unmaps a table an in-flight request still reads — the
  // mapping is released only when the last reader drops its snapshot.
  load_options.map_cache = map_cache;
  discovery::LoadStats stats;
  ARDA_RETURN_IF_ERROR(
      repo->LoadDirectory(data_dir, table_cache, load_options, &stats));
  for (const discovery::IngestSkip& fallback : stats.fallbacks) {
    snapshot.ingest_skips.push_back(
        {fallback.table, "ingest", fallback.reason});
  }
  snapshot.tables_loaded = stats.tables_loaded;
  snapshot.cache_hits = stats.cache_hits;
  snapshot.repo = std::move(repo);
  return snapshot;
}

Status ArdaService::Start() {
  ARDA_CHECK(!started_);
  ARDA_ASSIGN_OR_RETURN(
      Snapshot snapshot,
      LoadSnapshot(config_.data_dir, config_.table_cache,
                   config_.load_threads, config_.map_cache,
                   /*generation=*/1));
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::make_shared<const Snapshot>(std::move(snapshot));
    next_generation_ = 2;
  }
  metrics::SetGauge("service.snapshot_generation", 1.0);

#if defined(ARDA_SERVICE_HAVE_PIPE)
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::IoError("cannot create service wake pipe");
  }
  // The wake byte is written at most once and never drained, so every
  // level-triggered poller wakes; non-blocking guards the writer anyway.
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
#endif

  ARDA_ASSIGN_OR_RETURN(listener_, ListenLocal(config_.port));
  ARDA_ASSIGN_OR_RETURN(port_, BoundPort(listener_));
  accept_thread_ = std::thread(&ArdaService::AcceptLoop, this);
  started_ = true;
  log::Info("service.started",
            {log::Field::Int("port", static_cast<int64_t>(port_)),
             log::Field::Uint("tables_loaded",
                              snapshot_info().tables_loaded)});
  return Status::Ok();
}

SnapshotInfo ArdaService::snapshot_info() const {
  std::shared_ptr<const Snapshot> snapshot = CurrentSnapshot();
  SnapshotInfo info;
  if (snapshot != nullptr) {
    info.generation = snapshot->generation;
    info.tables_loaded = snapshot->tables_loaded;
    info.cache_hits = snapshot->cache_hits;
  }
  return info;
}

void ArdaService::BeginShutdown() {
  bool expected = false;
  if (!shutting_down_.compare_exchange_strong(expected, true)) return;
  log::Info("service.draining");
#if defined(ARDA_SERVICE_HAVE_PIPE)
  if (wake_write_fd_ >= 0) {
    // Single wake byte; see Start. A full pipe would mean it was already
    // written, which is just as good.
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, "x", 1);
  }
#endif
}

void ArdaService::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (joined_) return;
    connections.swap(connections_);
    joined_ = true;
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
}

std::shared_ptr<const ArdaService::Snapshot> ArdaService::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void ArdaService::AcceptLoop() {
  for (;;) {
    Result<Socket> conn = AcceptInterruptible(listener_, wake_read_fd_);
    if (!conn.ok()) break;  // shutdown wake or fatal socket error
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (shutting_down_.load(std::memory_order_relaxed)) break;
    connections_.emplace_back(&ArdaService::ConnectionLoop, this,
                              std::move(conn).value());
  }
  listener_.Close();
}

void ArdaService::ConnectionLoop(Socket socket) {
  // The connection id is minted at accept; every request on this
  // connection derives its request id from it, so one id correlates the
  // request log record, the trace span and any error response.
  const uint64_t conn_id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t request_seq = 0;
  log::Debug("service.connection_open",
             {log::Field::Uint("conn", conn_id)});
  for (;;) {
    if (shutting_down_.load(std::memory_order_relaxed)) break;
    Result<std::string> request = RecvFrame(socket.fd(), wake_read_fd_);
    if (!request.ok()) break;  // clean close, shutdown wake, or error
    // A request already on the wire when shutdown begins still gets a
    // response (graceful drain); the next poll breaks the loop.
    const std::string request_id = StrFormat(
        "c%llu-%llu", static_cast<unsigned long long>(conn_id),
        static_cast<unsigned long long>(++request_seq));
    const std::string response = HandleRequest(request.value(), request_id);
    if (!SendFrame(socket.fd(), response).ok()) break;
  }
  log::Debug("service.connection_close",
             {log::Field::Uint("conn", conn_id),
              log::Field::Uint("requests", request_seq)});
}

std::string ArdaService::HandleRequest(const std::string& request_json) {
  return HandleRequest(
      request_json,
      StrFormat("r%llu",
                static_cast<unsigned long long>(
                    fallback_request_seq_.fetch_add(
                        1, std::memory_order_relaxed) +
                    1)));
}

std::string ArdaService::HandleRequest(const std::string& request_json,
                                       const std::string& request_id) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  metrics::IncrementCounter("service.requests_total");
  Stopwatch watch;
  std::string type;
  std::vector<trace::StageCollector::Entry> stages;
  Result<std::string> response =
      Dispatch(request_json, request_id, &type, &stages);
  const double elapsed = watch.ElapsedSeconds();
  metrics::ObserveLatency("service.request_seconds", elapsed);
  std::string out;
  if (response.ok()) {
    out = std::move(response).value();
  } else {
    metrics::IncrementCounter("service.request_errors_total");
    out = StatusResponse("error", response.status().ToString(),
                         request_id);
  }
  if (log::Enabled(log::Level::kInfo)) {
    log::Info("service.request",
              {log::Field::Str("request_id", request_id),
               log::Field::Str("type", type.empty() ? "?" : type),
               log::Field::F64("elapsed_ms", elapsed * 1000.0),
               log::Field::Bool("ok", response.ok())});
  }
  const double elapsed_ms = elapsed * 1000.0;
  if (config_.slow_request_ms > 0.0 &&
      elapsed_ms >= config_.slow_request_ms) {
    // The offender record carries the full per-stage breakdown collected
    // during the run, so "where did the time go" is answerable from the
    // log alone, without a trace armed.
    std::vector<log::Field> fields;
    fields.push_back(log::Field::Str("request_id", request_id));
    fields.push_back(log::Field::Str("type", type.empty() ? "?" : type));
    fields.push_back(log::Field::F64("elapsed_ms", elapsed_ms));
    fields.push_back(
        log::Field::F64("threshold_ms", config_.slow_request_ms));
    for (const trace::StageCollector::Entry& e : stages) {
      fields.push_back(log::Field::F64(
          std::string("stage_ms.") + e.stage, e.seconds * 1000.0));
    }
    log::Log(log::Level::kWarn, "service.slow_request", fields);
    metrics::IncrementCounter("service.slow_requests_total");
  }
  return out;
}

Result<std::string> ArdaService::Dispatch(
    const std::string& request_json, const std::string& request_id,
    std::string* type_out,
    std::vector<trace::StageCollector::Entry>* stages_out) {
  // The admission/decode fault site: an armed `service_accept` rejects
  // the request with an error response while the connection and server
  // keep going.
  ARDA_FAULT_POINT(fault::kServiceAccept);
  ARDA_ASSIGN_OR_RETURN(json::Value request, json::Parse(request_json));
  const std::string type = request.StringOr("type", "");
  *type_out = type;
  trace::TraceSpan span("service.request", "service",
                        type + " id=" + request_id);
  if (type == "ping") return HandlePing();
  if (type == "stats") return HandleStats();
  if (type == "augment") {
    return HandleAugment(request, request_id, stages_out);
  }
  if (type == "ingest") return HandleIngest(request, request_id);
  if (type == "shutdown") {
    // The response is serialized back on the connection thread after this
    // returns, so the client sees the acknowledgement before the drain
    // closes its connection.
    log::Info("service.shutdown_requested",
              {log::Field::Str("request_id", request_id)});
    BeginShutdown();
    return StatusResponse("ok", "", request_id);
  }
  return Status::InvalidArgument("unknown request type: " +
                                 (type.empty() ? "(missing)" : type));
}

std::string ArdaService::HandlePing() {
  std::map<std::string, json::Value> members;
  const SnapshotInfo info = snapshot_info();
  members.emplace("server", json::Value::MakeString("arda_serve"));
  members.emplace("simd_level",
                  json::Value::MakeString(simd::DispatchSummary()));
  members.emplace("snapshot_generation",
                  json::Value::MakeInt(static_cast<int64_t>(
                      info.generation)));
  members.emplace("status", json::Value::MakeString("ok"));
  members.emplace("tables_loaded",
                  json::Value::MakeInt(static_cast<int64_t>(
                      info.tables_loaded)));
  return json::Serialize(json::Value::MakeObject(std::move(members)));
}

std::string ArdaService::HandleStats() {
  // Refresh the derived gauges first so the embedded metrics snapshot
  // (and the explicit latency fields below) report live window
  // quantiles, same as a /metrics scrape.
  PublishTelemetryGauges();
  const SnapshotInfo info = snapshot_info();
  size_t queue_depth;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    queue_depth = inflight_;
  }
  size_t resident;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    resident = results_.size();
  }
  // Not part of the byte-identity surface (latency and cumulative metrics
  // are never deterministic), so the embedded metrics snapshot keeps the
  // pretty-printed MetricsToJson layout dashboards already parse.
  std::string out = "{\"status\": \"ok\", ";
  out += StrFormat("\"snapshot_generation\": %llu, ",
                   static_cast<unsigned long long>(info.generation));
  out += StrFormat("\"tables_loaded\": %zu, ", info.tables_loaded);
  out += StrFormat("\"queue_depth\": %zu, ", queue_depth);
  out += StrFormat("\"resident_results\": %zu, ", resident);
  out += StrFormat(
      "\"requests_total\": %llu, ",
      static_cast<unsigned long long>(
          requests_total_.load(std::memory_order_relaxed)));
  {
    metrics::Histogram& latency = metrics::GlobalRegistry().GetHistogram(
        "service.request_seconds", metrics::LatencyBucketsSeconds());
    out += StrFormat(
        "\"request_latency\": {\"p50\": %.6g, \"p90\": %.6g, "
        "\"p99\": %.6g}, ",
        latency.WindowQuantile(0.50), latency.WindowQuantile(0.90),
        latency.WindowQuantile(0.99));
  }
  out += "\"metrics\": " +
         core::MetricsToJson(metrics::GlobalRegistry().Snapshot()) + "}";
  return out;
}

Result<std::string> ArdaService::HandleAugment(
    const json::Value& request, const std::string& request_id,
    std::vector<trace::StageCollector::Entry>* stages_out) {
  if (shutting_down_.load(std::memory_order_relaxed)) {
    return ShuttingDownResponse(request_id);
  }
  ARDA_ASSIGN_OR_RETURN(const core::RunOptions options,
                        OptionsFromRequest(request));
  std::shared_ptr<const Snapshot> snapshot = CurrentSnapshot();
  const std::string key =
      CanonicalAugmentKey(request, options, snapshot->generation);
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    auto it = results_.find(key);
    if (it != results_.end()) {
      metrics::IncrementCounter("service.result_cache_hits_total");
      return it->second;
    }
  }

  // Admission gate: bounded concurrent admissions, explicit overload
  // rejection instead of unbounded queueing.
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (inflight_ >= config_.max_queue_depth) {
      metrics::IncrementCounter("service.overload_rejected_total");
      log::Warn("service.overloaded",
                {log::Field::Str("request_id", request_id),
                 log::Field::Uint("inflight", inflight_)});
      return StatusResponse(
          "overloaded",
          StrFormat("admission queue full (%zu in flight)", inflight_),
          request_id);
    }
    ++inflight_;
    metrics::SetGauge("service.queue_depth",
                      static_cast<double>(inflight_));
    trace::CounterEvent("service.queue_depth",
                        static_cast<double>(inflight_));
  }

  Stopwatch watch;
  std::promise<Result<std::string>> promise;
  std::future<Result<std::string>> future = promise.get_future();
  GlobalThreadPool().Submit(
      [this, &request, &snapshot, &promise, stages_out] {
        promise.set_value(RunAugment(request, snapshot, stages_out));
      });
  Result<std::string> result = future.get();
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    --inflight_;
    metrics::SetGauge("service.queue_depth",
                      static_cast<double>(inflight_));
    trace::CounterEvent("service.queue_depth",
                        static_cast<double>(inflight_));
  }
  metrics::ObserveLatency("service.augment_seconds",
                          watch.ElapsedSeconds());
  if (!result.ok()) return result.status();

  {
    std::lock_guard<std::mutex> lock(results_mu_);
    if (results_.emplace(key, result.value()).second) {
      results_order_.push_back(key);
      while (results_.size() > config_.max_resident_results &&
             !results_order_.empty()) {
        results_.erase(results_order_.front());
        results_order_.pop_front();
      }
    }
  }
  return result;
}

Result<std::string> ArdaService::RunAugment(
    const json::Value& request,
    std::shared_ptr<const Snapshot> snapshot,
    std::vector<trace::StageCollector::Entry>* stages_out) {
  // Collect the per-stage wall times of this run (on this pool thread)
  // for the slow-request log record. The caller blocks on the future, so
  // writing into its vector after the scopes close is race-free.
  trace::StageCollector collector;
  Result<std::string> result = [&]() -> Result<std::string> {
    trace::StageScope scope("service.run_augment");
  const std::string base_name = request.StringOr("base", "");
  const std::string target = request.StringOr("target", "");
  if (base_name.empty() || target.empty()) {
    return Status::InvalidArgument(
        "augment request needs \"base\" and \"target\"");
  }
  ARDA_ASSIGN_OR_RETURN(const core::RunOptions options,
                        OptionsFromRequest(request));
  ARDA_ASSIGN_OR_RETURN(core::ArdaConfig config,
                        core::MakeArdaConfig(options));
  ARDA_ASSIGN_OR_RETURN(ml::TaskType task_type,
                        core::ParseTaskType(options.task));
  ARDA_ASSIGN_OR_RETURN(const df::DataFrame* base,
                        snapshot->repo->Get(base_name));

  core::AugmentationTask task;
  task.base = *base;
  task.target_column = target;
  task.task = task_type;
  task.repo = snapshot->repo.get();
  task.base_table_name = base_name;
  task.ingest_skips = snapshot->ingest_skips;
  // No interrupt_check: an admitted request always runs to completion,
  // even during graceful shutdown (the drain waits for it).

  core::Arda arda(config);
  ARDA_ASSIGN_OR_RETURN(core::ArdaReport report, arda.Run(task));

  std::map<std::string, json::Value> members;
  members.emplace("generation",
                  json::Value::MakeInt(static_cast<int64_t>(
                      snapshot->generation)));
  // The deterministic report rides as an escaped JSON string: unescaping
  // reproduces DeterministicReportJson byte-for-byte, which is what the
  // byte-identity tests and the bench --assert-identical mode compare
  // against the CLI's --canonical-report output.
  members.emplace("report_json", json::Value::MakeString(
                                     core::DeterministicReportJson(report)));
  members.emplace("status", json::Value::MakeString("ok"));
  return json::Serialize(json::Value::MakeObject(std::move(members)));
  }();
  if (stages_out != nullptr) *stages_out = collector.entries();
  return result;
}

Result<std::string> ArdaService::HandleIngest(
    const json::Value& request, const std::string& request_id) {
  if (shutting_down_.load(std::memory_order_relaxed)) {
    return ShuttingDownResponse(request_id);
  }
  // One ingest at a time; augment readers never block on this (they hold
  // their own shared_ptr to the snapshot they started with).
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  trace::StageScope scope("service.ingest");
  Stopwatch watch;
  const std::string data_dir =
      request.StringOr("data_dir", config_.data_dir);
  const std::string table_cache =
      request.StringOr("table_cache", config_.table_cache);
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    generation = next_generation_;
  }
  std::shared_ptr<const Snapshot> current = CurrentSnapshot();
  ARDA_ASSIGN_OR_RETURN(
      Snapshot snapshot,
      LoadSnapshot(data_dir, table_cache, config_.load_threads,
                   config_.map_cache, generation,
                   current == nullptr ? nullptr : current->repo.get()));
  // The swap fault site sits after the (expensive) load, modelling a
  // failure at the last moment: the new snapshot is discarded and the
  // previous one keeps serving (asserted by the fault-matrix tests).
  ARDA_FAULT_POINT(fault::kServiceIngest);
  std::map<std::string, json::Value> members;
  members.emplace("cache_hits",
                  json::Value::MakeInt(static_cast<int64_t>(
                      snapshot.cache_hits)));
  members.emplace("generation",
                  json::Value::MakeInt(static_cast<int64_t>(generation)));
  members.emplace("status", json::Value::MakeString("ok"));
  members.emplace("tables_loaded",
                  json::Value::MakeInt(static_cast<int64_t>(
                      snapshot.tables_loaded)));
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::make_shared<const Snapshot>(std::move(snapshot));
    next_generation_ = generation + 1;
  }
  metrics::IncrementCounter("service.ingests_total");
  metrics::SetGauge("service.snapshot_generation",
                    static_cast<double>(generation));
  metrics::ObserveLatency("service.ingest_seconds",
                          watch.ElapsedSeconds());
  log::Info("service.ingested",
            {log::Field::Str("request_id", request_id),
             log::Field::Uint("generation", generation),
             log::Field::F64("elapsed_ms",
                             watch.ElapsedSeconds() * 1000.0)});
  return json::Serialize(json::Value::MakeObject(std::move(members)));
}

bool ArdaService::Ready(std::string* reason) const {
  if (shutting_down_.load(std::memory_order_relaxed)) {
    if (reason != nullptr) *reason = "draining";
    return false;
  }
  if (CurrentSnapshot() == nullptr) {
    if (reason != nullptr) *reason = "no repository snapshot loaded";
    return false;
  }
  return true;
}

void ArdaService::PublishTelemetryGauges() {
  metrics::Registry& registry = metrics::GlobalRegistry();
  registry.AdvanceWindows(log::MonotonicSeconds());
  metrics::Histogram& latency = registry.GetHistogram(
      "service.request_seconds", metrics::LatencyBucketsSeconds());
  metrics::SetGauge("service.request_latency_p50",
                    latency.WindowQuantile(0.50));
  metrics::SetGauge("service.request_latency_p90",
                    latency.WindowQuantile(0.90));
  metrics::SetGauge("service.request_latency_p99",
                    latency.WindowQuantile(0.99));
  metrics::UpdatePeakRssGauge();
  simd::PublishLevelMetrics();
}

}  // namespace arda::service
