#include "core/arda.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <memory>

#include "discovery/discovery.h"
#include "discovery/tuple_ratio.h"
#include "featsel/selector.h"
#include "join/impute.h"
#include "simd/simd.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace arda::core {

const char* JoinPlanKindName(JoinPlanKind kind) {
  switch (kind) {
    case JoinPlanKind::kTableAtATime:
      return "table";
    case JoinPlanKind::kBudget:
      return "budget";
    case JoinPlanKind::kFullMaterialization:
      return "full";
  }
  return "unknown";
}

double ArdaReport::ImprovementPercent() const {
  if (std::fabs(base_score) < 1e-12) {
    return (final_score - base_score) * 100.0;
  }
  // Scores are higher-is-better (accuracy, or negative MAE); normalize by
  // the magnitude of the base score so regression reads as % error
  // reduction and classification as % accuracy gain.
  return (final_score - base_score) / std::fabs(base_score) * 100.0;
}

size_t EstimateEncodedFeatures(const df::DataFrame& table,
                               const df::EncodeOptions& encode) {
  size_t count = 0;
  for (size_t c = 0; c < table.NumCols(); ++c) {
    const df::Column& col = table.col(c);
    if (col.IsNumeric()) {
      ++count;
    } else {
      count += std::min(col.DistinctValuesAsString().size(),
                        encode.max_categories);
    }
  }
  return count;
}

size_t EstimateEncodedFeaturesFromStats(const df::DataFrame& table,
                                        const df::TableStats& stats,
                                        const df::EncodeOptions& encode) {
  if (stats.columns.size() != table.NumCols()) {
    return EstimateEncodedFeatures(table, encode);
  }
  size_t count = 0;
  for (size_t c = 0; c < table.NumCols(); ++c) {
    if (table.col(c).IsNumeric()) {
      ++count;
    } else {
      const double ndv = stats.columns[c].DistinctEstimate();
      count += std::min(
          static_cast<size_t>(std::llround(std::max(0.0, ndv))),
          encode.max_categories);
    }
  }
  return count;
}

double EstimateTupleRatioFromStats(
    size_t base_rows, const discovery::DataRepository& repo,
    const discovery::CandidateJoin& candidate) {
  const double ns = static_cast<double>(base_rows);
  Result<const df::DataFrame*> foreign = repo.Get(candidate.foreign_table);
  if (!foreign.ok() || candidate.keys.empty()) return ns;
  const df::TableStats* stats = repo.Stats(candidate.foreign_table);
  if (stats == nullptr ||
      stats->columns.size() != foreign.value()->NumCols()) {
    return ns;
  }
  double domain = 0.0;
  for (const discovery::JoinKeyPair& key : candidate.keys) {
    if (!foreign.value()->HasColumn(key.foreign_column)) return ns;
    const size_t index = foreign.value()->ColumnIndex(key.foreign_column);
    domain = std::max(domain, stats->columns[index].DistinctEstimate());
  }
  if (domain < 1.0) return ns;
  return ns / domain;
}

void OrderCandidatesByEstimatedCost(
    std::vector<discovery::CandidateJoin>* candidates,
    const discovery::DataRepository& repo, size_t base_rows) {
  std::vector<double> ratios;
  ratios.reserve(candidates->size());
  for (const discovery::CandidateJoin& candidate : *candidates) {
    ratios.push_back(
        EstimateTupleRatioFromStats(base_rows, repo, candidate));
  }
  std::vector<size_t> order(candidates->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return ratios[a] < ratios[b]; });
  std::vector<discovery::CandidateJoin> reordered;
  reordered.reserve(candidates->size());
  for (size_t i : order) reordered.push_back(std::move((*candidates)[i]));
  *candidates = std::move(reordered);
}

std::vector<std::vector<discovery::CandidateJoin>> BuildJoinPlan(
    const std::vector<discovery::CandidateJoin>& candidates,
    const discovery::DataRepository& repo, JoinPlanKind plan, size_t budget,
    const df::EncodeOptions& encode) {
  std::vector<std::vector<discovery::CandidateJoin>> batches;
  if (candidates.empty()) return batches;
  if (plan == JoinPlanKind::kFullMaterialization) {
    batches.push_back(candidates);
    return batches;
  }
  if (plan == JoinPlanKind::kTableAtATime) {
    for (const discovery::CandidateJoin& cand : candidates) {
      batches.push_back({cand});
    }
    return batches;
  }
  // Budget batching: pack candidates (already in priority order) until
  // the estimated feature count would exceed the budget. A single table
  // above the budget still ships alone (the paper's exception).
  std::vector<discovery::CandidateJoin> current;
  size_t current_cost = 0;
  for (const discovery::CandidateJoin& cand : candidates) {
    size_t cost = 1;
    if (repo.Has(cand.foreign_table)) {
      const df::DataFrame& table = repo.GetOrDie(cand.foreign_table);
      // Costing from the memoized statistics catalog avoids re-scanning
      // categorical columns on every plan; the catalog is usually already
      // warm from discovery or the ingest cache.
      const df::TableStats* stats = repo.Stats(cand.foreign_table);
      cost = stats != nullptr
                 ? EstimateEncodedFeaturesFromStats(table, *stats, encode)
                 : EstimateEncodedFeatures(table, encode);
    }
    if (!current.empty() && budget > 0 && current_cost + cost > budget) {
      batches.push_back(std::move(current));
      current.clear();
      current_cost = 0;
    }
    current.push_back(cand);
    current_cost += cost;
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

Result<ml::Dataset> BuildDataset(const df::DataFrame& frame,
                                 const std::string& target_column,
                                 ml::TaskType task,
                                 const df::EncodeOptions& encode) {
  if (!frame.HasColumn(target_column)) {
    return Status::NotFound("no such target column: " + target_column);
  }
  const df::Column& target = frame.col(target_column);
  ml::Dataset data;
  data.task = task;
  data.y.reserve(frame.NumRows());
  if (target.IsNumeric()) {
    for (size_t r = 0; r < frame.NumRows(); ++r) {
      if (target.IsNull(r)) {
        return Status::InvalidArgument("target column contains nulls");
      }
      double v = target.NumericAt(r);
      if (task == ml::TaskType::kClassification) {
        if (!std::isfinite(v)) {
          return Status::InvalidArgument(
              "classification label is not finite in column " +
              target_column);
        }
        v = std::round(v);
        if (v < 0) {
          return Status::InvalidArgument(
              "classification labels must be non-negative");
        }
      }
      data.y.push_back(v);
    }
    if (task == ml::TaskType::kClassification) {
      // Models use labels as dense class indices (a label of 1e12 would
      // size a 1e12-class table), so map them to 0..k-1 in ascending
      // order. Labels already 0..k-1 map to themselves.
      std::map<double, double> ids;
      for (double v : data.y) ids.emplace(v, 0.0);
      double next = 0.0;
      for (auto& [label, id] : ids) id = next++;
      for (double& v : data.y) v = ids[v];
    }
  } else {
    if (task == ml::TaskType::kRegression) {
      return Status::InvalidArgument(
          "regression target must be numeric: " + target_column);
    }
    std::vector<std::string> values = target.DistinctValuesAsString();
    std::map<std::string, double> ids;
    for (size_t i = 0; i < values.size(); ++i) {
      ids[values[i]] = static_cast<double>(i);
    }
    for (size_t r = 0; r < frame.NumRows(); ++r) {
      if (target.IsNull(r)) {
        return Status::InvalidArgument("target column contains nulls");
      }
      data.y.push_back(ids[target.StringAt(r)]);
    }
  }
  df::EncodedFeatures encoded =
      df::EncodeFeatures(frame, {target_column}, encode);
  data.x = std::move(encoded.x);
  data.feature_names = std::move(encoded.names);
  return data;
}

namespace {

// Comma-joined table list for skip records covering a whole batch.
std::string JoinedTableList(const std::vector<std::string>& tables) {
  std::string out;
  for (const std::string& table : tables) {
    if (!out.empty()) out += ",";
    out += table;
  }
  return out.empty() ? "<base>" : out;
}

// Selected encoded feature indices -> owning source columns of `frame`.
std::set<std::string> SourceColumnsOf(const df::DataFrame& frame,
                                      const df::EncodedFeatures& encoded,
                                      const std::vector<size_t>& features) {
  std::set<std::string> columns;
  for (size_t f : features) {
    columns.insert(frame.col(encoded.source_column[f]).name());
  }
  return columns;
}

// Records a graceful-degradation skip in the report AND in the metrics
// registry (`skips.<stage>` counter) so observability consumers see the
// same list the report carries (asserted by fault_injection_test).
void RecordSkip(ArdaReport* report, std::string table, const char* stage,
                std::string reason) {
  metrics::IncrementCounter(std::string("skips.") + stage);
  report->skipped_candidates.push_back(
      {std::move(table), stage, std::move(reason)});
}

}  // namespace

Arda::Arda(const ArdaConfig& config) : config_(config) {}

Result<ArdaReport> Arda::Run(const AugmentationTask& task) const {
  Stopwatch total_watch;
  if (task.repo == nullptr) {
    return Status::InvalidArgument("task.repo must be set");
  }
  if (!task.base.HasColumn(task.target_column)) {
    return Status::NotFound("no such target column: " + task.target_column);
  }
  trace::StageScope run_scope("arda.run", "base=" + task.base_table_name);
  metrics::IncrementCounter("pipeline.runs_total");
  Rng rng(config_.seed);

  ArdaReport report;
  // Ingest-time degradations (columnar-cache fallbacks) happened before
  // the run; the loader already incremented their skips.ingest counters,
  // so they are copied into the report without re-counting.
  report.skipped_candidates = task.ingest_skips;

  // 1. Coreset construction on the base table. A failed sample degrades
  // to running on the full base table.
  df::DataFrame coreset_base;
  {
    trace::StageScope scope("coreset");
    Result<df::DataFrame> sampled =
        coreset::SampleCoreset(task.base, task.target_column, task.task,
                               config_.coreset, &rng);
    if (sampled.ok()) {
      coreset_base = std::move(sampled).value();
    } else {
      RecordSkip(&report, task.base_table_name, "coreset",
                 sampled.status().message());
      coreset_base = task.base;
    }
    metrics::ObserveSize("coreset.rows", coreset_base.NumRows());
  }

  // 2. Candidate joins: provided, or discovered in the repository.
  std::vector<discovery::CandidateJoin> candidates = task.candidates;
  if (candidates.empty()) {
    trace::StageScope scope("discovery");
    candidates = discovery::DiscoverCandidates(
        *task.repo, task.base_table_name, task.target_column);
  }
  metrics::IncrementCounter("discovery.candidates_total",
                            candidates.size());

  report.tables_considered = candidates.size();

  // Optional Tuple-Ratio prefilter (Kumar et al. decision rule).
  if (config_.use_tuple_ratio_prefilter) {
    trace::StageScope scope("tuple_ratio");
    discovery::TupleRatioFilterResult filtered =
        discovery::FilterByTupleRatio(*task.repo, coreset_base, candidates,
                                      config_.tuple_ratio_tau);
    report.tables_filtered_by_tuple_ratio = filtered.removed.size();
    metrics::IncrementCounter("discovery.tuple_ratio_filtered_total",
                              filtered.removed.size());
    // Broken references (missing tables / key columns) are degradations,
    // not legitimate "too large" decisions — surface them as skips.
    for (const discovery::RemovedCandidate& removed : filtered.removed) {
      if (removed.broken_reference) {
        RecordSkip(&report, removed.candidate.foreign_table, "tuple_ratio",
                   removed.reason);
      }
    }
    candidates = std::move(filtered.kept);
  }

  // Cost-based ordering from the statistics catalog: join the candidates
  // with the densest foreign-key domains first, so the budget batcher
  // packs high-information tables into the earliest batches.
  if (config_.cost_based_ordering && !candidates.empty()) {
    trace::StageScope scope("cost_order");
    OrderCandidatesByEstimatedCost(&candidates, *task.repo,
                                   coreset_base.NumRows());
  }

  // 3. Join plan.
  size_t budget = config_.budget == 0 ? coreset_base.NumRows()
                                      : config_.budget;
  std::vector<std::vector<discovery::CandidateJoin>> batches;
  {
    trace::StageScope scope("join_plan");
    batches = BuildJoinPlan(candidates, *task.repo, config_.plan, budget,
                            config_.encode);
    metrics::SetGauge("join_plan.batches", batches.size());
  }

  featsel::RifsConfig rifs_config = config_.rifs;
  if (rifs_config.num_threads == 0) {
    rifs_config.num_threads = config_.num_threads;
  }
  std::unique_ptr<featsel::FeatureSelector> selector =
      config_.selector == "rifs"
          ? featsel::MakeRifsSelector(rifs_config)
          : featsel::MakeSelector(config_.selector);
  if (selector == nullptr) {
    return Status::InvalidArgument("unknown selector: " + config_.selector);
  }

  // `current` always holds the accepted augmentation so far (starts as
  // the base coreset) with nulls imputed. A failed imputation degrades to
  // the unimputed frame: EncodeFeatures fills numeric nulls on its own.
  df::DataFrame current = coreset_base;
  {
    trace::StageScope scope("impute");
    Status imputed = join::ImputeInPlace(&current, &rng);
    if (!imputed.ok()) {
      RecordSkip(&report, task.base_table_name, "impute",
                 imputed.message());
    }
  }

  ARDA_ASSIGN_OR_RETURN(ml::Dataset current_data,
                        BuildDataset(current, task.target_column, task.task,
                                     config_.encode));
  ml::Evaluator base_evaluator(current_data, config_.test_fraction,
                               config_.seed);
  double current_score = base_evaluator.ScoreAllFeatures();

  report.num_threads = ResolveNumThreads(config_.num_threads);
  report.simd_level = simd::DispatchSummary();

  // 4. Batched join execution + feature selection. The interrupt probe is
  // polled only at batch boundaries (and before the final estimate): a
  // batch in flight always finishes, so an interrupted report is a valid
  // prefix of the uninterrupted run, not a torn batch.
  auto interrupted_now = [this] {
    return config_.interrupt_check && config_.interrupt_check();
  };
  size_t batch_index = 0;
  for (const std::vector<discovery::CandidateJoin>& batch : batches) {
    if (interrupted_now()) {
      report.interrupted = true;
      break;
    }
    trace::TraceSpan batch_span(
        "batch", "pipeline",
        StrFormat("batch %zu: %zu candidate(s)", batch_index++,
                  batch.size()));
    BatchLog log;
    Stopwatch join_watch;
    // Candidate joins are independent: ExecuteLeftJoin keeps every base
    // row exactly once and the join keys live in the batch-start frame,
    // so each candidate joins against `current` concurrently. Each join
    // gets an RNG sub-stream forked serially in candidate order, and the
    // new columns are merged in candidate order (collision renaming is
    // order-defined) — results are bit-identical for any thread count.
    std::vector<Rng> join_rngs;
    join_rngs.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) join_rngs.push_back(rng.Fork());
    std::vector<std::unique_ptr<df::DataFrame>> joined(batch.size());
    // Each worker writes only its own slot of join_errors/joined, so the
    // error capture needs no locking; skips are recorded after the join
    // barrier, on the calling thread, in candidate order.
    std::vector<Status> join_errors(batch.size());
    ParallelFor(batch.size(), config_.num_threads, [&](size_t i) {
      trace::StageScope scope("join", batch[i].foreign_table);
      Result<const df::DataFrame*> foreign =
          task.repo->Get(batch[i].foreign_table);
      if (!foreign.ok()) {
        join_errors[i] = foreign.status();
        return;
      }
      Result<df::DataFrame> result = join::ExecuteLeftJoin(
          current, *foreign.value(), batch[i], config_.join, &join_rngs[i]);
      if (!result.ok()) {  // skip malformed candidates
        join_errors[i] = result.status();
        return;
      }
      joined[i] =
          std::make_unique<df::DataFrame>(std::move(result).value());
    });

    df::DataFrame working = current;
    bool joined_any = false;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (joined[i] == nullptr) {
        RecordSkip(&report, batch[i].foreign_table, "join",
                   join_errors[i].message());
        continue;
      }
      df::DataFrame new_cols;
      for (size_t c = current.NumCols(); c < joined[i]->NumCols(); ++c) {
        Status st = new_cols.AddColumn(joined[i]->col(c));
        ARDA_CHECK(st.ok());
      }
      std::string prefix = config_.join.column_prefix.empty()
                               ? batch[i].foreign_table + "."
                               : config_.join.column_prefix;
      Status stacked = working.HStack(new_cols, prefix);
      if (!stacked.ok()) {
        RecordSkip(&report, batch[i].foreign_table, "merge",
                   stacked.message());
        continue;
      }
      log.tables.push_back(batch[i].foreign_table);
      joined_any = true;
    }
    metrics::IncrementCounter("join.candidates_joined_total",
                              log.tables.size());
    log.join_seconds = join_watch.ElapsedSeconds();
    report.join_seconds += log.join_seconds;
    if (!joined_any) {
      report.batches.push_back(std::move(log));
      continue;
    }
    {
      trace::StageScope scope("impute");
      Status imputed = join::ImputeInPlace(&working, &rng);
      if (!imputed.ok()) {
        // Degrade to the unimputed frame; encoding fills numeric nulls.
        RecordSkip(&report, JoinedTableList(log.tables), "impute",
                   imputed.message());
      }
    }

    Stopwatch select_watch;
    Result<ml::Dataset> working_result = [&] {
      trace::StageScope scope("encode");
      return BuildDataset(working, task.target_column, task.task,
                          config_.encode);
    }();
    if (!working_result.ok()) {
      RecordSkip(&report, JoinedTableList(log.tables), "encode",
                 working_result.status().message());
      log.score_after = current_score;
      report.batches.push_back(std::move(log));
      continue;
    }
    ml::Dataset working_data = std::move(working_result).value();
    // Optional sketch coreset of the selection data (post-join only).
    ml::Dataset selection_data = working_data;
    if (config_.coreset.method == coreset::CoresetMethod::kSketch) {
      size_t rows = config_.coreset.size == 0
                        ? coreset::HeuristicCoresetSize(
                              working_data.NumRows())
                        : config_.coreset.size;
      selection_data = coreset::SketchRows(working_data, rows, &rng);
    }
    ml::Evaluator evaluator(selection_data, config_.test_fraction,
                            config_.seed);
    Rng selector_rng = rng.Fork();
    Result<featsel::SelectionResult> selected = [&] {
      trace::StageScope scope(
          "select", StrFormat("%zu features",
                              selection_data.NumFeatures()));
      return selector->TrySelect(selection_data, evaluator, &selector_rng);
    }();
    if (!selected.ok()) {
      RecordSkip(&report, JoinedTableList(log.tables), "select",
                 selected.status().message());
      log.selection_seconds = select_watch.ElapsedSeconds();
      report.selection_seconds += log.selection_seconds;
      log.score_after = current_score;
      report.batches.push_back(std::move(log));
      continue;
    }
    featsel::SelectionResult selection = std::move(selected).value();
    log.selection_seconds = select_watch.ElapsedSeconds();
    report.selection_seconds += log.selection_seconds;

    // Which *new* source columns did the selection keep?
    df::EncodedFeatures encoded =
        df::EncodeFeatures(working, {task.target_column}, config_.encode);
    std::set<std::string> kept_columns =
        SourceColumnsOf(working, encoded, selection.selected);
    std::vector<std::string> new_columns;
    for (const std::string& name : kept_columns) {
      if (!current.HasColumn(name)) new_columns.push_back(name);
    }
    log.features_considered = working_data.NumFeatures();
    log.features_kept = new_columns.size();

    if (!new_columns.empty()) {
      // Accept the batch only if the kept columns actually improve the
      // holdout score over the current augmentation.
      trace::StageScope scope("accept");
      df::DataFrame candidate_frame = current;
      for (const std::string& name : new_columns) {
        Status st = candidate_frame.AddColumn(working.col(name));
        ARDA_CHECK(st.ok());
      }
      Result<ml::Dataset> candidate_result =
          BuildDataset(candidate_frame, task.target_column, task.task,
                       config_.encode);
      if (!candidate_result.ok()) {
        // Reject the batch instead of failing the run.
        RecordSkip(&report, JoinedTableList(log.tables), "accept",
                   candidate_result.status().message());
      } else {
        ml::Dataset candidate_data = std::move(candidate_result).value();
        ml::Evaluator accept_evaluator(candidate_data, config_.test_fraction,
                                       config_.seed);
        double candidate_score = accept_evaluator.ScoreAllFeatures();
        if (candidate_score > current_score + config_.min_improvement) {
          current = std::move(candidate_frame);
          current_score = candidate_score;
          report.tables_joined += log.tables.size();
          log.accepted = true;
        }
      }
    }
    log.score_after = current_score;
    report.batches.push_back(std::move(log));
  }

  // 5. Final estimate on the augmented table. The stage scope closes
  // before the metrics snapshot below so its own latency shows up in this
  // run's report. An interrupt before this stage skips the (expensive)
  // final estimators: the partial report carries the score after the last
  // decided batch.
  if (interrupted_now()) report.interrupted = true;
  if (report.interrupted) {
    report.final_score = current_score;
  } else {
    trace::StageScope final_scope("final_estimate");
    ARDA_ASSIGN_OR_RETURN(ml::Dataset final_data,
                          BuildDataset(current, task.target_column,
                                       task.task, config_.encode));
    ml::Evaluator final_evaluator(final_data, config_.test_fraction,
                                  config_.seed);
    report.final_score =
        final_evaluator.FinalScore(ml::AllFeatureIndices(
            final_data.NumFeatures()));
    report.selected_features = final_data.feature_names;

    ARDA_ASSIGN_OR_RETURN(ml::Dataset base_data,
                          BuildDataset(current.Select(
                                           coreset_base.ColumnNames())
                                           .value(),
                                       task.target_column, task.task,
                                       config_.encode));
    ml::Evaluator base_final(base_data, config_.test_fraction,
                             config_.seed);
    report.base_score = base_final.FinalScore(
        ml::AllFeatureIndices(base_data.NumFeatures()));
  }

  report.augmented = std::move(current);
  report.total_seconds = total_watch.ElapsedSeconds();
  metrics::UpdatePeakRssGauge();
  simd::PublishLevelMetrics();
  report.metrics = metrics::GlobalRegistry().Snapshot();
  return report;
}

}  // namespace arda::core
