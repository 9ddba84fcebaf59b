// Layer wrappers of the traced benchmark binary.
//
// perfbench_traced is linked with `-Wl,--wrap=<symbol>` for every symbol
// named on a line starting with PERFBENCH_WRAP below (CMakeLists.txt reads
// them from this file). The linker then routes every call to <symbol>
// that crosses object files to __wrap_<symbol>, which opens a LayerSpan
// and calls the original as __real_<symbol>. Nothing in src/ changes.
//
// What a wrapper cannot see: calls inside the object file that defines
// the function, and virtual calls through a vtable. Hence:
//   - featsel.noise wraps the two la:: calls that make up the
//     moment-matched draw in MakeNoiseFeatures (rifs.cc calls
//     MakeNoiseFeatures itself, so it is not wrappable);
//   - featsel.rank_sparse wraps ml::L21SparseRegression::Fit, the body of
//     SparseRegressionRanker::Rank, which RIFS calls through the vtable;
//   - dataframe.encode wraps df::EncodeFeatures, where core::BuildDataset
//     (called only inside arda.cc) spends its time;
//   - featsel.select wraps RunRifs and ExponentialSearchSelect, the two
//     selection bodies FeatureSelector::TrySelect (virtual) reaches;
//   - ml.score wraps ScoreFeatures and ScoreAllFeatures (the latter calls
//     the former inside evaluator.cc, so nothing is counted twice).
// The share of Arda::Run no span covers is reported as
// trace.unaccounted_share.
//
// Each wrapper is declared with the C++ types of the original and a
// static_assert pins them to the header declaration, so a changed
// signature fails the build of perfbench_traced instead of miscalling
// (perfbench, the untraced binary, is unaffected); a mangled name that
// names no symbol fails the link the same way.

#include <type_traits>
#include <vector>

#include "core/arda.h"
#include "coreset/coreset.h"
#include "dataframe/encode.h"
#include "discovery/discovery.h"
#include "discovery/repository.h"
#include "featsel/model_rankers.h"
#include "featsel/rifs.h"
#include "featsel/search.h"
#include "join/impute.h"
#include "join/join_executor.h"
#include "la/linalg.h"
#include "layers.h"
#include "ml/evaluator.h"
#include "ml/sparse_regression.h"

namespace arda::perfbench {
namespace {

// Function-pointer type of a member function called as a free function
// with `this` first — the calling convention the wrappers rely on.
template <typename F>
struct AsFree {
  using type = F;
};
template <typename R, typename C, typename... A>
struct AsFree<R (C::*)(A...) const> {
  using type = R (*)(const C*, A...);
};
template <typename R, typename C, typename... A>
struct AsFree<R (C::*)(A...)> {
  using type = R (*)(C*, A...);
};

// Layer-specific bookkeeping on a wrapped call's result.
template <typename T>
void Note(LayerSpan&, const T&) {}
template <typename T>
void Note(LayerSpan& span, const Result<T>& result) {
  if (!result.ok()) span.MarkFailed();
}
inline void Note(LayerSpan& span,
                 const std::vector<discovery::CandidateJoin>& found) {
  span.AddItems(found.size());
}

}  // namespace
}  // namespace arda::perfbench

// PERFBENCH_WRAP(symbol, layer, original, Ret, (params), (args)): `original`
// is the C++ entity (for the signature check); member functions take
// `self` as their first parameter.
#define PERFBENCH_WRAP(symbol, layer, original, Ret, Params, Args)         \
  extern "C" Ret __real_##symbol Params;                                   \
  static_assert(                                                           \
      std::is_same_v<                                                      \
          arda::perfbench::AsFree<decltype(original)>::type,               \
          decltype(&__real_##symbol)>,                                     \
      "wrapper signature differs from " #original);                        \
  extern "C" Ret __wrap_##symbol Params {                                  \
    arda::perfbench::LayerSpan span(arda::perfbench::Layer::layer);        \
    Ret result = __real_##symbol Args;                                     \
    arda::perfbench::Note(span, result);                                   \
    return result;                                                         \
  }
#define PERFBENCH_WRAP_VOID(symbol, layer, original, Params, Args)         \
  extern "C" void __real_##symbol Params;                                  \
  static_assert(                                                           \
      std::is_same_v<                                                      \
          arda::perfbench::AsFree<decltype(original)>::type,               \
          decltype(&__real_##symbol)>,                                     \
      "wrapper signature differs from " #original);                        \
  extern "C" void __wrap_##symbol Params {                                 \
    arda::perfbench::LayerSpan span(arda::perfbench::Layer::layer);        \
    __real_##symbol Args;                                                  \
  }

using namespace arda;  // NOLINT: keeps the wrapper lines readable

PERFBENCH_WRAP(_ZN4arda2la21ComputeFeatureMomentsERKNS0_6MatrixE,
               kNoise, &la::ComputeFeatureMoments, la::FeatureMoments,
               (const la::Matrix& x), (x))
PERFBENCH_WRAP(_ZN4arda2la24SampleMultivariateNormalERKNS0_14FeatureMomentsEmPNS_3RngE,
               kNoise, &la::SampleMultivariateNormal, la::Matrix,
               (const la::FeatureMoments& moments, size_t count, Rng* rng),
               (moments, count, rng))
PERFBENCH_WRAP(_ZNK4arda7featsel18RandomForestRanker10RankSeededERKNS_2ml7DatasetEm,
               kRankForest, &featsel::RandomForestRanker::RankSeeded,
               std::vector<double>,
               (const featsel::RandomForestRanker* self,
                const ml::Dataset& data, uint64_t seed),
               (self, data, seed))
PERFBENCH_WRAP_VOID(_ZN4arda2ml19L21SparseRegression3FitERKNS_2la6MatrixERKSt6vectorIdSaIdEE,
                    kRankSparse, &ml::L21SparseRegression::Fit,
                    (ml::L21SparseRegression* self, const la::Matrix& x,
                     const std::vector<double>& y),
                    (self, x, y))
PERFBENCH_WRAP(_ZN4arda7featsel7RunRifsERKNS_2ml7DatasetERKNS1_9EvaluatorERKNS0_10RifsConfigEPNS_3RngE,
               kSelect, &featsel::RunRifs, featsel::RifsResult,
               (const ml::Dataset& data, const ml::Evaluator& evaluator,
                const featsel::RifsConfig& config, Rng* rng),
               (data, evaluator, config, rng))
PERFBENCH_WRAP(_ZN4arda7featsel23ExponentialSearchSelectERKSt6vectorIdSaIdEERKNS_2ml9EvaluatorE,
               kSelect, &featsel::ExponentialSearchSelect,
               featsel::SearchResult,
               (const std::vector<double>& ranking,
                const ml::Evaluator& evaluator),
               (ranking, evaluator))
PERFBENCH_WRAP(_ZNK4arda2ml9Evaluator13ScoreFeaturesERKSt6vectorImSaImEE,
               kScore, &ml::Evaluator::ScoreFeatures, double,
               (const ml::Evaluator* self,
                const std::vector<size_t>& features),
               (self, features))
PERFBENCH_WRAP(_ZNK4arda2ml9Evaluator16ScoreAllFeaturesEv,
               kScore, &ml::Evaluator::ScoreAllFeatures, double,
               (const ml::Evaluator* self), (self))
PERFBENCH_WRAP(_ZNK4arda2ml9Evaluator10FinalScoreERKSt6vectorImSaImEE,
               kFinalScore, &ml::Evaluator::FinalScore, double,
               (const ml::Evaluator* self,
                const std::vector<size_t>& features),
               (self, features))
PERFBENCH_WRAP(_ZN4arda4join15ExecuteLeftJoinERKNS_2df9DataFrameES4_RKNS_9discovery13CandidateJoinERKNS0_11JoinOptionsEPNS_3RngE,
               kJoinExecute, &join::ExecuteLeftJoin, Result<df::DataFrame>,
               (const df::DataFrame& base, const df::DataFrame& foreign,
                const discovery::CandidateJoin& candidate,
                const join::JoinOptions& options, Rng* rng),
               (base, foreign, candidate, options, rng))
PERFBENCH_WRAP(_ZN4arda4join13ImputeInPlaceEPNS_2df9DataFrameEPNS_3RngE,
               kImpute, &join::ImputeInPlace, Status,
               (df::DataFrame* frame, Rng* rng), (frame, rng))
PERFBENCH_WRAP(_ZN4arda2df14EncodeFeaturesERKNS0_9DataFrameERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaISA_EERKNS0_13EncodeOptionsE,
               kEncode, &df::EncodeFeatures, df::EncodedFeatures,
               (const df::DataFrame& frame,
                const std::vector<std::string>& exclude,
                const df::EncodeOptions& options),
               (frame, exclude, options))
PERFBENCH_WRAP(_ZN4arda9discovery18DiscoverCandidatesERKNS0_14DataRepositoryERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESB_RKNS0_16DiscoveryOptionsE,
               kDiscover, &discovery::DiscoverCandidates,
               std::vector<discovery::CandidateJoin>,
               (const discovery::DataRepository& repo,
                const std::string& base_name,
                const std::string& target_column,
                const discovery::DiscoveryOptions& options),
               (repo, base_name, target_column, options))
PERFBENCH_WRAP(_ZN4arda7coreset13SampleCoresetERKNS_2df9DataFrameERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_2ml8TaskTypeERKNS0_13CoresetConfigEPNS_3RngE,
               kCoreset, &coreset::SampleCoreset, Result<df::DataFrame>,
               (const df::DataFrame& base, const std::string& target,
                ml::TaskType task, const coreset::CoresetConfig& config,
                Rng* rng),
               (base, target, task, config, rng))
PERFBENCH_WRAP(_ZN4arda9discovery14DataRepository13LoadDirectoryERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_RKNS0_11LoadOptionsEPNS0_9LoadStatsE,
               kLoad, &discovery::DataRepository::LoadDirectory, Status,
               (discovery::DataRepository* self, const std::string& data_dir,
                const std::string& cache_dir,
                const discovery::LoadOptions& options,
                discovery::LoadStats* stats),
               (self, data_dir, cache_dir, options, stats))
PERFBENCH_WRAP(_ZNK4arda4core4Arda3RunERKNS0_16AugmentationTaskE,
               kRun, &core::Arda::Run, Result<core::ArdaReport>,
               (const core::Arda* self, const core::AugmentationTask& task),
               (self, task))
