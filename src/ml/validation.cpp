#include "ml/validation.hpp"

#include "support/stats.hpp"
#include "support/telemetry.hpp"

namespace hcp::ml {

namespace detail {

FoldScore evaluateFold(
    const std::function<std::unique_ptr<Regressor>()>& factory,
    const Dataset& data, const Split& fold) {
  support::telemetry::count(support::telemetry::Counter::CvFoldsEvaluated);
  // The fold trains and scores through `data`'s own rows: no fold copies
  // the feature matrix, and nothing here writes to `data`, so folds may run
  // concurrently over one dataset.
  auto model = factory();
  model->fit(DatasetSource(data, fold.train));
  std::vector<const std::vector<double>*> rows;
  std::vector<double> targets;
  rows.reserve(fold.test.size());
  targets.reserve(fold.test.size());
  for (const std::size_t i : fold.test) {
    rows.push_back(&data.row(i));
    targets.push_back(data.target(i));
  }
  std::vector<double> predicted(rows.size());
  model->predictBatch(rows, predicted);
  const FoldScore score{meanAbsoluteError(targets, predicted),
                        medianAbsoluteError(targets, predicted)};
  support::telemetry::observe(support::telemetry::Histogram::CvFoldMae,
                              score.mae);
  support::telemetry::observe(support::telemetry::Histogram::CvFoldMedae,
                              score.medae);
  return score;
}

CvResult assemble(const std::vector<FoldScore>& scores) {
  CvResult result;
  result.foldMae.reserve(scores.size());
  result.foldMedae.reserve(scores.size());
  for (const FoldScore& s : scores) {
    result.foldMae.push_back(s.mae);
    result.foldMedae.push_back(s.medae);
  }
  result.meanMae = mean(result.foldMae);
  result.meanMedae = mean(result.foldMedae);
  return result;
}

}  // namespace detail

CvResult crossValidate(
    const std::function<std::unique_ptr<Regressor>()>& factory,
    const Dataset& data, std::size_t k, std::uint64_t seed) {
  HCP_SPAN("cross_validate");
  HCP_CHECK(data.size() >= k);
  const auto folds = kFoldSplits(data.size(), k, seed);
  const auto scores =
      support::parallelMapIndex(folds.size(), [&](std::size_t f) {
        return detail::evaluateFold(factory, data, folds[f]);
      });
  return detail::assemble(scores);
}

std::size_t foldOfSampleId(std::uint64_t id, std::uint64_t seed,
                           std::size_t k) {
  HCP_CHECK(k >= 2);
  std::uint64_t x = id ^ (seed + 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % k);
}

CvResult crossValidateStreaming(
    const std::function<std::unique_ptr<Regressor>()>& factory,
    const shards::ShardSet& set, shards::Label label, std::size_t k,
    std::uint64_t seed) {
  HCP_SPAN("cross_validate_streaming");
  HCP_CHECK(k >= 2);
  HCP_CHECK_MSG(set.totalSamples() >= k,
                "cross-validation needs at least k=" << k << " samples, "
                                                     << "shard set has "
                                                     << set.totalSamples());
  std::vector<detail::FoldScore> scores;
  scores.reserve(k);
  for (std::size_t f = 0; f < k; ++f) {
    support::telemetry::count(support::telemetry::Counter::CvFoldsEvaluated);
    const shards::ShardRowSource train(
        set, label,
        [=](std::uint64_t id) { return foldOfSampleId(id, seed, k) != f; });
    const shards::ShardRowSource test(
        set, label,
        [=](std::uint64_t id) { return foldOfSampleId(id, seed, k) == f; });
    HCP_CHECK_MSG(train.size() > 0 && test.size() > 0,
                  "fold " << f << "/" << k << " has an empty "
                          << (train.size() == 0 ? "train" : "test")
                          << " partition (" << set.totalSamples()
                          << " samples; use fewer folds)");
    auto model = factory();
    model->fit(train);
    std::vector<double> targets(test.size(), 0.0);
    std::vector<double> predicted(test.size(), 0.0);
    test.visitParallel(
        [&](std::size_t i, const std::vector<double>& row, double y) {
          targets[i] = y;
          predicted[i] = model->predict(row);
        });
    const detail::FoldScore score{meanAbsoluteError(targets, predicted),
                                  medianAbsoluteError(targets, predicted)};
    support::telemetry::observe(support::telemetry::Histogram::CvFoldMae,
                                score.mae);
    support::telemetry::observe(support::telemetry::Histogram::CvFoldMedae,
                                score.medae);
    scores.push_back(score);
  }
  return detail::assemble(scores);
}

}  // namespace hcp::ml
