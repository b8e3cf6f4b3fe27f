#include "core/predictor.hpp"

#include <algorithm>
#include <map>

#include "ml/serialize.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::core {

std::string_view modelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::Linear: return "Linear";
    case ModelKind::Ann: return "ANN";
    case ModelKind::Gbrt: return "GBRT";
  }
  return "?";
}

CongestionPredictor::CongestionPredictor(PredictorOptions options)
    : options_(std::move(options)) {}

std::unique_ptr<ml::Regressor> CongestionPredictor::makeModel() const {
  switch (options_.kind) {
    case ModelKind::Linear:
      return std::make_unique<ml::LassoRegression>(options_.lasso);
    case ModelKind::Ann:
      return std::make_unique<ml::MlpRegressor>(options_.mlp);
    case ModelKind::Gbrt:
      return std::make_unique<ml::Gbrt>(options_.gbrt);
  }
  HCP_CHECK(false);
  return nullptr;
}

void CongestionPredictor::train(const LabeledDataset& data) {
  HCP_SPAN("train");
  HCP_CHECK_MSG(data.vertical.size() > 0, "empty training dataset");
  vertical_ = makeModel();
  horizontal_ = makeModel();
  average_ = makeModel();
  vertical_->fit(ml::DatasetSource(data.vertical));
  horizontal_->fit(ml::DatasetSource(data.horizontal));
  average_->fit(ml::DatasetSource(data.average));
  trained_ = true;
}

void CongestionPredictor::trainFromShards(const ml::shards::ShardSet& set,
                                          bool streaming) {
  HCP_SPAN("train_from_shards");
  HCP_CHECK_MSG(set.totalSamples() > 0,
                "empty shard set: no training samples under " << set.dir());
  vertical_ = makeModel();
  horizontal_ = makeModel();
  average_ = makeModel();
  const auto fitOne = [&](ml::Regressor& model, ml::shards::Label label) {
    const ml::shards::ShardRowSource source(set, label);
    if (streaming) {
      model.fit(source);
    } else {
      // Cross-check path: materialize the whole set, then fit on the
      // in-memory copy. Exists so tests and the bench can prove the
      // streamed model is byte-identical to this one.
      model.fit(ml::DatasetSource(ml::materialize(source)));
    }
  };
  fitOne(*vertical_, ml::shards::Label::Vertical);
  fitOne(*horizontal_, ml::shards::Label::Horizontal);
  fitOne(*average_, ml::shards::Label::Average);
  trained_ = true;
}

OpPrediction CongestionPredictor::predictOp(
    const features::FeatureExtractor& extractor, std::uint32_t functionIndex,
    ir::OpId op) const {
  HCP_CHECK_MSG(trained_, "predictor not trained");
  const auto x = extractor.extract(functionIndex, op);
  OpPrediction p;
  p.vertical = vertical_->predict(x);
  p.horizontal = horizontal_->predict(x);
  p.average = average_->predict(x);
  return p;
}

std::vector<Hotspot> CongestionPredictor::findHotspots(
    const hls::SynthesizedDesign& design, const features::DeviceCaps& caps,
    std::size_t topK) const {
  HCP_CHECK_MSG(trained_, "predictor not trained");
  features::FeatureExtractor extractor(design, caps);

  struct FuOp {
    std::uint32_t function = 0;
    ir::OpId op = 0;
  };
  std::vector<FuOp> ops;
  for (std::uint32_t f = 0; f < design.module->numFunctions(); ++f) {
    const ir::Function& fn = design.module->function(f);
    for (ir::OpId op = 0; op < fn.numOps(); ++op)
      if (ir::isFunctionalUnit(fn.op(op).opcode)) ops.push_back({f, op});
  }

  // Extraction and the three models run per block of ops, blocks in
  // parallel: every block writes only its own slots of `predicted`, and
  // each value equals predictOp()'s, so the result is thread-count free.
  constexpr std::size_t kBlock = ml::Regressor::kPredictBlock;
  std::vector<OpPrediction> predicted(ops.size());
  support::parallelFor(0, (ops.size() + kBlock - 1) / kBlock, 1,
                       [&](std::size_t b) {
    const std::size_t lo = b * kBlock;
    const std::size_t n = std::min(ops.size(), lo + kBlock) - lo;
    std::vector<std::vector<double>> x(n);
    std::vector<const std::vector<double>*> rows(n);
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = extractor.extract(ops[lo + k].function, ops[lo + k].op);
      rows[k] = &x[k];
    }
    std::vector<double> v(n), h(n), a(n);
    vertical_->predictBatch(rows, v);
    horizontal_->predictBatch(rows, h);
    average_->predictBatch(rows, a);
    for (std::size_t k = 0; k < n; ++k) predicted[lo + k] = {v[k], h[k], a[k]};
  });

  // Regions accumulate serially in op order, as the per-op loop did.
  struct Acc {
    double sum = 0.0, max = 0.0;
    std::size_t count = 0;
  };
  std::map<std::pair<std::uint32_t, std::int32_t>, Acc> regions;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const OpPrediction& p = predicted[k];
    const ir::Function& fn = design.module->function(ops[k].function);
    Acc& acc = regions[{ops[k].function, fn.op(ops[k].op).sourceLine}];
    acc.sum += p.average;
    acc.max = std::max(acc.max, p.average);
    ++acc.count;
  }

  std::vector<Hotspot> hotspots;
  for (const auto& [key, a] : regions) {
    Hotspot h;
    h.functionIndex = key.first;
    h.functionName = design.module->function(key.first).name();
    h.sourceLine = key.second;
    h.numOps = a.count;
    h.meanPredicted = a.sum / static_cast<double>(a.count);
    h.maxPredicted = a.max;
    hotspots.push_back(std::move(h));
  }
  std::sort(hotspots.begin(), hotspots.end(),
            [](const Hotspot& a, const Hotspot& b) {
              return a.meanPredicted > b.meanPredicted;
            });
  if (hotspots.size() > topK) hotspots.resize(topK);
  return hotspots;
}

std::vector<double> CongestionPredictor::featureImportance() const {
  if (!trained_ || options_.kind != ModelKind::Gbrt) return {};
  return static_cast<const ml::Gbrt&>(*vertical_).featureImportance();
}

void CongestionPredictor::save(const std::string& path) const {
  HCP_CHECK_MSG(trained_, "cannot save an untrained predictor");
  // Same fail-safe contract as ml::saveModelToFile: the in-body os.good()
  // check only sees buffered failures, so commit() re-verifies after the
  // final flush/close — a short write raises hcp::IoError naming `path`
  // and the atomic temp + rename leaves no partial predictor behind.
  support::txt::CheckedFileWriter writer(path, "model");
  std::ostream& os = writer.stream();
  os << "hcp-predictor 1 " << modelKindName(options_.kind) << "\n";
  ml::saveModel(*vertical_, os);
  ml::saveModel(*horizontal_, os);
  ml::saveModel(*average_, os);
  HCP_CHECK_MSG(os.good(), "predictor write failed");
  writer.commit();
}

CongestionPredictor CongestionPredictor::load(const std::string& path) {
  return support::txt::parseFile(
      path, "predictor", [](support::txt::Reader& in) {
        in.expect("hcp-predictor");
        const int version = in.read<int>("predictor version");
        HCP_CHECK_MSG(version == 1,
                      "unsupported predictor version " << version);
        const std::string kind = in.read<std::string>("predictor kind");
        PredictorOptions options;
        if (kind == "Linear") options.kind = ModelKind::Linear;
        else if (kind == "ANN") options.kind = ModelKind::Ann;
        else if (kind == "GBRT") options.kind = ModelKind::Gbrt;
        else HCP_CHECK_MSG(false, "unknown predictor kind " << kind);
        CongestionPredictor predictor(options);
        predictor.vertical_ = ml::readModel(in);
        predictor.horizontal_ = ml::readModel(in);
        predictor.average_ = ml::readModel(in);
        predictor.trained_ = true;
        return predictor;
      });
}

}  // namespace hcp::core
