#include "ml/serialize.hpp"

#include <ostream>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "support/error.hpp"
#include "support/textio.hpp"

namespace hcp::ml {

namespace txt = support::txt;

void saveModel(const Regressor& model, std::ostream& os) {
  txt::preparePrecision(os);
  if (const auto* lasso = dynamic_cast<const LassoRegression*>(&model)) {
    os << "hcp-model lasso 1\n";
    lasso->write(os);
  } else if (const auto* mlp = dynamic_cast<const MlpRegressor*>(&model)) {
    os << "hcp-model mlp 1\n";
    mlp->write(os);
  } else if (const auto* gbrt = dynamic_cast<const Gbrt*>(&model)) {
    os << "hcp-model gbrt 1\n";
    gbrt->write(os);
  } else {
    HCP_CHECK_MSG(false, "unsupported model type " << model.name());
  }
  HCP_CHECK_MSG(os.good(), "model write failed");
}

namespace {

template <typename Model>
std::unique_ptr<Regressor> readAs(txt::Reader& in) {
  auto model = std::make_unique<Model>();
  model->read(in);
  return model;
}

/// One `<n> v0 v1 ...` line.
template <typename T>
void writeVecLine(std::ostream& os, const std::vector<T>& v) {
  txt::writeVec(os, v);
  os << '\n';
}

}  // namespace

std::unique_ptr<Regressor> readModel(txt::Reader& in) {
  in.expect("hcp-model");
  const std::string kind = in.read<std::string>("model kind");
  const int version = in.read<int>("model version");
  HCP_CHECK_MSG(version == 1, "unsupported model version " << version);
  if (kind == "lasso") return readAs<LassoRegression>(in);
  if (kind == "mlp") return readAs<MlpRegressor>(in);
  if (kind == "gbrt") return readAs<Gbrt>(in);
  HCP_CHECK_MSG(false, "unknown model kind '" << kind << "'");
  return nullptr;
}

std::unique_ptr<Regressor> loadModel(std::string_view text) {
  txt::Reader in(text);
  auto model = readModel(in);
  in.expectEnd("model");
  return model;
}

void saveModelToFile(const Regressor& model, const std::string& path) {
  // The trained model is the product (ROADMAP north star): its save is
  // verified end to end. saveModel's own os.good() check only observes
  // buffered-write failures; the post-write commit() below flushes and
  // closes under verification, so an ENOSPC short write raises hcp::IoError
  // here — with the path named and no partial file left behind (atomic
  // temp + rename) — instead of producing a truncated model that only
  // fails at load time.
  support::txt::CheckedFileWriter writer(path, "model");
  saveModel(model, writer.stream());
  writer.commit();
}

std::unique_ptr<Regressor> loadModelFromFile(const std::string& path) {
  // A model file holds exactly one model: trailing bytes mean the file was
  // concatenated, double-written or otherwise mangled.
  return txt::parseFile(path, "model", readModel);
}

// --- member serialization definitions --------------------------------------
// Kept in this TU so the line format lives in one place.

void StandardScaler::write(std::ostream& os) const {
  os << "scaler\n";
  writeVecLine(os, mean_);
  writeVecLine(os, std_);
}

void StandardScaler::read(txt::Reader& in) {
  in.expect("scaler");
  mean_ = in.readVec<double>("scaler means");
  std_ = in.readVec<double>("scaler deviations");
}

void LassoRegression::write(std::ostream& os) const {
  os << "config " << config_.alpha << ' ' << config_.maxIterations << ' '
     << config_.tolerance << '\n';
  scaler_.write(os);
  writeVecLine(os, weights_);
  os << "intercept " << intercept_ << '\n';
}

void LassoRegression::read(txt::Reader& in) {
  in.expect("config");
  config_.alpha = in.read<double>("lasso alpha");
  config_.maxIterations = in.read<int>("lasso max iterations");
  config_.tolerance = in.read<double>("lasso tolerance");
  scaler_.read(in);
  weights_ = in.readVec<double>("lasso weights");
  in.expect("intercept");
  intercept_ = in.read<double>("lasso intercept");
}

void MlpRegressor::write(std::ostream& os) const {
  os << "layers " << layers_.size() << '\n';
  for (const Layer& l : layers_) {
    os << l.in << ' ' << l.out << '\n';
    writeVecLine(os, l.w);
    writeVecLine(os, l.b);
  }
  scaler_.write(os);
  os << "target " << yMean_ << ' ' << yStd_ << '\n';
}

void MlpRegressor::read(txt::Reader& in) {
  in.expect("layers");
  layers_.assign(in.readCount("mlp layer count"), Layer{});
  for (Layer& l : layers_) {
    l.in = in.read<std::size_t>("mlp layer inputs");
    l.out = in.read<std::size_t>("mlp layer outputs");
    l.w = in.readVec<double>("mlp layer weights");
    l.b = in.readVec<double>("mlp layer biases");
    HCP_CHECK_MSG(l.w.size() == l.in * l.out && l.b.size() == l.out,
                  "mlp layer shape mismatch");
  }
  scaler_.read(in);
  in.expect("target");
  yMean_ = in.read<double>("mlp target mean");
  yStd_ = in.read<double>("mlp target deviation");
}

void RegressionTree::write(std::ostream& os) const {
  os << "tree " << nodes_.size() << '\n';
  for (const Node& n : nodes_) {
    os << n.feature << ' ' << static_cast<int>(n.bin) << ' ' << n.threshold
       << ' ' << n.left << ' ' << n.right << ' ' << n.value << '\n';
  }
  os << "splits ";
  writeVecLine(os, splitCounts_);
  writeVecLine(os, splitGains_);
}

void RegressionTree::read(txt::Reader& in, std::size_t numFeatures) {
  in.expect("tree");
  const std::size_t n = in.readCount("tree node count");
  HCP_CHECK_MSG(n > 0, "model file: tree has no nodes");
  nodes_.assign(n, Node{});
  for (Node& node : nodes_) {
    node.feature = in.read<std::int32_t>("tree node feature");
    node.bin = in.read<std::uint8_t>("tree node bin");
    node.threshold = in.read<double>("tree node threshold");
    node.left = in.read<std::int32_t>("tree node left child");
    node.right = in.read<std::int32_t>("tree node right child");
    node.value = in.read<double>("tree node value");
  }
  // A corrupt link could make evaluation loop forever (a self or backward
  // edge) or read past the node array, and a corrupt feature past the row.
  // Forward-only links with exactly one parent per non-root node make the
  // nodes one tree rooted at node 0, so every walk ends at a leaf.
  std::vector<std::size_t> parents(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    if (node.feature == -1) continue;
    HCP_CHECK_MSG(node.feature >= 0 &&
                      static_cast<std::size_t>(node.feature) < numFeatures,
                  "model file: tree node " << i << " splits on feature "
                                           << node.feature << " of "
                                           << numFeatures);
    for (const std::int32_t child : {node.left, node.right}) {
      HCP_CHECK_MSG(child > static_cast<std::int64_t>(i) &&
                        static_cast<std::size_t>(child) < n,
                    "model file: tree node " << i << " links to node "
                                             << child << " (tree has " << n
                                             << " nodes; links must point "
                                                "forward)");
      ++parents[static_cast<std::size_t>(child)];
    }
  }
  for (std::size_t i = 1; i < n; ++i)
    HCP_CHECK_MSG(parents[i] == 1, "model file: tree node "
                                       << i << " has " << parents[i]
                                       << " parents, not 1");
  in.expect("splits");
  splitCounts_ = in.readVec<std::uint32_t>("tree split counts");
  HCP_CHECK_MSG(splitCounts_.size() == numFeatures,
                "model file: tree split counts cover "
                    << splitCounts_.size() << " features, not "
                    << numFeatures);
  splitGains_ = in.readVec<double>("tree split gains");
  HCP_CHECK_MSG(splitGains_.size() == numFeatures,
                "model file: tree split gains cover "
                    << splitGains_.size() << " features, not "
                    << numFeatures);
}

void Gbrt::write(std::ostream& os) const {
  os << "config " << config_.numEstimators << ' ' << config_.learningRate
     << ' ' << config_.maxDepth << ' ' << config_.minSamplesLeaf << ' '
     << config_.subsample << ' ' << config_.featureFraction << ' '
     << config_.numBins << ' ' << config_.seed << '\n';
  os << "state " << baseline_ << ' ' << numFeatures_ << ' ' << trainLoss_
     << '\n';
  os << "forest " << trees_.size() << '\n';
  for (const RegressionTree& t : trees_) t.write(os);
}

void Gbrt::read(txt::Reader& in) {
  in.expect("config");
  config_.numEstimators = in.read<std::size_t>("gbrt estimators");
  config_.learningRate = in.read<double>("gbrt learning rate");
  config_.maxDepth = in.read<int>("gbrt max depth");
  config_.minSamplesLeaf = in.read<std::size_t>("gbrt min samples per leaf");
  config_.subsample = in.read<double>("gbrt subsample");
  config_.featureFraction = in.read<double>("gbrt feature fraction");
  config_.numBins = in.read<std::uint32_t>("gbrt bins");
  config_.seed = in.read<std::uint64_t>("gbrt seed");
  in.expect("state");
  baseline_ = in.read<double>("gbrt baseline");
  numFeatures_ = in.read<std::size_t>("gbrt feature count");
  trainLoss_ = in.read<double>("gbrt train loss");
  in.expect("forest");
  trees_.assign(in.readCount("gbrt tree count"), RegressionTree{});
  for (RegressionTree& t : trees_) t.read(in, numFeatures_);
  flatten();
}

}  // namespace hcp::ml
