#include "ml/serialize.hpp"

#include <fstream>
#include <iomanip>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "support/error.hpp"
#include "support/textio.hpp"

namespace hcp::ml {

namespace detail {

void writeVec(std::ostream& os, const std::vector<double>& v) {
  os << v.size();
  for (double x : v) os << ' ' << x;
  os << '\n';
}

std::vector<double> readVec(std::istream& is) {
  std::size_t n = 0;
  HCP_CHECK_MSG(static_cast<bool>(is >> n), "truncated model file");
  std::vector<double> v(n);
  for (double& x : v)
    HCP_CHECK_MSG(static_cast<bool>(is >> x), "truncated model file");
  return v;
}

void expect(std::istream& is, const char* token) {
  std::string got;
  HCP_CHECK_MSG(static_cast<bool>(is >> got) && got == token,
                "model file: expected '" << token << "', got '" << got
                                         << "'");
}

}  // namespace detail

void saveModel(const Regressor& model, std::ostream& os) {
  os << std::setprecision(17);
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

std::unique_ptr<Regressor> loadModel(std::istream& is) {
  detail::expect(is, "hcp-model");
  std::string kind;
  int version = 0;
  HCP_CHECK_MSG(static_cast<bool>(is >> kind >> version),
                "truncated model header");
  HCP_CHECK_MSG(version == 1, "unsupported model version " << version);
  if (kind == "lasso") {
    auto model = std::make_unique<LassoRegression>();
    model->read(is);
    return model;
  }
  if (kind == "mlp") {
    auto model = std::make_unique<MlpRegressor>();
    model->read(is);
    return model;
  }
  if (kind == "gbrt") {
    auto model = std::make_unique<Gbrt>();
    model->read(is);
    return model;
  }
  HCP_CHECK_MSG(false, "unknown model kind '" << kind << "'");
  return nullptr;
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
  std::ifstream is(path);
  HCP_CHECK_MSG(is.good(), "cannot open " << path);
  std::unique_ptr<Regressor> model;
  try {
    model = loadModel(is);
  } catch (const Error& e) {
    // Re-throw with the offending file named: the stream-level readers have
    // no idea where their bytes come from, but "which file is broken" is the
    // question the user actually has.
    throw Error(std::string(e.what()) + " [model file: " + path + "]");
  }
  // A model file holds exactly one model: trailing bytes mean the file was
  // concatenated, double-written or otherwise mangled — reject rather than
  // silently ignore.
  std::string extra;
  HCP_CHECK_MSG(!(is >> extra),
                "trailing garbage after model (first token '"
                    << extra << "') in model file: " << path);
  return model;
}

}  // namespace hcp::ml

// --- member serialization definitions --------------------------------------
// Kept in this TU so the line format lives in one place.

namespace hcp::ml {

using detail::expect;
using detail::readVec;
using detail::writeVec;

void StandardScaler::write(std::ostream& os) const {
  os << "scaler\n";
  writeVec(os, mean_);
  writeVec(os, std_);
}

void StandardScaler::read(std::istream& is) {
  expect(is, "scaler");
  mean_ = readVec(is);
  std_ = readVec(is);
}

void LassoRegression::write(std::ostream& os) const {
  os << "config " << config_.alpha << ' ' << config_.maxIterations << ' '
     << config_.tolerance << '\n';
  scaler_.write(os);
  writeVec(os, weights_);
  os << "intercept " << intercept_ << '\n';
}

void LassoRegression::read(std::istream& is) {
  expect(is, "config");
  HCP_CHECK(static_cast<bool>(is >> config_.alpha >> config_.maxIterations >>
                              config_.tolerance));
  scaler_.read(is);
  weights_ = readVec(is);
  expect(is, "intercept");
  HCP_CHECK(static_cast<bool>(is >> intercept_));
}

void MlpRegressor::write(std::ostream& os) const {
  os << "layers " << layers_.size() << '\n';
  for (const Layer& l : layers_) {
    os << l.in << ' ' << l.out << '\n';
    writeVec(os, l.w);
    writeVec(os, l.b);
  }
  scaler_.write(os);
  os << "target " << yMean_ << ' ' << yStd_ << '\n';
}

void MlpRegressor::read(std::istream& is) {
  expect(is, "layers");
  std::size_t n = 0;
  HCP_CHECK(static_cast<bool>(is >> n));
  layers_.assign(n, Layer{});
  for (Layer& l : layers_) {
    HCP_CHECK(static_cast<bool>(is >> l.in >> l.out));
    l.w = readVec(is);
    l.b = readVec(is);
    HCP_CHECK_MSG(l.w.size() == l.in * l.out && l.b.size() == l.out,
                  "mlp layer shape mismatch");
  }
  scaler_.read(is);
  expect(is, "target");
  HCP_CHECK(static_cast<bool>(is >> yMean_ >> yStd_));
}

void RegressionTree::write(std::ostream& os) const {
  os << "tree " << nodes_.size() << '\n';
  for (const Node& n : nodes_) {
    os << n.feature << ' ' << static_cast<int>(n.bin) << ' ' << n.threshold
       << ' ' << n.left << ' ' << n.right << ' ' << n.value << '\n';
  }
  os << "splits " << splitCounts_.size();
  for (std::uint32_t c : splitCounts_) os << ' ' << c;
  os << '\n';
  writeVec(os, splitGains_);
}

void RegressionTree::read(std::istream& is, std::size_t numFeatures) {
  expect(is, "tree");
  std::size_t n = 0;
  HCP_CHECK(static_cast<bool>(is >> n));
  HCP_CHECK_MSG(n > 0, "model file: tree has no nodes");
  nodes_.assign(n, Node{});
  for (Node& node : nodes_) {
    int bin = 0;
    HCP_CHECK(static_cast<bool>(is >> node.feature >> bin >>
                                node.threshold >> node.left >> node.right >>
                                node.value));
    node.bin = static_cast<std::uint8_t>(bin);
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
  expect(is, "splits");
  std::size_t m = 0;
  HCP_CHECK(static_cast<bool>(is >> m));
  HCP_CHECK_MSG(m == numFeatures, "model file: tree split counts cover "
                                      << m << " features, not "
                                      << numFeatures);
  splitCounts_.assign(m, 0);
  for (std::uint32_t& c : splitCounts_) HCP_CHECK(static_cast<bool>(is >> c));
  splitGains_ = readVec(is);
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

void Gbrt::read(std::istream& is) {
  expect(is, "config");
  HCP_CHECK(static_cast<bool>(
      is >> config_.numEstimators >> config_.learningRate >>
      config_.maxDepth >> config_.minSamplesLeaf >> config_.subsample >>
      config_.featureFraction >> config_.numBins >> config_.seed));
  expect(is, "state");
  HCP_CHECK(static_cast<bool>(is >> baseline_ >> numFeatures_ >> trainLoss_));
  expect(is, "forest");
  std::size_t n = 0;
  HCP_CHECK(static_cast<bool>(is >> n));
  trees_.assign(n, RegressionTree{});
  for (RegressionTree& t : trees_) t.read(is, numFeatures_);
  flatten();
}

}  // namespace hcp::ml
