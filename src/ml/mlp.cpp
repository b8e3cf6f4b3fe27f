#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>

namespace hcp::ml {

namespace {
struct AdamState {
  std::vector<double> m, v;
  explicit AdamState(std::size_t n) : m(n, 0.0), v(n, 0.0) {}
};

void adamStep(std::vector<double>& params, const std::vector<double>& grad,
              AdamState& state, double lr, std::size_t t) {
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t));
  for (std::size_t i = 0; i < params.size(); ++i) {
    state.m[i] = b1 * state.m[i] + (1 - b1) * grad[i];
    state.v[i] = b2 * state.v[i] + (1 - b2) * grad[i] * grad[i];
    params[i] -= lr * (state.m[i] / bc1) / (std::sqrt(state.v[i] / bc2) + eps);
  }
}
}  // namespace

std::vector<double> MlpRegressor::forward(
    const std::vector<double>& z,
    std::vector<std::vector<double>>* acts) const {
  std::vector<double> cur = z;
  if (acts) acts->push_back(cur);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> next(layer.out, 0.0);
    for (std::size_t o = 0; o < layer.out; ++o) {
      double s = layer.b[o];
      const double* wrow = &layer.w[o * layer.in];
      for (std::size_t i = 0; i < layer.in; ++i) s += wrow[i] * cur[i];
      // ReLU on hidden layers, identity on the output layer.
      next[o] = (l + 1 < layers_.size()) ? std::max(0.0, s) : s;
    }
    cur = std::move(next);
    if (acts) acts->push_back(cur);
  }
  return cur;
}

void MlpRegressor::fit(const RowSource& source) {
  const std::size_t n = source.size();
  HCP_CHECK(n >= 8);
  const std::size_t d = source.numFeatures();
  scaler_.fit(source);

  std::vector<std::vector<double>> X(n);
  std::vector<double> Y(n);
  source.forEach([&](std::size_t i, const std::vector<double>& row, double y) {
    X[i] = scaler_.transform(row);
    Y[i] = y;
  });

  // Standardize the target too; gradients stay well-scaled.
  {
    double m = 0.0;
    for (double y : Y) m += y;
    m /= static_cast<double>(n);
    double v = 0.0;
    for (double y : Y) v += (y - m) * (y - m);
    yMean_ = m;
    yStd_ = std::max(1e-9, std::sqrt(v / static_cast<double>(n)));
  }
  for (double& y : Y) y = (y - yMean_) / yStd_;

  // Layer shapes: d -> hidden... -> 1, He initialization.
  Rng rng(config_.seed);
  layers_.clear();
  std::vector<std::size_t> shape = {d};
  for (std::size_t h : config_.hiddenLayers) shape.push_back(h);
  shape.push_back(1);
  for (std::size_t l = 0; l + 1 < shape.size(); ++l) {
    Layer layer;
    layer.in = shape[l];
    layer.out = shape[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.w) w = rng.normal(0.0, scale);
    layers_.push_back(std::move(layer));
  }

  // Validation split for early stopping.
  auto perm = rng.permutation(n);
  const auto valSize = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.validationFraction *
                                  static_cast<double>(n)));
  std::vector<std::size_t> valIdx(perm.begin(),
                                  perm.begin() +
                                      static_cast<std::ptrdiff_t>(valSize));
  std::vector<std::size_t> trainIdx(
      perm.begin() + static_cast<std::ptrdiff_t>(valSize), perm.end());

  std::vector<AdamState> wState, bState;
  for (const Layer& l : layers_) {
    wState.emplace_back(l.w.size());
    bState.emplace_back(l.b.size());
  }

  auto valLoss = [&] {
    double loss = 0.0;
    for (std::size_t i : valIdx) {
      const double p = forward(X[i], nullptr)[0];
      loss += (p - Y[i]) * (p - Y[i]);
    }
    return loss / static_cast<double>(valIdx.size());
  };

  bestValLoss_ = std::numeric_limits<double>::infinity();
  std::vector<Layer> bestLayers = layers_;
  std::size_t sinceBest = 0;
  std::size_t adamT = 0;
  epochsRun_ = 0;

  for (std::size_t epoch = 0; epoch < config_.maxEpochs; ++epoch) {
    rng.shuffle(trainIdx);
    for (std::size_t start = 0; start < trainIdx.size();
         start += config_.batchSize) {
      const std::size_t end =
          std::min(trainIdx.size(), start + config_.batchSize);
      const double invBatch = 1.0 / static_cast<double>(end - start);

      // Accumulate gradients over the batch.
      std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        gw[l].assign(layers_[l].w.size(), 0.0);
        gb[l].assign(layers_[l].b.size(), 0.0);
      }
      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t i = trainIdx[bi];
        std::vector<std::vector<double>> acts;
        const double pred = forward(X[i], &acts)[0];
        // Backprop MSE: dL/dpred = 2 (pred - y).
        std::vector<double> delta = {2.0 * (pred - Y[i])};
        for (std::size_t l = layers_.size(); l-- > 0;) {
          const Layer& layer = layers_[l];
          const auto& in = acts[l];
          std::vector<double> prevDelta(layer.in, 0.0);
          for (std::size_t o = 0; o < layer.out; ++o) {
            const double dOut = delta[o];
            if (dOut == 0.0) continue;
            double* gRow = &gw[l][o * layer.in];
            const double* wRow = &layer.w[o * layer.in];
            for (std::size_t j = 0; j < layer.in; ++j) {
              gRow[j] += dOut * in[j];
              prevDelta[j] += dOut * wRow[j];
            }
            gb[l][o] += dOut;
          }
          if (l > 0) {
            // ReLU derivative gates the propagated delta.
            const auto& act = acts[l];
            for (std::size_t j = 0; j < layer.in; ++j)
              if (act[j] <= 0.0) prevDelta[j] = 0.0;
          }
          delta = std::move(prevDelta);
        }
      }
      // L2 + average, then Adam.
      ++adamT;
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        for (std::size_t k = 0; k < gw[l].size(); ++k)
          gw[l][k] = gw[l][k] * invBatch + config_.l2 * layers_[l].w[k];
        for (double& g : gb[l]) g *= invBatch;
        adamStep(layers_[l].w, gw[l], wState[l], config_.learningRate, adamT);
        adamStep(layers_[l].b, gb[l], bState[l], config_.learningRate, adamT);
      }
    }
    ++epochsRun_;

    const double loss = valLoss();
    if (loss < bestValLoss_ - 1e-6) {
      bestValLoss_ = loss;
      bestLayers = layers_;
      sinceBest = 0;
    } else if (++sinceBest >= config_.patience) {
      break;
    }
  }
  layers_ = std::move(bestLayers);
}

double MlpRegressor::predict(const std::vector<double>& row) const {
  HCP_CHECK(scaler_.fitted());
  const double z = forward(scaler_.transform(row), nullptr)[0];
  return z * yStd_ + yMean_;
}

}  // namespace hcp::ml
