#include "ml/sample_source.hpp"

#include "support/parallel.hpp"

namespace hcp::ml {

void DatasetSource::forEach(const RowFn& fn) const {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i)
    fn(i, data_->row(at(i)), data_->target(at(i)));
}

void DatasetSource::visitParallel(const RowFn& fn) const {
  support::parallelFor(0, size(), 64, [&](std::size_t i) {
    fn(i, data_->row(at(i)), data_->target(at(i)));
  });
}

Dataset materialize(const RowSource& source) {
  Dataset out(source.numFeatures());
  source.forEach([&](std::size_t, const std::vector<double>& row,
                     double target) { out.add(row, target); });
  return out;
}

}  // namespace hcp::ml
