#include "core/dataset_builder.hpp"

#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hcp::core {

LabeledDataset buildDataset(const FlowResult& flow,
                            const DatasetOptions& options) {
  const FlowResult* one = &flow;
  return buildDataset(std::span<const FlowResult>(one, 1), options);
}

void enrichDataset(LabeledDataset& base, const LabeledDataset& extra) {
  base.vertical.merge(extra.vertical);
  base.horizontal.merge(extra.horizontal);
  base.average.merge(extra.average);
  base.samples.insert(base.samples.end(), extra.samples.begin(),
                      extra.samples.end());
  base.filterStats.total += extra.filterStats.total;
  base.filterStats.marginal += extra.filterStats.marginal;
}

LabeledDataset buildDataset(std::span<const FlowResult> flows,
                            const DatasetOptions& options) {
  HCP_SPAN("build_dataset");
  LabeledDataset out;

  // Stage 1 (serial, cheap): marginal filtering per flow, keeping the
  // surviving samples in flow order.
  struct FlowPart {
    std::size_t flowIdx = 0;
    std::vector<trace::Sample> kept;
  };
  std::vector<FlowPart> parts;
  parts.reserve(flows.size());
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    const FlowResult& flow = flows[fi];
    std::vector<trace::Sample> samples = flow.traced.samples;
    if (options.applyMarginalFilter) {
      const auto stats = trace::filterMarginal(samples, options.filter);
      out.filterStats.total += stats.total;
      out.filterStats.marginal += stats.marginal;
    } else {
      out.filterStats.total += samples.size();
    }
    FlowPart part;
    part.flowIdx = fi;
    for (trace::Sample& s : samples)
      if (!s.marginal) part.kept.push_back(std::move(s));
    parts.push_back(std::move(part));
  }

  // Stage 2 (parallel): per-sample feature extraction over a flattened
  // worklist, one (immutable, so shareable) extractor per flow.
  std::vector<features::FeatureExtractor> extractors;
  extractors.reserve(flows.size());
  for (const FlowResult& flow : flows)
    extractors.emplace_back(flow.design, options.caps);

  struct WorkItem {
    std::size_t flowIdx = 0;
    const trace::Sample* sample = nullptr;
  };
  std::vector<WorkItem> work;
  for (const FlowPart& part : parts)
    for (const trace::Sample& s : part.kept)
      work.push_back({part.flowIdx, &s});

  support::telemetry::count(
      support::telemetry::Counter::DatasetSamplesExtracted, work.size());
  auto features = support::parallelMapIndex(
      work.size(),
      [&](std::size_t k) {
        const WorkItem& item = work[k];
        return extractors[item.flowIdx].extract(item.sample->functionIndex,
                                                item.sample->op);
      },
      /*grainSize=*/16);

  // Stage 3 (serial): ordered merge — identical row order to the serial
  // flow-by-flow, sample-by-sample construction.
  for (std::size_t k = 0; k < work.size(); ++k) {
    const trace::Sample& s = *work[k].sample;
    auto& x = features[k];
    support::telemetry::observe(
        support::telemetry::Histogram::DatasetLabelPct, s.avgCongestion);
    out.vertical.add(x, s.vCongestion);
    out.horizontal.add(x, s.hCongestion);
    out.average.add(std::move(x), s.avgCongestion);
    out.samples.push_back(s);
  }
  return out;
}

}  // namespace hcp::core
