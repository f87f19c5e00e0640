#include "cost_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "model/ops.hh"
#include "obs/obs.hh"

namespace acs {
namespace sim {

namespace {

/**
 * Non-zero packed keys for the flat tables: tag bit 62 for prefill
 * (batch in the high word, length in the low), bit 63 for decode.
 * batch and prompt_len are positive ints, so they fit and the spaces
 * never collide.
 */
std::uint64_t
prefillKey(int batch, int prompt_len)
{
    return (1ULL << 62) |
           (static_cast<std::uint64_t>(batch) << 32) |
           static_cast<std::uint64_t>(prompt_len);
}

std::uint64_t
decodeKey(int batch)
{
    return (1ULL << 63) | static_cast<std::uint64_t>(batch);
}

} // anonymous namespace

IterationCostModel::IterationCostModel(
    const hw::HardwareConfig &cfg,
    const model::TransformerConfig &model_cfg,
    const model::InferenceSetting &reference,
    const perf::SystemConfig &sys, const perf::PerfParams &params)
    : sim_(cfg, params), modelCfg_(model_cfg), ref_(reference),
      sys_(sys)
{
    modelCfg_.validate();
    ref_.validate();
    fatalIf(sys_.tensorParallel < 1,
            "IterationCostModel: tensorParallel must be >= 1");

    weightBytes_ = static_cast<double>(modelCfg_.totalParams()) *
                   ref_.bytesPerValue / sys_.tensorParallel;

    // KV bytes per token of one request, per device: the per-layer
    // helper at batch 1 and context 1 isolates exactly that.
    model::InferenceSetting one = ref_;
    one.batch = 1;
    kvBytesPerToken_ =
        model::kvCacheBytesPerLayer(modelCfg_, one, 1,
                                    sys_.tensorParallel) *
        modelCfg_.numLayers;

    kvBudget_ = std::max(0.0, cfg.memCapacityBytes - weightBytes_);
}

double
IterationCostModel::computePrefillS(int batch, int prompt_len) const
{
    // Same computation as InferenceSimulator::run's TTFT: one layer's
    // prefill latency times the layer count (bit-exact; the pinning
    // test in tests/test_sim.cpp relies on it).
    model::InferenceSetting setting = ref_;
    setting.batch = batch;
    setting.inputLen = prompt_len;
    const model::LayerGraph graph = model::buildPrefillGraph(
        modelCfg_, setting, sys_.tensorParallel);
    return sim_.simulateLayer(graph, sys_.tensorParallel).latencyS *
           modelCfg_.numLayers;
}

double
IterationCostModel::computeDecodeStepS(int batch) const
{
    // Mirrors InferenceSimulator::run's TBT: the decode graph at the
    // reference setting's representative context length.
    model::InferenceSetting setting = ref_;
    setting.batch = batch;
    const model::LayerGraph graph = model::buildDecodeGraph(
        modelCfg_, setting, sys_.tensorParallel);
    return sim_.simulateLayer(graph, sys_.tensorParallel).latencyS *
           modelCfg_.numLayers;
}

double
IterationCostModel::prefillS(int batch, int prompt_len) const
{
    // Branch-then-throw: fatalIf would build its message string on
    // every lookup, and this runs once per scheduler iteration.
    if (batch < 1)
        fatal("prefillS: batch must be >= 1");
    if (prompt_len < 1)
        fatal("prefillS: prompt_len must be >= 1");

    const std::uint64_t key = prefillKey(batch, prompt_len);
    double value = 0.0;
    if (prefillFlat_.find(key, &value)) {
        obs::counterAdd("sim.cost.prefill_hits");
        return value;
    }
    if (prefillFlat_.overflows() > 0 && overflow_.find(key, &value)) {
        obs::counterAdd("sim.cost.prefill_hits");
        return value;
    }
    value = computePrefillS(batch, prompt_len);
    obs::counterAdd("sim.cost.prefill_misses");
    if (!prefillFlat_.insert(key, value))
        overflow_.insert(key, value);
    return value;
}

double
IterationCostModel::decodeStepS(int batch) const
{
    if (batch < 1)
        fatal("decodeStepS: batch must be >= 1");

    const std::uint64_t key = decodeKey(batch);
    double value = 0.0;
    if (decodeFlat_.find(key, &value)) {
        obs::counterAdd("sim.cost.decode_hits");
        return value;
    }
    if (decodeFlat_.overflows() > 0 && overflow_.find(key, &value)) {
        obs::counterAdd("sim.cost.decode_hits");
        return value;
    }
    value = computeDecodeStepS(batch);
    obs::counterAdd("sim.cost.decode_misses");
    if (!decodeFlat_.insert(key, value))
        overflow_.insert(key, value);
    return value;
}

std::size_t
IterationCostModel::memoMisses() const
{
    return prefillFlat_.entries() + decodeFlat_.entries() +
           overflow_.stats().entries;
}

} // namespace sim
} // namespace acs
