/**
 * @file
 * Iteration latencies for the serving simulator, memoized over the
 * per-layer analytical model.
 *
 * The event loop charges every scheduler iteration a latency obtained
 * from perf::InferenceSimulator — the same model the DSE uses — so the
 * request-level results stay consistent with the paper's steady-state
 * numbers by construction: a batch-1, zero-queueing run reproduces
 * serve::ServingEstimate exactly (tests/test_sim.cpp pins this).
 *
 * Simulating a layer graph costs microseconds while an event loop
 * executes hundreds of thousands of iterations, so lookups are
 * memoized by (batch, prompt length) for prefill and by batch for
 * decode; workload length quantization (sim::LengthDistribution) keeps
 * the key space small. Values are pure functions of the key, so the
 * memo is a bit-exact speedup, shared safely across the replica
 * simulations a fleet-sizing search fans out.
 *
 * The memo is a pair of lock-free open-addressing tables
 * (common::AtomicFlatMemo) over the quantized key space — a hit is a
 * hash plus a couple of atomic loads, with no mutex on the hot path.
 * The tables are fixed-capacity; should a pathological workload
 * overflow them, misses spill into an unbounded common::ShardedCache
 * tier (lock-striped, read-mostly), so memoization never silently
 * degrades to recompute-every-call. Both tiers live in the model
 * itself, which sizeFleet / sizeDisaggFleet share across every
 * replica they fan out — one probe's misses are all later probes'
 * hits.
 */

#ifndef ACS_SIM_COST_MODEL_HH
#define ACS_SIM_COST_MODEL_HH

#include <cstdint>

#include "common/flat_memo.hh"
#include "common/sharded_cache.hh"
#include "perf/simulator.hh"

namespace acs {
namespace sim {

/**
 * Memoized per-iteration latency and memory footprint oracle for one
 * (device, model, system) triple.
 *
 * Thread-safe: reads are lock-free and inserts are atomic
 * first-writer-wins. A racing double-compute stores identical bits
 * (values are deterministic), so concurrent replica simulations can
 * share one model freely.
 */
class IterationCostModel
{
  public:
    /**
     * @param cfg       Device to serve on (validated; copied).
     * @param model_cfg Transformer served by the replica (validated).
     * @param reference Reference setting: supplies precision and the
     *                  representative sequence lengths for the decode
     *                  context (its batch field is ignored — iteration
     *                  batches come from the scheduler).
     * @param sys       Tensor-parallel system configuration.
     * @param params    Performance-model constants.
     */
    IterationCostModel(const hw::HardwareConfig &cfg,
                       const model::TransformerConfig &model_cfg,
                       const model::InferenceSetting &reference,
                       const perf::SystemConfig &sys,
                       const perf::PerfParams &params =
                           perf::PerfParams{});

    /**
     * Full-model latency of one prefill iteration processing @p batch
     * prompts padded to @p prompt_len tokens. Equals the analytical
     * TTFT of an InferenceSetting with that batch and input length.
     */
    double prefillS(int batch, int prompt_len) const;

    /**
     * Full-model latency of one decode iteration over @p batch
     * requests, at the reference setting's representative
     * mid-generation context (model::InferenceSetting::
     * decodeContextLen()). Equals the analytical TBT at that batch.
     */
    double decodeStepS(int batch) const;

    /** Per-device weight footprint of the served model (bytes). */
    double weightBytesPerDevice() const { return weightBytes_; }

    /** Per-device KV-cache bytes one request consumes per token. */
    double kvBytesPerTokenPerDevice() const { return kvBytesPerToken_; }

    /**
     * Per-device HBM bytes available for KV cache after weights
     * (never negative; 0 means the model does not fit at all).
     */
    double kvBudgetBytes() const { return kvBudget_; }

    /** Distinct simulator evaluations performed so far (memo misses). */
    std::size_t memoMisses() const;

    const hw::HardwareConfig &device() const { return sim_.device(); }
    const model::TransformerConfig &model() const { return modelCfg_; }
    const model::InferenceSetting &reference() const { return ref_; }
    const perf::SystemConfig &system() const { return sys_; }
    const perf::InferenceSimulator &simulator() const { return sim_; }

  private:
    double computePrefillS(int batch, int prompt_len) const;
    double computeDecodeStepS(int batch) const;

    perf::InferenceSimulator sim_;
    model::TransformerConfig modelCfg_;
    model::InferenceSetting ref_;
    perf::SystemConfig sys_;
    double weightBytes_ = 0.0;
    double kvBytesPerToken_ = 0.0;
    double kvBudget_ = 0.0;

    // Lock-free first tier + unbounded spill tier.
    mutable common::AtomicFlatMemo prefillFlat_{1 << 13};
    mutable common::AtomicFlatMemo decodeFlat_{1 << 10};
    mutable common::ShardedCache<std::uint64_t, double> overflow_{8};
};

} // namespace sim
} // namespace acs

#endif // ACS_SIM_COST_MODEL_HH
