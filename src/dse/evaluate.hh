/**
 * @file
 * Design-point evaluation: performance + area + cost + compliance.
 */

#ifndef ACS_DSE_EVALUATE_HH
#define ACS_DSE_EVALUATE_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "area/area_model.hh"
#include "area/cost_model.hh"
#include "dse/sweep.hh"
#include "hw/config.hh"
#include "model/ops.hh"
#include "model/transformer.hh"
#include "perf/simulator.hh"
#include "policy/acr_rules.hh"

namespace acs {
namespace dse {

/** One fully evaluated design point. */
struct EvaluatedDesign
{
    hw::HardwareConfig config;

    double tpp = 0.0;
    double dieAreaMm2 = 0.0;
    double perfDensity = 0.0;
    double dieCostUsd = 0.0;     //!< raw (unyielded) silicon cost
    double goodDieCostUsd = 0.0; //!< yield-adjusted cost

    double ttftS = 0.0; //!< per-layer prefill latency
    double tbtS = 0.0;  //!< per-layer decode latency

    /** Single-die manufacturability (area <= 860 mm^2). */
    bool underReticle = false;

    /** Latency-cost products (Fig. 8), in ms * $. */
    double ttftCostProduct() const;
    double tbtCostProduct() const;

    /** Reduce to a classification spec (marketed as data center). */
    policy::DeviceSpec toSpec() const;
};

/**
 * Light per-point record produced by
 * DesignEvaluator::evaluatePlanIndices: the metrics and flags the
 * adaptive search engine (dse/adaptive.hh) needs per evaluated point,
 * without carrying a full EvaluatedDesign (whose config name alone
 * dominates the record). kept applies the caller's predicate;
 * underReticle / oct2023Unregulated mirror filterReticle and
 * filterOct2023Unregulated.
 */
struct PointSample
{
    double ttftS = 0.0;
    double tbtS = 0.0;
    bool kept = false;
    bool underReticle = false;
    bool oct2023Unregulated = false;
};

/**
 * Evaluates designs for one (workload, system) context.
 *
 * The hardware-independent prefill/decode layer graphs are built once
 * at construction and shared by every evaluate call, so a sweep pays
 * graph construction once per (model, setting, tensorParallel), not
 * once per design point.
 *
 * Thread-compatible: const after construction.
 */
class DesignEvaluator
{
  public:
    /**
     * @param model_cfg Workload architecture.
     * @param setting   Inference setting (batch/sequence/precision).
     * @param sys       Tensor-parallel system configuration.
     * @param params    Performance-model constants.
     */
    DesignEvaluator(const model::TransformerConfig &model_cfg,
                    const model::InferenceSetting &setting,
                    const perf::SystemConfig &sys,
                    const perf::PerfParams &params = perf::PerfParams{});

    /** Evaluate one design. */
    EvaluatedDesign evaluate(const hw::HardwareConfig &cfg) const;

    /**
     * Evaluate a batch of designs.
     *
     * Like every batch entry point (evaluateAllParallel,
     * evaluatePlanIndices), hoists one sweep-scoped perf::GemmCache
     * over the whole batch when the params ask for a simulating GEMM
     * mode (TILE_SIM or CYCLE_SIM) and install no cache of their own —
     * designs sharing a canonical GEMM projection then simulate each
     * GEMM once. Bit-identical to calling evaluate() per design.
     */
    std::vector<EvaluatedDesign>
    evaluateAll(const std::vector<hw::HardwareConfig> &cfgs) const;

    /**
     * Evaluate a batch of designs across worker threads.
     *
     * Deterministic: results are in input order, identical to
     * evaluateAll (the models are const and thread-compatible).
     *
     * @param cfgs    Designs to evaluate.
     * @param threads Worker count; 0 uses the hardware concurrency.
     */
    std::vector<EvaluatedDesign>
    evaluateAllParallel(const std::vector<hw::HardwareConfig> &cfgs,
                        unsigned threads = 0) const;

    /** Keep-filter over evaluated designs (true = design is kept). */
    using StreamPredicate = std::function<bool(const EvaluatedDesign &)>;

    /**
     * Evaluate an explicit set of plan indices in parallel, writing a
     * PointSample per position: out[pos] describes plan point
     * indices[pos]. This is the adaptive engine's evaluation wave —
     * the indices are whatever the coarse-to-fine planner asks for,
     * generally non-contiguous.
     *
     * Designs build via plan.point into per-worker scratch.
     * ANALYTIC-mode designs evaluate through the SoA batch kernel
     * (perf/batch_eval.hh), bit-identical to evaluate();
     * simulated-GEMM designs get a call-scoped GemmCache hoist. The
     * batched path skips per-op trace spans and bound tallies; use
     * evaluate() or evaluateAll() when per-op observability matters.
     * Deterministic: out[pos] depends only on indices[pos], never on
     * scheduling.
     *
     * @param plan      Compiled space (must outlive the call).
     * @param indices   Plan indices to evaluate (any order; repeats
     *                  allowed and evaluated repeatedly).
     * @param count     Number of indices.
     * @param predicate Keep-filter recorded in PointSample::kept.
     * @param out       Caller-allocated array of @p count samples.
     * @param threads   Worker cap; 0 uses the pool's concurrency.
     */
    void evaluatePlanIndices(const SweepPlan &plan,
                             const std::size_t *indices,
                             std::size_t count,
                             const StreamPredicate &predicate,
                             PointSample *out,
                             unsigned threads = 0) const;

    /** The prebuilt per-layer graphs (hardware independent). */
    const model::LayerGraph &prefillGraph() const { return prefill_; }
    const model::LayerGraph &decodeGraph() const { return decode_; }

    /** The evaluator's perf-model constants (fingerprinting). */
    const perf::PerfParams &params() const { return params_; }

  private:
    /**
     * evaluate() against an explicit params set: the batch entry
     * points pass a copy of params_ carrying the hoisted sweep-scoped
     * GemmCache handle (perf_params.hh). Must be bit-identical to
     * evaluate() whenever @p params differs from params_ only in its
     * cache handle.
     */
    EvaluatedDesign evaluateWith(const hw::HardwareConfig &cfg,
                                 const perf::PerfParams &params) const;

    /** The non-timing fields of evaluate(): area, cost, reticle. */
    void fillStaticFields(const hw::HardwareConfig &cfg,
                          EvaluatedDesign *d) const;

    struct ChunkScratch; // per-worker buffers (evaluate.cc)

    /**
     * Per-design completion hook of evaluateChunk: (design, position).
     * Position is base + offset — the slot in the caller's
     * index/output arrays.
     */
    using ChunkSink =
        std::function<void(const EvaluatedDesign &, std::size_t)>;

    /**
     * Evaluate one worker-claimed chunk: positions [base, base+count)
     * mapping to plan indices indices[pos]. Routes ANALYTIC-mode
     * chunks through the SoA batch kernel, the rest through the
     * scalar evaluateWith; both deliver identical designs to @p sink
     * in position order.
     */
    void evaluateChunk(const SweepPlan &plan, std::size_t base,
                       std::size_t count, const std::size_t *indices,
                       const perf::PerfParams &params,
                       ChunkScratch &scratch,
                       const ChunkSink &sink) const;

    model::TransformerConfig modelCfg_;
    model::InferenceSetting setting_;
    perf::SystemConfig sys_;
    perf::PerfParams params_;
    area::AreaModel areaModel_;
    area::CostModel costModel_;
    model::LayerGraph prefill_; //!< built once; shared by all designs
    model::LayerGraph decode_;
};

/** Keep only designs with area at or under the reticle limit. */
std::vector<EvaluatedDesign>
filterReticle(const std::vector<EvaluatedDesign> &designs);

/**
 * Rvalue overload: filters in place and returns the same storage, so
 * pipeline spellings like filterReticle(study.runSweep(...)) never
 * deep-copy the design set.
 */
std::vector<EvaluatedDesign>
filterReticle(std::vector<EvaluatedDesign> &&designs);

/**
 * Keep only designs entirely unregulated under the Oct-2023
 * data-center rule (the paper's compliance bar in Sec. 4.3: NAC
 * devices may be denied, so compliant means NOT_APPLICABLE).
 */
std::vector<EvaluatedDesign>
filterOct2023Unregulated(const std::vector<EvaluatedDesign> &designs);

/** Rvalue overload: filters in place (see filterReticle). */
std::vector<EvaluatedDesign>
filterOct2023Unregulated(std::vector<EvaluatedDesign> &&designs);

/** The design with minimum TTFT (fatal on empty input). */
const EvaluatedDesign &
minTtft(const std::vector<EvaluatedDesign> &designs);

/** The design with minimum TBT (fatal on empty input). */
const EvaluatedDesign &
minTbt(const std::vector<EvaluatedDesign> &designs);

} // namespace dse
} // namespace acs

#endif // ACS_DSE_EVALUATE_HH
