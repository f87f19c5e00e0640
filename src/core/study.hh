/**
 * @file
 * High-level API of the paper's study: standard workloads, baseline
 * comparison, sweep execution, and rule classification of a design.
 *
 * This is the entry point downstream users should start from (see
 * examples/quickstart.cpp).
 */

#ifndef ACS_CORE_STUDY_HH
#define ACS_CORE_STUDY_HH

#include <vector>

#include "dse/adaptive.hh"
#include "dse/analysis.hh"
#include "dse/evaluate.hh"
#include "devices/database.hh"
#include "dse/sweep.hh"
#include "hw/config.hh"
#include "hw/presets.hh"
#include "model/transformer.hh"
#include "perf/simulator.hh"
#include "policy/acr_rules.hh"
#include "policy/marketing.hh"
#include "serve/percentile.hh"
#include "sim/replica.hh"

namespace acs {
namespace core {

/** A workload: model + setting + system mapping. */
struct Workload
{
    model::TransformerConfig model;
    model::InferenceSetting setting;
    perf::SystemConfig system;
};

/**
 * GPT-3 175B under the paper's standard setting, tensor-parallel over
 * 4 devices (one device cannot hold the model; see DESIGN.md).
 */
Workload gpt3Workload();

/**
 * Llama 3 8B under the standard setting, tensor-parallel over the same
 * 4-device system as GPT-3.
 */
Workload llamaWorkload();

/**
 * Workload registry: "gpt3", "llama", "llama70b", "mixtral" (all at
 * the standard setting, TP=4). Fatal on unknown names; tools use this
 * to map CLI arguments.
 */
Workload workloadByName(const std::string &name);

/**
 * Configuration of a request-level serving study (the sim-backed
 * counterpart of the closed-form capacity arithmetic).
 */
struct ServingStudyConfig
{
    /** Per-replica offered loads for the latency-vs-load curve. */
    std::vector<double> ratesPerS = {0.05, 0.1, 0.2, 0.4};

    sim::LengthDistribution promptLen =
        sim::LengthDistribution::fixed(2048);
    sim::LengthDistribution outputLen =
        sim::LengthDistribution::fixed(256);

    double horizonS = 600.0;  //!< arrival horizon per simulation
    std::uint64_t seed = 1;   //!< master seed (byte-reproducible runs)

    serve::PercentileSlo slo;
    sim::SchedulerConfig scheduler;

    /**
     * Aggregate demand for the fleet-sizing step (req/s across the
     * fleet); 0 skips fleet sizing and produces only the curve.
     */
    double fleetRatePerS = 0.0;

    /** Fleet-sizing search ceiling. */
    int maxReplicas = 4096;
};

/** One offered-load point of a serving study. */
struct ServingStudyPoint
{
    double ratePerS = 0.0; //!< per-replica offered load
    sim::LatencyRollup ttft;
    sim::LatencyRollup tbt;
    double attainment = 0.0;         //!< SLO-attaining request share
    double goodputTokensPerS = 0.0;  //!< SLO-attaining token rate
    std::uint64_t completed = 0;     //!< requests completed
    std::uint64_t maxQueueDepth = 0; //!< admission-queue high-water
};

/** Full output of SanctionsStudy::runServingStudy. */
struct ServingStudyResult
{
    std::vector<ServingStudyPoint> curve; //!< one point per rate
    bool fleetSized = false; //!< fleet plan below is populated
    serve::PercentileFleetPlan fleet;
};

/**
 * One point of the latency-vs-load curve: simulate a single replica
 * of @p cost at per-replica offered load @p ratePerS under
 * @p config's workload shape and roll the metrics up.
 *
 * This is the unit both SanctionsStudy::runServingStudy and the
 * scenario-grid benchmarks fan out over: a pure function of its
 * arguments, so any scheduling of calls that collects results in
 * input order reproduces the serial curve byte-identically.
 */
ServingStudyPoint servingPointAt(const sim::IterationCostModel &cost,
                                 const ServingStudyConfig &config,
                                 double ratePerS);

/** Rule outcomes for one design evaluated as a data-center product. */
struct RuleOutcomes
{
    policy::Classification oct2022 =
        policy::Classification::NOT_APPLICABLE;
    policy::Classification oct2023DataCenter =
        policy::Classification::NOT_APPLICABLE;
    policy::Classification oct2023NonDataCenter =
        policy::Classification::NOT_APPLICABLE;
};

/** Full report for one design on one workload. */
struct DesignReport
{
    dse::EvaluatedDesign design;
    dse::EvaluatedDesign baseline; //!< the modeled A100
    RuleOutcomes rules;

    /** Relative TTFT vs baseline: negative means faster. */
    double ttftDelta() const;
    /** Relative TBT vs baseline: negative means faster. */
    double tbtDelta() const;
};

/**
 * The paper's study harness.
 *
 * Thread-compatible: const after construction.
 */
class SanctionsStudy
{
  public:
    explicit SanctionsStudy(const perf::PerfParams &params =
                                perf::PerfParams{});

    /** Evaluate the modeled A100 baseline on @p workload. */
    dse::EvaluatedDesign evaluateBaseline(const Workload &workload) const;

    /** Evaluate any design on @p workload with baseline + rules. */
    DesignReport evaluateDesign(const hw::HardwareConfig &cfg,
                                const Workload &workload) const;

    /** Evaluate every point of a sweep space on @p workload. */
    std::vector<dse::EvaluatedDesign>
    runSweep(const dse::SweepSpace &space, const Workload &workload)
        const;

    /**
     * Adaptive coarse-to-fine search of @p space on @p workload
     * (dse::AdaptiveSearch): prunes the space instead of enumerating
     * it, supports sharding and checkpoint/resume via @p cfg, and on
     * the exactness-tested spaces returns the same argmin designs as
     * runSweep + minTtft/minTbt while evaluating a fraction of the
     * points. An empty cfg.workloadTag is filled in from the workload
     * (model name, setting, TP degree) so checkpoints are guarded
     * against resuming under a different workload.
     */
    dse::AdaptiveResult
    runAdaptiveSweep(const dse::SweepSpace &space,
                     const Workload &workload,
                     dse::AdaptiveConfig cfg = {}) const;

    /** Classify a design under all rule generations. */
    RuleOutcomes classify(const dse::EvaluatedDesign &design) const;

    /**
     * Request-level serving study of one design on @p workload: a
     * latency-vs-load percentile curve (one single-replica simulation
     * per configured rate) plus, when config.fleetRatePerS > 0, the
     * percentile-aware fleet plan with its closed-form cross-check.
     *
     * Deterministic: byte-identical results for identical inputs,
     * independent of ACS_THREADS (see docs/SERVING.md).
     */
    ServingStudyResult
    runServingStudy(const hw::HardwareConfig &cfg,
                    const Workload &workload,
                    const ServingStudyConfig &config) const;

    /**
     * Iteration latency/memory oracle of @p cfg serving @p workload
     * with this study's performance params — the building block of
     * every request-level estimator (single replica, homogeneous
     * fleet, heterogeneous cluster pool). Callers keep it alive for
     * the lifetime of any simulation using it; one oracle per
     * (device, workload) pair can be shared across pools and
     * searches, compounding the memoization.
     */
    sim::IterationCostModel
    makeCostModel(const hw::HardwareConfig &cfg,
                  const Workload &workload) const;

    /** Per-rule regulated counts over a device catalogue. */
    struct DatabaseSummary
    {
        std::size_t devices = 0;
        std::size_t regulatedOct2022 = 0;
        std::size_t regulatedOct2023 = 0;
        policy::MarketingSummary marketing;      //!< Fig. 9 counts
        policy::MarketingSummary architectural;  //!< Fig. 10 counts
    };

    /** Run the Sec. 5.2 classification study over a catalogue. */
    static DatabaseSummary
    classifyDatabase(const devices::Database &db);

    const perf::PerfParams &params() const { return params_; }

  private:
    perf::PerfParams params_;
};

} // namespace core
} // namespace acs

#endif // ACS_CORE_STUDY_HH
