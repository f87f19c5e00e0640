#include "study.hh"

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/obs.hh"
#include "policy/device_spec.hh"
#include "policy/marketing.hh"

namespace acs {
namespace core {

Workload
gpt3Workload()
{
    Workload w;
    w.model = model::gpt3_175b();
    w.setting = model::InferenceSetting{};
    w.system.tensorParallel = 4;
    return w;
}

Workload
llamaWorkload()
{
    Workload w;
    w.model = model::llama3_8b();
    w.setting = model::InferenceSetting{};
    // Same 4-device system as GPT-3 (TP=4 divides the 8 KV heads);
    // reproduces the paper's Llama 3 TTFT baseline of ~46 ms/layer.
    w.system.tensorParallel = 4;
    return w;
}

Workload
workloadByName(const std::string &name)
{
    if (name == "gpt3")
        return gpt3Workload();
    if (name == "llama")
        return llamaWorkload();
    Workload w = llamaWorkload();
    if (name == "llama70b") {
        w.model = model::llama3_70b();
        return w;
    }
    if (name == "mixtral") {
        w.model = model::mixtral_8x7b();
        return w;
    }
    fatal("unknown workload '" + name +
          "' (expected gpt3, llama, llama70b, or mixtral)");
}

double
DesignReport::ttftDelta() const
{
    panicIf(baseline.ttftS <= 0.0, "baseline TTFT must be positive");
    return design.ttftS / baseline.ttftS - 1.0;
}

double
DesignReport::tbtDelta() const
{
    panicIf(baseline.tbtS <= 0.0, "baseline TBT must be positive");
    return design.tbtS / baseline.tbtS - 1.0;
}

SanctionsStudy::SanctionsStudy(const perf::PerfParams &params)
    : params_(params)
{}

dse::EvaluatedDesign
SanctionsStudy::evaluateBaseline(const Workload &workload) const
{
    const dse::DesignEvaluator evaluator(workload.model, workload.setting,
                                         workload.system, params_);
    return evaluator.evaluate(hw::modeledA100());
}

DesignReport
SanctionsStudy::evaluateDesign(const hw::HardwareConfig &cfg,
                               const Workload &workload) const
{
    const dse::DesignEvaluator evaluator(workload.model, workload.setting,
                                         workload.system, params_);
    DesignReport report;
    report.design = evaluator.evaluate(cfg);
    report.baseline = evaluator.evaluate(hw::modeledA100());
    report.rules = classify(report.design);
    return report;
}

std::vector<dse::EvaluatedDesign>
SanctionsStudy::runSweep(const dse::SweepSpace &space,
                         const Workload &workload) const
{
    const obs::TraceSpan span("core.runSweep");
    const dse::DesignEvaluator evaluator(workload.model, workload.setting,
                                         workload.system, params_);
    // Parallel evaluation is deterministic and identical to the
    // serial path (evaluators are const); on one hardware thread it
    // degrades to evaluateAll.
    return evaluator.evaluateAllParallel(space.generate());
}

dse::AdaptiveResult
SanctionsStudy::runAdaptiveSweep(const dse::SweepSpace &space,
                                 const Workload &workload,
                                 dse::AdaptiveConfig cfg) const
{
    const obs::TraceSpan span("core.runAdaptiveSweep");
    if (cfg.workloadTag.empty()) {
        cfg.workloadTag =
            workload.model.name + "-b" +
            std::to_string(workload.setting.batch) + "-i" +
            std::to_string(workload.setting.inputLen) + "-o" +
            std::to_string(workload.setting.outputLen) + "-tp" +
            std::to_string(workload.system.tensorParallel);
    }
    const dse::DesignEvaluator evaluator(workload.model, workload.setting,
                                         workload.system, params_);
    dse::AdaptiveSearch search(evaluator, space, std::move(cfg));
    return search.run();
}

ServingStudyPoint
servingPointAt(const sim::IterationCostModel &cost,
               const ServingStudyConfig &config, double ratePerS)
{
    sim::ReplicaConfig rc;
    rc.scheduler = config.scheduler;
    rc.workload.arrivalRatePerS = ratePerS;
    rc.workload.promptLen = config.promptLen;
    rc.workload.outputLen = config.outputLen;
    rc.workload.horizonS = config.horizonS;
    rc.workload.seed = config.seed;
    const sim::ReplicaMetrics m = sim::simulateReplica(cost, rc);

    const sim::SloTargets targets = config.slo.targets();
    ServingStudyPoint point;
    point.ratePerS = ratePerS;
    point.ttft = m.ttft();
    point.tbt = m.tbt();
    point.attainment = m.attainment(targets);
    point.goodputTokensPerS = m.goodputTokensPerS(targets);
    point.completed = m.requests.size();
    point.maxQueueDepth = m.queueDepth.maxDepth;
    return point;
}

ServingStudyResult
SanctionsStudy::runServingStudy(const hw::HardwareConfig &cfg,
                                const Workload &workload,
                                const ServingStudyConfig &config) const
{
    const obs::TraceSpan span("core.runServingStudy");
    fatalIf(config.ratesPerS.empty() && config.fleetRatePerS <= 0.0,
            "runServingStudy: no rates and no fleet demand given");

    const sim::IterationCostModel cost = makeCostModel(cfg, workload);

    ServingStudyResult result;
    // Rates are independent single-replica simulations sharing the
    // read-mostly cost-model memo; index-addressed slots make the
    // curve byte-identical for every ACS_THREADS value.
    result.curve.resize(config.ratesPerS.size());
    common::ThreadPool::shared().parallelFor(
        config.ratesPerS.size(),
        [&](std::size_t i) {
            result.curve[i] =
                servingPointAt(cost, config, config.ratesPerS[i]);
        },
        1);

    if (config.fleetRatePerS > 0.0) {
        sim::FleetDemand demand;
        demand.ratePerS = config.fleetRatePerS;
        demand.promptLen = config.promptLen;
        demand.outputLen = config.outputLen;
        demand.horizonS = config.horizonS;
        demand.seed = config.seed;
        result.fleet = serve::planFleetPercentile(
            cost, demand, config.scheduler, config.slo,
            config.maxReplicas);
        result.fleetSized = true;
    }
    return result;
}

RuleOutcomes
SanctionsStudy::classify(const dse::EvaluatedDesign &design) const
{
    obs::counterAdd("policy.classified.designs");
    RuleOutcomes outcomes;
    policy::DeviceSpec spec = design.toSpec();
    outcomes.oct2022 = policy::Oct2022Rule::classify(spec);
    outcomes.oct2023DataCenter = policy::Oct2023Rule::classifyAs(
        spec, policy::MarketSegment::DATA_CENTER);
    outcomes.oct2023NonDataCenter = policy::Oct2023Rule::classifyAs(
        spec, policy::MarketSegment::CONSUMER);
    return outcomes;
}

SanctionsStudy::DatabaseSummary
SanctionsStudy::classifyDatabase(const devices::Database &db)
{
    const obs::TraceSpan span("core.classifyDatabase");
    DatabaseSummary summary;
    const auto specs = db.allSpecs();
    summary.devices = specs.size();
    obs::counterAdd("policy.classified.devices", specs.size());
    for (const auto &spec : specs) {
        summary.regulatedOct2022 +=
            policy::isRegulated(policy::Oct2022Rule::classify(spec));
        summary.regulatedOct2023 +=
            policy::isRegulated(policy::Oct2023Rule::classify(spec));
    }
    summary.marketing = policy::summarizeMarketing(specs);
    summary.architectural =
        policy::ArchDataCenterClassifier::summarize(specs);
    return summary;
}

sim::IterationCostModel
SanctionsStudy::makeCostModel(const hw::HardwareConfig &cfg,
                              const Workload &workload) const
{
    return sim::IterationCostModel(cfg, workload.model,
                                   workload.setting, workload.system,
                                   params_);
}

} // namespace core
} // namespace acs
