/**
 * @file
 * Unit tests for acs_dse: sweep generation (Tables 3/5), design
 * evaluation, compliance filters, and the distribution/Pareto
 * analyses.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/units.hh"
#include "core/study.hh"
#include "dse/analysis.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"
#include "exhaustive.hh"
#include "hw/presets.hh"
#include "perf/gemm_cache.hh"

namespace acs {
namespace dse {
namespace {

core::Workload
smallWorkload()
{
    // Llama on one device: cheapest evaluation for unit tests.
    core::Workload w;
    w.model = model::llama3_8b();
    w.setting = model::InferenceSetting{};
    w.system.tensorParallel = 1;
    return w;
}

DesignEvaluator
makeEvaluator()
{
    const core::Workload w = smallWorkload();
    return DesignEvaluator(w.model, w.setting, w.system);
}

// ---- sweep spaces -----------------------------------------------------------

TEST(SweepSpace, Table3SizeMatchesPaper)
{
    // 2 dims x 4 lanes x 4 L1 x 4 L2 x 4 memBW x 1 devBW = 512.
    EXPECT_EQ(table3Space(4800.0, {600.0 * units::GBPS}).size(), 512u);
    // x 3 device bandwidths = 1536 (Fig. 7).
    EXPECT_EQ(table3Space(2400.0,
                          {500.0 * units::GBPS, 700.0 * units::GBPS,
                           900.0 * units::GBPS})
                  .size(),
              1536u);
}

TEST(SweepSpace, Table5SizeMatchesPaper)
{
    // 3 dims x 4 lanes x 4 L1 x 4 L2 x 4 memBW x 3 devBW = 2304.
    EXPECT_EQ(table5Space().size(), 2304u);
}

TEST(SweepSpace, GenerateProducesEveryPoint)
{
    const SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    EXPECT_EQ(space.generate().size(), space.size());
}

TEST(SweepSpace, AllGeneratedPointsRespectTppTarget)
{
    for (double target : {1600.0, 2400.0, 4800.0}) {
        const SweepSpace space =
            table3Space(target, {600.0 * units::GBPS});
        for (const hw::HardwareConfig &cfg : space.generate()) {
            EXPECT_LE(cfg.tpp(), target * (1.0 + 1e-9)) << cfg.name;
            // And near the target: adding one core would exceed it.
            hw::HardwareConfig plus = cfg;
            plus.coreCount += 1;
            EXPECT_GT(plus.tpp(), target) << cfg.name;
        }
    }
}

TEST(SweepSpace, GeneratedNamesAreUnique)
{
    const auto cfgs =
        table3Space(4800.0, {600.0 * units::GBPS}).generate();
    std::set<std::string> names;
    for (const auto &cfg : cfgs)
        names.insert(cfg.name);
    EXPECT_EQ(names.size(), cfgs.size());
}

TEST(SweepSpace, DeviceBandwidthRealizedAs50GbpsPhys)
{
    SweepSpace space = table3Space(4800.0, {500.0 * units::GBPS});
    for (const auto &cfg : space.generate()) {
        EXPECT_EQ(cfg.devicePhyCount, 10);
        EXPECT_DOUBLE_EQ(cfg.deviceBandwidth(), 500.0 * units::GBPS);
    }
}

TEST(SweepSpace, TinyDeviceBandwidthClampsToOnePhy)
{
    // Below 25 GB/s the nearest-PHY rounding used to yield zero PHYs
    // (an interconnect-less design); it must clamp to one.
    SweepSpace space = table3Space(4800.0, {10.0 * units::GBPS});
    const auto cfgs = space.generate();
    ASSERT_EQ(cfgs.size(), space.size());
    for (const auto &cfg : cfgs) {
        EXPECT_EQ(cfg.devicePhyCount, 1) << cfg.name;
        EXPECT_DOUBLE_EQ(cfg.deviceBandwidth(), 50.0 * units::GBPS);
    }
}

TEST(SweepSpace, EmptyParameterListIsFatal)
{
    SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    space.l2Bytes.clear();
    EXPECT_THROW(space.generate(), FatalError);
    space = table3Space(4800.0, {600.0 * units::GBPS});
    space.tppTarget = 0.0;
    EXPECT_THROW(space.generate(), FatalError);
}

TEST(SweepSpace, ImpossibleCorePointsAreSkipped)
{
    SweepSpace space = table3Space(100.0, {600.0 * units::GBPS});
    space.systolicDims = {32};
    space.lanesPerCore = {8};
    // 32x32x8 = 8192 FPUs/core exceeds a 100-TPP budget.
    EXPECT_TRUE(space.generate().empty());
}

// ---- evaluation ---------------------------------------------------------------

TEST(DesignEvaluator, FieldsAreConsistent)
{
    const DesignEvaluator evaluator = makeEvaluator();
    const EvaluatedDesign d = evaluator.evaluate(hw::modeledA100());
    EXPECT_DOUBLE_EQ(d.tpp, d.config.tpp());
    EXPECT_GT(d.dieAreaMm2, 0.0);
    EXPECT_NEAR(d.perfDensity, d.tpp / d.dieAreaMm2, 1e-9);
    EXPECT_EQ(d.underReticle,
              d.dieAreaMm2 <= area::RETICLE_LIMIT_MM2);
    EXPECT_GT(d.dieCostUsd, 0.0);
    EXPECT_GT(d.goodDieCostUsd, d.dieCostUsd); // yield < 1
    EXPECT_GT(d.ttftS, 0.0);
    EXPECT_GT(d.tbtS, 0.0);
}

TEST(DesignEvaluator, CostProductsAreMsTimesDollars)
{
    const DesignEvaluator evaluator = makeEvaluator();
    const EvaluatedDesign d = evaluator.evaluate(hw::modeledA100());
    EXPECT_NEAR(d.ttftCostProduct(),
                units::toMs(d.ttftS) * d.dieCostUsd, 1e-9);
    EXPECT_NEAR(d.tbtCostProduct(), units::toMs(d.tbtS) * d.dieCostUsd,
                1e-9);
}

TEST(DesignEvaluator, ToSpecMarksDataCenter)
{
    const DesignEvaluator evaluator = makeEvaluator();
    const EvaluatedDesign d = evaluator.evaluate(hw::modeledA100());
    const policy::DeviceSpec spec = d.toSpec();
    EXPECT_EQ(spec.market, policy::MarketSegment::DATA_CENTER);
    EXPECT_DOUBLE_EQ(spec.tpp, d.tpp);
    EXPECT_DOUBLE_EQ(spec.memCapacityGB, 80.0);
    EXPECT_DOUBLE_EQ(spec.deviceBandwidthGBps, 600.0);
}

TEST(DesignEvaluator, EvaluateAllPreservesOrder)
{
    const DesignEvaluator evaluator = makeEvaluator();
    std::vector<hw::HardwareConfig> cfgs{hw::modeledA100(),
                                         hw::modeledA800()};
    const auto designs = evaluator.evaluateAll(cfgs);
    ASSERT_EQ(designs.size(), 2u);
    EXPECT_EQ(designs[0].config.name, "modeled-A100");
    EXPECT_EQ(designs[1].config.name, "modeled-A800");
}

TEST(DesignEvaluator, ParallelMatchesSerialExactly)
{
    const DesignEvaluator evaluator = makeEvaluator();
    // A small but non-trivial slice of the Table-3 space.
    SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    space.l1BytesPerCore = {192.0 * units::KIB, 512.0 * units::KIB};
    space.l2Bytes = {32.0 * units::MIB};
    space.memBandwidths = {2.0 * units::TBPS, 3.2 * units::TBPS};
    const auto cfgs = space.generate();
    ASSERT_GE(cfgs.size(), 8u);

    const auto serial = evaluator.evaluateAll(cfgs);
    const unsigned hw_threads = std::thread::hardware_concurrency();
    for (unsigned threads : {1u, 2u, hw_threads}) {
        const auto parallel =
            evaluator.evaluateAllParallel(cfgs, threads);
        ASSERT_EQ(parallel.size(), serial.size())
            << threads << " threads";
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].config.name, serial[i].config.name);
            // Bit-exact: the evaluators are const and every model is
            // deterministic, so threading must not change a single
            // result.
            EXPECT_EQ(parallel[i].ttftS, serial[i].ttftS)
                << serial[i].config.name << " @" << threads;
            EXPECT_EQ(parallel[i].tbtS, serial[i].tbtS)
                << serial[i].config.name << " @" << threads;
            EXPECT_EQ(parallel[i].tpp, serial[i].tpp);
            EXPECT_EQ(parallel[i].dieAreaMm2, serial[i].dieAreaMm2);
            EXPECT_EQ(parallel[i].dieCostUsd, serial[i].dieCostUsd);
            EXPECT_EQ(parallel[i].goodDieCostUsd,
                      serial[i].goodDieCostUsd);
            EXPECT_EQ(parallel[i].underReticle,
                      serial[i].underReticle);
        }
    }
}

TEST(DesignEvaluator, InvalidSystemIsFatal)
{
    const core::Workload w = smallWorkload();
    perf::SystemConfig bad{0};
    EXPECT_THROW(DesignEvaluator(w.model, w.setting, bad), FatalError);
}

// ---- filters and selectors -------------------------------------------------------

std::vector<EvaluatedDesign>
syntheticDesigns()
{
    std::vector<EvaluatedDesign> out;
    for (int i = 0; i < 5; ++i) {
        EvaluatedDesign d;
        d.config = hw::modeledA100();
        d.config.name = "d" + std::to_string(i);
        d.dieAreaMm2 = 500.0 + 200.0 * i; // 500..1300
        d.underReticle = d.dieAreaMm2 <= area::RETICLE_LIMIT_MM2;
        d.ttftS = 0.300 - 0.010 * i;
        d.tbtS = 0.0010 + 0.0001 * i;
        d.tpp = 4000.0;
        d.perfDensity = d.tpp / d.dieAreaMm2;
        d.dieCostUsd = 100.0;
        out.push_back(d);
    }
    return out;
}

TEST(Filters, ReticleKeepsSmallDies)
{
    const auto kept = filterReticle(syntheticDesigns());
    EXPECT_EQ(kept.size(), 2u); // 500 and 700 mm^2
    for (const auto &d : kept)
        EXPECT_LE(d.dieAreaMm2, area::RETICLE_LIMIT_MM2);
}

TEST(Filters, Oct2023UnregulatedFilter)
{
    // 4000 TPP needs PD < 1.6 -> area > 2500 mm^2; none qualify.
    EXPECT_TRUE(
        filterOct2023Unregulated(syntheticDesigns()).empty());

    auto designs = syntheticDesigns();
    designs[0].tpp = 1000.0; // under every threshold
    EXPECT_EQ(filterOct2023Unregulated(designs).size(), 1u);
}

TEST(Selectors, MinTtftAndMinTbt)
{
    const auto designs = syntheticDesigns();
    EXPECT_EQ(minTtft(designs).config.name, "d4");
    EXPECT_EQ(minTbt(designs).config.name, "d0");
    EXPECT_THROW(minTtft({}), FatalError);
    EXPECT_THROW(minTbt({}), FatalError);
}

// ---- analysis ----------------------------------------------------------------------

TEST(Analysis, MetricHelpers)
{
    EvaluatedDesign d;
    d.ttftS = 0.25;
    d.tbtS = 0.0014;
    EXPECT_DOUBLE_EQ(ttftMs(d), 250.0);
    EXPECT_DOUBLE_EQ(tbtMs(d), 1.4);
}

TEST(Analysis, FixedParameterPredicate)
{
    EvaluatedDesign d;
    d.config = hw::modeledA100();
    EXPECT_TRUE(fixedParameter(policy::ArchParameter::LANES_PER_CORE,
                               4.0)(d));
    EXPECT_FALSE(fixedParameter(policy::ArchParameter::LANES_PER_CORE,
                                2.0)(d));
    EXPECT_TRUE(fixedParameter(policy::ArchParameter::MEM_BANDWIDTH,
                               2.0 * units::TBPS)(d));
}

TEST(Analysis, IndicatorStudyBaselineFirst)
{
    const auto designs = syntheticDesigns();
    const auto dists = indicatorStudy(
        designs, {{"big-die", [](const EvaluatedDesign &d) {
                       return d.dieAreaMm2 > 1000.0;
                   }}});
    ASSERT_EQ(dists.size(), 2u);
    EXPECT_EQ(dists[0].label, "TPP Only");
    EXPECT_EQ(dists[0].designCount, designs.size());
    EXPECT_EQ(dists[1].label, "big-die");
    EXPECT_EQ(dists[1].designCount, 2u);
    EXPECT_GE(dists[1].ttftNarrowing, 1.0);
}

TEST(Analysis, IndicatorStudyDropsEmptyGroups)
{
    const auto dists = indicatorStudy(
        syntheticDesigns(),
        {{"nothing", [](const EvaluatedDesign &) { return false; }}});
    EXPECT_EQ(dists.size(), 1u); // baseline only
}

TEST(Analysis, IndicatorStudyEmptyBaselineIsFatal)
{
    EXPECT_THROW(indicatorStudy({}, {}), FatalError);
}

TEST(Analysis, ParetoFrontOnSyntheticSet)
{
    // In the synthetic set TTFT falls while TBT rises with i, so every
    // design is Pareto-optimal for (ttft, tbt).
    const auto designs = syntheticDesigns();
    const auto front = paretoFront(designs, ttftMs, tbtMs);
    EXPECT_EQ(front.size(), designs.size());
}

TEST(Analysis, ParetoFrontRemovesDominatedPoints)
{
    auto designs = syntheticDesigns();
    // Make d1 dominated by d0 on both metrics.
    designs[1].ttftS = designs[0].ttftS + 0.01;
    designs[1].tbtS = designs[0].tbtS + 0.01;
    const auto front = paretoFront(designs, ttftMs, tbtMs);
    for (const auto &d : front)
        EXPECT_NE(d.config.name, "d1");
}

TEST(Analysis, ParetoFrontIsSortedAndUndominated)
{
    const auto designs = syntheticDesigns();
    const auto front = paretoFront(designs, ttftMs, tbtMs);
    for (std::size_t i = 1; i < front.size(); ++i) {
        EXPECT_LE(ttftMs(front[i - 1]), ttftMs(front[i]));
        EXPECT_GT(tbtMs(front[i - 1]), tbtMs(front[i]));
    }
}


TEST(SweepSpace, ChipletDimensionMultipliesSpace)
{
    SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    space.diesPerPackage = {1, 2, 4};
    EXPECT_EQ(space.size(), 3u * 512u);
    const auto cfgs = space.generate();
    EXPECT_EQ(cfgs.size(), space.size());
    for (const auto &cfg : cfgs) {
        // Package TPP stays under the target regardless of die count.
        EXPECT_LE(cfg.tpp(), 4800.0 * (1.0 + 1e-9)) << cfg.name;
    }
}

TEST(SweepSpace, ChipletEntriesMustBePositive)
{
    SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    space.diesPerPackage = {0};
    EXPECT_THROW(space.generate(), FatalError);
}

TEST(Workloads, RegistryResolvesNames)
{
    EXPECT_EQ(core::workloadByName("gpt3").model.name, "GPT-3 175B");
    EXPECT_EQ(core::workloadByName("llama").model.name, "Llama 3 8B");
    EXPECT_EQ(core::workloadByName("llama70b").model.name,
              "Llama 3 70B");
    EXPECT_EQ(core::workloadByName("mixtral").model.name,
              "Mixtral 8x7B");
    EXPECT_THROW(core::workloadByName("gpt5"), FatalError);
}

// ---- end-to-end sweep sanity ---------------------------------------------------------

TEST(SweepIntegration, Table3SweepEvaluatesCleanly)
{
    const core::SanctionsStudy study;
    const auto designs = study.runSweep(
        table3Space(4800.0, {600.0 * units::GBPS}), smallWorkload());
    EXPECT_EQ(designs.size(), 512u);
    for (const auto &d : designs) {
        EXPECT_GT(d.ttftS, 0.0);
        EXPECT_GT(d.tbtS, 0.0);
        EXPECT_GT(d.dieAreaMm2, 0.0);
        // At or under the target; coarse-grained cores (32x32 x 8
        // lanes is 8192 FPUs/core) can land up to ~8% below it.
        EXPECT_LE(d.tpp, 4800.0 * (1.0 + 1e-9));
        EXPECT_GE(d.tpp, 4800.0 * 0.90);
    }
}

// ---- plan enumeration and whole-plan evaluation ---------------------------

TEST(SweepPlan, PointMatchesGenerate)
{
    const SweepSpace space = table5Space();
    const SweepPlan plan(space);
    const auto cfgs = space.generate();
    ASSERT_EQ(plan.pointCount(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const hw::HardwareConfig cfg = plan.point(i);
        EXPECT_EQ(cfg.name, cfgs[i].name) << i;
        EXPECT_EQ(cfg.coreCount, cfgs[i].coreCount) << i;
        EXPECT_EQ(cfg.memBandwidth, cfgs[i].memBandwidth) << i;
    }
    EXPECT_THROW(plan.point(plan.pointCount()), FatalError);
}

TEST(SweepPlan, NamesAreByteIdenticalToStreamFormatting)
{
    // Design names are compiled from to_chars fragments at plan
    // construction (glibc's float printf serializes across sweep
    // workers, so point() must not format numbers). The committed
    // CSVs embed the historical ostringstream names, so the fragment
    // path must reproduce them byte for byte — including the
    // fractional mem-bandwidths (2.4, 2.8) that exercise %g.
    std::vector<SweepSpace> spaces;
    spaces.push_back(table3Space(4800.0, {600.0 * units::GBPS}));
    spaces.back().diesPerPackage = {1, 2};
    spaces.push_back(table5Space());

    for (const SweepSpace &space : spaces) {
        const SweepPlan plan(space);
        std::size_t index = 0;
        for (int dies : space.diesPerPackage) {
            for (int dim : space.systolicDims) {
                for (int lanes : space.lanesPerCore) {
                    const int cores = hw::coresForTpp(
                        space.tppTarget / dies, dim, dim, lanes,
                        space.base.clockHz, space.base.opBitwidth);
                    if (cores < 1)
                        continue;
                    for (double l1 : space.l1BytesPerCore)
                    for (double l2 : space.l2Bytes)
                    for (double mem_bw : space.memBandwidths)
                    for (double dev_bw : space.deviceBandwidths) {
                        std::ostringstream name;
                        name << "dse-" << dim << "x" << dim << "-l"
                             << lanes << "-c" << cores << "-L1."
                             << l1 / units::KIB << "K-L2."
                             << l2 / units::MIB << "M-hbm"
                             << mem_bw / units::TBPS << "T-dev"
                             << dev_bw / units::GBPS << "G";
                        if (dies > 1)
                            name << "-d" << dies;
                        ASSERT_LT(index, plan.pointCount());
                        EXPECT_EQ(plan.point(index).name, name.str())
                            << index;
                        ++index;
                    }
                }
            }
        }
        EXPECT_EQ(index, plan.pointCount());
    }
}

TEST(SweepSpace, ForEachMatchesGenerate)
{
    const SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    const auto cfgs = space.generate();
    std::size_t seen = 0;
    space.forEach([&](const hw::HardwareConfig &cfg, std::size_t i) {
        ASSERT_LT(i, cfgs.size());
        EXPECT_EQ(i, seen);
        EXPECT_EQ(cfg.name, cfgs[i].name);
        ++seen;
    });
    EXPECT_EQ(seen, cfgs.size());
}

TEST(Streaming, MatchesMaterializedPipelineExactly)
{
    // Streaming a whole plan through evaluatePlanIndices (the SoA
    // path) must reproduce evaluateAll + filters + argmins
    // bit-for-bit at every thread count.
    const DesignEvaluator evaluator = makeEvaluator();
    const SweepSpace space = table5Space();
    const auto designs = evaluator.evaluateAll(space.generate());
    const std::size_t n_reticle = filterReticle(designs).size();
    const std::size_t n_unreg =
        filterOct2023Unregulated(designs).size();
    const EvaluatedDesign &best_ttft = minTtft(designs);
    const EvaluatedDesign &best_tbt = minTbt(designs);

    for (unsigned threads : {1u, 2u, 8u}) {
        const Exhaustive ex =
            evaluateExhaustive(evaluator, space, nullptr, threads);
        ASSERT_EQ(ex.samples.size(), designs.size()) << threads;
        EXPECT_EQ(ex.kept, designs.size()) << threads;
        EXPECT_EQ(ex.underReticle, n_reticle) << threads;
        EXPECT_EQ(ex.oct2023Unregulated, n_unreg) << threads;
        ASSERT_TRUE(ex.bestTtft && ex.bestTbt) << threads;
        EXPECT_EQ(designs[*ex.bestTtft].config.name, best_ttft.config.name);
        EXPECT_EQ(ex.samples[*ex.bestTtft].ttftS, best_ttft.ttftS)
            << threads;
        EXPECT_EQ(designs[*ex.bestTbt].config.name, best_tbt.config.name);
        EXPECT_EQ(ex.samples[*ex.bestTbt].tbtS, best_tbt.tbtS) << threads;
    }
}

TEST(Streaming, PredicateMatchesFilteredArgmin)
{
    const DesignEvaluator evaluator = makeEvaluator();
    const SweepSpace space = table5Space();
    const auto designs = evaluator.evaluateAll(space.generate());
    const auto kept = filterReticle(designs);
    ASSERT_FALSE(kept.empty());
    const EvaluatedDesign &best_ttft = minTtft(kept);

    for (unsigned threads : {1u, 2u, 8u}) {
        const Exhaustive ex = evaluateExhaustive(
            evaluator, space,
            [](const EvaluatedDesign &d) { return d.underReticle; },
            threads);
        EXPECT_EQ(ex.samples.size(), space.size()) << threads;
        EXPECT_EQ(ex.kept, kept.size()) << threads;
        EXPECT_EQ(ex.underReticle, kept.size()) << threads;
        ASSERT_TRUE(ex.bestTtft) << threads;
        EXPECT_EQ(designs[*ex.bestTtft].config.name, best_ttft.config.name);
        EXPECT_EQ(ex.samples[*ex.bestTtft].ttftS, best_ttft.ttftS)
            << threads;
    }
}

TEST(Streaming, EmptyKeptSetHasNoArgmin)
{
    const DesignEvaluator evaluator = makeEvaluator();
    SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    space.l1BytesPerCore = {192.0 * units::KIB};
    space.l2Bytes = {32.0 * units::MIB};
    space.memBandwidths = {2.0 * units::TBPS};
    const Exhaustive ex = evaluateExhaustive(
        evaluator, space, [](const EvaluatedDesign &) { return false; });
    EXPECT_EQ(ex.samples.size(), space.size());
    EXPECT_EQ(ex.kept, 0u);
    EXPECT_FALSE(ex.bestTtft);
    EXPECT_FALSE(ex.bestTbt);
}

TEST(Filters, RvalueOverloadsMatchLvalue)
{
    const auto designs = syntheticDesigns();

    auto moved = syntheticDesigns();
    const auto rv_reticle = filterReticle(std::move(moved));
    const auto lv_reticle = filterReticle(designs);
    ASSERT_EQ(rv_reticle.size(), lv_reticle.size());
    for (std::size_t i = 0; i < lv_reticle.size(); ++i)
        EXPECT_EQ(rv_reticle[i].config.name, lv_reticle[i].config.name);

    auto moved2 = syntheticDesigns();
    moved2[0].tpp = 1000.0;
    auto lv_in = moved2;
    const auto rv_unreg = filterOct2023Unregulated(std::move(moved2));
    const auto lv_unreg = filterOct2023Unregulated(lv_in);
    ASSERT_EQ(rv_unreg.size(), lv_unreg.size());
    for (std::size_t i = 0; i < lv_unreg.size(); ++i)
        EXPECT_EQ(rv_unreg[i].config.name, lv_unreg[i].config.name);
}

// ---- axis factorization + feasibleSize --------------------------------------

TEST(SweepSpace, AxesMatchEnumerationOrderAndRawSize)
{
    const SweepSpace space = table3Space(4800.0, {500.0 * units::GBPS,
                                                  700.0 * units::GBPS,
                                                  900.0 * units::GBPS});
    const auto axes = space.axes();
    ASSERT_FALSE(axes.empty());
    // The raw cartesian size is the product of the axis counts.
    std::size_t product = 1;
    std::size_t comm_only = 0;
    for (const SweepAxis &axis : axes) {
        product *= axis.count;
        if (axis.effect == AxisEffect::COMM_ONLY)
            ++comm_only;
    }
    EXPECT_EQ(product, space.size());
    // Exactly one comm-only axis today (deviceBandwidths), and the
    // enumeration invariant keeps it innermost (last).
    EXPECT_EQ(comm_only, 1u);
    EXPECT_STREQ(axes.back().name, "deviceBandwidths");
    EXPECT_EQ(axes.back().effect, AxisEffect::COMM_ONLY);
    EXPECT_EQ(axes.back().count, space.deviceBandwidths.size());
}

TEST(SweepSpace, FeasibleSizeMatchesGenerateUnderSkips)
{
    // A TPP budget small enough that the widest (dim, lanes) combos
    // cannot fit one core: size() keeps counting the raw product while
    // feasibleSize() counts what generate() actually produces.
    SweepSpace space = table3Space(150.0, {600.0 * units::GBPS});
    const auto cfgs = space.generate();
    EXPECT_EQ(space.feasibleSize(), cfgs.size());
    EXPECT_LT(space.feasibleSize(), space.size());
    ASSERT_GT(space.feasibleSize(), 0u) << "space unexpectedly empty";

    // Flat-index addressing must agree with the compacted enumeration:
    // skipped outer combinations shift every later block down.
    const SweepPlan plan(space);
    ASSERT_EQ(plan.pointCount(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(plan.point(i).name, cfgs[i].name) << i;

    // Fully feasible spaces collapse the distinction.
    const SweepSpace full = table3Space(4800.0, {600.0 * units::GBPS});
    EXPECT_EQ(full.feasibleSize(), full.size());
}

TEST(SweepSpace, FineSpaceIsAdaptiveScale)
{
    // The adaptive engine's target space: >= 10^8 feasible designs,
    // dense inner axes, the comm-only device axis innermost. The
    // memoized feasibleSize() makes this cheap — nothing here may
    // materialize the space.
    const SweepSpace fine = fineSpace();
    EXPECT_GE(fine.feasibleSize(), std::size_t{100'000'000});
    EXPECT_EQ(fine.feasibleSize(), SweepPlan(fine).pointCount());
    const auto axes = fine.axes();
    EXPECT_STREQ(axes.back().name, "deviceBandwidths");
    EXPECT_EQ(axes.back().effect, AxisEffect::COMM_ONLY);
}

TEST(SweepPlan, CommOnlyRunsShareComputeProjection)
{
    // Designs within one commOnlyRunLength() run must differ only in
    // the interconnect realization (and name) — this adjacency is what
    // the sweep-scoped GEMM cache exploits.
    const SweepSpace space = table3Space(4800.0, {500.0 * units::GBPS,
                                                  700.0 * units::GBPS,
                                                  900.0 * units::GBPS});
    const SweepPlan plan(space);
    const std::size_t run = plan.commOnlyRunLength();
    ASSERT_EQ(run, 3u);
    ASSERT_EQ(plan.pointCount() % run, 0u);
    for (std::size_t base = 0; base < plan.pointCount(); base += run) {
        const hw::HardwareConfig first = plan.point(base);
        std::set<int> phys{first.devicePhyCount};
        for (std::size_t j = 1; j < run; ++j) {
            const hw::HardwareConfig cfg = plan.point(base + j);
            EXPECT_EQ(cfg.systolicDimX, first.systolicDimX);
            EXPECT_EQ(cfg.systolicDimY, first.systolicDimY);
            EXPECT_EQ(cfg.lanesPerCore, first.lanesPerCore);
            EXPECT_EQ(cfg.coreCount, first.coreCount);
            EXPECT_EQ(cfg.diesPerPackage, first.diesPerPackage);
            EXPECT_EQ(cfg.l1BytesPerCore, first.l1BytesPerCore);
            EXPECT_EQ(cfg.l2Bytes, first.l2Bytes);
            EXPECT_EQ(cfg.memBandwidth, first.memBandwidth);
            phys.insert(cfg.devicePhyCount);
        }
        // The comm-only axis really varies inside the run.
        EXPECT_EQ(phys.size(), run) << "run at " << base;
    }
}

// ---- sweep-scoped GEMM cache -------------------------------------------------

/** A trimmed TILE_SIM-relevant space: fast, but multi-valued on every
 *  axis class (two comm-only values per compute projection). */
SweepSpace
tinyTileSimSpace()
{
    SweepSpace space = table3Space(4800.0, {400.0 * units::GBPS,
                                            600.0 * units::GBPS});
    space.systolicDims = {16};
    space.lanesPerCore = {2, 4};
    space.l1BytesPerCore.resize(2);
    space.l2Bytes.resize(2);
    space.memBandwidths.resize(2);
    return space;
}

TEST(GemmCacheSweep, CacheOnOffBitIdenticalAcrossEntryPoints)
{
    // Every batch entry point hoists a sweep-scoped cache under
    // TILE_SIM; evaluate(), one design at a time, never does. The
    // hoisted runs must match it bit for bit.
    const core::Workload w = smallWorkload();
    perf::PerfParams params;
    params.gemmMode = perf::GemmMode::TILE_SIM;
    const DesignEvaluator evaluator(w.model, w.setting, w.system, params);

    const SweepSpace space = tinyTileSimSpace();
    const auto cfgs = space.generate();
    std::vector<EvaluatedDesign> plain;
    for (const hw::HardwareConfig &cfg : cfgs)
        plain.push_back(evaluator.evaluate(cfg));

    const auto a = evaluator.evaluateAll(cfgs);
    const auto c = evaluator.evaluateAllParallel(cfgs, 4);
    ASSERT_EQ(a.size(), plain.size());
    ASSERT_EQ(c.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(a[i].ttftS, plain[i].ttftS) << i;
        EXPECT_EQ(a[i].tbtS, plain[i].tbtS) << i;
        EXPECT_EQ(a[i].config.name, plain[i].config.name) << i;
        EXPECT_EQ(c[i].ttftS, plain[i].ttftS) << i;
        EXPECT_EQ(c[i].tbtS, plain[i].tbtS) << i;
    }

    for (unsigned threads : {1u, 4u}) {
        const Exhaustive ex =
            evaluateExhaustive(evaluator, space, nullptr, threads);
        ASSERT_EQ(ex.samples.size(), plain.size()) << threads;
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(ex.samples[i].ttftS, plain[i].ttftS) << i;
            EXPECT_EQ(ex.samples[i].tbtS, plain[i].tbtS) << i;
        }
    }
}

TEST(GemmCacheSweep, CallerInstalledCacheStaysBitIdenticalWhenWarm)
{
    // A session-scoped cache handle (PerfParams::gemmCache) must serve
    // the second sweep from hits without perturbing a single bit.
    const core::Workload w = smallWorkload();
    perf::GemmCache cache;
    perf::PerfParams params;
    params.gemmMode = perf::GemmMode::TILE_SIM;
    params.gemmCache = &cache;
    const DesignEvaluator evaluator(w.model, w.setting, w.system,
                                    params);
    const SweepSpace space = tinyTileSimSpace();
    const auto cfgs = space.generate();
    const auto cold = evaluator.evaluateAll(cfgs);
    const auto warm_stats = cache.stats();
    EXPECT_GT(warm_stats.entries, 0u);
    const auto warm = evaluator.evaluateAllParallel(cfgs, 4);
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].ttftS, warm[i].ttftS) << i;
        EXPECT_EQ(cold[i].tbtS, warm[i].tbtS) << i;
    }
    // The warm sweep's GEMMs were all hits: no new entries appeared.
    const auto final_stats = cache.stats();
    EXPECT_EQ(final_stats.entries, warm_stats.entries);
    EXPECT_GT(final_stats.hits, warm_stats.hits);
}

} // anonymous namespace
} // namespace dse
} // namespace acs
