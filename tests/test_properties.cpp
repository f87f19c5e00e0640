/**
 * @file
 * Broad property sweeps across the library: catalogue-wide classifier
 * totality, exhaustive rule quadrants, collective scaling, graphics
 * resolution scaling, and table/scatter rendering details.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/acs.hh"

namespace acs {
namespace {

// ---- catalogue-wide totality -------------------------------------------------

TEST(CatalogueProperties, EveryDeviceClassifiesUnderEveryRule)
{
    const devices::Database db;
    for (const auto &spec : db.allSpecs()) {
        ASSERT_NO_THROW(policy::Oct2022Rule::classify(spec))
            << spec.name;
        ASSERT_NO_THROW(policy::Oct2023Rule::classify(spec))
            << spec.name;
        ASSERT_NO_THROW(policy::analyzeMarketing(spec)) << spec.name;
        ASSERT_NO_THROW(policy::ArchDataCenterClassifier::analyze(spec))
            << spec.name;
        EXPECT_GE(spec.perfDensity(), 0.0) << spec.name;
    }
}

TEST(CatalogueProperties, Oct2023IsStricterThanOct2022)
{
    // Sec. 2.2: the Oct-2023 update only added coverage — every
    // device regulated in 2022 stays regulated in 2023 (in our
    // catalogue; the rule text permits exceptions only via the
    // dropped bandwidth clause, which none of these devices uses).
    const devices::Database db;
    for (const auto &spec : db.allSpecs()) {
        if (policy::isRegulated(policy::Oct2022Rule::classify(spec))) {
            EXPECT_TRUE(policy::isRegulated(
                policy::Oct2023Rule::classify(spec)))
                << spec.name;
        }
    }
}

TEST(CatalogueProperties, MarketingSegmentsPartitionTheCatalogue)
{
    const devices::Database db;
    const auto dc = db.bySegment(policy::MarketSegment::DATA_CENTER);
    const auto cons = db.bySegment(policy::MarketSegment::CONSUMER);
    const auto work = db.bySegment(policy::MarketSegment::WORKSTATION);
    EXPECT_EQ(dc.size() + cons.size() + work.size(), db.size());
}

// ---- exhaustive Oct-2022 quadrants ---------------------------------------------

struct Quadrant
{
    double tpp;
    double bw;
    bool regulated;
};

/** Print the quadrant's fields; its bytes include unset padding. */
void
PrintTo(const Quadrant &q, std::ostream *os)
{
    *os << "tpp" << q.tpp << "_bw" << q.bw << "_"
        << (q.regulated ? "regulated" : "unregulated");
}

class Oct2022Quadrants : public ::testing::TestWithParam<Quadrant>
{};

TEST_P(Oct2022Quadrants, MatchesTruthTable)
{
    const auto [tpp, bw, regulated] = GetParam();
    policy::DeviceSpec spec;
    spec.tpp = tpp;
    spec.deviceBandwidthGBps = bw;
    spec.dieAreaMm2 = 800.0;
    EXPECT_EQ(policy::isRegulated(policy::Oct2022Rule::classify(spec)),
              regulated);
}

INSTANTIATE_TEST_SUITE_P(
    TruthTable, Oct2022Quadrants,
    ::testing::Values(Quadrant{4800.0, 600.0, true},
                      Quadrant{4800.0, 599.9, false},
                      Quadrant{4799.9, 600.0, false},
                      Quadrant{4799.9, 599.9, false},
                      Quadrant{20000.0, 1000.0, true},
                      Quadrant{20000.0, 0.0, false},
                      Quadrant{0.1, 1000.0, false}));

// ---- allreduce scaling ------------------------------------------------------------

class AllreduceScaling : public ::testing::TestWithParam<int>
{};

TEST_P(AllreduceScaling, LatencyGrowsWithParticipants)
{
    const int tp = GetParam();
    const perf::CommModel comm(hw::modeledA100(), perf::PerfParams{});
    model::Op op;
    op.kind = model::OpKind::ALLREDUCE;
    op.commBytes = 100e6;
    const double t_now = comm.time(op, tp).totalS;
    const double t_more = comm.time(op, tp * 2).totalS;
    EXPECT_GT(t_more, t_now);
    // Ring volume approaches 2x payload asymptotically.
    const perf::PerfParams params;
    const double limit =
        2.0 * op.commBytes /
        (hw::modeledA100().deviceBandwidth() / 2.0 *
         params.interconnectEfficiency);
    EXPECT_LT(comm.time(op, tp).wireS, limit);
}

INSTANTIATE_TEST_SUITE_P(Tps, AllreduceScaling,
                         ::testing::Values(2, 3, 4, 6, 8, 16));

// ---- graphics resolution scaling -----------------------------------------------------

class ResolutionScaling
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(ResolutionScaling, FrameTimeGrowsWithPixels)
{
    const auto [w, h] = GetParam();
    model::GraphicsWorkload base =
        model::GraphicsWorkload::aaa1440p();
    model::GraphicsWorkload big = base;
    big.width = w;
    big.height = h;
    const perf::GraphicsModel model(hw::modeledA100());
    if (big.pixels() > base.pixels()) {
        EXPECT_GT(model.frameTime(big).frameS,
                  model.frameTime(base).frameS);
    } else {
        EXPECT_LE(model.frameTime(big).frameS,
                  model.frameTime(base).frameS);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Resolutions, ResolutionScaling,
    ::testing::Values(std::make_pair(1280, 720),
                      std::make_pair(1920, 1080),
                      std::make_pair(3840, 2160),
                      std::make_pair(7680, 4320)));

// ---- rendering details ---------------------------------------------------------------

TEST(Rendering, TableColumnsAlignToWidestCell)
{
    Table t({"a", "bb"});
    t.addRow({"xxxxx", "y"});
    std::ostringstream oss;
    t.print(oss);
    // Header row pads "a" to the 5-wide first column.
    const std::string first_line =
        oss.str().substr(0, oss.str().find('\n'));
    EXPECT_EQ(first_line, "a      bb");
}

TEST(Rendering, ScatterPlacesSinglePointAtCorners)
{
    // Two points spanning the range land on opposite grid corners.
    ScatterPlot p("corners", "x", "y", 16, 8);
    p.addSeries({"s", '#', {0.0, 1.0}, {0.0, 1.0}});
    std::ostringstream oss;
    p.print(oss);
    const std::string out = oss.str();
    // The high point renders on an earlier line than the low point.
    const auto first_hash = out.find('#');
    const auto last_hash = out.rfind('#');
    EXPECT_NE(first_hash, std::string::npos);
    EXPECT_NE(first_hash, last_hash);
}

TEST(Rendering, CsvRowCountMatchesTable)
{
    Table t({"h1", "h2"});
    t.addRow({"1", "2"});
    t.addRow({"3", "4"});
    std::ostringstream oss;
    t.printCsv(oss);
    int newlines = 0;
    for (char c : oss.str())
        newlines += c == '\n';
    EXPECT_EQ(newlines, 3); // header + 2 rows
}

// ---- cross-model consistency -----------------------------------------------------------

TEST(Consistency, EvaluatorAndSimulatorAgree)
{
    // DesignEvaluator must report exactly what InferenceSimulator
    // computes for the same workload.
    const core::Workload w = core::gpt3Workload();
    const dse::DesignEvaluator evaluator(w.model, w.setting, w.system);
    const auto d = evaluator.evaluate(hw::modeledA100());
    const auto r = perf::InferenceSimulator(hw::modeledA100())
                       .run(w.model, w.setting, w.system);
    EXPECT_DOUBLE_EQ(d.ttftS, r.ttftS);
    EXPECT_DOUBLE_EQ(d.tbtS, r.tbtS);
}

TEST(Consistency, AreaModelAndEvaluatorAgree)
{
    const core::Workload w = core::llamaWorkload();
    const dse::DesignEvaluator evaluator(w.model, w.setting, w.system);
    const auto d = evaluator.evaluate(hw::modeledA100());
    EXPECT_DOUBLE_EQ(d.dieAreaMm2,
                     area::AreaModel{}.dieArea(hw::modeledA100()));
    EXPECT_DOUBLE_EQ(
        d.dieCostUsd,
        area::CostModel{}.dieCostUsd(d.dieAreaMm2,
                                     hw::ProcessNode::N7));
}

TEST(Consistency, TppInvariantUnderLaneCoreExchange)
{
    // Halving lanes while doubling cores preserves TPP exactly.
    hw::HardwareConfig a = hw::modeledA100(); // 108 cores x 4 lanes
    hw::HardwareConfig b = a;
    b.lanesPerCore = 2;
    b.coreCount = 216;
    EXPECT_DOUBLE_EQ(a.tpp(), b.tpp());
    EXPECT_EQ(a.totalSystolicFpus(), b.totalSystolicFpus());
}

} // anonymous namespace
} // namespace acs
