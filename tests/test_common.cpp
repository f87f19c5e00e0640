/**
 * @file
 * Unit tests for acs_common: logging, statistics, tables, scatter
 * plots, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/flat_memo.hh"
#include "common/logging.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/scatter.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace acs {
namespace {

// ---- logging -----------------------------------------------------------

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("broken invariant"), PanicError);
}

TEST(Logging, FatalMessageIsPreserved)
{
    try {
        fatal("the message");
        FAIL() << "fatal() must throw";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("the message"),
                  std::string::npos);
    }
}

TEST(Logging, FatalIfOnlyThrowsWhenConditionHolds)
{
    EXPECT_NO_THROW(fatalIf(false, "fine"));
    EXPECT_THROW(fatalIf(true, "boom"), FatalError);
}

TEST(Logging, PanicIfOnlyThrowsWhenConditionHolds)
{
    EXPECT_NO_THROW(panicIf(false, "fine"));
    EXPECT_THROW(panicIf(true, "boom"), PanicError);
}

TEST(Logging, FatalErrorIsNotPanicError)
{
    EXPECT_THROW(fatal("user error"), std::runtime_error);
    EXPECT_THROW(panic("bug"), std::logic_error);
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    EXPECT_NO_THROW(warn("a warning"));
    setVerbose(false);
    EXPECT_NO_THROW(inform("suppressed"));
    setVerbose(true);
}

// ---- units -------------------------------------------------------------

TEST(Units, ByteMultipliers)
{
    EXPECT_DOUBLE_EQ(units::KIB, 1024.0);
    EXPECT_DOUBLE_EQ(units::MIB, 1024.0 * 1024.0);
    EXPECT_DOUBLE_EQ(units::GB, 1e9);
    EXPECT_DOUBLE_EQ(units::TBPS, 1e12);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::toMs(0.25), 250.0);
    EXPECT_DOUBLE_EQ(units::toGBps(600e9), 600.0);
}

// ---- stats -------------------------------------------------------------

TEST(Stats, SummarizeSingleValue)
{
    const SummaryStats s = summarize({42.0});
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.min, 42.0);
    EXPECT_DOUBLE_EQ(s.max, 42.0);
    EXPECT_DOUBLE_EQ(s.mean, 42.0);
    EXPECT_DOUBLE_EQ(s.median, 42.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.range(), 0.0);
}

TEST(Stats, SummarizeKnownSample)
{
    const SummaryStats s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.p25, 2.0);
    EXPECT_DOUBLE_EQ(s.p75, 4.0);
    EXPECT_DOUBLE_EQ(s.range(), 4.0);
    EXPECT_DOUBLE_EQ(s.iqr(), 2.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(Stats, SummarizeIsOrderInvariant)
{
    const SummaryStats a = summarize({3.0, 1.0, 2.0});
    const SummaryStats b = summarize({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(a.median, b.median);
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
    EXPECT_DOUBLE_EQ(a.min, b.min);
}

TEST(Stats, SummarizeEmptyIsFatal)
{
    EXPECT_THROW(summarize({}), FatalError);
}

TEST(Stats, MedianOfEvenSampleInterpolates)
{
    EXPECT_DOUBLE_EQ(summarize({1.0, 2.0, 3.0, 4.0}).median, 2.5);
}

TEST(Stats, PercentileEndpoints)
{
    const std::vector<double> v{10.0, 20.0, 30.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 20.0);
}

TEST(Stats, PercentileInterpolatesLinearly)
{
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(Stats, PercentileValidatesRank)
{
    EXPECT_THROW(percentile({1.0}, -1.0), FatalError);
    EXPECT_THROW(percentile({1.0}, 101.0), FatalError);
    EXPECT_THROW(percentile({}, 50.0), FatalError);
}

/**
 * percentile() selects its two order statistics instead of sorting;
 * it must return the bits of the plain sort-and-interpolate reference
 * on samples full of duplicates, and sortedPercentile() must too.
 */
TEST(Stats, PercentileSelectionMatchesSortReference)
{
    Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng.below(300);
        // A few distinct grid values (most samples duplicate one) mixed
        // with arbitrary doubles.
        const std::uint64_t distinct = 1 + rng.below(n / 4 + 1);
        std::vector<double> samples(n);
        for (double &x : samples)
            x = rng.below(3) == 0
                    ? rng.uniform(-5.0, 5.0)
                    : 0.37 * static_cast<double>(rng.below(distinct)) - 2.0;
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        for (double q : {0.0, 1.0, 50.0, 99.0, 100.0}) {
            const double rank = q / 100.0 * static_cast<double>(n - 1);
            const auto lo = static_cast<std::size_t>(std::floor(rank));
            const auto hi = static_cast<std::size_t>(std::ceil(rank));
            const double want =
                sorted[lo] + (rank - static_cast<double>(lo)) *
                                 (sorted[hi] - sorted[lo]);
            EXPECT_EQ(percentile(samples, q), want)
                << "n=" << n << " q=" << q;
            EXPECT_EQ(sortedPercentile(sorted, q), want)
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(Stats, NarrowingFactorBasic)
{
    const SummaryStats wide = summarize({0.0, 10.0});
    const SummaryStats narrow = summarize({4.0, 6.0});
    EXPECT_DOUBLE_EQ(narrowingFactor(wide, narrow), 5.0);
}

TEST(Stats, NarrowingFactorZeroRangeIsInfinite)
{
    const SummaryStats wide = summarize({0.0, 10.0});
    const SummaryStats point = summarize({5.0});
    EXPECT_TRUE(std::isinf(narrowingFactor(wide, point)));
}

TEST(Stats, NarrowingFactorBothZeroIsOne)
{
    const SummaryStats a = summarize({5.0});
    EXPECT_DOUBLE_EQ(narrowingFactor(a, a), 1.0);
}

/** Property sweep: percentiles are monotone in the rank. */
class PercentileMonotone : public ::testing::TestWithParam<double>
{};

TEST_P(PercentileMonotone, NonDecreasingInRank)
{
    const std::vector<double> v{5.0, 1.0, 9.0, 3.0, 7.0, 2.0};
    const double q = GetParam();
    EXPECT_LE(percentile(v, q), percentile(v, std::min(100.0, q + 10.0)));
}

INSTANTIATE_TEST_SUITE_P(Ranks, PercentileMonotone,
                         ::testing::Values(0.0, 10.0, 25.0, 40.0, 50.0,
                                           65.0, 80.0, 90.0));

// ---- table -------------------------------------------------------------

TEST(Table, RequiresColumns)
{
    EXPECT_THROW(Table({}), FatalError);
}

TEST(Table, RowColumnMismatchIsFatal)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, CountsRows)
{
    Table t({"a"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"x"});
    t.addRow({"y"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, PrintContainsHeadersAndCells)
{
    Table t({"metric", "value"});
    t.addRow({"ttft", "275"});
    std::ostringstream oss;
    t.print(oss);
    EXPECT_NE(oss.str().find("metric"), std::string::npos);
    EXPECT_NE(oss.str().find("275"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCells)
{
    Table t({"name"});
    t.addRow({"a,b"});
    t.addRow({"say \"hi\""});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_NE(oss.str().find("\"a,b\""), std::string::npos);
    EXPECT_NE(oss.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FmtHelpers)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmtPercent(0.271, 1), "27.1%");
    EXPECT_EQ(fmtPercent(-0.04, 1), "-4.0%");
}

// ---- scatter -----------------------------------------------------------

TEST(Scatter, ValidatesGridSize)
{
    EXPECT_THROW(ScatterPlot("t", "x", "y", 4, 24), FatalError);
    EXPECT_THROW(ScatterPlot("t", "x", "y", 72, 2), FatalError);
}

TEST(Scatter, MismatchedSeriesIsFatal)
{
    ScatterPlot p("t", "x", "y");
    ScatterSeries s{"s", '*', {1.0, 2.0}, {1.0}};
    EXPECT_THROW(p.addSeries(s), FatalError);
}

TEST(Scatter, EmptyPlotWarnsWithoutOutputGrid)
{
    ScatterPlot p("empty", "x", "y");
    std::ostringstream oss;
    EXPECT_NO_THROW(p.print(oss));
    EXPECT_EQ(oss.str().find("legend"), std::string::npos);
}

TEST(Scatter, PrintsLegendAndTitle)
{
    ScatterPlot p("my plot", "x", "y");
    p.addSeries({"dots", 'o', {1.0, 2.0, 3.0}, {1.0, 4.0, 9.0}});
    std::ostringstream oss;
    p.print(oss);
    EXPECT_NE(oss.str().find("my plot"), std::string::npos);
    EXPECT_NE(oss.str().find("[o] dots (3)"), std::string::npos);
    EXPECT_NE(oss.str().find('o'), std::string::npos);
}

TEST(Scatter, RespectsExplicitLimitsByClipping)
{
    ScatterPlot p("clip", "x", "y");
    p.addSeries({"s", '#', {1.0, 100.0}, {1.0, 100.0}});
    p.setLimits({0.0, 10.0, 0.0, 10.0});
    std::ostringstream oss;
    EXPECT_NO_THROW(p.print(oss));
}

TEST(Scatter, IdenticalPointsDoNotCrash)
{
    ScatterPlot p("degenerate", "x", "y");
    p.addSeries({"s", '#', {5.0, 5.0}, {5.0, 5.0}});
    std::ostringstream oss;
    EXPECT_NO_THROW(p.print(oss));
}

// ---- rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

// ---- ring queue --------------------------------------------------------

TEST(RingQueue, FifoAcrossGrowthAndWraparound)
{
    common::RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    // Interleave pushes and pops so the live range wraps the ring
    // repeatedly while the buffer grows through several capacities.
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 7; ++i)
            q.push_back(next_in++);
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(q.front(), next_out);
            q.pop_front();
            ++next_out;
        }
    }
    EXPECT_EQ(q.size(),
              static_cast<std::size_t>(next_in - next_out));
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_in, next_out);
}

TEST(RingQueue, ReservePreservesContents)
{
    common::RingQueue<int> q;
    for (int i = 0; i < 10; ++i)
        q.push_back(i);
    for (int i = 0; i < 4; ++i)
        q.pop_front(); // head off zero so reserve re-seats a wrap
    q.reserve(1024);
    EXPECT_EQ(q.size(), 6u);
    for (int i = 4; i < 10; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
}

TEST(RingQueue, EmptyAccessPanics)
{
    common::RingQueue<int> q;
    EXPECT_THROW(q.front(), PanicError);
    EXPECT_THROW(q.pop_front(), PanicError);
    q.push_back(1);
    q.pop_front();
    EXPECT_THROW(q.pop_front(), PanicError);
}

// ---- atomic flat memo ---------------------------------------------------

TEST(FlatMemo, InsertAndFindRoundTripsExactBits)
{
    common::AtomicFlatMemo memo(64);
    EXPECT_EQ(memo.capacity(), 64u);
    double out = 0.0;
    EXPECT_FALSE(memo.find(42, &out));
    const double value = 0.12345678901234567;
    EXPECT_TRUE(memo.insert(42, value));
    ASSERT_TRUE(memo.find(42, &out));
    EXPECT_EQ(out, value); // exact bits, not approximate
    EXPECT_EQ(memo.entries(), 1u);

    // Idempotent re-store of identical bits (the racing-compute
    // contract) neither grows the table nor changes the value.
    EXPECT_TRUE(memo.insert(42, value));
    EXPECT_EQ(memo.entries(), 1u);
    ASSERT_TRUE(memo.find(42, &out));
    EXPECT_EQ(out, value);
}

TEST(FlatMemo, CapacityRoundsUpToPowerOfTwo)
{
    common::AtomicFlatMemo memo(100);
    EXPECT_EQ(memo.capacity(), 128u);
    common::AtomicFlatMemo tiny(1);
    EXPECT_EQ(tiny.capacity(), 64u);
}

TEST(FlatMemo, OverflowDropsInsertAndCounts)
{
    common::AtomicFlatMemo memo(64);
    for (std::uint64_t k = 1; k <= 64; ++k)
        EXPECT_TRUE(memo.insert(k, static_cast<double>(k)));
    EXPECT_EQ(memo.entries(), 64u);
    EXPECT_EQ(memo.overflows(), 0u);

    // Table full: the 65th key is dropped and tallied, and every
    // existing entry still reads back its exact value.
    EXPECT_FALSE(memo.insert(65, 65.0));
    EXPECT_EQ(memo.overflows(), 1u);
    double out = 0.0;
    EXPECT_FALSE(memo.find(65, &out));
    for (std::uint64_t k = 1; k <= 64; ++k) {
        ASSERT_TRUE(memo.find(k, &out));
        EXPECT_EQ(out, static_cast<double>(k));
    }
}

TEST(FlatMemo, ReservedKeyZeroPanics)
{
    common::AtomicFlatMemo memo(64);
    EXPECT_THROW(memo.insert(0, 1.0), PanicError);
}

} // anonymous namespace
} // namespace acs
