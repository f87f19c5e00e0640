#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "logging.hh"

namespace acs {

PercentileRank
percentileRank(std::size_t n, double q)
{
    fatalIf(n == 0, "percentile() requires a non-empty sample");
    fatalIf(q < 0.0 || q > 100.0, "percentile rank must be in [0, 100]");
    const double rank = q / 100.0 * static_cast<double>(n - 1);
    PercentileRank r;
    r.lo = static_cast<std::size_t>(std::floor(rank));
    r.hi = static_cast<std::size_t>(std::ceil(rank));
    r.frac = rank - static_cast<double>(r.lo);
    return r;
}

double
sortedPercentile(const std::vector<double> &sorted, double q)
{
    const PercentileRank r = percentileRank(sorted.size(), q);
    return r.blend(sorted[r.lo], sorted[r.hi]);
}

SummaryStats
summarize(const std::vector<double> &samples)
{
    fatalIf(samples.empty(), "summarize() requires a non-empty sample");

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());

    SummaryStats s;
    s.count = sorted.size();
    s.min = sorted.front();
    s.max = sorted.back();
    s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
             static_cast<double>(sorted.size());
    s.median = sortedPercentile(sorted, 50.0);
    s.p25 = sortedPercentile(sorted, 25.0);
    s.p75 = sortedPercentile(sorted, 75.0);

    double var = 0.0;
    for (double v : sorted)
        var += (v - s.mean) * (v - s.mean);
    var /= static_cast<double>(sorted.size());
    s.stddev = std::sqrt(var);
    return s;
}

double
narrowingFactor(const SummaryStats &baseline, const SummaryStats &constrained)
{
    const double base = baseline.range();
    const double narrow = constrained.range();
    if (narrow == 0.0) {
        return base == 0.0 ? 1.0
                           : std::numeric_limits<double>::infinity();
    }
    return base / narrow;
}

double
percentile(const std::vector<double> &samples, double q)
{
    const PercentileRank r = percentileRank(samples.size(), q);
    // x[lo] lands in place with everything after it no smaller, so
    // x[hi] (hi is lo or lo + 1) is the least of that upper part.
    std::vector<double> work = samples;
    const auto lo = work.begin() + static_cast<std::ptrdiff_t>(r.lo);
    std::nth_element(work.begin(), lo, work.end());
    const double xhi =
        r.hi == r.lo ? *lo : *std::min_element(lo + 1, work.end());
    return r.blend(*lo, xhi);
}

} // namespace acs
