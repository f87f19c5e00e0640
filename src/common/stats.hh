/**
 * @file
 * Summary statistics over sample vectors.
 *
 * The paper quantifies how well an architectural constraint predicts
 * workload performance by how much it *narrows* the latency distribution
 * of a design-space sweep (e.g. "42.4x narrower"). SummaryStats provides
 * the range/median/percentile machinery and narrowingFactor() computes the
 * paper's headline ratio.
 */

#ifndef ACS_COMMON_STATS_HH
#define ACS_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace acs {

/** Order statistics and moments of a non-empty sample. */
struct SummaryStats
{
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double median = 0.0;
    double stddev = 0.0; //!< population standard deviation
    double p25 = 0.0;    //!< first quartile
    double p75 = 0.0;    //!< third quartile

    /** Full spread of the sample (max - min). */
    double range() const { return max - min; }

    /** Interquartile range (p75 - p25). */
    double iqr() const { return p75 - p25; }
};

/**
 * Compute summary statistics of @p samples.
 *
 * Percentiles use linear interpolation between closest ranks.
 *
 * @param samples Sample values; must be non-empty (fatal otherwise).
 * @return Summary statistics of the sample.
 */
SummaryStats summarize(const std::vector<double> &samples);

/**
 * The paper's distribution-narrowing factor.
 *
 * How many times narrower the @p constrained distribution's range is
 * compared to the @p baseline distribution's range. Values > 1 mean the
 * architectural constraint is a better performance predictor.
 *
 * @param baseline    Stats of the unconstrained (e.g. TPP-only) sweep.
 * @param constrained Stats of the sweep with one parameter fixed.
 * @return baseline.range() / constrained.range(); infinity if the
 *         constrained range is zero and the baseline range is not.
 */
double narrowingFactor(const SummaryStats &baseline,
                       const SummaryStats &constrained);

/**
 * The two order statistics a q-th percentile interpolates between.
 *
 * With rank = q/100 * (n - 1), the percentile is the 0-based order
 * statistics lo = floor(rank) and hi = ceil(rank) blended as
 * x[lo] + frac * (x[hi] - x[lo]). Every exact percentile here and the
 * histogram query in sim/metrics take their ranks from this one
 * helper, so they can never pick different order statistics.
 */
struct PercentileRank
{
    std::size_t lo = 0; //!< floor(rank)
    std::size_t hi = 0; //!< ceil(rank)
    double frac = 0.0;  //!< rank - lo, the weight of x[hi]

    /** The interpolated percentile of order statistics @p xlo, @p xhi. */
    double
    blend(double xlo, double xhi) const
    {
        return xlo + frac * (xhi - xlo);
    }
};

/**
 * Ranks of the q-th percentile of @p n samples.
 *
 * @param n Sample count, >= 1.
 * @param q Percentile rank in [0, 100]; fatal outside the range.
 */
PercentileRank percentileRank(std::size_t n, double q);

/**
 * Interpolated percentile of an ascending-sorted, non-empty sample:
 * the same value percentile() returns on any permutation of it.
 */
double sortedPercentile(const std::vector<double> &sorted, double q);

/**
 * Interpolated percentile of a sample (q in [0, 100]).
 *
 * Selects the two order statistics (nth_element on one copy) instead
 * of sorting the whole sample.
 *
 * @param samples Non-empty sample values.
 * @param q       Percentile rank in [0, 100]; fatal outside the range.
 */
double percentile(const std::vector<double> &samples, double q);

} // namespace acs

#endif // ACS_COMMON_STATS_HH
