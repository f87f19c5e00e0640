#include "metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"

namespace acs {
namespace sim {

LatencyRollup
LatencyRollup::fromSamples(const std::vector<double> &samples)
{
    LatencyRollup r;
    r.count = samples.size();
    if (samples.empty())
        return r;
    double total = 0.0;
    for (double s : samples) {
        total += s;
        r.maxS = std::max(r.maxS, s);
    }
    r.meanS = total / samples.size();
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    r.p50S = sortedPercentile(sorted, 50.0);
    r.p95S = sortedPercentile(sorted, 95.0);
    r.p99S = sortedPercentile(sorted, 99.0);
    return r;
}

void
QueueDepthHistogram::record(std::uint64_t depth)
{
    const std::size_t bucket = std::bit_width(depth);
    if (buckets.size() <= bucket)
        buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
    maxDepth = std::max(maxDepth, depth);
    ++samples;
}

void
QueueDepthHistogram::merge(const QueueDepthHistogram &other)
{
    if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size(), 0);
    for (std::size_t i = 0; i < other.buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    maxDepth = std::max(maxDepth, other.maxDepth);
    samples += other.samples;
}

namespace {

/**
 * Bucket index of latency @p s: octaves are frexp exponents clamped
 * to [-64, 64] (covering ~5e-20 s to ~1.8e19 s), each split into
 * kSubBuckets linear slices of the mantissa range [0.5, 1). Bucket 0
 * collects non-positive samples.
 */
std::size_t
latencyBucket(double s)
{
    if (s <= 0.0)
        return 0;
    int exp = 0;
    const double mantissa = std::frexp(s, &exp); // in [0.5, 1)
    exp = std::clamp(exp, -64, 64);
    const int sub = std::min(
        LatencyHistogram::kSubBuckets - 1,
        static_cast<int>((mantissa - 0.5) * 2.0 *
                         LatencyHistogram::kSubBuckets));
    return 1 +
           static_cast<std::size_t>(exp + 64) *
               LatencyHistogram::kSubBuckets +
           static_cast<std::size_t>(sub);
}

/** Representative (midpoint) latency of bucket @p bucket. */
double
latencyBucketMidS(std::size_t bucket)
{
    if (bucket == 0)
        return 0.0;
    const std::size_t i = bucket - 1;
    const int exp =
        static_cast<int>(i / LatencyHistogram::kSubBuckets) - 64;
    const int sub =
        static_cast<int>(i % LatencyHistogram::kSubBuckets);
    const double mantissa =
        0.5 + (sub + 0.5) /
                  (2.0 * LatencyHistogram::kSubBuckets);
    return std::ldexp(mantissa, exp);
}

} // anonymous namespace

void
LatencyHistogram::record(double s)
{
    // The memo's initial state is consistent: -1.0 is non-positive,
    // so it maps to bucket 0 like every s <= 0.
    if (s != lastS) {
        lastS = s;
        lastBucket = latencyBucket(s);
    }
    const std::size_t bucket = lastBucket;
    if (buckets.size() <= bucket)
        buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
    ++count;
    sumS += s;
    maxS = std::max(maxS, s);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size(), 0);
    for (std::size_t i = 0; i < other.buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    count += other.count;
    sumS += other.sumS;
    maxS = std::max(maxS, other.maxS);
}

double
LatencyHistogram::percentileS(double pct) const
{
    fatalIf(pct <= 0.0 || pct > 100.0,
            "LatencyHistogram: percentile must be in (0, 100]");
    if (count == 0)
        return 0.0;
    // Rank of the order statistic: the smallest bucket whose
    // cumulative count covers pct% of the samples.
    const double target = pct / 100.0 * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (static_cast<double>(cum) >= target)
            return std::min(latencyBucketMidS(i), maxS);
    }
    return maxS;
}

std::optional<bool>
LatencyHistogram::percentileAtMost(double q, double bound) const
{
    fatalIf(q < 0.0 || q > 100.0,
            "LatencyHistogram: percentile must be in [0, 100]");
    fatalIf(!std::isfinite(bound),
            "LatencyHistogram: percentile bound must be finite");
    if (count == 0)
        return std::nullopt;
    // Bucket order is value order except in bucket 0, which holds
    // every non-positive value, and in the clamped edge octaves
    // (frexp exponent -64 and 64), which mix many octaves' values
    // that their mantissas no longer sort.
    constexpr std::size_t kLowEdgeEnd = 1 + kSubBuckets;
    constexpr std::size_t kHighEdgeBegin = 1 + 128 * kSubBuckets;
    // Samples in buckets under the bound's are below its lower edge,
    // so at most the bound; samples in buckets over it exceed it.
    const std::size_t at = latencyBucket(bound);
    std::uint64_t below = 0;
    std::uint64_t above = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        if (i < kLowEdgeEnd || i >= kHighEdgeBegin)
            return std::nullopt;
        if (i < at)
            below += buckets[i];
        else if (i > at)
            above += buckets[i];
    }
    const PercentileRank r = percentileRank(count, q);
    // percentile() blends x[lo] and x[hi] into a value never below
    // x[lo] and at most one ulp above x[hi]. An x[hi] under the
    // bound's bucket is below that bucket's lower edge, a double no
    // greater than the bound, so the blend meets the bound; an x[lo]
    // over it exceeds the bound, and so does the blend.
    if (r.hi < below)
        return true;
    if (r.lo >= count - above)
        return false;
    return std::nullopt;
}

void
SloTargets::validate() const
{
    fatalIf(ttftMaxS <= 0.0, "SloTargets: ttftMaxS must be > 0");
    fatalIf(tbtMaxS <= 0.0, "SloTargets: tbtMaxS must be > 0");
    fatalIf(percentile <= 0.0 || percentile > 100.0,
            "SloTargets: percentile must be in (0, 100]");
}

namespace {

/**
 * A run that completed requests without recording them has no
 * samples to judge: without this check it would pass every SLO.
 */
void
requireRecords(const ReplicaMetrics &m, bool gaps_too)
{
    fatalIf(m.requests.empty() && m.completed > 0,
            "SLO check on a run with recordRequests off: " +
                std::to_string(m.completed) +
                " requests completed, none recorded");
    fatalIf(gaps_too && m.tbtGapsS.empty() && m.tbtHist.count > 0,
            "SLO check on a run with recordTbtGaps off: " +
                std::to_string(m.tbtHist.count) +
                " decode gaps occurred, none recorded");
}

} // anonymous namespace

LatencyRollup
ReplicaMetrics::ttft() const
{
    std::vector<double> samples;
    samples.reserve(requests.size());
    for (const RequestRecord &r : requests)
        samples.push_back(r.ttftS());
    return LatencyRollup::fromSamples(samples);
}

LatencyRollup
ReplicaMetrics::tbt() const
{
    return LatencyRollup::fromSamples(tbtGapsS);
}

double
ReplicaMetrics::attainment(const SloTargets &slo) const
{
    slo.validate();
    requireRecords(*this, false);
    if (requests.empty())
        return 1.0;
    std::size_t met = 0;
    for (const RequestRecord &r : requests) {
        const bool ttft_ok = r.ttftS() <= slo.ttftMaxS;
        const bool tbt_ok =
            r.outputLen < 2 || r.meanTbtS() <= slo.tbtMaxS;
        met += ttft_ok && tbt_ok;
    }
    return static_cast<double>(met) / requests.size();
}

double
ReplicaMetrics::goodputTokensPerS(const SloTargets &slo) const
{
    slo.validate();
    requireRecords(*this, false);
    if (lastEventS <= 0.0)
        return 0.0;
    double tokens = 0.0;
    for (const RequestRecord &r : requests) {
        const bool ttft_ok = r.ttftS() <= slo.ttftMaxS;
        const bool tbt_ok =
            r.outputLen < 2 || r.meanTbtS() <= slo.tbtMaxS;
        if (ttft_ok && tbt_ok)
            tokens += r.outputLen;
    }
    return tokens / lastEventS;
}

std::optional<bool>
ReplicaMetrics::sloVerdictFromHistograms(const SloTargets &slo) const
{
    slo.validate();
    if (completed == 0)
        return true;
    const std::optional<bool> ttft =
        ttftHist.percentileAtMost(slo.percentile, slo.ttftMaxS);
    const std::optional<bool> tbt =
        tbtHist.count == 0
            ? std::optional<bool>(true)
            : tbtHist.percentileAtMost(slo.percentile, slo.tbtMaxS);
    // Both bounds must hold: one decided miss settles the verdict,
    // and it meets only when both are decided (hence both met).
    if (ttft == false || tbt == false)
        return false;
    if (ttft && tbt)
        return true;
    return std::nullopt;
}

bool
ReplicaMetrics::meetsSlo(const SloTargets &slo) const
{
    slo.validate();
    requireRecords(*this, true);
    if (requests.empty())
        return true;
    std::vector<double> ttft_samples;
    ttft_samples.reserve(requests.size());
    for (const RequestRecord &r : requests)
        ttft_samples.push_back(r.ttftS());
    if (percentile(ttft_samples, slo.percentile) > slo.ttftMaxS)
        return false;
    if (tbtGapsS.empty())
        return true;
    return percentile(tbtGapsS, slo.percentile) <= slo.tbtMaxS;
}

void
ReplicaMetrics::merge(const ReplicaMetrics &other)
{
    requests.insert(requests.end(), other.requests.begin(),
                    other.requests.end());
    tbtGapsS.insert(tbtGapsS.end(), other.tbtGapsS.begin(),
                    other.tbtGapsS.end());
    ttftHist.merge(other.ttftHist);
    tbtHist.merge(other.tbtHist);
    queueDepth.merge(other.queueDepth);
    prefillIterations += other.prefillIterations;
    decodeIterations += other.decodeIterations;
    generatedTokens += other.generatedTokens;
    arrivals += other.arrivals;
    completed += other.completed;
    lastEventS = std::max(lastEventS, other.lastEventS);
}

} // namespace sim
} // namespace acs
