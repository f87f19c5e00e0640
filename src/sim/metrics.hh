/**
 * @file
 * Per-request records and percentile rollups of a simulated serving
 * run.
 *
 * The simulator's contribution over the closed-form path in src/serve
 * is exactly these distributions: steady-state arithmetic yields one
 * TTFT/TBT number per design, while bursty arrivals and continuous
 * batching make the p99 several times the median. Everything here is
 * plain data + order-independent reductions, so fleet aggregation
 * merges replica results identically regardless of which worker
 * finished first.
 */

#ifndef ACS_SIM_METRICS_HH
#define ACS_SIM_METRICS_HH

#include <cstdint>
#include <vector>

namespace acs {
namespace sim {

/** Lifecycle timestamps of one completed request (virtual seconds). */
struct RequestRecord
{
    std::uint64_t id = 0;      //!< arrival order within the replica
    double arrivalS = 0.0;     //!< joined the admission queue
    double admitS = 0.0;       //!< scheduler admitted it (prefill start)
    double firstTokenS = 0.0;  //!< prefill finished (first token out)
    double finishS = 0.0;      //!< last token out
    int promptLen = 0;
    int outputLen = 0;

    /** Time to first token: queueing delay + prefill. */
    double ttftS() const { return firstTokenS - arrivalS; }

    /**
     * Mean time between tokens over the decode phase (0 for
     * single-token outputs, which have no decode phase).
     */
    double
    meanTbtS() const
    {
        if (outputLen < 2)
            return 0.0;
        return (finishS - firstTokenS) / (outputLen - 1);
    }
};

/** Order statistics of one latency sample set (seconds). */
struct LatencyRollup
{
    std::size_t count = 0;
    double meanS = 0.0;
    double p50S = 0.0;
    double p95S = 0.0;
    double p99S = 0.0;
    double maxS = 0.0;

    /** Rollup of @p samples (all zeros when empty). */
    static LatencyRollup fromSamples(const std::vector<double> &samples);
};

/**
 * Log2 histogram of admission-queue depth, sampled at every scheduler
 * iteration start. Bucket i counts samples with depth in
 * [2^(i-1), 2^i); bucket 0 counts an empty queue.
 */
struct QueueDepthHistogram
{
    std::vector<std::uint64_t> buckets;
    std::uint64_t maxDepth = 0;
    std::uint64_t samples = 0;

    /** Record one observation of @p depth. */
    void record(std::uint64_t depth);

    /** Fold another histogram in (commutative and associative). */
    void merge(const QueueDepthHistogram &other);
};

/**
 * Streaming latency histogram with bounded relative error.
 *
 * HDR-style bucketing: each power-of-two octave of seconds splits
 * into 32 linear sub-buckets, so any recorded value lands in a bucket
 * whose representative midpoint is within ~1.6% of it. Memory is O(1)
 * in the sample count — the trace-scale alternative to keeping every
 * decode gap of a multi-million-request run in a vector — and merge
 * is a commutative bucket-wise sum, preserving the index-order
 * aggregation contract.
 */
struct LatencyHistogram
{
    /** Linear sub-buckets per power-of-two octave. */
    static constexpr int kSubBuckets = 32;

    std::vector<std::uint64_t> buckets; //!< grown on demand
    std::uint64_t count = 0;            //!< total recorded samples
    double sumS = 0.0;                  //!< sum of recorded values
    double maxS = 0.0;                  //!< largest recorded value

    /** Record one latency sample (seconds; <= 0 lands in bucket 0). */
    void record(double s);

    /**
     * One-entry bucket memo: decode gaps repeat (every request of a
     * batch shares the iteration's gap), so the common case skips the
     * frexp bucket math. Pure cache — no effect on recorded data.
     */
    double lastS = -1.0;
    std::size_t lastBucket = 0;

    /** Fold another histogram in (commutative and associative). */
    void merge(const LatencyHistogram &other);

    /**
     * Approximate percentile @p pct in (0, 100]: the representative
     * midpoint of the bucket holding the rank, clamped to the
     * recorded maximum (0 when empty). Within ~1.6% of the exact
     * order statistic.
     */
    double percentileS(double pct) const;

    /** Mean of recorded samples (0 when empty). */
    double meanS() const { return count ? sumS / count : 0.0; }
};

/** Percentile latency objectives for a serving fleet. */
struct SloTargets
{
    double ttftMaxS = 10.0;   //!< bound on the TTFT percentile
    double tbtMaxS = 0.200;   //!< bound on the TBT percentile
    double percentile = 99.0; //!< which percentile must meet the bound

    /** Fatal unless bounds are positive and percentile in (0, 100]. */
    void validate() const;
};

/** Everything one replica simulation produced. */
struct ReplicaMetrics
{
    /**
     * Completed requests in completion order. Populated only when
     * the run records per-request data (ReplicaConfig::
     * recordRequests, on by default); trace-scale runs turn it off
     * and read `completed` + the streaming histograms instead.
     */
    std::vector<RequestRecord> requests;

    /**
     * Every decode-token gap (seconds), including stalls while the
     * scheduler ran prefill iterations — the interference the
     * closed-form TBT cannot see. Subject to ReplicaConfig::
     * recordTbtGaps, like `requests` above.
     */
    std::vector<double> tbtGapsS;

    /**
     * Streaming TTFT / decode-gap distributions, populated by
     * simulateReplica regardless of the record switches — the O(1)-
     * memory percentile source for trace-scale runs (the cluster
     * keeps its own pair in ClusterMetrics).
     */
    LatencyHistogram ttftHist;
    LatencyHistogram tbtHist;

    QueueDepthHistogram queueDepth;

    std::uint64_t prefillIterations = 0;
    std::uint64_t decodeIterations = 0;
    std::uint64_t generatedTokens = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0; //!< requests retired (always counted)
    double lastEventS = 0.0; //!< virtual time of the final event

    /** TTFT rollup over completed requests. */
    LatencyRollup ttft() const;

    /** TBT rollup over all decode-token gaps. */
    LatencyRollup tbt() const;

    /**
     * Fraction of completed requests meeting both SLO bounds
     * individually (TTFT, and mean TBT for multi-token outputs);
     * 1.0 when no requests completed. Fatal when requests completed
     * but none was recorded (recordRequests off).
     */
    double attainment(const SloTargets &slo) const;

    /**
     * Tokens per second of SLO-attaining requests over the simulated
     * span — throughput that actually counts toward the objectives.
     * Fatal when requests completed but none was recorded.
     */
    double goodputTokensPerS(const SloTargets &slo) const;

    /**
     * Whether the run's percentiles meet @p slo. Fatal when requests
     * completed but none was recorded, or when decode gaps occurred
     * but none was recorded (recordTbtGaps off).
     */
    bool meetsSlo(const SloTargets &slo) const;

    /**
     * Fold another replica's results in. Aggregation is a sum/concat,
     * so merging in replica-index order yields identical bytes
     * regardless of which thread simulated which replica.
     */
    void merge(const ReplicaMetrics &other);
};

} // namespace sim
} // namespace acs

#endif // ACS_SIM_METRICS_HH
