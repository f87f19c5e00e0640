/**
 * @file
 * One tensor-parallel serving replica under continuous batching.
 *
 * The replica owns an admission queue, a set of in-flight requests,
 * and a KV-cache memory budget. Scheduling follows the
 * continuous-batching discipline of production inference engines
 * (Orca/vLLM): iterations are scheduled back to back; each iteration
 * is either a prefill step over newly admitted prompts or one decode
 * step emitting one token for every running request. Prefill takes
 * priority — which is exactly what creates the decode stalls
 * ("prefill/decode interference") whose tail the closed-form model in
 * src/serve cannot represent.
 *
 * The event loop is strictly single-threaded and deterministic: two
 * runs with the same WorkloadSpec (same seed) produce byte-identical
 * metrics. Fleet-level parallelism happens across replicas
 * (sim/fleet.hh), never inside one.
 */

#ifndef ACS_SIM_REPLICA_HH
#define ACS_SIM_REPLICA_HH

#include "sim/cost_model.hh"
#include "sim/event.hh"
#include "sim/metrics.hh"
#include "sim/workload.hh"

namespace acs {
namespace sim {

class TraceWorkload;

/** Continuous-batching policy knobs. */
struct SchedulerConfig
{
    /**
     * Maximum concurrently running requests (decode batch cap). The
     * analytical decode model saturates near the reference batch, so
     * the default matches the paper's standard setting.
     */
    int maxBatch = 32;

    /**
     * Maximum prompts admitted into a single prefill iteration.
     * Larger values amortize prefill over more requests but lengthen
     * the decode stall each prefill causes.
     */
    int maxPrefillBatch = 4;

    /**
     * Fraction of the post-weights HBM capacity usable for KV cache
     * (the rest models activations/fragmentation headroom). Admission
     * reserves a request's full-context footprint up front, so an
     * admitted request can never be evicted mid-generation.
     */
    double kvMemoryFraction = 0.9;

    /** Fatal unless caps are positive and the fraction in (0, 1]. */
    void validate() const;
};

/** Inputs of one replica simulation. */
struct ReplicaConfig
{
    WorkloadSpec workload;
    SchedulerConfig scheduler;

    /**
     * Keep per-request records / per-gap samples in the metrics.
     * Exact percentiles need them; trace-scale runs (millions of
     * requests) turn them off — the counters and the streaming
     * histograms are populated either way — to keep memory O(batch)
     * and skip the gigabyte-scale vector growth and O(n log n)
     * percentile sorts. attainment()/goodputTokensPerS()/meetsSlo()
     * need recordRequests, and meetsSlo() also recordTbtGaps; they
     * are fatal on a run that completed requests without them.
     */
    bool recordRequests = true;
    bool recordTbtGaps = true;
};

/**
 * Simulate one replica to completion and return its metrics.
 *
 * Runs the discrete-event loop: arrivals (open- or closed-loop) feed
 * the admission queue, the scheduler issues prefill/decode iterations
 * whose latencies come from @p cost, and every completed request is
 * recorded. Arrivals stop at the workload horizon; the queue then
 * drains, so all generated requests complete.
 *
 * Deterministic: a pure function of (@p cost's inputs, @p cfg).
 */
ReplicaMetrics simulateReplica(const IterationCostModel &cost,
                               const ReplicaConfig &cfg);

/**
 * Simulate one replica replaying @p trace instead of sampling a
 * WorkloadSpec: arrivals and lengths come verbatim from the trace
 * (consumed single-pass), scheduling is identical to the
 * WorkloadSpec overload. This is the monolithic reference the
 * disaggregated cluster (sim/cluster.hh) is pinned against: a
 * single-member cluster on the same trace reproduces this function's
 * metrics bit-exactly (tests/test_cluster.cpp).
 */
ReplicaMetrics simulateReplica(const IterationCostModel &cost,
                               const SchedulerConfig &sched,
                               TraceWorkload &trace);

} // namespace sim
} // namespace acs

#endif // ACS_SIM_REPLICA_HH
