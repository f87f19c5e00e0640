/**
 * @file
 * Datacenter-level serving simulation: heterogeneous pools, routing,
 * and prefill/decode disaggregation.
 *
 * Where sim/replica.hh models one tensor-parallel serving instance,
 * a cluster is a set of *pools* — groups of identical replicas built
 * from one hw preset — that jointly serve a single request stream. A
 * pool plays one of three roles: MONOLITHIC members run both phases
 * (classic colocated serving); PREFILL members run only the prompt
 * phase and ship the finished KV cache to a DECODE member over the
 * modeled interconnect, the request migrating through the shared
 * event queue via a KV_DONE event. This is the disaggregated
 * purchasing question the paper's sanctions analysis motivates:
 * prefill capacity is TPP-capped, decode capacity is HBM-rule-capped,
 * and splitting the fleet lets each pool buy exactly the silicon its
 * phase is bound by.
 *
 * Determinism contract (carried over from the replica level): the
 * cluster event loop is single-threaded, members are addressed by
 * flattened (pool, replica) index, routing decisions are pure
 * functions of deterministic member snapshots, and final metrics
 * merge in member-index order — so a run is byte-identical for every
 * ACS_THREADS value (tests/test_cluster.cpp asserts this).
 */

#ifndef ACS_SIM_CLUSTER_HH
#define ACS_SIM_CLUSTER_HH

#include <string>
#include <vector>

#include "sim/cost_model.hh"
#include "sim/metrics.hh"
#include "sim/replica.hh"
#include "sim/routing.hh"
#include "sim/trace.hh"

namespace acs {
namespace sim {

/**
 * Cost of shipping one request's KV cache from a prefill member to a
 * decode member.
 *
 * Transfer time = latencyS + bytes / bandwidth, where bytes is the
 * prompt's full KV footprint (all tensor-parallel shards) on the
 * source design. Transfers do not contend with each other or with
 * iteration compute — the interconnect is modeled as wide enough
 * that the per-request cost, not queueing, dominates
 * (docs/DATACENTER.md discusses the limitation).
 */
struct KvTransferConfig
{
    /** Fixed per-transfer latency (setup + switching), seconds. */
    double latencyS = 2e-3;

    /**
     * Transfer bandwidth in bytes/second. 0 selects the modeled
     * interconnect: min(source, destination) aggregate device
     * bandwidth from hw::HardwareConfig::deviceBandwidth().
     */
    double bandwidthBytesPerS = 0.0;

    /**
     * The zero-cost transfer: no latency, infinite bandwidth. With
     * this config a disaggregated request pays exactly 0.0 seconds
     * between phases, which is what makes the monolithic-equivalence
     * sanity checks bit-exact.
     */
    static KvTransferConfig free();

    /** Fatal unless latency and bandwidth are non-negative. */
    void validate() const;
};

/** One pool: @c replicas identical members of one hardware design. */
struct PoolConfig
{
    std::string name;          //!< label for reports ("a100", ...)
    PoolRole role = PoolRole::MONOLITHIC;

    /**
     * Iteration oracle of this pool's design (not owned; must
     * outlive the simulation). Pools may share one model or each
     * bring their own — that is what makes the fleet heterogeneous.
     */
    const IterationCostModel *cost = nullptr;

    int replicas = 1;          //!< members in this pool (>= 1)
    SchedulerConfig scheduler; //!< per-member batching policy

    /** Amortized capex + power of one member, $/hour (>= 0). */
    double hourlyCostUsdPerReplica = 0.0;

    /** Fatal unless the pool is well-formed. */
    void validate() const;
};

/** A whole cluster: pools + transfer cost + routing + objectives. */
struct ClusterConfig
{
    std::vector<PoolConfig> pools;
    KvTransferConfig kvTransfer;

    /** Built-in policy used when customPolicy is null. */
    RoutingPolicyKind routing =
        RoutingPolicyKind::JOIN_SHORTEST_QUEUE;

    /** Optional caller-supplied policy (not owned; overrides). */
    const RoutingPolicy *customPolicy = nullptr;

    /** Objectives for the online attainment/goodput counters. */
    SloTargets slo;

    /**
     * Keep per-request records / per-gap samples in the aggregate
     * metrics. Exact percentiles need them; trace-scale runs
     * (millions of requests) turn them off and read the streaming
     * histograms instead.
     */
    bool recordRequests = true;
    bool recordTbtGaps = true;

    /**
     * Fatal unless pools are well-formed and the role mix is
     * serviceable (at least one MONOLITHIC or PREFILL pool; PREFILL
     * and DECODE pools only ever appear together).
     */
    void validate() const;
};

/** Per-pool accounting of one cluster run. */
struct PoolUsage
{
    std::string name;
    PoolRole role = PoolRole::MONOLITHIC;
    int replicas = 0;

    std::uint64_t routedPrefill = 0; //!< prompt phases placed here
    std::uint64_t routedDecode = 0;  //!< decode phases placed here
    std::uint64_t generatedTokens = 0;
    double hourlyCostUsd = 0.0;      //!< replicas x per-replica cost
};

/** Everything one cluster simulation produced. */
struct ClusterMetrics
{
    /**
     * All member metrics merged in flattened (pool, replica) index
     * order. requests/tbtGapsS are populated only when the config's
     * record flags are on.
     */
    ReplicaMetrics aggregate;

    /** Streaming distributions, populated regardless of recording. */
    LatencyHistogram ttftHist;
    LatencyHistogram tbtHist;

    std::vector<PoolUsage> pools; //!< one entry per configured pool

    std::uint64_t kvTransfers = 0;     //!< completed KV migrations
    double kvBytesTransferred = 0.0;   //!< total bytes shipped
    double kvTransferTotalS = 0.0;     //!< summed transfer times

    std::uint64_t completedRequests = 0;
    std::uint64_t sloAttainedRequests = 0; //!< met both SLO bounds
    double sloAttainedTokens = 0.0;        //!< their output tokens
    double fleetHourlyUsd = 0.0;           //!< whole-fleet $/hour

    /**
     * TTFT percentile: exact order statistic when per-request
     * records were kept, the streaming histogram otherwise.
     */
    double ttftPercentileS(double pct) const;

    /** TBT percentile with the same exact-or-histogram fallback. */
    double tbtPercentileS(double pct) const;

    /** Whether the run's percentiles meet @p slo. */
    bool meetsSlo(const SloTargets &slo) const;

    /** Fraction of completed requests meeting both SLO bounds. */
    double attainment() const;

    /** SLO-attaining output tokens per simulated second. */
    double goodputTokensPerS() const;

    /**
     * Fleet cost per million SLO-attaining tokens (the paper's
     * $/good-token economics); +inf when goodput is zero.
     */
    double usdPerMillionGoodTokens() const;
};

/**
 * Simulate @p cfg serving @p trace to completion.
 *
 * One global discrete-event loop drives all members: ARRIVAL events
 * consume the trace one request at a time (streaming — the trace is
 * never materialized), the routing policy places each prompt on a
 * MONOLITHIC or PREFILL member, per-member continuous batching is
 * bit-identical to simulateReplica, and disaggregated requests
 * migrate to a DECODE member through a KV_DONE event charged with
 * the configured transfer cost.
 *
 * Deterministic: a pure function of (@p cfg's inputs, the trace).
 * A single-member MONOLITHIC cluster reproduces the replica
 * trace-replay overload bit-exactly.
 */
ClusterMetrics simulateCluster(const ClusterConfig &cfg,
                               TraceWorkload &trace);

} // namespace sim
} // namespace acs

#endif // ACS_SIM_CLUSTER_HH
