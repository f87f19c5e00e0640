/**
 * @file
 * Fleet sizing against percentile SLOs: how many replicas does it
 * take to serve an aggregate request rate?
 *
 * This is the simulator's headline "sanctions tax" estimator: where
 * serve::planFleet divides demand by steady-state throughput,
 * sizeFleet binary-searches the smallest replica count whose
 * *simulated* p99 TTFT/TBT meet the objectives under Poisson load —
 * queueing, batching, and prefill interference included. The two
 * agree in the low-load limit and diverge exactly when burstiness
 * binds (asserted in tests/test_sim.cpp).
 */

#ifndef ACS_SIM_FLEET_HH
#define ACS_SIM_FLEET_HH

#include "sim/cluster.hh"
#include "sim/cost_model.hh"
#include "sim/metrics.hh"
#include "sim/replica.hh"

namespace acs {
namespace common {
class ThreadPool;
} // namespace common

namespace sim {

/** Aggregate demand offered to a whole fleet. */
struct FleetDemand
{
    /** Aggregate open-loop request rate across the fleet (req/s). */
    double ratePerS = 1.0;

    LengthDistribution promptLen = LengthDistribution::fixed(2048);
    LengthDistribution outputLen = LengthDistribution::fixed(256);

    /** Arrival horizon of each probe simulation (virtual seconds). */
    double horizonS = 600.0;

    /** Master seed; replica i runs substream i deterministically. */
    std::uint64_t seed = 1;

    /** Fatal unless rate/horizon are positive. */
    void validate() const;
};

/** Outcome of a fleet-sizing search. */
struct FleetSizingResult
{
    bool feasible = false; //!< an SLO-meeting size was found
    int replicas = 0;      //!< smallest SLO-meeting replica count
    long devices = 0;      //!< replicas x tensorParallel
    int probes = 0;        //!< fleet sizes probed by the search

    /**
     * Merged metrics of all replicas at the chosen size, records
     * included: simulateFleet(replicas), run once more after the
     * search (replica-index merge order, so identical regardless of
     * thread count).
     */
    ReplicaMetrics aggregate;
};

/**
 * Smallest replica count meeting @p slo at @p demand.
 *
 * The aggregate Poisson stream splits evenly across replicas
 * (probabilistic routing: each replica sees an independent Poisson
 * stream at rate/R). Feasibility is monotone in R — fewer requests
 * per replica can only shrink the tails — so the search probes
 * geometrically up from @p hint_replicas until feasible, then binary
 * searches the bracket. Replica simulations of one probe fan out on
 * @p pool; per-replica results land in index-addressed slots and
 * merge in index order, so the result is byte-identical for any
 * worker count (tests/test_sim.cpp asserts this).
 *
 * Probes run with recording off. Each is judged by
 * ReplicaMetrics::sloVerdictFromHistograms, which gives meetsSlo()'s
 * exact verdict whenever it decides; a probe it leaves open runs
 * again with recording and meetsSlo() judges that run. Neither re-run
 * counts in result.probes. The chosen size runs once more with
 * recording for result.aggregate.
 *
 * @param cost          Iteration latency/memory oracle of the design.
 * @param demand        Aggregate offered load.
 * @param sched         Continuous-batching policy of every replica.
 * @param slo           Percentile objectives.
 * @param max_replicas  Search ceiling; result.feasible is false when
 *                      even this many replicas miss the SLO.
 * @param hint_replicas Starting size (e.g. the closed-form plan from
 *                      serve::planFleet); clamped to [1, max].
 * @param pool          Worker pool; null uses ThreadPool::shared().
 */
FleetSizingResult
sizeFleet(const IterationCostModel &cost, const FleetDemand &demand,
          const SchedulerConfig &sched, const SloTargets &slo,
          int max_replicas = 4096, int hint_replicas = 1,
          common::ThreadPool *pool = nullptr);

/**
 * Simulate one fixed fleet size without searching: @p replicas
 * independent replicas at rate/R each, merged in index order.
 */
ReplicaMetrics
simulateFleet(const IterationCostModel &cost,
              const FleetDemand &demand, const SchedulerConfig &sched,
              int replicas, common::ThreadPool *pool = nullptr);

/** One side (prefill or decode) of a disaggregated purchase. */
struct DisaggPoolSpec
{
    /** Iteration oracle of the pool's design (not owned). */
    const IterationCostModel *cost = nullptr;

    SchedulerConfig scheduler;

    /** Amortized capex + power of one replica, $/hour (>= 0). */
    double hourlyCostUsdPerReplica = 0.0;

    /** Fatal unless the spec is well-formed. */
    void validate() const;
};

/** Outcome of a two-pool disaggregated sizing search. */
struct DisaggFleetPlan
{
    bool feasible = false;   //!< an SLO-meeting sizing was found
    int prefillReplicas = 0; //!< smallest TTFT-meeting prefill pool
    int decodeReplicas = 0;  //!< smallest TBT-meeting decode pool
    long devices = 0;        //!< sum of replicas x tensorParallel
    int probes = 0;          //!< (P, D) pairs probed by the search

    /** Cluster metrics at the chosen (prefill, decode) sizes. */
    ClusterMetrics aggregate;
};

/**
 * Size a disaggregated two-pool fleet against @p slo at @p demand.
 *
 * Exploits the model's phase separability: prefill members are never
 * blocked by decode members (handoff queues are unbounded and source
 * KV frees at transfer completion), so the TTFT distribution depends
 * only on the prefill pool size. The search therefore sizes the
 * prefill pool first against the TTFT bound alone (decode pool
 * pinned at 1), then sizes the decode pool against the full SLO with
 * the prefill pool fixed — two independent monotone searches instead
 * of a joint grid, each a geometric bracket + binary search with
 * per-phase probe memoization (every (P, D) pair is probed at most
 * once).
 *
 * As in sizeFleet, probes run with recording off and the streaming
 * histograms give the exact verdict when they decide it (phase 1 via
 * LatencyHistogram::percentileAtMost on the TTFT bound alone, phase 2
 * via ReplicaMetrics::sloVerdictFromHistograms); an undecided pair
 * runs again with recording, and the chosen pair runs once more with
 * recording for plan.aggregate.
 *
 * Each probe replays a fresh Poisson trace built from @p demand
 * (same seed, so probes are comparable and the search is
 * deterministic). Workload shape beyond Poisson — diurnal traces,
 * CSV replay — is sized by probing simulateCluster directly.
 *
 * @param prefill      Design and policy of the prefill pool.
 * @param decode       Design and policy of the decode pool.
 * @param kv           KV transfer cost between the pools.
 * @param demand       Aggregate offered load.
 * @param slo          Percentile objectives.
 * @param routing      Routing policy used inside each probe.
 * @param max_replicas Per-pool search ceiling.
 */
DisaggFleetPlan
sizeDisaggFleet(const DisaggPoolSpec &prefill,
                const DisaggPoolSpec &decode,
                const KvTransferConfig &kv, const FleetDemand &demand,
                const SloTargets &slo,
                RoutingPolicyKind routing =
                    RoutingPolicyKind::JOIN_SHORTEST_QUEUE,
                int max_replicas = 4096);

} // namespace sim
} // namespace acs

#endif // ACS_SIM_FLEET_HH
