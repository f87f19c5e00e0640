#include "fleet.hh"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/obs.hh"

namespace acs {
namespace sim {

void
FleetDemand::validate() const
{
    fatalIf(ratePerS <= 0.0, "FleetDemand: ratePerS must be > 0");
    fatalIf(horizonS <= 0.0, "FleetDemand: horizonS must be > 0");
    promptLen.validate();
    outputLen.validate();
}

namespace {

/**
 * simulateFleet with both record switches set to @p record. Off, the
 * merged metrics keep only counters and histograms: enough for
 * sloVerdictFromHistograms, at a fraction of the time and memory.
 */
ReplicaMetrics
runFleet(const IterationCostModel &cost, const FleetDemand &demand,
         const SchedulerConfig &sched, int replicas,
         common::ThreadPool *pool, bool record)
{
    demand.validate();
    sched.validate();
    fatalIf(replicas < 1, "simulateFleet: replicas must be >= 1");

    ReplicaConfig base;
    base.scheduler = sched;
    base.recordRequests = record;
    base.recordTbtGaps = record;
    base.workload.closedLoopClients = 0;
    base.workload.arrivalRatePerS = demand.ratePerS / replicas;
    base.workload.promptLen = demand.promptLen;
    base.workload.outputLen = demand.outputLen;
    base.workload.horizonS = demand.horizonS;

    // Index-addressed slots: each replica writes its own entry, and
    // the merge below walks them in index order, so the aggregate is
    // independent of which worker simulated which replica.
    std::vector<ReplicaMetrics> slots(replicas);
    common::ThreadPool &crew =
        pool ? *pool : common::ThreadPool::shared();
    crew.parallelFor(
        static_cast<std::size_t>(replicas),
        [&](std::size_t i) {
            ReplicaConfig cfg = base;
            cfg.workload.seed = substreamSeed(demand.seed, i);
            slots[i] = simulateReplica(cost, cfg);
        },
        1);

    // Size the records once, and free each slot as it is merged, so
    // the merge never holds more than one copy of them plus a slot.
    std::size_t requests = 0;
    std::size_t gaps = 0;
    for (const ReplicaMetrics &m : slots) {
        requests += m.requests.size();
        gaps += m.tbtGapsS.size();
    }
    ReplicaMetrics aggregate = std::move(slots.front());
    aggregate.requests.reserve(requests);
    aggregate.tbtGapsS.reserve(gaps);
    for (std::size_t i = 1; i < slots.size(); ++i) {
        aggregate.merge(slots[i]);
        slots[i] = ReplicaMetrics();
    }
    return aggregate;
}

} // anonymous namespace

ReplicaMetrics
simulateFleet(const IterationCostModel &cost,
              const FleetDemand &demand, const SchedulerConfig &sched,
              int replicas, common::ThreadPool *pool)
{
    return runFleet(cost, demand, sched, replicas, pool, true);
}

FleetSizingResult
sizeFleet(const IterationCostModel &cost, const FleetDemand &demand,
          const SchedulerConfig &sched, const SloTargets &slo,
          int max_replicas, int hint_replicas,
          common::ThreadPool *pool)
{
    const obs::TraceSpan span("sim.sizeFleet");
    demand.validate();
    sched.validate();
    slo.validate();
    fatalIf(max_replicas < 1, "sizeFleet: max_replicas must be >= 1");

    FleetSizingResult result;

    // Probe one size without recording: the streaming histograms
    // settle meetsSlo's exact verdict unless a percentile's order
    // statistics share its bound's bucket, and only then does the
    // size run again with recording. The verdict memo guarantees
    // every size is probed at most once no matter how the bracket and
    // the binary search revisit it. It is a flat array indexed by
    // replica count — the domain is exactly [1, max_replicas], so a
    // byte per size beats a node-allocating tree: 0 = unknown,
    // 1 = feasible, 2 = infeasible.
    int best = 0;
    std::vector<signed char> verdicts(
        static_cast<std::size_t>(max_replicas) + 1, 0);
    const auto feasible = [&](int replicas) {
        signed char &seen =
            verdicts[static_cast<std::size_t>(replicas)];
        if (seen != 0)
            return seen == 1;
        const std::optional<bool> decided =
            runFleet(cost, demand, sched, replicas, pool, false)
                .sloVerdictFromHistograms(slo);
        ++result.probes;
        obs::counterAdd("sim.fleet.probes");
        const bool ok =
            decided ? *decided
                    : simulateFleet(cost, demand, sched, replicas, pool)
                          .meetsSlo(slo);
        seen = ok ? 1 : 2;
        if (ok && (best == 0 || replicas < best))
            best = replicas;
        return ok;
    };

    // Bracket: geometric growth from the hint until feasible.
    int lo = 1;
    int hi = std::clamp(hint_replicas, 1, max_replicas);
    while (!feasible(hi)) {
        lo = hi + 1;
        if (hi >= max_replicas)
            return result; // infeasible even at the ceiling
        hi = std::min(max_replicas, hi * 2);
    }

    // Shrink: binary search the smallest feasible size in [lo, hi].
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            hi = mid;
        else
            lo = mid + 1;
    }

    result.feasible = true;
    result.replicas = best;
    result.devices =
        static_cast<long>(best) * cost.system().tensorParallel;
    result.aggregate = simulateFleet(cost, demand, sched, best, pool);
    return result;
}

void
DisaggPoolSpec::validate() const
{
    fatalIf(cost == nullptr,
            "DisaggPoolSpec: cost model must be set");
    fatalIf(hourlyCostUsdPerReplica < 0.0,
            "DisaggPoolSpec: hourlyCostUsdPerReplica must be >= 0");
    scheduler.validate();
}

DisaggFleetPlan
sizeDisaggFleet(const DisaggPoolSpec &prefill,
                const DisaggPoolSpec &decode,
                const KvTransferConfig &kv, const FleetDemand &demand,
                const SloTargets &slo, RoutingPolicyKind routing,
                int max_replicas)
{
    const obs::TraceSpan span("sim.sizeDisaggFleet");
    prefill.validate();
    decode.validate();
    kv.validate();
    demand.validate();
    slo.validate();
    fatalIf(max_replicas < 1,
            "sizeDisaggFleet: max_replicas must be >= 1");

    DisaggFleetPlan plan;

    ClusterConfig base;
    base.pools.resize(2);
    base.pools[0].name = "prefill";
    base.pools[0].role = PoolRole::PREFILL;
    base.pools[0].cost = prefill.cost;
    base.pools[0].scheduler = prefill.scheduler;
    base.pools[0].hourlyCostUsdPerReplica =
        prefill.hourlyCostUsdPerReplica;
    base.pools[1].name = "decode";
    base.pools[1].role = PoolRole::DECODE;
    base.pools[1].cost = decode.cost;
    base.pools[1].scheduler = decode.scheduler;
    base.pools[1].hourlyCostUsdPerReplica =
        decode.hourlyCostUsdPerReplica;
    base.kvTransfer = kv;
    base.routing = routing;
    base.slo = slo;

    // Each simulation replays a fresh Poisson trace from the same
    // seed, so probes are comparable.
    const auto simulate = [&](int p, int d, bool record) {
        ClusterConfig cfg = base;
        cfg.pools[0].replicas = p;
        cfg.pools[1].replicas = d;
        cfg.recordRequests = record;
        cfg.recordTbtGaps = record;
        const auto trace = TraceWorkload::poisson(
            demand.ratePerS, demand.promptLen, demand.outputLen,
            demand.horizonS, demand.seed);
        return simulateCluster(cfg, *trace);
    };

    // Every (P, D) pair is probed at most once, without recording: a
    // verdict the streaming histograms leave open re-runs the pair
    // with recording for the exact one (as sizeFleet does).
    // Flat-hashed on the packed (P, D) key: both searches revisit
    // pairs a handful of times, and reserving up front keeps the
    // memo rehash-free.
    std::unordered_map<std::uint64_t, ClusterMetrics> probes;
    probes.reserve(64);
    const auto probe = [&](int p, int d) -> const ClusterMetrics & {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(p) << 32) |
            static_cast<std::uint64_t>(d);
        const auto it = probes.find(key);
        if (it != probes.end())
            return it->second;
        ++plan.probes;
        obs::counterAdd("sim.disagg.probes");
        return probes.emplace(key, simulate(p, d, false)).first->second;
    };

    // Phase 1: TTFT depends only on the prefill pool (decode never
    // backpressures it), so size it alone with the decode pool
    // pinned at one replica.
    const auto ttft_ok = [&](int p) {
        const ClusterMetrics &m = probe(p, 1);
        if (m.completedRequests == 0)
            return true;
        if (const std::optional<bool> decided =
                m.ttftHist.percentileAtMost(slo.percentile,
                                            slo.ttftMaxS))
            return *decided;
        return simulate(p, 1, true).ttftPercentileS(slo.percentile) <=
               slo.ttftMaxS;
    };
    int lo = 1;
    int hi = 1;
    while (!ttft_ok(hi)) {
        lo = hi + 1;
        if (hi >= max_replicas)
            return plan; // TTFT infeasible even at the ceiling
        hi = std::min(max_replicas, hi * 2);
    }
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (ttft_ok(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    const int best_prefill = hi;

    // Phase 2: with the prefill pool fixed, the decode pool size
    // only moves the TBT tail — the second monotone search.
    const auto slo_ok = [&](int d) {
        if (const std::optional<bool> decided =
                probe(best_prefill, d)
                    .aggregate.sloVerdictFromHistograms(slo))
            return *decided;
        return simulate(best_prefill, d, true).meetsSlo(slo);
    };
    lo = 1;
    hi = 1;
    while (!slo_ok(hi)) {
        lo = hi + 1;
        if (hi >= max_replicas)
            return plan; // TBT infeasible even at the ceiling
        hi = std::min(max_replicas, hi * 2);
    }
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (slo_ok(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    const int best_decode = hi;

    plan.feasible = true;
    plan.prefillReplicas = best_prefill;
    plan.decodeReplicas = best_decode;
    plan.devices =
        static_cast<long>(best_prefill) *
            prefill.cost->system().tensorParallel +
        static_cast<long>(best_decode) *
            decode.cost->system().tensorParallel;
    plan.aggregate = simulate(best_prefill, best_decode, true);
    return plan;
}

} // namespace sim
} // namespace acs
