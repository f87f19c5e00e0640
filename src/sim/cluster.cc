#include "cluster.hh"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "hw/config.hh"
#include "obs/obs.hh"
#include "sim/event.hh"

namespace acs {
namespace sim {

KvTransferConfig
KvTransferConfig::free()
{
    KvTransferConfig kv;
    kv.latencyS = 0.0;
    // bytes / inf == 0.0 exactly, so a free transfer adds literally
    // nothing to any event time — the bit-exactness hinge of the
    // monolithic-equivalence tests.
    kv.bandwidthBytesPerS = std::numeric_limits<double>::infinity();
    return kv;
}

void
KvTransferConfig::validate() const
{
    fatalIf(latencyS < 0.0,
            "KvTransferConfig: latencyS must be >= 0");
    fatalIf(bandwidthBytesPerS < 0.0,
            "KvTransferConfig: bandwidthBytesPerS must be >= 0");
}

void
PoolConfig::validate() const
{
    fatalIf(cost == nullptr,
            "PoolConfig: every pool needs an IterationCostModel");
    fatalIf(replicas < 1, "PoolConfig: replicas must be >= 1");
    fatalIf(hourlyCostUsdPerReplica < 0.0,
            "PoolConfig: hourlyCostUsdPerReplica must be >= 0");
    scheduler.validate();
}

void
ClusterConfig::validate() const
{
    fatalIf(pools.empty(), "ClusterConfig: at least one pool");
    kvTransfer.validate();
    slo.validate();
    bool entry = false;
    bool prefill = false;
    bool decode = false;
    for (const PoolConfig &p : pools) {
        p.validate();
        entry |= p.role != PoolRole::DECODE;
        prefill |= p.role == PoolRole::PREFILL;
        decode |= p.role == PoolRole::DECODE;
    }
    fatalIf(!entry,
            "ClusterConfig: need a MONOLITHIC or PREFILL pool to "
            "accept arrivals");
    fatalIf(prefill != decode,
            "ClusterConfig: PREFILL and DECODE pools only make sense "
            "together");
}

double
ClusterMetrics::ttftPercentileS(double pct) const
{
    if (!aggregate.requests.empty()) {
        std::vector<double> samples;
        samples.reserve(aggregate.requests.size());
        for (const RequestRecord &r : aggregate.requests)
            samples.push_back(r.ttftS());
        return percentile(samples, pct);
    }
    return ttftHist.percentileS(pct);
}

double
ClusterMetrics::tbtPercentileS(double pct) const
{
    if (!aggregate.tbtGapsS.empty())
        return percentile(aggregate.tbtGapsS, pct);
    return tbtHist.percentileS(pct);
}

bool
ClusterMetrics::meetsSlo(const SloTargets &slo) const
{
    // The member histograms merged into the aggregate hold exactly
    // the cluster's samples.
    if (const std::optional<bool> verdict =
            aggregate.sloVerdictFromHistograms(slo))
        return *verdict;
    return aggregate.meetsSlo(slo);
}

double
ClusterMetrics::attainment() const
{
    if (completedRequests == 0)
        return 1.0;
    return static_cast<double>(sloAttainedRequests) /
           static_cast<double>(completedRequests);
}

double
ClusterMetrics::goodputTokensPerS() const
{
    if (aggregate.lastEventS <= 0.0)
        return 0.0;
    return sloAttainedTokens / aggregate.lastEventS;
}

double
ClusterMetrics::usdPerMillionGoodTokens() const
{
    const double goodput = goodputTokensPerS();
    if (goodput <= 0.0)
        return std::numeric_limits<double>::infinity();
    return fleetHourlyUsd / 3600.0 / goodput * 1e6;
}

namespace {

/** A request somewhere inside the cluster. */
struct ClusterRequest
{
    RequestRecord rec;
    double lastTokenS = 0.0; //!< when its most recent token came out
    int tokensLeft = 0;      //!< decode tokens still to generate
    double kvBytes = 0.0;    //!< KV reserved on the current member
};

/**
 * A KV migration in flight between two members. Lives in a slot-map
 * (vector + free list) keyed by slot index — the KV_DONE event's
 * payload — so the steady-state event loop reuses slots instead of
 * allocating and freeing tree nodes per transfer.
 */
struct PendingTransfer
{
    ClusterRequest req;
    int srcMember = 0;
    int dstMember = 0;
    double srcKvBytes = 0.0; //!< held on the source until KV_DONE
    double bytes = 0.0;      //!< shipped over the interconnect
    double durationS = 0.0;
    bool active = false;     //!< slot occupancy (false = on free list)
};

/** One replica-equivalent member of a pool. */
struct Member
{
    int pool = 0;
    int index = 0; //!< flattened global index
    const PoolConfig *cfg = nullptr;
    double kvBudget = 0.0;

    common::RingQueue<ClusterRequest> waiting;       //!< prompt admission
    common::RingQueue<ClusterRequest> decodeWaiting; //!< KV handoffs
    std::vector<ClusterRequest> prefilling;
    std::vector<ClusterRequest> active;
    double kvUsed = 0.0;
    bool busy = false;
    bool prefillInFlight = false;
    std::uint64_t pendingIncoming = 0; //!< transfers headed here

    ReplicaMetrics metrics;
};

/**
 * The cluster's mutable state: one global event loop over all
 * members, mirroring ReplicaState's per-member scheduling arithmetic
 * operation-for-operation so a MONOLITHIC member is bit-identical to
 * simulateReplica on the same request sequence.
 */
class ClusterState
{
  public:
    ClusterState(const ClusterConfig &cfg, TraceWorkload &trace)
        : cfg_(cfg), trace_(trace),
          policy_(cfg.customPolicy ? cfg.customPolicy
                                   : routingPolicy(cfg.routing))
    {
        cfg_.validate();
        for (std::size_t p = 0; p < cfg_.pools.size(); ++p) {
            const PoolConfig &pool = cfg_.pools[p];
            const double budget =
                pool.cost->kvBudgetBytes() *
                pool.scheduler.kvMemoryFraction;
            fatalIf(budget <= 0.0,
                    "simulateCluster: model weights leave no HBM "
                    "for KV cache in pool '" + pool.name + "'");
            for (int r = 0; r < pool.replicas; ++r) {
                Member m;
                m.pool = static_cast<int>(p);
                m.index = static_cast<int>(members_.size());
                m.cfg = &pool;
                m.kvBudget = budget;
                // Batch vectors never exceed the scheduler caps:
                // reserving them here keeps the event loop free of
                // vector growth.
                m.prefilling.reserve(static_cast<std::size_t>(
                    pool.scheduler.maxPrefillBatch));
                m.active.reserve(static_cast<std::size_t>(
                    pool.scheduler.maxBatch));
                members_.push_back(std::move(m));
            }
        }
        // Steady state holds at most one ITER_DONE per member, one
        // pending ARRIVAL, and some KV_DONEs.
        events_.reserve(2 * members_.size() + 8);
    }

    ClusterMetrics run();

  private:
    void handleArrival(double now);
    void startIteration(Member &m, double now);
    void finishIteration(Member &m, double now);
    void handleKvDone(std::uint64_t id, double now);
    void beginTransfer(Member &src, ClusterRequest &&r, double now);
    void retire(Member &m, ClusterRequest &r, double now);
    std::size_t routePhase(RoutePhase phase, const ClusterRequest &r);

    const ClusterConfig &cfg_;
    TraceWorkload &trace_;
    const RoutingPolicy *policy_;

    std::vector<Member> members_;
    EventQueue events_;
    TraceRequest pendingArrival_;

    /**
     * Slot-map of in-flight transfers: KV_DONE payloads index
     * directly into @c transfers_, retired slots go on the free list
     * for reuse. @c activeTransfers_ backs the drain assertion.
     */
    std::vector<PendingTransfer> transfers_;
    std::vector<std::uint64_t> freeTransferSlots_;
    std::uint64_t activeTransfers_ = 0;
    std::uint64_t nextRequestId_ = 0;

    ClusterMetrics result_;
};

std::size_t
ClusterState::routePhase(RoutePhase phase, const ClusterRequest &r)
{
    // Candidates in ascending member index order: the policies'
    // lowest-index tie-break depends on it.
    std::vector<MemberView> views;
    std::vector<std::size_t> indices;
    for (const Member &m : members_) {
        const PoolRole role = m.cfg->role;
        const bool eligible =
            phase == RoutePhase::PREFILL
                ? role != PoolRole::DECODE
                : role == PoolRole::DECODE;
        if (!eligible)
            continue;
        MemberView v;
        v.pool = m.pool;
        v.member = m.index;
        v.role = role;
        if (phase == RoutePhase::PREFILL) {
            v.queued = m.waiting.size();
            v.inFlight = m.prefilling.size() + m.active.size();
            v.phaseServiceRatePerS =
                1.0 / m.cfg->cost->prefillS(1, r.rec.promptLen);
        } else {
            v.queued = m.decodeWaiting.size() + m.pendingIncoming;
            v.inFlight = m.active.size();
            v.phaseServiceRatePerS =
                1.0 / m.cfg->cost->decodeStepS(1);
        }
        v.hourlyCostUsd = m.cfg->hourlyCostUsdPerReplica;
        views.push_back(v);
        indices.push_back(static_cast<std::size_t>(m.index));
    }
    if (views.empty())
        panic("simulateCluster: no eligible member for a phase "
              "(validated away, so this is a bug)");
    RouteRequest req;
    req.id = r.rec.id;
    req.promptLen = r.rec.promptLen;
    req.outputLen = r.rec.outputLen;
    const std::size_t pick = policy_->pick(phase, req, views);
    if (pick >= views.size())
        panic("RoutingPolicy: pick returned an out-of-range index");
    return indices[pick];
}

void
ClusterState::handleArrival(double now)
{
    ClusterRequest r;
    r.rec.id = nextRequestId_++;
    r.rec.arrivalS = now;
    r.rec.promptLen = pendingArrival_.promptLen;
    r.rec.outputLen = pendingArrival_.outputLen;

    const std::size_t target = routePhase(RoutePhase::PREFILL, r);
    Member &m = members_[target];

    // Reservation made at admission: the full context for a
    // monolithic member (identical to simulateReplica), the prompt
    // alone for a prefill member (its KV leaves after the transfer).
    const double per_tok = m.cfg->cost->kvBytesPerTokenPerDevice();
    r.kvBytes = m.cfg->role == PoolRole::PREFILL
                    ? per_tok * r.rec.promptLen
                    : per_tok * (r.rec.promptLen + r.rec.outputLen);
    // Branch-then-throw: fatalIf would build this multi-part
    // message on every arrival.
    if (r.kvBytes > m.kvBudget) {
        fatal("simulateCluster: a single request's KV footprint (" +
              std::to_string(r.kvBytes) + " B/device) exceeds member " +
              std::to_string(m.index) + "'s KV budget (" +
              std::to_string(m.kvBudget) +
              " B/device); the workload cannot be served");
    }

    ++result_.pools[static_cast<std::size_t>(m.pool)].routedPrefill;
    m.waiting.push_back(std::move(r));
    ++m.metrics.arrivals;

    // Stream the next trace record in before starting iterations, so
    // the single outstanding ARRIVAL invariant holds.
    if (trace_.next(pendingArrival_))
        events_.push(pendingArrival_.arrivalS, EventKind::ARRIVAL);

    startIteration(m, now);
}

void
ClusterState::startIteration(Member &m, double now)
{
    if (m.busy)
        return;
    const SchedulerConfig &s = m.cfg->scheduler;

    if (m.cfg->role == PoolRole::DECODE) {
        // Admission from the KV handoff queue is free of charge (the
        // prefill and the transfer already happened); only the batch
        // cap and the KV budget gate it.
        while (!m.decodeWaiting.empty() &&
               static_cast<int>(m.active.size()) < s.maxBatch) {
            ClusterRequest &head = m.decodeWaiting.front();
            if (m.kvUsed + head.kvBytes > m.kvBudget) {
                if (m.active.empty())
                    fatal("simulateCluster: a transferred request's "
                          "KV footprint exceeds the decode member's "
                          "budget; the workload cannot be served");
                break;
            }
            m.kvUsed += head.kvBytes;
            m.active.push_back(std::move(head));
            m.decodeWaiting.pop_front();
        }
        if (!m.active.empty()) {
            m.metrics.queueDepth.record(m.decodeWaiting.size());
            const double latency = m.cfg->cost->decodeStepS(
                static_cast<int>(m.active.size()));
            ++m.metrics.decodeIterations;
            m.busy = true;
            m.prefillInFlight = false;
            events_.push(now + latency, EventKind::ITER_DONE,
                         static_cast<std::uint64_t>(m.index));
        }
        return;
    }

    // MONOLITHIC and PREFILL members: simulateReplica's admission
    // loop verbatim (prefill priority, FIFO head, KV budget).
    int admitted = 0;
    int max_prompt = 0;
    while (!m.waiting.empty() && admitted < s.maxPrefillBatch &&
           static_cast<int>(m.active.size() + m.prefilling.size()) <
               s.maxBatch) {
        ClusterRequest &head = m.waiting.front();
        if (m.kvUsed + head.kvBytes > m.kvBudget)
            break;
        m.kvUsed += head.kvBytes;
        head.rec.admitS = now;
        max_prompt = std::max(max_prompt, head.rec.promptLen);
        m.prefilling.push_back(std::move(head));
        m.waiting.pop_front();
        ++admitted;
    }

    if (admitted > 0) {
        m.metrics.queueDepth.record(m.waiting.size());
        const double latency =
            m.cfg->cost->prefillS(admitted, max_prompt);
        ++m.metrics.prefillIterations;
        m.busy = true;
        m.prefillInFlight = true;
        events_.push(now + latency, EventKind::ITER_DONE,
                     static_cast<std::uint64_t>(m.index));
        return;
    }

    if (!m.active.empty()) {
        m.metrics.queueDepth.record(m.waiting.size());
        const double latency = m.cfg->cost->decodeStepS(
            static_cast<int>(m.active.size()));
        ++m.metrics.decodeIterations;
        m.busy = true;
        m.prefillInFlight = false;
        events_.push(now + latency, EventKind::ITER_DONE,
                     static_cast<std::uint64_t>(m.index));
    }
}

void
ClusterState::retire(Member &m, ClusterRequest &r, double now)
{
    r.rec.finishS = now;
    m.kvUsed -= r.kvBytes;
    ++m.metrics.completed;
    m.metrics.ttftHist.record(r.rec.ttftS());
    result_.ttftHist.record(r.rec.ttftS());
    ++result_.completedRequests;
    const bool ttft_ok = r.rec.ttftS() <= cfg_.slo.ttftMaxS;
    const bool tbt_ok =
        r.rec.outputLen < 2 || r.rec.meanTbtS() <= cfg_.slo.tbtMaxS;
    if (ttft_ok && tbt_ok) {
        ++result_.sloAttainedRequests;
        result_.sloAttainedTokens += r.rec.outputLen;
    }
    if (cfg_.recordRequests)
        m.metrics.requests.push_back(r.rec);
}

void
ClusterState::beginTransfer(Member &src, ClusterRequest &&r,
                            double now)
{
    // Destination chosen at transfer start so its interconnect can
    // bound the modeled bandwidth.
    const std::size_t target = routePhase(RoutePhase::DECODE, r);
    Member &dst = members_[target];
    ++result_.pools[static_cast<std::size_t>(dst.pool)].routedDecode;

    PendingTransfer t;
    t.srcMember = src.index;
    t.dstMember = dst.index;
    t.srcKvBytes = r.kvBytes;

    // The prompt's full KV (all tensor-parallel shards) crosses the
    // interconnect; per-request cost, no contention (docs/
    // DATACENTER.md).
    t.bytes = src.cfg->cost->kvBytesPerTokenPerDevice() *
              src.cfg->cost->system().tensorParallel *
              r.rec.promptLen;
    double bw = cfg_.kvTransfer.bandwidthBytesPerS;
    if (bw == 0.0)
        bw = std::min(src.cfg->cost->device().deviceBandwidth(),
                      dst.cfg->cost->device().deviceBandwidth());
    t.durationS = cfg_.kvTransfer.latencyS + t.bytes / bw;

    // The decode member holds the full context for the rest of the
    // request's life, exactly like a monolithic admission.
    r.kvBytes = dst.cfg->cost->kvBytesPerTokenPerDevice() *
                (r.rec.promptLen + r.rec.outputLen);
    t.req = std::move(r);

    ++dst.pendingIncoming;
    t.active = true;
    std::uint64_t id = 0;
    if (!freeTransferSlots_.empty()) {
        id = freeTransferSlots_.back();
        freeTransferSlots_.pop_back();
        transfers_[static_cast<std::size_t>(id)] = std::move(t);
    } else {
        id = transfers_.size();
        transfers_.push_back(std::move(t));
    }
    ++activeTransfers_;
    events_.push(
        now + transfers_[static_cast<std::size_t>(id)].durationS,
        EventKind::KV_DONE, id);
}

void
ClusterState::handleKvDone(std::uint64_t id, double now)
{
    if (id >= transfers_.size() ||
        !transfers_[static_cast<std::size_t>(id)].active)
        panic("simulateCluster: KV_DONE for an unknown transfer");
    PendingTransfer t =
        std::move(transfers_[static_cast<std::size_t>(id)]);
    // Reset the slot (releasing the moved-out request) and recycle it.
    transfers_[static_cast<std::size_t>(id)] = PendingTransfer{};
    freeTransferSlots_.push_back(id);
    --activeTransfers_;

    // The source's prompt KV is only now reclaimable (it backed the
    // transfer), so release it here, not at prefill completion.
    Member &src = members_[static_cast<std::size_t>(t.srcMember)];
    src.kvUsed -= t.srcKvBytes;

    ++result_.kvTransfers;
    result_.kvBytesTransferred += t.bytes;
    result_.kvTransferTotalS += t.durationS;

    Member &dst = members_[static_cast<std::size_t>(t.dstMember)];
    --dst.pendingIncoming;
    dst.decodeWaiting.push_back(std::move(t.req));

    // Freed KV may unblock the source's admission queue too.
    startIteration(dst, now);
    startIteration(src, now);
}

void
ClusterState::finishIteration(Member &m, double now)
{
    m.busy = false;
    if (m.prefillInFlight) {
        PoolUsage &usage =
            result_.pools[static_cast<std::size_t>(m.pool)];
        for (ClusterRequest &r : m.prefilling) {
            r.rec.firstTokenS = now;
            r.lastTokenS = now;
            r.tokensLeft = r.rec.outputLen - 1;
            ++m.metrics.generatedTokens;
            ++usage.generatedTokens;
            if (r.tokensLeft == 0) {
                // Single-token outputs have no decode phase — done,
                // no matter the role.
                retire(m, r, now);
            } else if (m.cfg->role == PoolRole::PREFILL) {
                beginTransfer(m, std::move(r), now);
            } else {
                m.active.push_back(std::move(r));
            }
        }
        m.prefilling.clear();
        return;
    }

    PoolUsage &usage =
        result_.pools[static_cast<std::size_t>(m.pool)];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < m.active.size(); ++i) {
        ClusterRequest &r = m.active[i];
        const double gap = now - r.lastTokenS;
        m.metrics.tbtHist.record(gap);
        if (cfg_.recordTbtGaps)
            m.metrics.tbtGapsS.push_back(gap);
        result_.tbtHist.record(gap);
        r.lastTokenS = now;
        --r.tokensLeft;
        ++m.metrics.generatedTokens;
        ++usage.generatedTokens;
        if (r.tokensLeft == 0) {
            retire(m, r, now);
        } else {
            if (keep != i)
                m.active[keep] = std::move(r);
            ++keep;
        }
    }
    m.active.resize(keep);
}

ClusterMetrics
ClusterState::run()
{
    const obs::TraceSpan span("sim.cluster.run");

    result_.pools.resize(cfg_.pools.size());
    for (std::size_t p = 0; p < cfg_.pools.size(); ++p) {
        PoolUsage &u = result_.pools[p];
        u.name = cfg_.pools[p].name;
        u.role = cfg_.pools[p].role;
        u.replicas = cfg_.pools[p].replicas;
        u.hourlyCostUsd = cfg_.pools[p].replicas *
                          cfg_.pools[p].hourlyCostUsdPerReplica;
        result_.fleetHourlyUsd += u.hourlyCostUsd;
    }

    if (trace_.next(pendingArrival_))
        events_.push(pendingArrival_.arrivalS, EventKind::ARRIVAL);

    double now = 0.0;
    while (!events_.empty()) {
        const Event e = events_.pop();
        now = e.timeS;
        switch (e.kind) {
          case EventKind::ARRIVAL:
            handleArrival(now);
            break;
          case EventKind::ITER_DONE: {
            Member &m =
                members_[static_cast<std::size_t>(e.payload)];
            finishIteration(m, now);
            startIteration(m, now);
            break;
          }
          case EventKind::KV_DONE:
            handleKvDone(e.payload, now);
            break;
          case EventKind::CLIENT_WAKE:
            panic("simulateCluster: CLIENT_WAKE is a replica-level "
                  "event; clusters replay traces");
        }
    }

    for (const Member &m : members_)
        panicIf(!m.waiting.empty() || !m.decodeWaiting.empty() ||
                    !m.prefilling.empty() || !m.active.empty(),
                "simulateCluster: event queue drained with requests "
                "still in flight");
    panicIf(activeTransfers_ != 0,
            "simulateCluster: event queue drained with KV transfers "
            "still in flight");

    // Member-index merge order: byte-identical aggregate regardless
    // of anything (the loop itself is single-threaded by design).
    result_.aggregate = std::move(members_.front().metrics);
    for (std::size_t i = 1; i < members_.size(); ++i)
        result_.aggregate.merge(members_[i].metrics);
    result_.aggregate.lastEventS = now;

    if (obs::enabled()) {
        obs::counterAdd("sim.cluster.requests.completed",
                        result_.completedRequests);
        obs::counterAdd("sim.cluster.kv.transfers",
                        result_.kvTransfers);
        obs::counterAdd("sim.cluster.tokens.generated",
                        result_.aggregate.generatedTokens);
    }
    return result_;
}

} // anonymous namespace

ClusterMetrics
simulateCluster(const ClusterConfig &cfg, TraceWorkload &trace)
{
    return ClusterState(cfg, trace).run();
}

} // namespace sim
} // namespace acs
