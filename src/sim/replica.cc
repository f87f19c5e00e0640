#include "replica.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/ring.hh"
#include "obs/obs.hh"
#include "sim/event.hh"
#include "sim/trace.hh"

namespace acs {
namespace sim {

void
SchedulerConfig::validate() const
{
    fatalIf(maxBatch < 1, "SchedulerConfig: maxBatch must be >= 1");
    fatalIf(maxPrefillBatch < 1,
            "SchedulerConfig: maxPrefillBatch must be >= 1");
    fatalIf(kvMemoryFraction <= 0.0 || kvMemoryFraction > 1.0,
            "SchedulerConfig: kvMemoryFraction must be in (0, 1]");
}

namespace {

/** A request the replica has generated but not yet completed. */
struct InFlight
{
    RequestRecord rec;
    double lastTokenS = 0.0; //!< when its most recent token came out
    int tokensLeft = 0;      //!< decode tokens still to generate
    double kvBytes = 0.0;    //!< reserved full-context KV footprint
};

/** The replica's mutable scheduling state plus result accumulators. */
class ReplicaState
{
  public:
    ReplicaState(const IterationCostModel &cost,
                 const ReplicaConfig &cfg)
        : cost_(cost), cfg_(cfg),
          arrivalRng_(substreamSeed(cfg.workload.seed, 0)),
          lengthRng_(substreamSeed(cfg.workload.seed, 1)),
          kvBudget_(cost.kvBudgetBytes() *
                    cfg.scheduler.kvMemoryFraction)
    {}

    /**
     * Trace-replay mode: arrivals and lengths come verbatim from
     * @p trace; the WorkloadSpec (and its RNG streams) is unused.
     */
    ReplicaState(const IterationCostModel &cost,
                 const ReplicaConfig &cfg, TraceWorkload &trace)
        : cost_(cost), cfg_(cfg), trace_(&trace),
          arrivalRng_(substreamSeed(cfg.workload.seed, 0)),
          lengthRng_(substreamSeed(cfg.workload.seed, 1)),
          kvBudget_(cost.kvBudgetBytes() *
                    cfg.scheduler.kvMemoryFraction)
    {}

    ReplicaMetrics run();

  private:
    void seedArrivals();
    void generateRequest(double now);
    void scheduleNextOpenLoopArrival(double now);
    void startIteration(double now);
    void finishIteration(double now);
    void retire(InFlight &r, double now);

    const IterationCostModel &cost_;
    const ReplicaConfig &cfg_;
    TraceWorkload *trace_ = nullptr; //!< non-null in replay mode
    TraceRequest pendingTrace_;      //!< next record not yet arrived
    Rng arrivalRng_;
    Rng lengthRng_;
    const double kvBudget_;

    EventQueue events_;
    common::RingQueue<InFlight> waiting_; //!< FIFO admission queue
    std::vector<InFlight> prefilling_; //!< admitted, prefill in flight
    std::vector<InFlight> active_;     //!< decode-phase requests
    double kvUsed_ = 0.0;
    bool busy_ = false;           //!< an iteration is in flight
    bool prefillInFlight_ = false; //!< kind of the busy iteration
    std::uint64_t nextId_ = 0;

    ReplicaMetrics metrics_;
};

void
ReplicaState::seedArrivals()
{
    if (trace_) {
        if (trace_->next(pendingTrace_))
            events_.push(pendingTrace_.arrivalS,
                         EventKind::ARRIVAL);
        return;
    }
    const WorkloadSpec &w = cfg_.workload;
    if (w.openLoop()) {
        const double first =
            sampleExponentialS(arrivalRng_, w.arrivalRatePerS);
        if (first < w.horizonS)
            events_.push(first, EventKind::ARRIVAL);
        return;
    }
    // Closed loop: every client issues its first request at t = 0;
    // the queue's FIFO tie-break keeps the order deterministic.
    for (int c = 0; c < w.closedLoopClients; ++c)
        events_.push(0.0, EventKind::ARRIVAL);
}

void
ReplicaState::generateRequest(double now)
{
    const WorkloadSpec &w = cfg_.workload;
    InFlight r;
    r.rec.id = nextId_++;
    r.rec.arrivalS = now;
    if (trace_) {
        r.rec.promptLen = pendingTrace_.promptLen;
        r.rec.outputLen = pendingTrace_.outputLen;
    } else {
        r.rec.promptLen = w.promptLen.sample(lengthRng_);
        r.rec.outputLen = w.outputLen.sample(lengthRng_);
    }
    r.kvBytes = cost_.kvBytesPerTokenPerDevice() *
                (r.rec.promptLen + r.rec.outputLen);
    // Branch-then-throw: fatalIf would build the message (two
    // to_string calls and a heap string) on every request.
    if (r.kvBytes > kvBudget_) {
        fatal("simulateReplica: a single request's KV footprint (" +
              std::to_string(r.kvBytes) +
              " B/device) exceeds the KV budget (" +
              std::to_string(kvBudget_) +
              " B/device); the workload cannot be served");
    }
    waiting_.push_back(std::move(r));
    ++metrics_.arrivals;
}

void
ReplicaState::scheduleNextOpenLoopArrival(double now)
{
    if (trace_) {
        if (trace_->next(pendingTrace_))
            events_.push(pendingTrace_.arrivalS,
                         EventKind::ARRIVAL);
        return;
    }
    const WorkloadSpec &w = cfg_.workload;
    const double next =
        now + sampleExponentialS(arrivalRng_, w.arrivalRatePerS);
    if (next < w.horizonS)
        events_.push(next, EventKind::ARRIVAL);
}

void
ReplicaState::startIteration(double now)
{
    if (busy_)
        return;
    const SchedulerConfig &s = cfg_.scheduler;

    // Admit waiting prompts first (prefill priority): up to the
    // prefill cap, the running-request cap, and the KV budget, in
    // arrival order (no reordering past the FIFO head).
    int admitted = 0;
    int max_prompt = 0;
    while (!waiting_.empty() && admitted < s.maxPrefillBatch &&
           static_cast<int>(active_.size() + prefilling_.size()) <
               s.maxBatch) {
        InFlight &head = waiting_.front();
        if (kvUsed_ + head.kvBytes > kvBudget_)
            break;
        kvUsed_ += head.kvBytes;
        head.rec.admitS = now;
        max_prompt = std::max(max_prompt, head.rec.promptLen);
        prefilling_.push_back(std::move(head));
        waiting_.pop_front();
        ++admitted;
    }

    if (admitted > 0) {
        metrics_.queueDepth.record(waiting_.size());
        const double latency =
            cost_.prefillS(admitted, max_prompt);
        ++metrics_.prefillIterations;
        busy_ = true;
        prefillInFlight_ = true;
        events_.push(now + latency, EventKind::ITER_DONE);
        return;
    }

    if (!active_.empty()) {
        metrics_.queueDepth.record(waiting_.size());
        const double latency =
            cost_.decodeStepS(static_cast<int>(active_.size()));
        ++metrics_.decodeIterations;
        busy_ = true;
        prefillInFlight_ = false;
        events_.push(now + latency, EventKind::ITER_DONE);
    }
    // Otherwise idle: the next ARRIVAL/CLIENT_WAKE restarts us.
}

void
ReplicaState::retire(InFlight &r, double now)
{
    r.rec.finishS = now;
    kvUsed_ -= r.kvBytes;
    ++metrics_.completed;
    metrics_.ttftHist.record(r.rec.ttftS());
    if (cfg_.recordRequests)
        metrics_.requests.push_back(r.rec);
    if (!cfg_.workload.openLoop()) {
        const double wake = now + cfg_.workload.thinkTimeS;
        if (wake < cfg_.workload.horizonS)
            events_.push(wake, EventKind::CLIENT_WAKE);
    }
}

void
ReplicaState::finishIteration(double now)
{
    busy_ = false;
    if (prefillInFlight_) {
        // Every admitted prompt emits its first token now.
        metrics_.generatedTokens += prefilling_.size();
        for (InFlight &r : prefilling_) {
            r.rec.firstTokenS = now;
            r.lastTokenS = now;
            r.tokensLeft = r.rec.outputLen - 1;
            if (r.tokensLeft == 0)
                retire(r, now);
            else
                active_.push_back(std::move(r));
        }
        prefilling_.clear();
        return;
    }

    // One decode token per running request; retire finished ones
    // in place (stable compaction keeps batch order deterministic).
    metrics_.generatedTokens += active_.size();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        InFlight &r = active_[i];
        const double gap = now - r.lastTokenS;
        metrics_.tbtHist.record(gap);
        if (cfg_.recordTbtGaps)
            metrics_.tbtGapsS.push_back(gap);
        r.lastTokenS = now;
        --r.tokensLeft;
        if (r.tokensLeft == 0) {
            retire(r, now);
        } else {
            if (keep != i)
                active_[keep] = std::move(r);
            ++keep;
        }
    }
    active_.resize(keep);
}

ReplicaMetrics
ReplicaState::run()
{
    const obs::TraceSpan span("sim.replica.run");
    cfg_.workload.validate();
    cfg_.scheduler.validate();
    fatalIf(kvBudget_ <= 0.0,
            "simulateReplica: model weights leave no HBM for KV "
            "cache on this device");

    // Steady-state in-flight events: one ITER_DONE plus one pending
    // arrival (or every closed-loop client's wake-up). Warming the
    // queue and the batch vectors up front keeps the event loop
    // allocation-free.
    events_.reserve(
        4 + static_cast<std::size_t>(
                std::max(0, cfg_.workload.closedLoopClients)));
    prefilling_.reserve(
        static_cast<std::size_t>(cfg_.scheduler.maxPrefillBatch));
    active_.reserve(static_cast<std::size_t>(cfg_.scheduler.maxBatch));

    seedArrivals();
    double now = 0.0;
    while (!events_.empty()) {
        const Event e = events_.pop();
        now = e.timeS;
        switch (e.kind) {
          case EventKind::ARRIVAL:
            generateRequest(now);
            if (cfg_.workload.openLoop())
                scheduleNextOpenLoopArrival(now);
            startIteration(now);
            break;
          case EventKind::CLIENT_WAKE:
            generateRequest(now);
            startIteration(now);
            break;
          case EventKind::ITER_DONE:
            finishIteration(now);
            startIteration(now);
            break;
          case EventKind::KV_DONE:
            panic("simulateReplica: KV_DONE is a cluster-level "
                  "event; replicas never schedule it");
        }
    }
    panicIf(!waiting_.empty() || !active_.empty() ||
                !prefilling_.empty(),
            "simulateReplica: event queue drained with requests "
            "still in flight");
    metrics_.lastEventS = now;

    if (obs::enabled()) {
        obs::counterAdd("sim.iterations.prefill",
                        metrics_.prefillIterations);
        obs::counterAdd("sim.iterations.decode",
                        metrics_.decodeIterations);
        obs::counterAdd("sim.requests.completed",
                        metrics_.completed);
        obs::counterAdd("sim.tokens.generated",
                        metrics_.generatedTokens);
    }
    return metrics_;
}

} // anonymous namespace

ReplicaMetrics
simulateReplica(const IterationCostModel &cost,
                const ReplicaConfig &cfg)
{
    return ReplicaState(cost, cfg).run();
}

ReplicaMetrics
simulateReplica(const IterationCostModel &cost,
                const SchedulerConfig &sched, TraceWorkload &trace)
{
    ReplicaConfig cfg;
    cfg.scheduler = sched;
    return ReplicaState(cost, cfg, trace).run();
}

} // namespace sim
} // namespace acs
