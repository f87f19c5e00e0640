/**
 * @file
 * Unit, property, and determinism tests for the request-level serving
 * simulator (acs::sim) and the percentile capacity API on top of it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/study.hh"
#include "hw/presets.hh"
#include "model/transformer.hh"
#include "serve/capacity.hh"
#include "serve/percentile.hh"
#include "sim/event.hh"
#include "sim/fleet.hh"
#include "sim/replica.hh"

namespace acs {
namespace sim {
namespace {

// ---- event queue -----------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    q.push(3.0, EventKind::ARRIVAL, 3);
    q.push(1.0, EventKind::ITER_DONE, 1);
    q.push(2.0, EventKind::CLIENT_WAKE, 2);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop().payload, 1u);
    EXPECT_EQ(q.pop().payload, 2u);
    EXPECT_EQ(q.pop().payload, 3u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakFifo)
{
    EventQueue q;
    for (std::uint64_t i = 0; i < 16; ++i)
        q.push(1.0, EventKind::ARRIVAL, i);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(q.pop().payload, i);
}

TEST(EventQueue, Validation)
{
    EventQueue q;
    EXPECT_THROW(q.pop(), PanicError);
    EXPECT_THROW(q.peek(), PanicError);
    EXPECT_THROW(q.push(-1.0, EventKind::ARRIVAL), PanicError);
    EXPECT_THROW(q.push(std::nan(""), EventKind::ARRIVAL),
                 PanicError);
}

TEST(EventQueue, PanicMessagesNameTheOffendingValue)
{
    EventQueue q;
    try {
        q.push(-2.5, EventKind::ARRIVAL);
        FAIL() << "push accepted a negative time";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("-2.5"),
                  std::string::npos)
            << e.what();
    }
    try {
        q.push(std::nan(""), EventKind::ARRIVAL);
        FAIL() << "push accepted a NaN time";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("NaN"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * The queue's contract: pop order is exactly (time, seq) for any
 * schedule. Randomized interleaved push/pop with duplicate times
 * (FIFO ties), near-future clusters and far-future outliers, checked
 * against an oracle written here: a std::set ordered by (time, seq).
 */
TEST(EventQueue, HeapMatchesOracleOnRandomSchedules)
{
    struct Pending
    {
        double timeS;
        std::uint64_t seq;
        EventKind kind;
        std::uint64_t payload;
        bool operator<(const Pending &o) const
        {
            return timeS != o.timeS ? timeS < o.timeS : seq < o.seq;
        }
    };
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        EventQueue queue;
        std::set<Pending> oracle;
        Rng rng(seed);
        double now = 0.0;
        std::uint64_t pushed = 0;
        for (int step = 0; step < 4000; ++step) {
            const double action = rng.uniform();
            if (action < 0.6 || oracle.empty()) {
                const double shape = rng.uniform();
                double when = now;
                if (shape < 0.2) {
                    // exact duplicate of the current time (FIFO ties)
                } else if (shape < 0.3) {
                    when = now + 1e9 * rng.uniform(); // outlier
                } else {
                    when = now + rng.uniform();
                }
                const auto kind = static_cast<EventKind>(
                    rng.below(3)); // ARRIVAL..CLIENT_WAKE
                queue.push(when, kind, pushed);
                oracle.insert({when, pushed, kind, pushed});
                ++pushed;
            } else {
                const Pending want = *oracle.begin();
                oracle.erase(oracle.begin());
                ASSERT_EQ(queue.peek().seq, want.seq);
                const Event got = queue.pop();
                ASSERT_EQ(got.timeS, want.timeS);
                ASSERT_EQ(got.seq, want.seq);
                ASSERT_EQ(got.kind, want.kind);
                ASSERT_EQ(got.payload, want.payload);
                now = got.timeS;
            }
            ASSERT_EQ(queue.size(), oracle.size());
        }
        for (const Pending &want : oracle) {
            const Event got = queue.pop();
            ASSERT_EQ(got.timeS, want.timeS);
            ASSERT_EQ(got.seq, want.seq);
        }
        EXPECT_TRUE(queue.empty());
    }
}

TEST(EventQueue, ReserveKeepsContentsAndOrder)
{
    EventQueue q;
    for (std::uint64_t i = 0; i < 32; ++i)
        q.push(32.0 - static_cast<double>(i), EventKind::ARRIVAL, i);
    q.reserve(1024); // regrow with 32 events pending
    EXPECT_EQ(q.size(), 32u);
    double last = 0.0;
    while (!q.empty()) {
        const Event e = q.pop();
        EXPECT_GT(e.timeS, last);
        last = e.timeS;
    }
}

// ---- workload --------------------------------------------------------------

TEST(Workload, FixedLengthQuantizes)
{
    const auto d = LengthDistribution::fixed(100);
    Rng rng(1);
    EXPECT_EQ(d.sample(rng), 100);

    auto q = d;
    q.quantum = 64;
    EXPECT_EQ(q.sample(rng), 128);
    EXPECT_EQ(q.maxPossibleLen(), 128);
}

TEST(Workload, UniformStaysInQuantizedBounds)
{
    const auto d = LengthDistribution::uniform(100, 400, 32);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int len = d.sample(rng);
        EXPECT_GE(len, 100);
        EXPECT_LE(len, d.maxPossibleLen());
        EXPECT_EQ(len % 32, 0);
    }
    EXPECT_DOUBLE_EQ(d.meanLen(), 250.0);
}

TEST(Workload, Validation)
{
    EXPECT_THROW(LengthDistribution::fixed(0), FatalError);
    EXPECT_THROW(LengthDistribution::uniform(5, 4), FatalError);
    WorkloadSpec w;
    w.arrivalRatePerS = 0.0;
    EXPECT_THROW(w.validate(), FatalError);
    w = WorkloadSpec{};
    w.horizonS = 0.0;
    EXPECT_THROW(w.validate(), FatalError);
    // NaN passes an `x <= 0` check; a NaN rate would run no request
    // and still meet every SLO.
    w = WorkloadSpec{};
    w.arrivalRatePerS = std::nan("");
    EXPECT_THROW(w.validate(), FatalError);
    w = WorkloadSpec{};
    w.horizonS = std::nan("");
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, SubstreamSeedsDiffer)
{
    const std::uint64_t a = substreamSeed(1, 0);
    const std::uint64_t b = substreamSeed(1, 1);
    const std::uint64_t c = substreamSeed(2, 0);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, substreamSeed(1, 0));
}

TEST(Workload, ExponentialGapsMatchRate)
{
    Rng rng(42);
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        total += sampleExponentialS(rng, 4.0);
    // Mean gap of a rate-4 process is 0.25 s; 20k samples pin it
    // within a few percent.
    EXPECT_NEAR(total / n, 0.25, 0.01);
}

// ---- shared fixtures -------------------------------------------------------

/** Llama-8B at TP=4 keeps every simulator call cheap. */
core::Workload
testWorkload()
{
    core::Workload w = core::llamaWorkload();
    w.setting.batch = 1;
    w.setting.inputLen = 512;
    w.setting.outputLen = 64;
    return w;
}

IterationCostModel
testCost(const core::Workload &w,
         const hw::HardwareConfig &cfg = hw::modeledA100())
{
    return IterationCostModel(cfg, w.model, w.setting, w.system);
}

// ---- cost model ------------------------------------------------------------

TEST(CostModel, MemoizesLookups)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const double a = cost.prefillS(2, 512);
    const double b = cost.decodeStepS(8);
    const std::size_t misses = cost.memoMisses();
    EXPECT_EQ(misses, 2u);
    EXPECT_DOUBLE_EQ(cost.prefillS(2, 512), a);
    EXPECT_DOUBLE_EQ(cost.decodeStepS(8), b);
    EXPECT_EQ(cost.memoMisses(), misses);
}

TEST(CostModel, MatchesInferenceSimulatorExactly)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const perf::InferenceSimulator sim(hw::modeledA100());
    const auto result = sim.run(w.model, w.setting, w.system);
    EXPECT_DOUBLE_EQ(cost.prefillS(w.setting.batch,
                                   w.setting.inputLen),
                     result.ttftFullModelS);
    EXPECT_DOUBLE_EQ(cost.decodeStepS(w.setting.batch),
                     result.tbtFullModelS);
}

TEST(CostModel, LatencyGrowsWithBatchAndLength)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    EXPECT_LT(cost.prefillS(1, 512), cost.prefillS(8, 512));
    EXPECT_LT(cost.prefillS(1, 512), cost.prefillS(1, 2048));
    EXPECT_LT(cost.decodeStepS(1), cost.decodeStepS(32));
}

TEST(CostModel, MemoHitsMatchFreshModelBitExactly)
{
    // Every lookup on one long-lived model — most of them memo hits —
    // must return exactly the bits a fresh model computes on a miss.
    const core::Workload w = testWorkload();
    const IterationCostModel memo = testCost(w);
    std::set<std::pair<int, int>> prefill_keys;
    std::set<int> decode_keys;
    Rng rng(99);
    for (int i = 0; i < 120; ++i) {
        const int batch = 1 + static_cast<int>(rng.below(8));
        const int len =
            64 * (1 + static_cast<int>(rng.below(8)));
        EXPECT_EQ(memo.prefillS(batch, len),
                  testCost(w).prefillS(batch, len));
        EXPECT_EQ(memo.decodeStepS(batch), testCost(w).decodeStepS(batch));
        prefill_keys.insert({batch, len});
        decode_keys.insert(batch);
    }
    // One miss per distinct key: the rest were hits.
    EXPECT_EQ(memo.memoMisses(), prefill_keys.size() + decode_keys.size());
}

/**
 * The shared read-mostly memo contract the TSan job watches: many
 * workers hammering one FLAT cost model concurrently (claim races,
 * pending-sentinel reads, idempotent re-stores) must each observe
 * exactly the bits a fresh single-threaded model computes.
 */
TEST(CostModel, SharedMemoThreadFanout)
{
    const core::Workload w = testWorkload();
    const IterationCostModel shared = testCost(w);
    const IterationCostModel reference = testCost(w);
    constexpr int kTasks = 64;
    std::vector<double> prefill(kTasks), decode(kTasks);
    common::ThreadPool pool(7);
    pool.parallelFor(
        kTasks,
        [&](std::size_t i) {
            const int batch = 1 + static_cast<int>(i % 8);
            const int len = 128 * (1 + static_cast<int>(i % 4));
            prefill[i] = shared.prefillS(batch, len);
            decode[i] = shared.decodeStepS(batch);
        },
        1);
    for (int i = 0; i < kTasks; ++i) {
        const int batch = 1 + (i % 8);
        const int len = 128 * (1 + (i % 4));
        EXPECT_EQ(prefill[i], reference.prefillS(batch, len));
        EXPECT_EQ(decode[i], reference.decodeStepS(batch));
    }
}

TEST(CostModel, MemoryAccounting)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    EXPECT_GT(cost.weightBytesPerDevice(), 0.0);
    EXPECT_GT(cost.kvBytesPerTokenPerDevice(), 0.0);
    EXPECT_NEAR(cost.kvBudgetBytes(),
                hw::modeledA100().memCapacityBytes -
                    cost.weightBytesPerDevice(),
                1.0);
}

// ---- single-request pinning property (the analytical contract) -------------

/** One request, zero queueing: closed loop, one client, no repeat. */
ReplicaConfig
singleRequestConfig(const core::Workload &w)
{
    ReplicaConfig rc;
    rc.workload.closedLoopClients = 1;
    rc.workload.thinkTimeS = 1e9; // next wake falls past the horizon
    rc.workload.horizonS = 1.0;
    rc.workload.promptLen =
        LengthDistribution::fixed(w.setting.inputLen);
    rc.workload.outputLen =
        LengthDistribution::fixed(w.setting.outputLen);
    rc.workload.seed = 3;
    return rc;
}

TEST(Pinning, SingleRequestReproducesServingEstimate)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const ReplicaMetrics m =
        simulateReplica(cost, singleRequestConfig(w));

    ASSERT_EQ(m.requests.size(), 1u);
    const RequestRecord &r = m.requests.front();

    const perf::InferenceSimulator sim(hw::modeledA100());
    const auto estimate = serve::estimateServing(
        sim.run(w.model, w.setting, w.system),
        w.system.tensorParallel, serve::Slo{});

    // Zero queueing at batch 1: TTFT is exactly the analytical
    // full-model prefill latency.
    EXPECT_DOUBLE_EQ(r.ttftS(), estimate.ttftS);

    // Every decode iteration charges the analytical TBT, so the mean
    // gap matches within one iteration's float accumulation.
    EXPECT_NEAR(r.meanTbtS(), estimate.tbtS,
                estimate.tbtS * 1e-12);
    for (double gap : m.tbtGapsS)
        EXPECT_NEAR(gap, estimate.tbtS, estimate.tbtS * 1e-9);

    EXPECT_EQ(m.prefillIterations, 1u);
    EXPECT_EQ(m.decodeIterations,
              static_cast<std::uint64_t>(w.setting.outputLen - 1));
    EXPECT_EQ(m.generatedTokens,
              static_cast<std::uint64_t>(w.setting.outputLen));
}

// ---- replica behaviour -----------------------------------------------------

ReplicaConfig
openLoopConfig(double rate, std::uint64_t seed = 11,
               double horizon = 400.0)
{
    ReplicaConfig rc;
    rc.workload.arrivalRatePerS = rate;
    rc.workload.promptLen = LengthDistribution::uniform(256, 768, 64);
    rc.workload.outputLen = LengthDistribution::uniform(32, 96, 16);
    rc.workload.horizonS = horizon;
    rc.workload.seed = seed;
    return rc;
}

TEST(Replica, CompletesEveryArrival)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const ReplicaMetrics m =
        simulateReplica(cost, openLoopConfig(1.0));
    EXPECT_GT(m.arrivals, 0u);
    EXPECT_EQ(m.requests.size(), m.arrivals);
    std::uint64_t tokens = 0;
    for (const RequestRecord &r : m.requests) {
        tokens += r.outputLen;
        EXPECT_GE(r.admitS, r.arrivalS);
        EXPECT_GT(r.firstTokenS, r.admitS);
        EXPECT_GE(r.finishS, r.firstTokenS);
    }
    EXPECT_EQ(m.generatedTokens, tokens);
    EXPECT_GT(m.prefillIterations, 0u);
    EXPECT_GT(m.decodeIterations, 0u);
    EXPECT_EQ(m.queueDepth.samples,
              m.prefillIterations + m.decodeIterations);
}

TEST(Replica, ClosedLoopKeepsPopulationBounded)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    ReplicaConfig rc;
    rc.workload.closedLoopClients = 4;
    rc.workload.thinkTimeS = 1.0;
    rc.workload.promptLen = LengthDistribution::fixed(256);
    rc.workload.outputLen = LengthDistribution::fixed(32);
    rc.workload.horizonS = 200.0;
    rc.workload.seed = 5;
    const ReplicaMetrics m = simulateReplica(cost, rc);
    EXPECT_GE(m.arrivals, 4u);
    EXPECT_EQ(m.requests.size(), m.arrivals);
    // With 4 clients, the admission queue can never exceed 4.
    EXPECT_LE(m.queueDepth.maxDepth, 4u);
}

TEST(Replica, TailLatencyGrowsWithLoad)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    // Calibrate "heavy" to ~80% of the batched steady-state capacity:
    // stable (the run drains) but deep in the queueing regime.
    core::Workload batched = w;
    batched.setting.batch = 32;
    const perf::InferenceSimulator psim(hw::modeledA100());
    const auto estimate = serve::estimateServing(
        psim.run(batched.model, batched.setting, batched.system),
        batched.system.tensorParallel, serve::Slo{});
    const double capacityReqPerS = estimate.tokensPerSecondPerDevice *
                                   batched.system.tensorParallel / 64.0;

    const ReplicaMetrics light =
        simulateReplica(cost, openLoopConfig(0.2));
    const ReplicaMetrics heavy =
        simulateReplica(cost, openLoopConfig(0.8 * capacityReqPerS));
    ASSERT_GT(light.requests.size(), 10u);
    ASSERT_GT(heavy.requests.size(), 10u);
    EXPECT_GT(heavy.ttft().p99S, light.ttft().p99S);
    // Under load the p99 TTFT pulls away from the median (queueing),
    // which the steady-state model cannot represent at all.
    EXPECT_GT(heavy.ttft().p99S, 2.0 * heavy.ttft().p50S);
}

TEST(Replica, OversizedRequestIsFatal)
{
    const core::Workload w = testWorkload();
    hw::HardwareConfig tiny = hw::modeledA100();
    tiny.memCapacityBytes = 4.1e9; // weights fit, one request not
    const IterationCostModel cost = testCost(w, tiny);
    ReplicaConfig rc = openLoopConfig(0.2);
    rc.workload.promptLen = LengthDistribution::fixed(100000);
    EXPECT_THROW(simulateReplica(cost, rc), FatalError);
}

// ---- determinism -----------------------------------------------------------

/** Full-precision serialization: any bit difference shows up. */
std::string
fingerprint(const ReplicaMetrics &m)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << m.arrivals << '/' << m.prefillIterations << '/'
       << m.decodeIterations << '/' << m.generatedTokens << '/'
       << m.lastEventS << '\n';
    for (const RequestRecord &r : m.requests) {
        os << r.id << ',' << r.arrivalS << ',' << r.admitS << ','
           << r.firstTokenS << ',' << r.finishS << ',' << r.promptLen
           << ',' << r.outputLen << '\n';
    }
    for (double g : m.tbtGapsS)
        os << g << '\n';
    for (std::uint64_t b : m.queueDepth.buckets)
        os << b << ' ';
    return os.str();
}

TEST(Determinism, SameSeedSameBytes)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const std::string a =
        fingerprint(simulateReplica(cost, openLoopConfig(1.0, 9)));
    const std::string b =
        fingerprint(simulateReplica(cost, openLoopConfig(1.0, 9)));
    EXPECT_EQ(a, b);
    const std::string c =
        fingerprint(simulateReplica(cost, openLoopConfig(1.0, 10)));
    EXPECT_NE(a, c);
}

TEST(Determinism, RecordingOffPreservesCountsAndHistograms)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    const ReplicaConfig on = openLoopConfig(2.0, 29);
    ReplicaConfig off = on;
    off.recordRequests = false;
    off.recordTbtGaps = false;
    const ReplicaMetrics a = simulateReplica(cost, on);
    const ReplicaMetrics b = simulateReplica(cost, off);

    // The switches drop only the per-request vectors...
    EXPECT_FALSE(a.requests.empty());
    EXPECT_FALSE(a.tbtGapsS.empty());
    EXPECT_TRUE(b.requests.empty());
    EXPECT_TRUE(b.tbtGapsS.empty());

    // ...every counter and streaming histogram is unchanged.
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.completed, a.requests.size());
    EXPECT_EQ(a.prefillIterations, b.prefillIterations);
    EXPECT_EQ(a.decodeIterations, b.decodeIterations);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.lastEventS, b.lastEventS);
    EXPECT_EQ(a.ttftHist.buckets, b.ttftHist.buckets);
    EXPECT_EQ(a.ttftHist.count, b.ttftHist.count);
    EXPECT_DOUBLE_EQ(a.ttftHist.sumS, b.ttftHist.sumS);
    EXPECT_EQ(a.tbtHist.buckets, b.tbtHist.buckets);
    EXPECT_EQ(a.tbtHist.count, b.tbtHist.count);
    EXPECT_DOUBLE_EQ(a.tbtHist.maxS, b.tbtHist.maxS);

    // The histograms' percentiles track the exact rollups within
    // the documented ~1.6% bucket error.
    EXPECT_NEAR(b.ttftHist.percentileS(99.0), a.ttft().p99S,
                0.02 * a.ttft().p99S);
    EXPECT_NEAR(b.tbtHist.percentileS(99.0), a.tbt().p99S,
                0.02 * a.tbt().p99S);

    // Without records there is nothing to judge an SLO by: each
    // verdict is an error naming the switch, never a silent pass.
    const SloTargets slo;
    const auto expectFatalNaming = [](const auto &call,
                                      const std::string &flag) {
        try {
            call();
            ADD_FAILURE() << "no error naming " << flag;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
                << e.what();
        }
    };
    ASSERT_GT(b.completed, 0u);
    expectFatalNaming([&] { b.meetsSlo(slo); }, "recordRequests");
    expectFatalNaming([&] { b.attainment(slo); }, "recordRequests");
    expectFatalNaming([&] { b.goodputTokensPerS(slo); }, "recordRequests");
    ReplicaConfig gaps_off = on;
    gaps_off.recordTbtGaps = false;
    const ReplicaMetrics c = simulateReplica(cost, gaps_off);
    expectFatalNaming([&] { c.meetsSlo(slo); }, "recordTbtGaps");
    EXPECT_EQ(c.attainment(slo), a.attainment(slo));

    // A run that completed nothing keeps its answers.
    const ReplicaMetrics idle;
    EXPECT_TRUE(idle.meetsSlo(slo));
    EXPECT_EQ(idle.attainment(slo), 1.0);
    EXPECT_EQ(idle.goodputTokensPerS(slo), 0.0);
}

/**
 * The unit the parallel scenario-grid benches fan out over: one
 * servingPointAt cell must be byte-identical whether its cost model
 * is fresh (every lookup a miss) or warmed by other cells (the
 * ext_serving_sim regression at unit scale).
 */
TEST(Determinism, ServingPointIsMemoStateIndependent)
{
    const core::SanctionsStudy study;
    const core::Workload w = testWorkload();
    core::ServingStudyConfig cfg;
    cfg.promptLen = LengthDistribution::uniform(256, 768, 64);
    cfg.outputLen = LengthDistribution::uniform(32, 96, 16);
    cfg.horizonS = 150.0;
    cfg.seed = 77;

    const IterationCostModel warm =
        study.makeCostModel(hw::modeledA100(), w);

    const auto serialize = [](const core::ServingStudyPoint &p) {
        std::ostringstream os;
        os << std::setprecision(17);
        os << p.ratePerS << ',' << p.ttft.p50S << ',' << p.ttft.p99S
           << ',' << p.tbt.p50S << ',' << p.tbt.p99S << ','
           << p.attainment << ',' << p.goodputTokensPerS << ','
           << p.completed << ',' << p.maxQueueDepth;
        return os.str();
    };
    for (double rate : {2.0, 0.5}) {
        const std::string shared =
            serialize(core::servingPointAt(warm, cfg, rate));
        const IterationCostModel fresh =
            study.makeCostModel(hw::modeledA100(), w);
        EXPECT_EQ(shared,
                  serialize(core::servingPointAt(fresh, cfg, rate)));
    }
}

TEST(Determinism, FleetMergeIsThreadCountIndependent)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    FleetDemand demand;
    demand.ratePerS = 2.0;
    demand.promptLen = LengthDistribution::uniform(256, 768, 64);
    demand.outputLen = LengthDistribution::uniform(32, 96, 16);
    demand.horizonS = 200.0;
    demand.seed = 21;
    const SchedulerConfig sched;

    common::ThreadPool narrow(1);
    common::ThreadPool wide(7);
    const std::string serial = fingerprint(
        simulateFleet(cost, demand, sched, 5, &narrow));
    const std::string pooled = fingerprint(
        simulateFleet(cost, demand, sched, 5, &wide));
    EXPECT_EQ(serial, pooled);

    // And both match a by-hand index-order merge.
    ReplicaMetrics manual;
    for (int i = 0; i < 5; ++i) {
        ReplicaConfig rc;
        rc.scheduler = sched;
        rc.workload.arrivalRatePerS = demand.ratePerS / 5;
        rc.workload.promptLen = demand.promptLen;
        rc.workload.outputLen = demand.outputLen;
        rc.workload.horizonS = demand.horizonS;
        rc.workload.seed = substreamSeed(demand.seed, i);
        if (i == 0)
            manual = simulateReplica(cost, rc);
        else
            manual.merge(simulateReplica(cost, rc));
    }
    EXPECT_EQ(serial, fingerprint(manual));
}

TEST(Determinism, ServingStudyIsByteReproducible)
{
    const core::SanctionsStudy study;
    core::ServingStudyConfig cfg;
    cfg.ratesPerS = {0.2, 1.0};
    cfg.promptLen = LengthDistribution::uniform(256, 768, 64);
    cfg.outputLen = LengthDistribution::uniform(32, 96, 16);
    cfg.horizonS = 150.0;
    cfg.seed = 77;
    const core::Workload w = testWorkload();

    const auto serialize = [](const core::ServingStudyResult &r) {
        std::ostringstream os;
        os << std::setprecision(17);
        for (const core::ServingStudyPoint &p : r.curve) {
            os << p.ratePerS << ',' << p.ttft.p50S << ','
               << p.ttft.p99S << ',' << p.tbt.p50S << ','
               << p.tbt.p99S << ',' << p.attainment << ','
               << p.goodputTokensPerS << ',' << p.completed << ','
               << p.maxQueueDepth << '\n';
        }
        return os.str();
    };
    const auto a =
        serialize(study.runServingStudy(hw::modeledA100(), w, cfg));
    const auto b =
        serialize(study.runServingStudy(hw::modeledA100(), w, cfg));
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, RollupPercentilesOrdered)
{
    std::vector<double> samples;
    for (int i = 1; i <= 1000; ++i)
        samples.push_back(i / 1000.0);
    const LatencyRollup r = LatencyRollup::fromSamples(samples);
    EXPECT_EQ(r.count, 1000u);
    EXPECT_LE(r.p50S, r.p95S);
    EXPECT_LE(r.p95S, r.p99S);
    EXPECT_LE(r.p99S, r.maxS);
    EXPECT_NEAR(r.p50S, 0.5, 1e-3);
    EXPECT_DOUBLE_EQ(r.maxS, 1.0);
}

TEST(Metrics, AttainmentAndGoodput)
{
    ReplicaMetrics m;
    m.lastEventS = 10.0;
    RequestRecord fast;
    fast.arrivalS = 0.0;
    fast.firstTokenS = 1.0;
    fast.finishS = 2.0;
    fast.outputLen = 11; // mean TBT 0.1
    RequestRecord slow = fast;
    slow.firstTokenS = 8.0; // TTFT 8 misses the bound below
    slow.finishS = 9.0;
    m.requests = {fast, slow};

    SloTargets slo;
    slo.ttftMaxS = 4.0;
    slo.tbtMaxS = 0.2;
    EXPECT_DOUBLE_EQ(m.attainment(slo), 0.5);
    EXPECT_DOUBLE_EQ(m.goodputTokensPerS(slo), 1.1);

    EXPECT_THROW(
        [&] {
            SloTargets bad;
            bad.percentile = 0.0;
            bad.validate();
        }(),
        FatalError);
}

TEST(Metrics, QueueDepthBuckets)
{
    QueueDepthHistogram h;
    h.record(0);
    h.record(1);
    h.record(5);
    EXPECT_EQ(h.samples, 3u);
    EXPECT_EQ(h.maxDepth, 5u);
    ASSERT_GE(h.buckets.size(), 4u);
    EXPECT_EQ(h.buckets[0], 1u); // depth 0
    EXPECT_EQ(h.buckets[1], 1u); // depth 1
    EXPECT_EQ(h.buckets[3], 1u); // depth 4..7

    QueueDepthHistogram other;
    other.record(5);
    h.merge(other);
    EXPECT_EQ(h.buckets[3], 2u);
    EXPECT_EQ(h.samples, 4u);
}

// ---- fleet sizing vs the closed form ---------------------------------------

TEST(Fleet, LowLoadAgreesWithClosedForm)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    FleetDemand demand;
    demand.ratePerS = 0.05; // far below one replica's capacity
    demand.promptLen = LengthDistribution::fixed(512);
    demand.outputLen = LengthDistribution::fixed(64);
    demand.horizonS = 400.0;
    demand.seed = 31;

    serve::PercentileSlo slo;
    slo.ttftP99MaxS = 5.0;
    slo.tbtP99MaxS = 0.5;
    const serve::PercentileFleetPlan plan = serve::planFleetPercentile(
        cost, demand, SchedulerConfig{}, slo, 64);

    ASSERT_TRUE(plan.simulated.feasible);
    EXPECT_EQ(plan.simulated.devices, plan.closedFormDevices);
    EXPECT_EQ(plan.simulated.replicas, 1);
    EXPECT_DOUBLE_EQ(plan.burstFactor(), 1.0);
}

TEST(Fleet, BurstyLoadExceedsClosedForm)
{
    // Reference batch 32 so the closed-form path provisions to the
    // batched steady-state throughput — the regime where it and the
    // simulator should diverge on burstiness alone.
    core::Workload w = testWorkload();
    w.setting.batch = 32;
    const IterationCostModel cost = testCost(w);

    const perf::InferenceSimulator sim(hw::modeledA100());
    const auto estimate = serve::estimateServing(
        sim.run(w.model, w.setting, w.system),
        w.system.tensorParallel, serve::Slo{});
    const double unitTokensPerS = estimate.tokensPerSecondPerDevice *
                                  w.system.tensorParallel;

    FleetDemand demand;
    // 1.9 units' worth of tokens: steady-state arithmetic rounds up
    // to 2 replicas at ~95% utilization each — a load level where
    // Poisson queueing blows the p99 TTFT unless the simulator adds
    // capacity beyond the closed-form answer.
    demand.ratePerS = 1.9 * unitTokensPerS / 64.0;
    demand.promptLen = LengthDistribution::fixed(512);
    demand.outputLen = LengthDistribution::fixed(64);
    demand.horizonS = 400.0;
    demand.seed = 33;

    serve::PercentileSlo slo;
    slo.ttftP99MaxS = 2.0;
    slo.tbtP99MaxS = 0.25;
    const serve::PercentileFleetPlan plan = serve::planFleetPercentile(
        cost, demand, SchedulerConfig{}, slo, 256);

    ASSERT_TRUE(plan.simulated.feasible);
    ASSERT_GT(plan.closedFormDevices, 0);
    EXPECT_GT(plan.simulated.devices, plan.closedFormDevices);
    EXPECT_GT(plan.burstFactor(), 1.0);
    EXPECT_GE(plan.simulated.probes, 2);
}

TEST(Fleet, InfeasibleSloReported)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    FleetDemand demand;
    demand.ratePerS = 1.0;
    demand.promptLen = LengthDistribution::fixed(512);
    demand.outputLen = LengthDistribution::fixed(64);
    demand.horizonS = 100.0;
    demand.seed = 35;

    SloTargets slo;
    slo.ttftMaxS = 1e-6; // unreachable even with zero queueing
    slo.tbtMaxS = 1e-6;
    const FleetSizingResult r =
        sizeFleet(cost, demand, SchedulerConfig{}, slo, 4);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.replicas, 0);
}

TEST(Fleet, SizingReturnsCachedProbeIdenticalToResimulation)
{
    const core::Workload w = testWorkload();
    const IterationCostModel cost = testCost(w);
    FleetDemand demand;
    demand.ratePerS = 3.0;
    demand.promptLen = LengthDistribution::uniform(256, 768, 64);
    demand.outputLen = LengthDistribution::uniform(32, 96, 16);
    demand.horizonS = 150.0;
    demand.seed = 13;

    SloTargets slo;
    slo.ttftMaxS = 5.0;
    slo.tbtMaxS = 0.200;
    const SchedulerConfig sched;
    const FleetSizingResult r =
        sizeFleet(cost, demand, sched, slo, 64);
    ASSERT_TRUE(r.feasible);

    // The search memoizes per-size verdicts, so the aggregate it
    // hands back must be the probe's own result — byte-identical to
    // simulating the chosen size from scratch.
    EXPECT_EQ(fingerprint(r.aggregate),
              fingerprint(
                  simulateFleet(cost, demand, sched, r.replicas)));
}

// ---- study curve -----------------------------------------------------------

TEST(ServingStudy, CurveShowsSaturation)
{
    const core::SanctionsStudy study;
    core::ServingStudyConfig cfg;
    cfg.ratesPerS = {0.2, 6.0};
    cfg.promptLen = LengthDistribution::fixed(512);
    cfg.outputLen = LengthDistribution::fixed(64);
    cfg.horizonS = 200.0;
    cfg.seed = 41;
    const core::ServingStudyResult r = study.runServingStudy(
        hw::modeledA100(), testWorkload(), cfg);
    ASSERT_EQ(r.curve.size(), 2u);
    EXPECT_FALSE(r.fleetSized);
    EXPECT_GT(r.curve[1].ttft.p99S, r.curve[0].ttft.p99S);
    EXPECT_GT(r.curve[0].attainment, 0.0);
}

TEST(ServingStudy, FleetSizingBlockPopulated)
{
    const core::SanctionsStudy study;
    core::ServingStudyConfig cfg;
    cfg.ratesPerS = {};
    cfg.promptLen = LengthDistribution::fixed(512);
    cfg.outputLen = LengthDistribution::fixed(64);
    cfg.horizonS = 200.0;
    cfg.seed = 43;
    cfg.fleetRatePerS = 1.0;
    cfg.slo.ttftP99MaxS = 5.0;
    cfg.slo.tbtP99MaxS = 0.5;
    const core::ServingStudyResult r = study.runServingStudy(
        hw::modeledA100(), testWorkload(), cfg);
    EXPECT_TRUE(r.fleetSized);
    EXPECT_TRUE(r.fleet.simulated.feasible);
    EXPECT_GE(r.fleet.burstFactor(), 1.0);
}

} // anonymous namespace
} // namespace sim
} // namespace acs
