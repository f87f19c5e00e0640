/**
 * @file
 * The benchmark's three workloads, and the cluster replay that
 * fleet-size's traced run adds. Each workload loads a different layer
 * of the stack; README.md in this directory says why each was chosen
 * and which per-layer metric should move with which end-to-end metric.
 */

#include "perfbench.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "coevo/arms_race.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "core/study.hh"
#include "dse/adaptive.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"
#include "hw/presets.hh"
#include "obs/obs.hh"
#include "perf/cycle_sim.hh"
#include "perf/gemm_cache.hh"
#include "sim/cluster.hh"
#include "sim/fleet.hh"
#include "sim/trace.hh"

namespace perfbench {
namespace {

using namespace acs;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Seconds recorded so far under the span or timer @p name. */
double
spanS(const char *name)
{
    return obs::timerStat(name).totalS;
}

/**
 * Holds an IterationCostModel built by SanctionsStudy::makeCostModel
 * (the model owns mutexes, so it can only be initialized in place).
 */
struct CostModelHolder
{
    CostModelHolder(const hw::HardwareConfig &device,
                    const core::Workload &workload)
        : cost(core::SanctionsStudy().makeCostModel(device, workload))
    {}
    sim::IterationCostModel cost;
};

void
digestHist(Digest &d, const sim::LatencyHistogram &h)
{
    d.u64s(h.buckets);
    d.u64(h.count);
    d.f64(h.sumS);
    d.f64(h.maxS);
}

void
digestReplica(Digest &d, const sim::ReplicaMetrics &m)
{
    digestHist(d, m.ttftHist);
    digestHist(d, m.tbtHist);
    d.u64s(m.queueDepth.buckets);
    d.u64(m.queueDepth.maxDepth);
    d.u64(m.queueDepth.samples);
    d.u64(m.prefillIterations);
    d.u64(m.decodeIterations);
    d.u64(m.generatedTokens);
    d.u64(m.arrivals);
    d.u64(m.completed);
    d.f64(m.lastEventS);
}

// ---- cycle-sweep ------------------------------------------------------------

/**
 * A seeded sample of the Fig. 6 / Table 3 space (TPP 4800, 600 GB/s,
 * Llama-3-8B at TP4) evaluated under CYCLE_SIM through
 * DesignEvaluator::evaluateAllParallel, the call runSweep makes, with
 * its sweep-scoped GemmCache cold.
 *
 * The space is 32 compute classes (array dims x lanes x L1, L1
 * innermost) of 16 designs (L2 x HBM). The sample takes one class
 * per (dims, lanes) pair and one design from each: for 16x16 arrays
 * the largest L1, the cheapest to simulate; for 32x32 arrays the 2nd
 * L1, which costs about the same there and is where tile-class replay
 * engages. Each pair has a fixed HBM point, running down the diagonal
 * so that every point appears in each half, and the seed picks the
 * L2 size: the HBM point of the 32x32, 8-lane class alone sets the
 * sample's peak memory (6 vs 24 MiB of live tile state) and a fifth
 * of its cost, so a seeded HBM would make both depend on the seed.
 * Each 32x32-array class adds a partner with the same HBM and another
 * L2: the pair shares the GEMM projection of every op that is not
 * weight-stationary, so the GemmCache hits.
 */
class CycleSweep final : public Workload
{
  public:
    CycleSweep(std::uint64_t seed, unsigned threads)
        : seed_(seed), threads_(threads)
    {
        params_.gemmMode = perf::GemmMode::CYCLE_SIM;
    }

    void
    setup() override
    {
        const core::Workload w = core::llamaWorkload();
        eval_ = std::make_unique<dse::DesignEvaluator>(w.model, w.setting,
                                                       w.system, params_);
        const dse::SweepSpace space =
            dse::table3Space(4800.0, {600.0 * units::GBPS});
        const dse::SweepPlan plan(space);
        const std::size_t hbm = space.memBandwidths.size() *
                                space.deviceBandwidths.size();
        const std::size_t l2 = space.l2Bytes.size();
        const std::size_t per_class = l2 * hbm;
        const std::size_t classes = plan.pointCount() / per_class;
        const std::size_t l1 = space.l1BytesPerCore.size();

        Rng rng(seed_);
        std::vector<std::size_t> picks;
        for (std::size_t c = 0; c < classes; ++c) {
            if (c % l1 != (c < classes / 2 ? l1 - 1 : 1))
                continue;
            const std::size_t at_hbm = hbm - 1 - c / l1 % hbm;
            const std::size_t at_l2 = rng.below(l2);
            picks.push_back(c * per_class + at_l2 * hbm + at_hbm);
            if (c >= classes / 2) {
                const std::size_t other =
                    (at_l2 + 1 + rng.below(l2 - 1)) % l2;
                picks.push_back(c * per_class + other * hbm + at_hbm);
            }
        }
        std::sort(picks.begin(), picks.end());
        for (const std::size_t i : picks)
            sample_.push_back(plan.point(i));
    }

    void
    job() override
    {
        const obs::TraceSpan span("bench.dse.evaluate");
        designs_ = eval_->evaluateAllParallel(sample_, threads_);
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const dse::EvaluatedDesign &x : designs_) {
            d.str(x.config.name);
            d.f64(x.ttftS);
            d.f64(x.tbtS);
        }
        return d.value();
    }

    void
    check(Checks &c) const override
    {
        bool ordered = designs_.size() == sample_.size();
        for (std::size_t i = 0; ordered && i < designs_.size(); ++i)
            ordered = designs_[i].config.name == sample_[i].name;
        c.expect(ordered, "cycle-sweep: one design per sampled point, in "
                          "the sample's order");
        bool finite = true;
        for (const dse::EvaluatedDesign &x : designs_)
            finite = finite && std::isfinite(x.ttftS) && x.ttftS > 0.0 &&
                     std::isfinite(x.tbtS) && x.tbtS > 0.0;
        c.expect(finite, "cycle-sweep: every TTFT and TBT is positive");
    }

    void
    profile(Stats &s, Checks &) override
    {
        const double hits =
            static_cast<double>(obs::counterValue("perf.gemm_cache.hits"));
        const double misses = static_cast<double>(
            obs::counterValue("perf.gemm_cache.misses"));
        s["perf.gemm_cache.hit_rate"] = ratio(hits, hits + misses);
        const double designs = static_cast<double>(designs_.size());
        const double wall = spanS("bench.dse.evaluate");
        const double cycle_s = spanS("perf.cycle_sim");
        s["dse.evaluate.designs"] = designs;
        s["dse.evaluate.ns_per_design"] = ratio(wall, designs) * 1e9;
        s["dse.evaluate.parallel_eff"] =
            ratio(spanS("dse.evaluate"), threads_ * wall);
        s["dse.evaluate.self_s"] = wall - cycle_s;
        s["perf.cycle_sim.s"] = cycle_s;

        // Direct calls: every distinct GEMM of the sample, once each,
        // on this thread. These are the GEMMs the job's cold cache
        // simulates, so the stall and replay shares describe it.
        std::unordered_set<perf::GemmCacheKey, perf::GemmCacheKeyHash> seen;
        const std::uint64_t fp = perf::fingerprintGemmParams(params_);
        double gemms = 0.0, cycles = 0.0, tiles = 0.0, replayed = 0.0;
        double compute = 0.0, fill = 0.0, dram = 0.0, l2 = 0.0, spad = 0.0;
        {
            const obs::TraceSpan span("bench.perf.cycle_sim");
            for (const hw::HardwareConfig &cfg : sample_) {
                for (const model::LayerGraph *g :
                     {&eval_->prefillGraph(), &eval_->decodeGraph()}) {
                    for (const model::Op &op : g->ops) {
                        if (op.kind != model::OpKind::MATMUL ||
                            !seen.insert(perf::makeGemmCacheKey(
                                             cfg, op, params_, fp))
                                 .second)
                            continue;
                        const perf::CycleStats st =
                            perf::simulateGemmCycles(cfg, op, params_);
                        gemms += 1.0;
                        cycles += static_cast<double>(st.cycles);
                        tiles += static_cast<double>(st.totalTiles);
                        replayed += static_cast<double>(st.replayedTiles);
                        compute += static_cast<double>(st.computeBusyCycles);
                        fill += static_cast<double>(st.fillStallCycles);
                        dram += static_cast<double>(st.dramQueueCycles);
                        l2 += static_cast<double>(st.l2QueueCycles);
                        spad += static_cast<double>(st.spadSerialCycles);
                    }
                }
            }
        }
        s["perf.cycle_sim.gemms"] = gemms;
        s["perf.cycle_sim.sim_cycles"] = cycles;
        s["perf.cycle_sim.ns_per_sim_cycle"] =
            ratio(spanS("bench.perf.cycle_sim"), cycles) * 1e9;
        s["perf.cycle_sim.replayed_tile_frac"] = ratio(replayed, tiles);
        const double live = compute + fill;
        s["perf.cycle_sim.stall.compute"] = ratio(compute, live);
        s["perf.cycle_sim.stall.fill"] = ratio(fill, live);
        s["perf.cycle_sim.stall.dram_queue"] = ratio(dram, live);
        s["perf.cycle_sim.stall.l2_queue"] = ratio(l2, live);
        s["perf.cycle_sim.stall.spad"] = ratio(spad, live);

        // The same designs under the wave-level model.
        perf::PerfParams tile_params = params_;
        tile_params.gemmMode = perf::GemmMode::TILE_SIM;
        const core::Workload w = core::llamaWorkload();
        const dse::DesignEvaluator tile_eval(w.model, w.setting, w.system,
                                             tile_params);
        std::vector<dse::EvaluatedDesign> tile;
        {
            const obs::TraceSpan span("bench.perf.tile_sim");
            tile = tile_eval.evaluateAllParallel(sample_, threads_);
        }
        double ttft_err = 0.0, tbt_err = 0.0;
        for (std::size_t i = 0; i < tile.size(); ++i) {
            ttft_err = std::max(
                ttft_err, std::abs(designs_[i].ttftS / tile[i].ttftS - 1.0));
            tbt_err = std::max(
                tbt_err, std::abs(designs_[i].tbtS / tile[i].tbtS - 1.0));
        }
        s["perf.cycle_sim.ttft_err_vs_tile"] = ttft_err;
        s["perf.cycle_sim.tbt_err_vs_tile"] = tbt_err;
    }

  private:
    std::uint64_t seed_;
    unsigned threads_;
    perf::PerfParams params_;
    std::unique_ptr<dse::DesignEvaluator> eval_;
    std::vector<hw::HardwareConfig> sample_;
    std::vector<dse::EvaluatedDesign> designs_;
};

// ---- analytic-dse -----------------------------------------------------------

/**
 * The analytic studies in one process: runSweep over the Fig. 6, 7
 * and 12 spaces, AdaptiveSearch over the ~1.7e8-point fine space at
 * three seeded TPP targets for GPT-3 and Llama-3-8B, and the arms
 * race frontier over the ext_coevo_arms_race budget ladder for both
 * mechanisms. The seed moves each TPP target within +-5% of 1600,
 * 2400 and 4800, which keeps the searches' size steady.
 */
class AnalyticDse final : public Workload
{
  public:
    AnalyticDse(std::uint64_t seed, unsigned threads)
        : seed_(seed), threads_(threads)
    {}

    void
    setup() override
    {
        workloads_ = {core::gpt3Workload(), core::llamaWorkload()};
        sweepSpaces_.push_back(
            dse::table3Space(4800.0, {600.0 * units::GBPS}));
        for (const double tpp : {1600.0, 2400.0, 4800.0}) {
            sweepSpaces_.push_back(dse::table3Space(
                tpp, {500.0 * units::GBPS, 700.0 * units::GBPS,
                      900.0 * units::GBPS}));
        }
        sweepSpaces_.push_back(dse::table5Space());

        Rng rng(seed_);
        for (const core::Workload &w : workloads_) {
            evals_.push_back(std::make_unique<dse::DesignEvaluator>(
                w.model, w.setting, w.system));
        }
        dse::AdaptiveConfig acfg;
        acfg.threads = threads_;
        for (const double base : {1600.0, 2400.0, 4800.0}) {
            const double tpp = base * rng.uniform(0.95, 1.05);
            fineSpaces_.push_back(
                std::make_unique<dse::SweepSpace>(dse::fineSpace(tpp)));
            for (const auto &eval : evals_) {
                searches_.push_back(std::make_unique<dse::AdaptiveSearch>(
                    *eval, *fineSpaces_.back(), acfg));
            }
        }
        coevo::ArmsRaceConfig rcfg;
        rcfg.threads = threads_;
        race_ = std::make_unique<coevo::ArmsRace>(rcfg);
    }

    void
    job() override
    {
        const core::SanctionsStudy study;
        // The adaptive searches below also evaluate some designs one
        // at a time: take the sweeps' per-design busy time alone.
        sweepBusyS_ = -spanS("dse.evaluate");
        {
            const obs::TraceSpan span("bench.dse.evaluate");
            for (const dse::SweepSpace &space : sweepSpaces_) {
                for (const core::Workload &w : workloads_)
                    sweeps_.push_back(study.runSweep(space, w));
            }
        }
        sweepBusyS_ += spanS("dse.evaluate");
        {
            const obs::TraceSpan span("bench.dse.adaptive");
            for (const auto &search : searches_)
                adaptive_.push_back(search->run());
        }
        const obs::TraceSpan span("bench.coevo.frontier");
        frontier_ = race_->frontier(kBudgets);
        race_result_ = race_->run();
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const auto &designs : sweeps_) {
            d.u64(designs.size());
            for (const dse::EvaluatedDesign &x : designs) {
                d.f64(x.ttftS);
                d.f64(x.tbtS);
            }
        }
        for (const dse::AdaptiveResult &r : adaptive_) {
            d.u64(r.evaluated);
            d.u64(r.waves);
            d.u64(r.bestTtftIndex);
            d.u64(r.bestTbtIndex);
            d.f64(r.bestTtft ? r.bestTtft->ttftS : 0.0);
            d.f64(r.bestTbt ? r.bestTbt->tbtS : 0.0);
        }
        for (const coevo::FrontierPoint &p : frontier_) {
            d.u64(static_cast<std::uint64_t>(p.mechanism));
            d.f64(p.budget);
            d.f64(p.collateral);
            d.f64(p.escapedPerf);
            d.str(p.ruleDesc);
        }
        d.u64(race_result_.fingerprint());
        return d.value();
    }

    void
    check(Checks &c) const override
    {
        std::size_t k = 0;
        for (const dse::SweepSpace &space : sweepSpaces_) {
            for (std::size_t w = 0; w < workloads_.size(); ++w, ++k)
                c.expect(sweeps_[k].size() == space.feasibleSize(),
                         "analytic-dse: runSweep covers its space");
        }
        for (const dse::AdaptiveResult &r : adaptive_) {
            c.expect(r.complete && r.bestTtft && r.bestTbt &&
                         r.evaluated > 0 && r.evaluated < r.spacePoints,
                     "analytic-dse: adaptive search finds both argmins "
                     "from a fraction of the space");
        }
        bool monotone = true;
        for (std::size_t i = 1; i < frontier_.size(); ++i) {
            if (frontier_[i].mechanism == frontier_[i - 1].mechanism)
                monotone = monotone && frontier_[i].escapedPerf <=
                                           frontier_[i - 1].escapedPerf;
        }
        c.expect(monotone, "analytic-dse: escaped performance does not "
                           "rise with the collateral budget");
        double prev = INFINITY;
        bool rounds = !race_result_.rounds.empty();
        for (const coevo::RoundRecord &r : race_result_.rounds) {
            rounds = rounds && r.designer.escapedPerf <= prev;
            prev = r.designer.escapedPerf;
        }
        c.expect(rounds, "analytic-dse: escaped performance does not "
                         "rise across arms-race rounds");
    }

    void
    profile(Stats &s, Checks &) override
    {
        // No layer span of this job encloses another, so each one's
        // self time is its wall time.
        double designs = 0.0;
        for (const auto &x : sweeps_)
            designs += static_cast<double>(x.size());
        const double sweep_s = spanS("bench.dse.evaluate");
        s["dse.evaluate.designs"] = designs;
        s["dse.evaluate.ns_per_design"] = ratio(sweep_s, designs) * 1e9;
        s["dse.evaluate.parallel_eff"] =
            ratio(sweepBusyS_, threads_ * sweep_s);
        s["dse.evaluate.self_s"] = sweep_s;

        double evaluated = 0.0, points = 0.0, waves = 0.0;
        for (const dse::AdaptiveResult &r : adaptive_) {
            evaluated += static_cast<double>(r.evaluated);
            points += static_cast<double>(r.spacePoints);
            waves += static_cast<double>(r.waves);
        }
        const double adaptive_s = spanS("bench.dse.adaptive");
        s["dse.adaptive.points_evaluated"] = evaluated;
        s["dse.adaptive.fraction_evaluated"] = ratio(evaluated, points);
        s["dse.adaptive.waves"] = waves;
        s["dse.adaptive.ns_per_point"] = ratio(adaptive_s, evaluated) * 1e9;
        s["dse.adaptive.self_s"] = adaptive_s;

        const double responses =
            static_cast<double>(race_result_.bestResponses);
        const double coevo_s = spanS("bench.coevo.frontier");
        s["coevo.best_responses"] = responses;
        s["coevo.ms_per_best_response"] = ratio(coevo_s, responses) * 1e3;
        s["coevo.self_s"] = coevo_s;

        // The SoA batch kernel alone, over a fixed-size index block
        // strided across the first search's fine space.
        const dse::SweepPlan &plan = searches_.front()->plan();
        std::vector<std::size_t> indices(kBatchBlock);
        for (std::size_t i = 0; i < indices.size(); ++i)
            indices[i] = i * (plan.pointCount() / indices.size());
        std::vector<dse::PointSample> out(indices.size());
        {
            const obs::TraceSpan span("bench.perf.batch_eval");
            evals_.front()->evaluatePlanIndices(plan, indices.data(),
                                                indices.size(), nullptr,
                                                out.data(), threads_);
        }
        s["perf.batch_eval.ns_per_design"] =
            spanS("bench.perf.batch_eval") / indices.size() * 1e9;
    }

  private:
    static inline const std::vector<double> kBudgets = {0.0, 0.02, 0.05,
                                                        0.10, 0.20};
    static constexpr std::size_t kBatchBlock = 1 << 16;

    std::uint64_t seed_;
    unsigned threads_;
    std::vector<core::Workload> workloads_;
    std::vector<dse::SweepSpace> sweepSpaces_;
    std::vector<std::unique_ptr<dse::DesignEvaluator>> evals_;
    std::vector<std::unique_ptr<dse::SweepSpace>> fineSpaces_;
    std::vector<std::unique_ptr<dse::AdaptiveSearch>> searches_;
    std::unique_ptr<coevo::ArmsRace> race_;

    std::vector<std::vector<dse::EvaluatedDesign>> sweeps_;
    double sweepBusyS_ = 0.0;
    std::vector<dse::AdaptiveResult> adaptive_;
    std::vector<coevo::FrontierPoint> frontier_;
    coevo::ArmsRaceResult race_result_;
};

// ---- cluster replay (fleet-size's traced run) -------------------------------

/**
 * A seeded diurnal trace of ~1.2M requests (a horizon holding 1.1M at
 * the base rate, plus bursts; Llama-3-70B TP4 on the modeled A100;
 * 512-token prompts, 64-192-token outputs) replayed
 * through a disaggregated 2-prefill / 4-decode cluster with JSQ
 * routing, KV transfers, and recording off. The mean offered load is
 * 30% of the decode pool's capacity, so bursts build queues that
 * drain: the cluster sustains it.
 *
 * This was the trace-replay workload. Its event loop is the code most
 * slowed by the host's other tenants, and its job_s spread past the
 * 0.25 bound in three of five ten-run sets (README.md, "Steadiness").
 * It now runs once in each traced fleet-size run, after that
 * workload's own metrics are read: the cluster, the trace generator
 * and the cost model keep their per-layer metrics, checks and digest,
 * but no end-to-end metric moves with them.
 */
class ClusterReplay
{
  public:
    explicit ClusterReplay(std::uint64_t seed) : seed_(seed) {}

    void
    setup()
    {
        cost_ = std::make_unique<CostModelHolder>(
            hw::modeledA100(), core::workloadByName("llama70b"));
        const sim::SchedulerConfig sched;
        const double decode_req_per_s =
            sched.maxBatch / cost_->cost.decodeStepS(sched.maxBatch) /
            kMeanOutput;
        spec_.baseRatePerS = kLoad * kDecodeReplicas * decode_req_per_s;
        spec_.peakToTrough = 3.0;
        spec_.burstMultiplier = 2.0;
        spec_.burstMeanS = 30.0;
        spec_.calmMeanS = 300.0;
        spec_.promptLen = sim::LengthDistribution::fixed(512);
        spec_.outputLen = sim::LengthDistribution::uniform(64, 192, 32);
        spec_.horizonS = kRequests / spec_.baseRatePerS;
        spec_.periodS = spec_.horizonS / 4.0;
        spec_.seed = sim::substreamSeed(seed_, 1);

        cluster_.pools.resize(2);
        cluster_.pools[0].name = "prefill";
        cluster_.pools[0].role = sim::PoolRole::PREFILL;
        cluster_.pools[0].replicas = kPrefillReplicas;
        cluster_.pools[1].name = "decode";
        cluster_.pools[1].role = sim::PoolRole::DECODE;
        cluster_.pools[1].replicas = kDecodeReplicas;
        for (sim::PoolConfig &p : cluster_.pools) {
            p.cost = &cost_->cost;
            p.scheduler = sched;
        }
        cluster_.routing = sim::RoutingPolicyKind::JOIN_SHORTEST_QUEUE;
        cluster_.recordRequests = false;
        cluster_.recordTbtGaps = false;
    }

    void
    run()
    {
        // fleet-size's job used a cost model too: count this run's
        // memo lookups alone.
        lookupsBefore_ = costLookups();
        const obs::TraceSpan span("bench.sim.cluster");
        trace_ = sim::TraceWorkload::diurnal(spec_);
        metrics_ = sim::simulateCluster(cluster_, *trace_);
    }

    std::uint64_t
    digest() const
    {
        Digest d;
        digestReplica(d, metrics_.aggregate);
        digestHist(d, metrics_.ttftHist);
        digestHist(d, metrics_.tbtHist);
        for (const sim::PoolUsage &u : metrics_.pools) {
            d.u64(u.routedPrefill);
            d.u64(u.routedDecode);
            d.u64(u.generatedTokens);
        }
        d.u64(metrics_.kvTransfers);
        d.f64(metrics_.kvBytesTransferred);
        d.f64(metrics_.kvTransferTotalS);
        d.u64(metrics_.completedRequests);
        d.u64(metrics_.sloAttainedRequests);
        return d.value();
    }

    void
    check(Checks &c) const
    {
        c.expect(trace_->produced() > 0 &&
                     metrics_.completedRequests == trace_->produced(),
                 "cluster replay: every request the trace produced "
                 "completes");
        c.expect(metrics_.kvTransfers == metrics_.completedRequests,
                 "cluster replay: one KV transfer per completed request");
    }

    void
    profile(Stats &s)
    {
        // Trace generation runs inside simulateCluster, so the cluster
        // span has no layer span inside it: its self time is its wall.
        const sim::ReplicaMetrics &a = metrics_.aggregate;
        const double events = static_cast<double>(
            a.arrivals + a.prefillIterations + a.decodeIterations +
            metrics_.kvTransfers);
        const double cluster_s = spanS("bench.sim.cluster");
        s["sim.cluster.events"] = events;
        s["sim.cluster.ns_per_event"] = ratio(cluster_s, events) * 1e9;
        s["sim.cluster.self_s"] = cluster_s;
        s["sim.cluster.kv_transfers"] =
            static_cast<double>(metrics_.kvTransfers);
        s["sim.cluster.max_queue_depth"] =
            static_cast<double>(a.queueDepth.maxDepth);
        s["sim.cluster.p99_ttft_sim_s"] = metrics_.ttftPercentileS(99.0);
        const auto [hits, misses] = costLookups();
        const double run_hits = hits - lookupsBefore_.first;
        const double run_misses = misses - lookupsBefore_.second;
        s["sim.cost_model.hit_rate"] =
            ratio(run_hits, run_hits + run_misses);

        // The trace generator alone: drain an identical trace.
        std::uint64_t n = 0;
        {
            const obs::TraceSpan span("bench.sim.trace");
            const auto trace = sim::TraceWorkload::diurnal(spec_);
            sim::TraceRequest r;
            while (trace->next(r))
                ++n;
        }
        s["sim.trace.ns_per_request"] =
            ratio(spanS("bench.sim.trace"), static_cast<double>(n)) * 1e9;
    }

  private:
    /** Cost-model memo lookups counted so far: {hits, misses}. */
    static std::pair<double, double>
    costLookups()
    {
        double hits = 0.0, misses = 0.0;
        for (const char *phase : {"prefill", "decode"}) {
            const std::string base = std::string("sim.cost.") + phase;
            hits += static_cast<double>(obs::counterValue(base + "_hits"));
            misses +=
                static_cast<double>(obs::counterValue(base + "_misses"));
        }
        return {hits, misses};
    }

    static constexpr double kRequests = 1.1e6; //!< at the base rate
    static constexpr double kLoad = 0.30;     //!< of decode capacity
    static constexpr double kMeanOutput = 128.0;
    static constexpr int kPrefillReplicas = 2;
    static constexpr int kDecodeReplicas = 4;

    std::uint64_t seed_;
    std::unique_ptr<CostModelHolder> cost_;
    sim::DiurnalTraceSpec spec_;
    sim::ClusterConfig cluster_;
    std::unique_ptr<sim::TraceWorkload> trace_;
    sim::ClusterMetrics metrics_;
    std::pair<double, double> lookupsBefore_;
};

// ---- fleet-size -------------------------------------------------------------

/**
 * sim::sizeFleet for 40 req/s of 512/128-token requests against
 * p99 TTFT <= 5 s and TBT <= 200 ms, probing each size over an 1800 s
 * horizon, with per-request and per-gap recording on. Replicas fan
 * out over the shared thread pool; each probe then merges them and
 * takes exact percentiles serially.
 */
class FleetSize final : public Workload
{
  public:
    FleetSize(std::uint64_t seed, unsigned threads)
        : seed_(seed), threads_(threads)
    {}

    void
    setup() override
    {
        cost_ = std::make_unique<CostModelHolder>(
            hw::modeledA100(), core::workloadByName("llama70b"));
        demand_.ratePerS = 40.0;
        demand_.promptLen = sim::LengthDistribution::fixed(512);
        demand_.outputLen = sim::LengthDistribution::fixed(128);
        demand_.horizonS = 1800.0;
        demand_.seed = sim::substreamSeed(seed_, 2);
        slo_.ttftMaxS = 5.0;
        slo_.tbtMaxS = 0.200;
        slo_.percentile = 99.0;
    }

    void
    job() override
    {
        const obs::TraceSpan span("bench.sim.fleet");
        result_ = sim::sizeFleet(cost_->cost, demand_, sched_, slo_);
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        d.u64(result_.feasible);
        d.u64(static_cast<std::uint64_t>(result_.replicas));
        d.u64(static_cast<std::uint64_t>(result_.probes));
        digestReplica(d, result_.aggregate);
        d.u64(result_.aggregate.requests.size());
        for (const sim::RequestRecord &r : result_.aggregate.requests) {
            d.f64(r.firstTokenS);
            d.f64(r.finishS);
        }
        d.u64(result_.aggregate.tbtGapsS.size());
        return d.value();
    }

    void
    check(Checks &c) const override
    {
        c.expect(result_.feasible && result_.replicas >= 1,
                 "fleet-size: sizeFleet returns a feasible size");
        c.expect(result_.aggregate.completed == result_.aggregate.arrivals,
                 "fleet-size: every arrival completes");
        // The size is the smallest: one replica fewer misses the SLO.
        c.expect(result_.replicas == 1 ||
                     !sim::simulateFleet(cost_->cost, demand_, sched_,
                                         result_.replicas - 1)
                          .meetsSlo(slo_),
                 "fleet-size: one replica fewer misses the SLO");
    }

    void
    profile(Stats &s, Checks &c) override
    {
        // At one thread the replica runs inside sizeFleet do not
        // overlap, so its self time is its wall minus theirs.
        const obs::TimerStat runs = obs::timerStat("sim.replica.run");
        const double fleet_s = spanS("bench.sim.fleet");
        const double events = static_cast<double>(
            obs::counterValue("sim.iterations.prefill") +
            obs::counterValue("sim.iterations.decode") +
            obs::counterValue("sim.requests.completed"));
        s["sim.fleet.probes"] = result_.probes;
        s["sim.replica.runs"] = static_cast<double>(runs.count);
        s["sim.replica.ns_per_event"] = ratio(runs.totalS, events) * 1e9;
        s["sim.replica.self_s"] = runs.totalS;
        s["sim.fleet.rollup_s"] = fleet_s - runs.totalS;
        s["sim.fleet.parallel_eff"] =
            ratio(runs.totalS, threads_ * fleet_s);
        s["sim.fleet.samples_kept"] =
            static_cast<double>(result_.aggregate.requests.size() +
                                result_.aggregate.tbtGapsS.size());

        // The cluster replay, once, after the reads above: it runs the
        // sim counters and a cost model too.
        ClusterReplay replay(seed_);
        replay.setup();
        replay.run();
        replay.check(c);
        replay.profile(s);
        replayDigest_ = replay.digest();
    }

    std::uint64_t
    profileDigest() const override
    {
        return replayDigest_;
    }

  private:
    std::uint64_t seed_;
    unsigned threads_;
    std::unique_ptr<CostModelHolder> cost_;
    sim::FleetDemand demand_;
    sim::SchedulerConfig sched_;
    sim::SloTargets slo_;
    sim::FleetSizingResult result_;
    std::uint64_t replayDigest_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, unsigned threads)
{
    if (name == "cycle-sweep")
        return std::make_unique<CycleSweep>(seed, threads);
    if (name == "analytic-dse")
        return std::make_unique<AnalyticDse>(seed, threads);
    if (name == "fleet-size")
        return std::make_unique<FleetSize>(seed, threads);
    return nullptr;
}

} // namespace perfbench
