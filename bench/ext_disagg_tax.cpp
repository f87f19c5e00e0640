/**
 * @file
 * Extension bench: the sanctions tax under disaggregated purchasing.
 *
 * The monolithic fleet benches (ext_serving_tax, ext_serving_sim)
 * price the tax when one design is bought for everything. This bench
 * prices the escape hatch the rules leave open: prefill capacity is
 * TPP-capped but decode capacity is bandwidth-bound, so a provider
 * can split the purchase — a prefill pool of the compute part and a
 * decode pool of an H20-style bandwidth part — and ship each
 * request's KV cache between them (sim::simulateCluster with
 * PREFILL/DECODE pools, KV transfer charged over the modeled
 * interconnect).
 *
 * For three fleets — the unsanctioned A100, the export-grade H20, and
 * the compliant-optimum prefill design paired with H20 decode — size
 * the monolithic baseline (prefill design bought for everything,
 * sim::sizeFleet) and the disaggregated alternative
 * (sim::sizeDisaggFleet) against identical demand and p99
 * objectives, then price both in $/M good tokens with amortized
 * capex + power (econ::AmortizedCost).
 *
 * A built-in sanity row replays a batch-1 schedule through a
 * disaggregated A100 cluster with a zero-cost KV transfer
 * (sim::KvTransferConfig::free()) and checks its TTFT/TBT are
 * bit-exact against the monolithic replica — the structural identity
 * tests/test_cluster.cpp asserts, kept visible in the CSV.
 *
 * Deterministic: re-running writes byte-identical CSV. The three
 * fleet sizings are independent, so they fan out over
 * common::ThreadPool into index-addressed row slots emitted in fleet
 * order — byte-identical for every ACS_THREADS value.
 */

#include "bench_util.hh"

#include "common/thread_pool.hh"

using namespace acs;

namespace {

/**
 * Amortized hourly cost of one tensor-parallel replica of @p design:
 * yield-adjusted die cost marked up to a board/system price, plus
 * wall power under the serving activity profile. The markup is the
 * same for every candidate, so the *ratios* — the tax — do not
 * depend on it.
 */
double
replicaHourlyUsd(const dse::EvaluatedDesign &design, int tp)
{
    static const area::PowerModel power_model;
    static const area::ActivityProfile serving{0.35, 0.6, 4.0};
    constexpr double kBoardMarkup = 8.0; // package+HBM+board over die

    econ::AmortizedCost device;
    device.capexUsd = kBoardMarkup * design.goodDieCostUsd;
    device.powerW = power_model.power(design.config, serving).totalW();
    return tp * device.hourlyUsd();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::header("Extension: disaggregation tax",
                  "Monolithic vs prefill/decode-disaggregated fleets "
                  "on sanctioned vs compliant hardware");
    bench::initObs(argc, argv);

    const core::SanctionsStudy study(
        bench::perfParamsFromArgs(argc, argv));
    // Llama-3 70B at TP=4: the largest standard workload whose
    // weights fit every candidate's HBM with KV headroom (same choice
    // as ext_serving_sim).
    core::Workload workload = core::workloadByName("llama70b");
    workload.setting.batch = 32; // reference batch for the cost model
    const int tp = workload.system.tensorParallel;

    // Candidate designs, each evaluated for die cost and power.
    const dse::EvaluatedDesign a100 =
        study.evaluateDesign(hw::modeledA100(), workload).design;
    const dse::EvaluatedDesign h20 =
        study.evaluateDesign(hw::modeledH20Style(), workload).design;
    const auto compliant_set = dse::filterOct2023Unregulated(
        dse::filterReticle(study.runSweep(
            dse::table3Space(2400.0, {500.0 * units::GBPS,
                                      700.0 * units::GBPS,
                                      900.0 * units::GBPS}),
            workload)));
    fatalIf(compliant_set.empty(),
            "no Oct-2023-compliant 2400 TPP design found");
    const dse::EvaluatedDesign compliant = dse::minTbt(compliant_set);

    const sim::IterationCostModel a100_cost =
        study.makeCostModel(a100.config, workload);
    const sim::IterationCostModel h20_cost =
        study.makeCostModel(h20.config, workload);
    const sim::IterationCostModel compliant_cost =
        study.makeCostModel(compliant.config, workload);

    sim::FleetDemand demand;
    demand.ratePerS = 4.0;
    demand.promptLen = sim::LengthDistribution::fixed(512);
    demand.outputLen = sim::LengthDistribution::fixed(128);
    demand.horizonS = 180.0;
    demand.seed = 2026;

    serve::PercentileSlo slo;
    slo.ttftP99MaxS = 5.0;
    slo.tbtP99MaxS = 0.200;

    struct Fleet
    {
        std::string label;
        const sim::IterationCostModel *prefill;
        const sim::IterationCostModel *decode;
        double prefillHourly;
        double decodeHourly;
    };
    const std::vector<Fleet> fleets = {
        {"modeled A100 (sanctioned)", &a100_cost, &a100_cost,
         replicaHourlyUsd(a100, tp), replicaHourlyUsd(a100, tp)},
        {"modeled H20-style (export grade)", &h20_cost, &h20_cost,
         replicaHourlyUsd(h20, tp), replicaHourlyUsd(h20, tp)},
        {"compliant 2400 TPP + H20 decode", &compliant_cost,
         &h20_cost, replicaHourlyUsd(compliant, tp),
         replicaHourlyUsd(h20, tp)},
    };

    Table t({"fleet", "mono_replicas", "mono_devices",
             "mono_usd_per_mtok", "disagg_prefill", "disagg_decode",
             "disagg_devices", "device_ratio", "disagg_usd_per_mtok",
             "disagg_ttft_p99_s", "disagg_tbt_p99_ms", "note"});

    // Each fleet sizing is an independent pair of searches; run them
    // concurrently into index-addressed row slots and emit the rows
    // in fleet order, so the table (and CSV) bytes never depend on
    // scheduling.
    std::vector<std::vector<std::string>> rows(fleets.size());
    common::ThreadPool::shared().parallelFor(
        fleets.size(),
        [&](std::size_t i) {
            const Fleet &f = fleets[i];
            sim::DisaggPoolSpec prefill;
            prefill.cost = f.prefill;
            prefill.hourlyCostUsdPerReplica = f.prefillHourly;
            sim::DisaggPoolSpec decode;
            decode.cost = f.decode;
            decode.hourlyCostUsdPerReplica = f.decodeHourly;

            const serve::DisaggPercentilePlan plan =
                serve::planDisaggFleetPercentile(
                    prefill, decode, sim::KvTransferConfig{}, demand,
                    slo, 512);

            const double mono_usd = econ::usdPerMillionTokens(
                plan.monolithic.replicas * f.prefillHourly,
                plan.monolithic.aggregate.goodputTokensPerS(
                    slo.targets()));
            const auto &agg = plan.disagg.aggregate;
            rows[i] =
                {f.label,
                 plan.monolithic.feasible
                     ? std::to_string(plan.monolithic.replicas)
                     : "infeasible",
                 std::to_string(plan.monolithic.devices),
                 plan.monolithic.feasible ? fmt(mono_usd, 2) : "-",
                 plan.disagg.feasible
                     ? std::to_string(plan.disagg.prefillReplicas)
                     : "infeasible",
                 std::to_string(plan.disagg.decodeReplicas),
                 std::to_string(plan.disagg.devices),
                 plan.deviceRatio() > 0.0 ? fmt(plan.deviceRatio(), 2)
                                          : "-",
                 plan.disagg.feasible
                     ? fmt(agg.usdPerMillionGoodTokens(), 2)
                     : "-",
                 fmt(agg.ttftPercentileS(slo.percentile), 4),
                 fmt(units::toMs(agg.tbtPercentileS(slo.percentile)),
                     2),
                 ""};
        },
        1);
    for (const auto &row : rows)
        t.addRow(row);

    // -- built-in sanity row -------------------------------------------
    // A batch-1 schedule (requests spaced far beyond their service
    // time) through an A100 prefill + A100 decode cluster with the
    // zero-cost transfer must reproduce the monolithic replica's
    // latencies bit for bit: the migration machinery adds exactly
    // 0.0 seconds, and the per-member arithmetic is the replica's.
    const std::vector<sim::TraceRequest> schedule = {
        {0.0, 512, 32}, {1000.0, 512, 32}, {2000.0, 512, 32}};
    const auto mono_trace =
        sim::TraceWorkload::fixedSchedule(schedule);
    const sim::ReplicaMetrics mono = sim::simulateReplica(
        a100_cost, sim::SchedulerConfig{}, *mono_trace);

    sim::ClusterConfig ccfg;
    ccfg.pools.resize(2);
    ccfg.pools[0].name = "prefill";
    ccfg.pools[0].role = sim::PoolRole::PREFILL;
    ccfg.pools[0].cost = &a100_cost;
    ccfg.pools[1].name = "decode";
    ccfg.pools[1].role = sim::PoolRole::DECODE;
    ccfg.pools[1].cost = &a100_cost;
    ccfg.kvTransfer = sim::KvTransferConfig::free();
    const auto disagg_trace =
        sim::TraceWorkload::fixedSchedule(schedule);
    const sim::ClusterMetrics disagg =
        sim::simulateCluster(ccfg, *disagg_trace);

    const bool exact =
        mono.ttft().meanS == disagg.aggregate.ttft().meanS &&
        mono.ttft().p99S == disagg.aggregate.ttft().p99S &&
        mono.tbt().meanS == disagg.aggregate.tbt().meanS &&
        mono.tbt().p99S == disagg.aggregate.tbt().p99S;
    t.addRow({"sanity: A100 disagg, zero-cost KV (batch-1)", "1",
              std::to_string(tp), "-", "1", "1",
              std::to_string(2 * tp), "-", "-",
              fmt(disagg.aggregate.ttft().p99S, 4),
              fmt(units::toMs(disagg.aggregate.tbt().p99S), 2),
              exact ? "bit-exact vs monolithic"
                    : "MISMATCH vs monolithic"});
    fatalIf(!exact, "zero-cost disaggregation diverged from the "
                    "monolithic replica (determinism regression)");

    t.print(std::cout);
    bench::writeCsv("ext_disagg_tax", t);

    std::cout
        << "\nShape: bought monolithically, the compliant design "
           "pays the full sanctions tax — its TPP-capped prefill "
           "sets the fleet size. Disaggregation concentrates that "
           "penalty in the prefill pool and lets decode ride on "
           "unregulated bandwidth, so the tax shrinks toward the "
           "KV-transfer cost; the A100 rows price the same split "
           "without sanctions as the control.\n";
    return 0;
}
