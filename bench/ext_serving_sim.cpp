/**
 * @file
 * Extension bench: request-level latency under load, simulated.
 *
 * The closed-form serving arithmetic (ext_serving_tax) prices the
 * sanctions tax at the mean; this bench prices it at the tail. For
 * the modeled A100, the modeled H100, and the best Oct-2023-compliant
 * 2400-TPP design, drive one tensor-parallel replica with an open-loop
 * Poisson stream at increasing offered loads and record the simulated
 * TTFT/TBT percentiles, SLO attainment, and goodput — the
 * latency-vs-load curves steady-state throughput numbers cannot
 * produce. Deterministic: re-running writes byte-identical CSV.
 *
 * The candidate x rate grid fans out over common::ThreadPool — every
 * cell is an independent core::servingPointAt call against its
 * candidate's shared cost model — and rows are emitted in flattened
 * index order, so the CSV is byte-identical for every ACS_THREADS
 * value and to the pre-parallel serial loop.
 */

#include "bench_util.hh"

#include <memory>

#include "common/thread_pool.hh"

using namespace acs;

int
main(int argc, char **argv)
{
    bench::header("Extension: serving simulation",
                  "Latency-vs-load percentile curves, sanctioned vs "
                  "compliant hardware");
    bench::initObs(argc, argv);

    const core::SanctionsStudy study(
        bench::perfParamsFromArgs(argc, argv));
    // Llama-3 70B on 4 devices: the largest standard workload whose
    // weights fit an 80 GB device at TP=4 with KV headroom (GPT-3
    // 175B needs 87.5 GB/device — the simulator's memory accounting
    // rejects it, unlike the closed-form path).
    core::Workload workload = core::workloadByName("llama70b");
    workload.setting.batch = 32; // reference batch for the cost model

    struct Candidate
    {
        std::string label;
        hw::HardwareConfig config;
    };
    std::vector<Candidate> candidates;
    candidates.push_back({"modeled A100", hw::modeledA100()});
    candidates.push_back({"modeled H100", hw::modeledH100()});

    const auto compliant = dse::filterOct2023Unregulated(
        dse::filterReticle(study.runSweep(
            dse::table3Space(2400.0, {500.0 * units::GBPS,
                                      700.0 * units::GBPS,
                                      900.0 * units::GBPS}),
            workload)));
    if (!compliant.empty()) {
        candidates.push_back({"best compliant 2400 TPP",
                              dse::minTbt(compliant).config});
    }

    core::ServingStudyConfig scfg;
    scfg.ratesPerS = {0.25, 0.5, 1.0, 2.0, 4.0};
    scfg.promptLen = sim::LengthDistribution::fixed(512);
    scfg.outputLen = sim::LengthDistribution::uniform(64, 192, 32);
    scfg.horizonS = 300.0;
    scfg.seed = 2026;
    scfg.slo.ttftP99MaxS = 5.0;
    scfg.slo.tbtP99MaxS = 0.300;

    // One shared cost model per candidate: every cell of its row
    // block hits the same read-mostly memo. Heap-held because the
    // model is neither copyable nor movable (it owns a mutex).
    std::vector<std::unique_ptr<sim::IterationCostModel>> costs;
    costs.reserve(candidates.size());
    for (const auto &c : candidates)
        costs.emplace_back(new sim::IterationCostModel(
            study.makeCostModel(c.config, workload)));

    // Flatten the candidate x rate grid into index-addressed cells;
    // collecting them in flattened order below keeps the CSV
    // byte-identical regardless of which worker ran which cell.
    const std::size_t rates = scfg.ratesPerS.size();
    std::vector<core::ServingStudyPoint> cells(candidates.size() *
                                               rates);
    common::ThreadPool::shared().parallelFor(
        cells.size(),
        [&](std::size_t i) {
            cells[i] = core::servingPointAt(
                *costs[i / rates], scfg, scfg.ratesPerS[i % rates]);
        },
        1);

    Table t({"device", "rate_per_s", "completed", "ttft_p50_s",
             "ttft_p95_s", "ttft_p99_s", "tbt_p50_ms", "tbt_p95_ms",
             "tbt_p99_ms", "attainment", "goodput_tok_s",
             "max_queue_depth"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const core::ServingStudyPoint &p = cells[i];
        t.addRow({candidates[i / rates].label, fmt(p.ratePerS, 2),
                  std::to_string(p.completed),
                  fmt(p.ttft.p50S, 4), fmt(p.ttft.p95S, 4),
                  fmt(p.ttft.p99S, 4),
                  fmt(units::toMs(p.tbt.p50S), 3),
                  fmt(units::toMs(p.tbt.p95S), 3),
                  fmt(units::toMs(p.tbt.p99S), 3),
                  fmt(p.attainment, 4),
                  fmt(p.goodputTokensPerS, 1),
                  std::to_string(p.maxQueueDepth)});
    }
    t.print(std::cout);
    bench::writeCsv("ext_serving_sim", t);

    std::cout << "\nShape: at light load every device meets the p99 "
                 "objectives and the curves sit at the analytical "
                 "TTFT/TBT floor. As offered load approaches each "
                 "replica's batched capacity, queueing and prefill "
                 "interference blow up the p99 long before the mean "
                 "moves — and the compliant design, whose prefill the "
                 "TPP cap binds, saturates first. That ordering is the "
                 "request-level sanctions tax.\n";
    return 0;
}
