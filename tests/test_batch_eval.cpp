/**
 * @file
 * Bit-identity pinning of the SoA batch kernels (perf/batch_eval.hh)
 * against the scalar op models: every lane of a batched evaluation
 * must reproduce the scalar MatmulModel/VectorModel/CommModel result
 * exactly (EXPECT_DOUBLE_EQ) across the fig06 design space and the
 * real op shapes of the paper's workloads, under every ANALYTIC-mode
 * params variation. TILE_SIM does not support batching; the sweep
 * drivers must keep producing identical results there too (scalar
 * fallback). The end-to-end tests pin evaluatePlanIndices to
 * evaluateAll in both modes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hh"
#include "core/study.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"
#include "exhaustive.hh"
#include "perf/batch_eval.hh"
#include "perf/comm_model.hh"
#include "perf/matmul_model.hh"
#include "perf/vector_model.hh"

namespace acs {
namespace perf {
namespace {

/** The fig06 space (Table 3 at TPP 4800, one device bandwidth). */
dse::SweepSpace
fig06Space()
{
    return dse::table3Space(4800.0, {600.0 * units::GBPS});
}

/** Per-op scalar-vs-batch comparison over every fig06 design. */
void
expectBatchMatchesScalar(const core::Workload &w, const PerfParams &params)
{
    const dse::SweepSpace space = fig06Space();
    const std::vector<hw::HardwareConfig> cfgs = space.generate();
    ASSERT_FALSE(cfgs.empty());

    DesignBatch batch;
    batch.reserve(cfgs.size());
    for (const hw::HardwareConfig &cfg : cfgs)
        batch.push(cfg);

    const dse::DesignEvaluator evaluator(w.model, w.setting, w.system,
                                         params);
    std::vector<double> out(cfgs.size());
    for (const model::LayerGraph *graph :
         {&evaluator.prefillGraph(), &evaluator.decodeGraph()}) {
        for (const model::Op &op : graph->ops) {
            switch (op.kind) {
              case model::OpKind::MATMUL:
                batchMatmulTotalS(batch, op, params, out.data());
                for (std::size_t i = 0; i < cfgs.size(); ++i) {
                    const MatmulModel scalar(cfgs[i], params);
                    EXPECT_DOUBLE_EQ(out[i], scalar.time(op).totalS)
                        << op.name << " design " << i;
                }
                break;
              case model::OpKind::VECTOR:
                batchVectorTotalS(batch, op, params, out.data());
                for (std::size_t i = 0; i < cfgs.size(); ++i) {
                    const VectorModel scalar(cfgs[i], params);
                    EXPECT_DOUBLE_EQ(out[i], scalar.time(op).totalS)
                        << op.name << " design " << i;
                }
                break;
              case model::OpKind::ALLREDUCE:
                batchAllreduceTotalS(batch, op,
                                     w.system.tensorParallel, params,
                                     out.data());
                for (std::size_t i = 0; i < cfgs.size(); ++i) {
                    const CommModel scalar(cfgs[i], params);
                    EXPECT_DOUBLE_EQ(
                        out[i],
                        scalar.time(op, w.system.tensorParallel).totalS)
                        << op.name << " design " << i;
                }
                break;
            }
        }
    }
}

TEST(BatchEval, MatchesScalarModelsDefaultParams)
{
    expectBatchMatchesScalar(core::gpt3Workload(), PerfParams{});
}

TEST(BatchEval, MatchesScalarModelsSingleDevice)
{
    // TP=1: the allreduce kernel's degenerate zero-fill path.
    expectBatchMatchesScalar(core::llamaWorkload(), PerfParams{});
    core::Workload w = core::llamaWorkload();
    w.system.tensorParallel = 1;
    expectBatchMatchesScalar(w, PerfParams{});
}

TEST(BatchEval, MatchesScalarModelsAblations)
{
    // Every modeling switch the ANALYTIC kernels branch on.
    PerfParams p;
    p.modelTiling = false;
    expectBatchMatchesScalar(core::gpt3Workload(), p);

    p = PerfParams{};
    p.modelL2Blocking = false;
    expectBatchMatchesScalar(core::gpt3Workload(), p);

    p = PerfParams{};
    p.modelPipelineFill = false;
    expectBatchMatchesScalar(core::gpt3Workload(), p);

    p = PerfParams{};
    p.modelMultiPassVector = true;
    expectBatchMatchesScalar(core::gpt3Workload(), p);
}

/**
 * End to end: evaluatePlanIndices over every fig06 design — the SoA
 * batch kernel under ANALYTIC, the scalar path with a call-scoped
 * GemmCache under TILE_SIM — must match evaluateAll, one
 * InferenceSimulator per design, bit for bit and design by design.
 */
void
expectPlanIndicesMatchEvaluateAll(const core::Workload &w,
                                  const PerfParams &params)
{
    const dse::SweepSpace space = fig06Space();
    const dse::DesignEvaluator evaluator(w.model, w.setting, w.system,
                                         params);
    const std::vector<dse::EvaluatedDesign> scalar =
        evaluator.evaluateAll(space.generate());
    const dse::Exhaustive ex = dse::evaluateExhaustive(evaluator, space);
    ASSERT_EQ(ex.samples.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        const dse::PointSample &s = ex.samples[i];
        const dse::EvaluatedDesign &d = scalar[i];
        EXPECT_EQ(s.ttftS, d.ttftS) << d.config.name;
        EXPECT_EQ(s.tbtS, d.tbtS) << d.config.name;
        EXPECT_EQ(s.underReticle, d.underReticle) << d.config.name;
        EXPECT_EQ(s.oct2023Unregulated,
                  policy::Oct2023Rule::classify(d.toSpec()) ==
                      policy::Classification::NOT_APPLICABLE)
            << d.config.name;
    }
}

TEST(BatchEval, PlanIndicesMatchEvaluateAllOnFig06)
{
    for (const core::Workload &w :
         {core::gpt3Workload(), core::llamaWorkload()})
        expectPlanIndicesMatchEvaluateAll(w, PerfParams{});
}

TEST(BatchEval, PlanIndicesMatchEvaluateAllTileSim)
{
    PerfParams p;
    p.gemmMode = GemmMode::TILE_SIM;
    expectPlanIndicesMatchEvaluateAll(core::gpt3Workload(), p);
}

} // namespace
} // namespace perf
} // namespace acs
