/**
 * @file
 * SoA batch evaluation of the analytic performance model.
 *
 * The scalar path (InferenceSimulator -> MatmulModel/VectorModel/
 * CommModel) evaluates one design at a time: every op re-loads the
 * same shape constants and branches per design. At streaming-DSE
 * rates the model arithmetic itself becomes the hot path, and its
 * structure is embarrassingly data-parallel across designs — the op
 * shapes are shared by construction (one layer graph per sweep), only
 * the hardware parameters vary. This file restructures that hot path
 * into structure-of-arrays kernels: one call times one operator for N
 * designs with contiguous, branch-light, auto-vectorizable inner
 * loops.
 *
 * Bit-identity contract: every kernel mirrors its scalar model
 * expression for expression, in the same evaluation order, so each
 * lane's result is the exact double the scalar model produces
 * (tests/test_batch_eval.cpp pins this with EXPECT_DOUBLE_EQ across
 * the fig06 op shapes). ANALYTIC mode only — TILE_SIM latencies come
 * from the wave scheduler, which is per-design by nature and already
 * served by perf::GemmCache.
 */

#ifndef ACS_PERF_BATCH_EVAL_HH
#define ACS_PERF_BATCH_EVAL_HH

#include <cstddef>
#include <vector>

#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/**
 * Structure-of-arrays view of N hardware designs: exactly the derived
 * quantities the analytic op models consume, precomputed once per
 * design at push() with the same expressions the scalar models use
 * (so downstream arithmetic sees identical doubles).
 */
struct DesignBatch
{
    std::vector<double> clockHz;
    std::vector<double> l1BytesPerLane;    //!< cfg.l1BytesPerLane()
    std::vector<double> l2Bytes;
    std::vector<double> memBandwidth;
    std::vector<double> deviceBandwidth;   //!< cfg.deviceBandwidth()
    std::vector<double> peakTensorFlops;   //!< cfg.peakTensorTops()*1e12
    std::vector<double> peakVectorFlops;   //!< cfg.peakVectorFlops()
    std::vector<double> systolicFpus;      //!< cfg.totalSystolicFpus()
    std::vector<double> arraysD;           //!< totalSystolicArrays()
    std::vector<long> arraysL;             //!< same, integer form
    std::vector<long> systolicDimX;
    std::vector<long> systolicDimY;
    std::vector<long> lanesPerCore;

    std::size_t size() const { return clockHz.size(); }
    void clear();
    void reserve(std::size_t n);

    /** Append one design (validated by the caller, as plan.point does). */
    void push(const hw::HardwareConfig &cfg);
};

/**
 * Time one MATMUL op for every design in @p batch (ANALYTIC roofline;
 * mirrors MatmulModel::time minus the TILE_SIM branch).
 *
 * @param out totalS per design, length batch.size().
 */
void batchMatmulTotalS(const DesignBatch &batch, const model::Op &op,
                       const PerfParams &params, double *out);

/** Time one VECTOR op for every design (mirrors VectorModel::time). */
void batchVectorTotalS(const DesignBatch &batch, const model::Op &op,
                       const PerfParams &params, double *out);

/**
 * Time one ALLREDUCE op for every design (mirrors CommModel::time).
 * Zero at tensor_parallel == 1; fatal on a zero-interconnect design
 * otherwise, like the scalar model.
 */
void batchAllreduceTotalS(const DesignBatch &batch, const model::Op &op,
                          int tensor_parallel, const PerfParams &params,
                          double *out);

/**
 * Batched counterpart of InferenceSimulator::simulateLayer +
 * OpShapeMemo: sums per-op latencies of a layer graph across N
 * designs, memoizing repeated op shapes so a shape repeated within
 * one evaluation is timed once per batch.
 *
 * Usage per design chunk: reset(), then one layerLatency call per
 * graph (prefill, decode) — the memo spans the calls exactly like the
 * scalar per-run OpShapeMemo spans both phases of one
 * InferenceSimulator::run.
 *
 * Not thread-safe; sweep workers keep one evaluator each.
 */
class BatchEvaluator
{
  public:
    explicit BatchEvaluator(const PerfParams &params) : params_(params) {}

    /** Drop memoized shapes (call when the batch contents change). */
    void reset() { memo_.clear(); }

    /**
     * Accumulate the summed op latency of @p graph into @p out:
     * out[i] += latency of each op in graph order, for every design i
     * of @p batch. The caller zeroes @p out first; the += order
     * matches the scalar `result.latencyS += timing.latencyS` fold,
     * so the final sums are bit-identical to InferenceSimulator's.
     */
    void layerLatency(const model::LayerGraph &graph, int tensor_parallel,
                      const DesignBatch &batch, double *out);

  private:
    struct MemoEntry
    {
        model::Op op; //!< key fields only; the name is ignored
        std::vector<double> latencyS;
    };

    const std::vector<double> *findMemo(const model::Op &op) const;

    PerfParams params_;
    std::vector<MemoEntry> memo_;
    std::vector<double> scratch_;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_BATCH_EVAL_HH
