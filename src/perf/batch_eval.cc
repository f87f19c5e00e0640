#include "batch_eval.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace acs {
namespace perf {

namespace {

// FP16 element size — must match matmul_model.cc's constant.
constexpr double ELEM_BYTES = 2.0;

double
ceilDiv(double a, double b)
{
    return std::ceil(a / b);
}

long
ceilDivL(long a, long b)
{
    return (a + b - 1) / b;
}

/** Op-shape equality on the fields the models read (OpShapeMemo's). */
bool
sameShape(const model::Op &a, const model::Op &b)
{
    return a.kind == b.kind && a.flops == b.flops &&
           a.weightBytes == b.weightBytes &&
           a.inputBytes == b.inputBytes &&
           a.outputBytes == b.outputBytes && a.commBytes == b.commBytes &&
           a.memoryPasses == b.memoryPasses && a.mm.m == b.mm.m &&
           a.mm.n == b.mm.n && a.mm.k == b.mm.k &&
           a.mm.batchCount == b.mm.batchCount &&
           a.mm.weightStationary == b.mm.weightStationary;
}

} // anonymous namespace

void
DesignBatch::clear()
{
    clockHz.clear();
    l1BytesPerLane.clear();
    l2Bytes.clear();
    memBandwidth.clear();
    deviceBandwidth.clear();
    peakTensorFlops.clear();
    peakVectorFlops.clear();
    systolicFpus.clear();
    arraysD.clear();
    arraysL.clear();
    systolicDimX.clear();
    systolicDimY.clear();
    lanesPerCore.clear();
}

void
DesignBatch::reserve(std::size_t n)
{
    clockHz.reserve(n);
    l1BytesPerLane.reserve(n);
    l2Bytes.reserve(n);
    memBandwidth.reserve(n);
    deviceBandwidth.reserve(n);
    peakTensorFlops.reserve(n);
    peakVectorFlops.reserve(n);
    systolicFpus.reserve(n);
    arraysD.reserve(n);
    arraysL.reserve(n);
    systolicDimX.reserve(n);
    systolicDimY.reserve(n);
    lanesPerCore.reserve(n);
}

void
DesignBatch::push(const hw::HardwareConfig &cfg)
{
    // Derived quantities use the config's own accessors so every lane
    // starts from the exact doubles the scalar models start from.
    clockHz.push_back(cfg.clockHz);
    l1BytesPerLane.push_back(cfg.l1BytesPerLane());
    l2Bytes.push_back(cfg.l2Bytes);
    memBandwidth.push_back(cfg.memBandwidth);
    deviceBandwidth.push_back(cfg.deviceBandwidth());
    peakTensorFlops.push_back(cfg.peakTensorTops() * 1e12);
    peakVectorFlops.push_back(cfg.peakVectorFlops());
    systolicFpus.push_back(static_cast<double>(cfg.totalSystolicFpus()));
    arraysD.push_back(cfg.totalSystolicArrays());
    arraysL.push_back(cfg.totalSystolicArrays());
    systolicDimX.push_back(cfg.systolicDimX);
    systolicDimY.push_back(cfg.systolicDimY);
    lanesPerCore.push_back(cfg.lanesPerCore);
}

void
batchMatmulTotalS(const DesignBatch &batch, const model::Op &op,
                  const PerfParams &params, double *out)
{
    if (op.kind != model::OpKind::MATMUL)
        fatal("batchMatmulTotalS requires a MATMUL op: " + op.name);
    const auto &mm = op.mm;
    if (mm.m < 1 || mm.n < 1 || mm.k < 1 || mm.batchCount < 1)
        fatal("batchMatmulTotalS: degenerate GEMM dims in " + op.name);

    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) {
        // ---- Tiling (mirrors chooseTiles) ---------------------------
        long tile = 256;
        if (params.modelTiling) {
            const double budget_elems = batch.l1BytesPerLane[i] *
                                        params.l1TileFraction /
                                        ELEM_BYTES;
            tile = static_cast<long>(std::floor(
                std::sqrt(std::max(1.0, budget_elems / 3.0))));
            tile = std::max<long>(tile, 1);
        }
        long tile_m = std::min<long>(tile, mm.m);
        long tile_n = std::min<long>(
            std::max<long>(tile, batch.systolicDimY[i]), mm.n);
        const long dim_y = batch.systolicDimY[i];
        if (tile_n > dim_y) {
            const long arrays = batch.arraysL[i];
            const long row_tiles = static_cast<long>(mm.batchCount) *
                                   ceilDivL(mm.m, tile_m);
            if (row_tiles * ceilDivL(mm.n, tile_n) < arrays) {
                const long need_cols = ceilDivL(arrays, row_tiles);
                const long t_max =
                    (mm.n + need_cols - 2) / (need_cols - 1) - 1;
                const long target = std::max(t_max, dim_y);
                if (tile_n > target) {
                    const int shift =
                        std::bit_width(static_cast<unsigned long long>(
                            tile_n / (target + 1)));
                    tile_n >>= shift;
                }
                tile_n = std::max(tile_n, dim_y);
            }
        }

        // ---- Compute time (mirrors MatmulModel::time) ---------------
        double pipe_util = 1.0;
        if (params.modelPipelineFill) {
            const double exposed_fill =
                (1.0 - params.pipelineFillOverlap) *
                (batch.systolicDimX[i] + batch.systolicDimY[i]);
            pipe_util =
                static_cast<double>(tile_m) / (tile_m + exposed_fill);
        }
        const double arrays = batch.arraysD[i];
        const double tiles =
            static_cast<double>(mm.batchCount) *
            ceilDiv(static_cast<double>(mm.m), tile_m) *
            ceilDiv(static_cast<double>(mm.n), tile_n);
        const double tile_util =
            tiles / (ceilDiv(tiles, arrays) * arrays);
        const double utilization = pipe_util * tile_util;
        const double peak_flops = batch.peakTensorFlops[i];
        const double compute_s = op.flops / (peak_flops * utilization);

        // ---- HBM time (mirrors blockedHbmTraffic) -------------------
        double hbm_traffic;
        if (!mm.weightStationary || !params.modelL2Blocking) {
            hbm_traffic =
                op.weightBytes + op.inputBytes + op.outputBytes;
        } else {
            const double budget =
                batch.l2Bytes[i] * params.l2BlockingFraction;
            const double k_bytes =
                static_cast<double>(mm.k) * ELEM_BYTES;
            const double panel_rows =
                std::max(1.0, std::floor(budget / k_bytes));
            const double passes_b =
                ceilDiv(static_cast<double>(mm.m), panel_rows);
            const double passes_a =
                ceilDiv(static_cast<double>(mm.n), panel_rows);
            const double strat_a_resident =
                op.inputBytes + op.weightBytes * passes_b;
            const double strat_b_resident =
                op.weightBytes + op.inputBytes * passes_a;
            hbm_traffic = std::min(strat_a_resident, strat_b_resident) +
                          op.outputBytes;
        }
        const double hbm_s =
            hbm_traffic / (batch.memBandwidth[i] * params.memEfficiency);

        // ---- Global-buffer time -------------------------------------
        const double k_elems = static_cast<double>(mm.k);
        const double l2_traffic =
            static_cast<double>(mm.batchCount) *
                (ceilDiv(static_cast<double>(mm.n), tile_n) *
                     static_cast<double>(mm.m) * k_elems +
                 ceilDiv(static_cast<double>(mm.m),
                         static_cast<double>(batch.lanesPerCore[i]) *
                             tile_m) *
                     static_cast<double>(mm.n) * k_elems) *
                ELEM_BYTES +
            op.outputBytes;
        const double gbuf_bw = params.l2BytesPerCyclePerFpu *
                               batch.systolicFpus[i] * batch.clockHz[i];
        const double gbuf_s =
            l2_traffic / (gbuf_bw * params.l2Efficiency);

        out[i] = std::max({compute_s, hbm_s, gbuf_s}) +
                 params.kernelOverheadS;
    }
}

void
batchVectorTotalS(const DesignBatch &batch, const model::Op &op,
                  const PerfParams &params, double *out)
{
    if (op.kind != model::OpKind::VECTOR)
        fatal("batchVectorTotalS requires a VECTOR op: " + op.name);

    const int passes =
        params.modelMultiPassVector ? std::max(1, op.memoryPasses) : 1;
    const double bytes = op.inputBytes * passes + op.outputBytes;
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double compute_s = op.flops / batch.peakVectorFlops[i];
        const bool served_by_gbuf =
            bytes <= batch.l2Bytes[i] * params.l2BlockingFraction;
        const double gbuf_bw = params.l2BytesPerCyclePerFpu *
                               batch.systolicFpus[i] * batch.clockHz[i];
        const double bw =
            served_by_gbuf
                ? gbuf_bw * params.l2Efficiency
                : batch.memBandwidth[i] * params.memEfficiency;
        const double memory_s = bytes / bw;
        out[i] = std::max(compute_s, memory_s) + params.kernelOverheadS;
    }
}

void
batchAllreduceTotalS(const DesignBatch &batch, const model::Op &op,
                     int tensor_parallel, const PerfParams &params,
                     double *out)
{
    if (op.kind != model::OpKind::ALLREDUCE)
        fatal("batchAllreduceTotalS requires an ALLREDUCE op: " +
              op.name);
    fatalIf(tensor_parallel < 1,
            "batchAllreduceTotalS: tensor_parallel must be >= 1");

    const std::size_t n = batch.size();
    if (tensor_parallel == 1) {
        std::fill(out, out + n, 0.0);
        return;
    }
    const double p = tensor_parallel;
    const double volume = 2.0 * (p - 1.0) / p * op.commBytes;
    const double latency_s =
        2.0 * (p - 1.0) * params.allreduceStepLatencyS;
    for (std::size_t i = 0; i < n; ++i) {
        fatalIf(batch.deviceBandwidth[i] <= 0.0,
                "allreduce on a device with no interconnect");
        const double link_bw = batch.deviceBandwidth[i] / 2.0 *
                               params.interconnectEfficiency;
        out[i] = volume / link_bw + latency_s;
    }
}

const std::vector<double> *
BatchEvaluator::findMemo(const model::Op &op) const
{
    for (const MemoEntry &e : memo_) {
        if (sameShape(e.op, op))
            return &e.latencyS;
    }
    return nullptr;
}

void
BatchEvaluator::layerLatency(const model::LayerGraph &graph,
                             int tensor_parallel,
                             const DesignBatch &batch, double *out)
{
    fatalIf(tensor_parallel < 1,
            "BatchEvaluator: tensor_parallel must be >= 1");
    const std::size_t n = batch.size();
    scratch_.resize(n);
    for (const model::Op &op : graph.ops) {
        const std::vector<double> *hit = findMemo(op);
        const double *lat;
        if (hit) {
            lat = hit->data();
        } else {
            switch (op.kind) {
              case model::OpKind::MATMUL:
                batchMatmulTotalS(batch, op, params_, scratch_.data());
                break;
              case model::OpKind::VECTOR:
                batchVectorTotalS(batch, op, params_, scratch_.data());
                break;
              case model::OpKind::ALLREDUCE:
                batchAllreduceTotalS(batch, op, tensor_parallel,
                                     params_, scratch_.data());
                break;
            }
            lat = scratch_.data();
            memo_.push_back({op, scratch_});
        }
        // Accumulate in graph order: same adds, same order as the
        // scalar `result.latencyS += timing.latencyS` fold.
        for (std::size_t i = 0; i < n; ++i)
            out[i] += lat[i];
    }
    if (obs::enabled())
        obs::counterAdd("dse.batch.ops", graph.ops.size() * n);
}

} // namespace perf
} // namespace acs
