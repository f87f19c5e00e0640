#include "matmul_model.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "perf/cycle_sim.hh"
#include "perf/gemm_cache.hh"
#include "perf/tile_sim.hh"

namespace acs {
namespace perf {

namespace {

// FP16 element size; the tensor path the TPP definition regulates.
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

} // anonymous namespace

std::string
toString(Bound bound)
{
    switch (bound) {
      case Bound::COMPUTE:       return "compute";
      case Bound::HBM:           return "hbm";
      case Bound::GLOBAL_BUFFER: return "global-buffer";
      case Bound::INTERCONNECT:  return "interconnect";
    }
    panic("unknown Bound");
}

MatmulModel::MatmulModel(const hw::HardwareConfig &cfg,
                         const PerfParams &params)
    : cfg_(cfg), params_(params)
{
    cfg_.validate();
    // Hash the model constants once: with a GEMM cache installed
    // every time() call embeds this fingerprint in its key.
    if (params_.gemmCache)
        paramsFp_ = fingerprintGemmParams(params_);
}

TileChoice
chooseTiles(const hw::HardwareConfig &cfg, const model::MatmulShape &mm,
            const PerfParams &params)
{
    fatalIf(mm.m < 1 || mm.n < 1 || mm.k < 1 || mm.batchCount < 1,
            "chooseTiles: degenerate GEMM dims");

    // Per-lane local-buffer budget holds A tile (Tm x Tk), B tile
    // (Tk x Tn), and the C accumulator (Tm x Tn); double buffered. A
    // square Tm = Tn choice balances pipeline utilization and global-
    // buffer traffic. The no-tiling ablation ignores L1 capacity and
    // assumes a generous fixed kernel tile instead.
    long tile = 256;
    if (params.modelTiling) {
        const double budget_elems =
            cfg.l1BytesPerLane() * params.l1TileFraction / ELEM_BYTES;
        tile = static_cast<long>(std::floor(std::sqrt(
            std::max(1.0, budget_elems / 3.0))));
        tile = std::max<long>(tile, 1);
    }

    TileChoice choice;
    choice.tileM = std::min<long>(tile, mm.m);
    choice.tileN = std::min<long>(
        std::max<long>(tile, cfg.systolicDimY), mm.n);

    // Skinny GEMMs (decode): shrink the column tile toward one array
    // width so the tile count can cover all systolic arrays, as real
    // GEMM kernels do with reduced-N / split-N scheduling. The
    // historical halving cascade
    //   while (tiles() < arrays && tileN > DIMY)
    //       tileN = max(tileN / 2, DIMY);
    // has a closed form: tiles() is monotone in tileN, so the loop
    // stops at the first right-shift that lands at or below
    // max(t_max, DIMY), where t_max is the largest tileN still giving
    // >= arrays tiles. One bit_width computes that shift count.
    const long dim_y = cfg.systolicDimY;
    if (choice.tileN > dim_y) {
        const long arrays = cfg.totalSystolicArrays();
        const long row_tiles = static_cast<long>(mm.batchCount) *
                               ceilDivL(mm.m, choice.tileM);
        if (row_tiles * ceilDivL(mm.n, choice.tileN) < arrays) {
            // row_tiles < arrays here, so the needed column-tile count
            // K is >= 2 and t_max = ceil(n / (K - 1)) - 1 is well
            // defined (possibly 0 when no tileN reaches K columns).
            const long need_cols = ceilDivL(arrays, row_tiles);
            const long t_max = (mm.n + need_cols - 2) / (need_cols - 1) - 1;
            const long target = std::max(t_max, dim_y);
            long tile_n = choice.tileN;
            if (tile_n > target) {
                const int shift = std::bit_width(
                    static_cast<unsigned long long>(tile_n / (target + 1)));
                tile_n >>= shift;
            }
            choice.tileN = std::max(tile_n, dim_y);
        }
    }
    return choice;
}

double
blockedHbmTraffic(const hw::HardwareConfig &cfg, const model::Op &op,
                  const PerfParams &params)
{
    const auto &mm = op.mm;
    if (!mm.weightStationary || !params.modelL2Blocking) {
        // Attention GEMMs (and the no-blocking ablation) stream both
        // operands once.
        return op.weightBytes + op.inputBytes + op.outputBytes;
    }
    // Choose the better blocking orientation: keep a panel of one
    // operand resident in the global buffer and stream the other
    // operand once per panel.
    const double budget = cfg.l2Bytes * params.l2BlockingFraction;
    const double k_bytes = static_cast<double>(mm.k) * ELEM_BYTES;
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
    return std::min(strat_a_resident, strat_b_resident) +
           op.outputBytes;
}

double
MatmulModel::globalBufferBandwidth() const
{
    return globalBufferBandwidth(cfg_, params_);
}

double
MatmulModel::globalBufferBandwidth(const hw::HardwareConfig &cfg,
                                   const PerfParams &params)
{
    return params.l2BytesPerCyclePerFpu *
           static_cast<double>(cfg.totalSystolicFpus()) * cfg.clockHz;
}

MatmulTiming
MatmulModel::time(const model::Op &op) const
{
    // Messages only on the failure path: time() runs per op per
    // design in DSE sweeps, and eager concatenation is measurable.
    if (op.kind != model::OpKind::MATMUL)
        fatal("MatmulModel::time requires a MATMUL op: " + op.name);
    const auto &mm = op.mm;
    if (mm.m < 1 || mm.n < 1 || mm.k < 1 || mm.batchCount < 1)
        fatal("MatmulModel::time: degenerate GEMM dims in " + op.name);

    // Cross-design memoization (simulating modes only — the analytic
    // closed form is cheaper than a lookup): consult the sweep-scoped
    // cache before doing any modeling. Hits return the exact bits the
    // miss path stored, so cached and uncached sweeps are
    // byte-identical; the params fingerprint keys entries by mode, so
    // TILE_SIM and CYCLE_SIM timings never alias.
    GemmCache *const cache =
        params_.gemmMode != GemmMode::ANALYTIC ? params_.gemmCache
                                               : nullptr;
    GemmCacheKey cache_key;
    if (cache) {
        cache_key = makeGemmCacheKey(cfg_, op, params_, paramsFp_);
        MatmulTiming cached;
        if (cache->find(cache_key, &cached)) {
            if (obs::enabled()) {
                obs::counterAdd("perf.gemm_cache.hits");
                obs::counterAdd("perf.matmul.timed");
            }
            return cached;
        }
    }

    MatmulTiming t;

    const TileChoice tiles_choice = chooseTiles(cfg_, mm, params_);
    t.tileM = tiles_choice.tileM;
    t.tileN = tiles_choice.tileN;
    const double arrays_avail = cfg_.totalSystolicArrays();
    auto tile_count = [&]() {
        return static_cast<double>(mm.batchCount) *
               ceilDiv(static_cast<double>(mm.m), t.tileM) *
               ceilDiv(static_cast<double>(mm.n), t.tileN);
    };

    // ---- Compute time --------------------------------------------------
    // Pipeline-fill loss: each (k-slice, n-slice) wave streams tileM
    // rows through a DIMX x DIMY array and pays DIMX + DIMY cycles of
    // fill/drain.
    double pipe_util = 1.0;
    if (params_.modelPipelineFill) {
        const double exposed_fill =
            (1.0 - params_.pipelineFillOverlap) *
            (cfg_.systolicDimX + cfg_.systolicDimY);
        pipe_util = static_cast<double>(t.tileM) /
                    (t.tileM + exposed_fill);
    }

    // Work-distribution loss: the last wave of tiles may not fill all
    // systolic arrays.
    const double arrays = arrays_avail;
    const double tiles = tile_count();
    const double tile_util = tiles / (ceilDiv(tiles, arrays) * arrays);

    t.utilization = pipe_util * tile_util;
    const double peak_flops = cfg_.peakTensorTops() * 1e12;
    panicIf(peak_flops <= 0.0, "peak tensor throughput must be positive");
    t.computeS = op.flops / (peak_flops * t.utilization);

    const double hbm_traffic = blockedHbmTraffic(cfg_, op, params_);
    t.hbmTrafficBytes = hbm_traffic;
    t.hbmS = hbm_traffic / (cfg_.memBandwidth * params_.memEfficiency);

    // ---- Global-buffer traffic ------------------------------------------
    // Lanes within a core share the local buffer, so a core's lanes
    // process adjacent Tm-slices against a shared (k x Tn) B slab: A
    // re-reads once per column strip, B once per (lanes x Tm) row
    // group.
    const double k_elems = static_cast<double>(mm.k);
    const double l2_traffic =
        static_cast<double>(mm.batchCount) *
            (ceilDiv(static_cast<double>(mm.n), t.tileN) *
                 static_cast<double>(mm.m) * k_elems +
             ceilDiv(static_cast<double>(mm.m),
                     static_cast<double>(cfg_.lanesPerCore) * t.tileM) *
                 static_cast<double>(mm.n) * k_elems) *
            ELEM_BYTES +
        op.outputBytes;
    t.globalBufS = l2_traffic /
                   (globalBufferBandwidth() * params_.l2Efficiency);

    // ---- Roofline combination -------------------------------------------
    t.totalS = std::max({t.computeS, t.hbmS, t.globalBufS}) +
               params_.kernelOverheadS;
    // Attribute the bound by argmax over the component times directly
    // (ties prefer compute, then HBM) rather than reconstructing and
    // float-comparing totalS, which is brittle under FP rounding.
    if (t.computeS >= t.hbmS && t.computeS >= t.globalBufS)
        t.bound = Bound::COMPUTE;
    else if (t.hbmS >= t.globalBufS)
        t.bound = Bound::HBM;
    else
        t.bound = Bound::GLOBAL_BUFFER;

    if (obs::enabled())
        obs::counterAdd("perf.matmul.timed");

    // Detailed modes: take the latency from the explicit schedule —
    // wave-granular (TILE_SIM) or cycle-level (CYCLE_SIM) — while the
    // analytic decomposition above still labels the binding resource
    // and utilization. The summary paths skip trace materialization,
    // and the per-run op-shape memo (applied above this model in
    // InferenceSimulator::simulateLayer) caches simulated timings
    // exactly like analytic ones.
    if (params_.gemmMode != GemmMode::ANALYTIC) {
        t.totalS = params_.gemmMode == GemmMode::TILE_SIM
                       ? simulateGemmSummary(cfg_, op, params_).totalS
                       : simulateGemmCycles(cfg_, op, params_).totalS;
        if (cache) {
            cache->insert(cache_key, t);
            if (obs::enabled())
                obs::counterAdd("perf.gemm_cache.misses");
        }
    }
    return t;
}

} // namespace perf
} // namespace acs
