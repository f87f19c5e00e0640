/**
 * @file
 * Cross-design memoization of simulated GEMM timings (TILE_SIM and
 * CYCLE_SIM; entries are keyed by mode through the params
 * fingerprint, so the two never alias).
 *
 * A DSE sweep is a cartesian product over architectural axes, and the
 * wave- or cycle-level GEMM simulation reads only a *projection* of a
 * design:
 * the interconnect axes (`deviceBandwidths`, per-PHY realization) and
 * memory capacity never touch die-local GEMM timing at all, and
 * several compute axes collapse under the TPP constraint (equal-TPP
 * designs share FPU count and therefore peak TOPS and global-buffer
 * bandwidth). Keying simulated timings by that projection — the
 * canonical GemmCacheKey — lets every design sharing it reuse one
 * simulation bit-for-bit across the whole sweep, which is what closes
 * most of the TILE_SIM-vs-analytic sweep-throughput gap (docs/PERF.md,
 * "Cross-design GEMM memoization").
 *
 * Scope and invalidation: a GemmCache is valid for exactly one set of
 * performance-model constants. The key embeds a fingerprint of every
 * PerfParams field the GEMM models read, so mixing params sets in one
 * cache cannot alias — entries from a stale params set simply stop
 * being hit. Sweep drivers (dse::DesignEvaluator) hoist one cache per
 * sweep by default; callers wanting reuse across sweeps (repeated
 * studies over overlapping spaces) install a longer-lived handle in
 * PerfParams::gemmCache themselves.
 */

#ifndef ACS_PERF_GEMM_CACHE_HH
#define ACS_PERF_GEMM_CACHE_HH

#include <cstdint>

#include "common/sharded_cache.hh"
#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/matmul_model.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/**
 * The canonical projection of (device, op, params) that determines a
 * TILE_SIM GEMM timing. Two designs with equal keys receive
 * bit-identical MatmulTiming results, so equality must cover — and
 * only cover — what MatmulModel::time and simulateGemmSummary read.
 *
 * Deliberately absent: devicePhyCount / perPhyBandwidth (interconnect
 * only), memCapacityBytes, process/package fields, the design *name*,
 * and coreCount/diesPerPackage individually (they matter only through
 * the totalSystolicArrays product, which is the canonical field).
 */
struct GemmCacheKey
{
    // --- Device projection -------------------------------------------
    std::int32_t dimX = 0;      //!< systolic array rows
    std::int32_t dimY = 0;      //!< systolic array columns
    std::int32_t lanes = 0;     //!< lanes sharing one L1 (B-slab reuse)
    std::int64_t arrays = 0;    //!< total systolic arrays (cores x lanes x dies)
    double clockHz = 0.0;
    double l1BytesPerLane = 0.0; //!< tiling budget (chooseTiles)
    /**
     * Global-buffer capacity, canonicalized to 0 when the op streams
     * both operands (attention GEMMs, or the no-blocking ablation): L2
     * size then never enters the timing, so designs differing only in
     * L2 share the entry.
     */
    double l2Bytes = 0.0;
    double memBandwidth = 0.0;

    // --- Op projection -----------------------------------------------
    std::int64_t m = 0, n = 0, k = 0, batch = 0;
    bool weightStationary = false;
    double flops = 0.0;
    double weightBytes = 0.0;
    double inputBytes = 0.0;
    double outputBytes = 0.0;

    // --- Model-constant fingerprint ----------------------------------
    /**
     * Hash of every PerfParams field the GEMM path reads (see
     * fingerprintGemmParams). Embedding it keys entries to their
     * params set, so one cache can never serve timings computed under
     * different constants.
     */
    std::uint64_t paramsFp = 0;

    bool operator==(const GemmCacheKey &other) const = default;
};

/** Hash functor for GemmCacheKey (FNV-1a over the raw fields). */
struct GemmCacheKeyHash
{
    std::size_t operator()(const GemmCacheKey &key) const;
};

/**
 * Fingerprint of the PerfParams fields that influence GEMM timing
 * (tiling fractions, efficiencies, overheads, modeling switches, the
 * GEMM mode and the CYCLE_SIM memory knobs). Stable within a process
 * run; not a serialization format.
 */
std::uint64_t fingerprintGemmParams(const PerfParams &params);

/**
 * Build the canonical key for timing @p op (kind == MATMUL) on
 * @p cfg. @p params_fp is the precomputed fingerprintGemmParams value
 * (MatmulModel computes it once at construction, not per op).
 */
GemmCacheKey makeGemmCacheKey(const hw::HardwareConfig &cfg,
                              const model::Op &op,
                              const PerfParams &params,
                              std::uint64_t params_fp);

/**
 * The sweep-scoped concurrent cache: canonical key to full
 * MatmulTiming. Thread-safe (lock-striped); values are pure functions
 * of their keys, so racing inserts are benign (first writer wins,
 * both carry identical bits).
 */
class GemmCache
    : public common::ShardedCache<GemmCacheKey, MatmulTiming,
                                  GemmCacheKeyHash>
{
  public:
    using common::ShardedCache<GemmCacheKey, MatmulTiming,
                               GemmCacheKeyHash>::ShardedCache;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_GEMM_CACHE_HH
