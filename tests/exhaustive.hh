/**
 * @file
 * Test helper: evaluate every point of a sweep space through
 * DesignEvaluator::evaluatePlanIndices and reduce the samples to the
 * tallies and argmins the DSE tests compare against.
 */

#ifndef ACS_TESTS_EXHAUSTIVE_HH
#define ACS_TESTS_EXHAUSTIVE_HH

#include <cstddef>
#include <numeric>
#include <optional>
#include <vector>

#include "dse/evaluate.hh"
#include "dse/sweep.hh"

namespace acs {
namespace dse {

/** Every point of a space, evaluated, plus its reductions. */
struct Exhaustive
{
    std::vector<PointSample> samples;   //!< indexed by plan index
    std::size_t kept = 0;               //!< points passing the predicate
    std::size_t underReticle = 0;       //!< kept && underReticle
    std::size_t oct2023Unregulated = 0; //!< kept && oct2023Unregulated

    /**
     * Plan indices of the kept min-TTFT and min-TBT points. Ties go to
     * the lower index, as std::min_element over space.generate().
     */
    std::optional<std::size_t> bestTtft;
    std::optional<std::size_t> bestTbt;
};

inline Exhaustive
evaluateExhaustive(const DesignEvaluator &evaluator, const SweepSpace &space,
                   const DesignEvaluator::StreamPredicate &predicate = nullptr,
                   unsigned threads = 0)
{
    const SweepPlan plan(space);
    std::vector<std::size_t> indices(plan.pointCount());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    Exhaustive ex;
    ex.samples.resize(indices.size());
    evaluator.evaluatePlanIndices(plan, indices.data(), indices.size(),
                                  predicate, ex.samples.data(), threads);
    for (std::size_t i = 0; i < ex.samples.size(); ++i) {
        const PointSample &s = ex.samples[i];
        if (!s.kept)
            continue;
        ++ex.kept;
        ex.underReticle += s.underReticle;
        ex.oct2023Unregulated += s.oct2023Unregulated;
        if (!ex.bestTtft || s.ttftS < ex.samples[*ex.bestTtft].ttftS)
            ex.bestTtft = i;
        if (!ex.bestTbt || s.tbtS < ex.samples[*ex.bestTbt].tbtS)
            ex.bestTbt = i;
    }
    return ex;
}

} // namespace dse
} // namespace acs

#endif // ACS_TESTS_EXHAUSTIVE_HH
