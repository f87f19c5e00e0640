#include "workload.hh"

#include <cmath>

#include "common/logging.hh"

namespace acs {
namespace sim {

LengthDistribution
LengthDistribution::fixed(int len)
{
    LengthDistribution d;
    d.kind = Kind::FIXED;
    d.fixedLen = len;
    d.validate();
    return d;
}

LengthDistribution
LengthDistribution::uniform(int lo, int hi, int quantum)
{
    LengthDistribution d;
    d.kind = Kind::UNIFORM;
    d.minLen = lo;
    d.maxLen = hi;
    d.quantum = quantum;
    d.validate();
    return d;
}

namespace {

/** Round @p len up to a positive multiple of @p quantum. */
int
quantize(int len, int quantum)
{
    if (len < 1)
        len = 1;
    const int rem = len % quantum;
    return rem == 0 ? len : len + (quantum - rem);
}

} // anonymous namespace

int
LengthDistribution::sample(Rng &rng) const
{
    validate();
    switch (kind) {
      case Kind::FIXED:
        return quantize(fixedLen, quantum);
      case Kind::UNIFORM: {
        const auto span =
            static_cast<std::uint64_t>(maxLen - minLen) + 1;
        const int len =
            minLen + static_cast<int>(rng.below(span));
        return quantize(len, quantum);
      }
    }
    panic("LengthDistribution: unhandled kind");
}

double
LengthDistribution::meanLen() const
{
    validate();
    if (kind == Kind::FIXED)
        return quantize(fixedLen, quantum);
    return (static_cast<double>(minLen) + maxLen) / 2.0;
}

int
LengthDistribution::maxPossibleLen() const
{
    validate();
    const int raw = kind == Kind::FIXED ? fixedLen : maxLen;
    return quantize(raw, quantum);
}

void
LengthDistribution::validate() const
{
    // Branch-then-throw: sample() validates per draw, so fatalIf's
    // eager message strings would allocate on every arrival.
    if (quantum < 1)
        fatal("LengthDistribution: quantum must be >= 1");
    if (kind == Kind::FIXED) {
        if (fixedLen < 1)
            fatal("LengthDistribution: fixedLen must be >= 1");
        return;
    }
    if (minLen < 1)
        fatal("LengthDistribution: minLen must be >= 1");
    if (maxLen < minLen)
        fatal("LengthDistribution: maxLen must be >= minLen");
}

void
WorkloadSpec::validate() const
{
    // Negated comparisons, so that NaN fails every check.
    fatalIf(closedLoopClients < 0,
            "WorkloadSpec: closedLoopClients must be >= 0");
    if (openLoop()) {
        fatalIf(!(arrivalRatePerS > 0.0),
                "WorkloadSpec: open-loop arrivalRatePerS must be > 0");
    } else {
        fatalIf(!(thinkTimeS >= 0.0),
                "WorkloadSpec: thinkTimeS must be >= 0");
    }
    fatalIf(!(horizonS > 0.0), "WorkloadSpec: horizonS must be > 0");
    promptLen.validate();
    outputLen.validate();
}

std::uint64_t
substreamSeed(std::uint64_t seed, std::uint64_t stream)
{
    // Decorrelate the pair with one extra SplitMix64 step; the golden
    // ratio multiplier spreads adjacent stream indices across the
    // whole state space.
    return Rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1))).next();
}

double
sampleExponentialS(Rng &rng, double rate_per_s)
{
    if (rate_per_s <= 0.0)
        panic("sampleExponentialS: rate must be > 0");
    // uniform() is in [0, 1): log1p(-u) is finite for every draw.
    return -std::log1p(-rng.uniform()) / rate_per_s;
}

} // namespace sim
} // namespace acs
