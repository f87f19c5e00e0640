/**
 * @file
 * The benchmark driver's workload interface.
 *
 * One Workload object is one repetition: setup() builds what a user's
 * run builds before its timed phase (evaluators, layer graphs, sweep
 * plans, cost models, the arms race), job() is the timed phase, and
 * the remaining hooks check and summarize what the job produced. The
 * driver (driver.cc) builds a fresh object per repetition, so caches
 * the program keeps inside those objects start cold every time.
 *
 * Every call into a layer's public API is wrapped in an
 * obs::TraceSpan named "bench.<layer>". The spans only record when
 * tracing is on; obs adds each one's duration to the timer of its
 * name, which profile() reads to compute per-layer self times.
 */

#ifndef ACS_PERFBENCH_PERFBENCH_HH
#define ACS_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Output checks: how many ran, and a message per failure. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;

    /** Count one check; record @p what when @p ok is false. */
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            failures.push_back(what);
    }
};

/** FNV-1a over the exact bits of the values a job produced. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    template <typename T>
    void
    u64s(const std::vector<T> &v)
    {
        u64(v.size());
        for (const T x : v)
            u64(static_cast<std::uint64_t>(x));
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/** Per-layer metric values, keyed by the metric's name. */
using Stats = std::map<std::string, double>;

/** One repetition of one workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the timed phase needs (timed as setup_s). */
    virtual void setup() = 0;

    /** The timed phase (timed as job_s). */
    virtual void job() = 0;

    /** Digest of the simulated statistics the last job() produced. */
    virtual std::uint64_t digest() const = 0;

    /** Seed-independent checks on the last job()'s outputs. */
    virtual void check(Checks &checks) const = 0;

    /**
     * Traced run only: right after the traced job, record the
     * per-layer metrics of this workload's layers into @p stats. The
     * job's span timers are read first; then any extra direct layer
     * calls a metric needs run, each under its own span, outside the
     * job, and count their output checks in @p checks.
     */
    virtual void profile(Stats &stats, Checks &checks) = 0;

    /**
     * Digest of the simulated statistics of the extra layer calls the
     * last profile() made, or 0 when it made none worth pinning.
     */
    virtual std::uint64_t profileDigest() const { return 0; }
};

/**
 * Build one repetition of workload @p name.
 *
 * @param seed    Workload seed: chooses the generated inputs.
 * @param threads Worker threads the workload's layer calls may use.
 * @return nullptr when @p name is unknown.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       unsigned threads);

} // namespace perfbench

#endif // ACS_PERFBENCH_PERFBENCH_HH
