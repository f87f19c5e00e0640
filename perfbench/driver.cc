/**
 * @file
 * perfbench_driver: runs one workload for a fixed time budget and
 * writes a JSON report. run.py builds and launches it; see README.md.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --threads <t> --trace <0|1> --report <file>
 *                    [--trace-file <file>]
 *
 * Repetitions (setup + job + checks, each on a fresh Workload) run
 * until the next one would overrun the budget; at least one runs.
 * Before each one the driver times set-ups alone (sampleSetups);
 * setup_s is the 1st percentile of all of them (kSetupQuantile).
 * With --trace 1 they alternate untraced and traced, at least two of
 * each, ending on a traced one, whose job is then profiled and whose
 * spans are written as one Chrome-trace file.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "perfbench.hh"

namespace {

namespace obs = acs::obs;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Rep
{
    bool traced = false;
    double jobS = 0.0;
    double peakRssMb = 0.0; //!< VmHWM over the repetition's setup + job
};

/** Wall time spent timing set-ups before each repetition. */
constexpr double kSetupSliceS = 0.2;

/**
 * The quantile of a run's set-up samples reported as setup_s. Other
 * tenants of the host slow high-IPC code by up to 2x, switching within
 * seconds, and the median of a run's set-ups follows that load: cut
 * into 30 s windows, one 10-minute process repeating the cluster
 * replay (workloads.cc) gave window medians spread 0.31 (IQR / median)
 * and window 1st percentiles 0.07.
 * With thousands of samples a run, the 1st percentile is the set-up's
 * cost when the core was least contended; it still grows with any
 * work added to set-up.
 */
constexpr double kSetupQuantile = 0.01;

/**
 * Time set-ups on fresh Workloads for about kSetupSliceS, appending
 * each one's wall time (construction and setup(), not destruction)
 * to @p samples. A set-up takes microseconds to a millisecond, and
 * the host's speed moves within a second, so slices spread over the
 * whole run sample more of its quiet moments than one burst. Only the
 * first set-up pays the process's first-use costs.
 */
void
sampleSetups(const std::string &workload, std::uint64_t seed,
             unsigned threads, std::vector<double> &samples)
{
    const Clock::time_point slice = Clock::now();
    do {
        const Clock::time_point t0 = Clock::now();
        const auto w = perfbench::makeWorkload(workload, seed, threads);
        w->setup();
        samples.push_back(secondsSince(t0));
    } while (secondsSince(slice) < kSetupSliceS);
}

/** The @p q quantile of @p v (nearest rank below); @p v not empty. */
double
quantile(std::vector<double> v, double q)
{
    const auto at = v.begin() + static_cast<std::ptrdiff_t>(q * v.size());
    std::nth_element(v.begin(), at, v.end());
    return *at;
}

[[noreturn]] void usage(const std::string &why);

/** Reset the kernel's peak-RSS mark (VmHWM) to the current RSS. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** VmHWM in MiB: peak RSS since start or the last resetPeakRss(). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    usage("no VmHWM in /proc/self/status");
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --threads <t> --trace <0|1> "
                 "--report <file> [--trace-file <file>]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();

    std::string workload, report, trace_file;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    unsigned threads = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        try {
            if (flag == "--workload")
                workload = value;
            else if (flag == "--seed")
                seed = std::stoull(value);
            else if (flag == "--seconds")
                seconds = std::stod(value);
            else if (flag == "--threads")
                threads = static_cast<unsigned>(std::stoul(value));
            else if (flag == "--trace")
                trace = std::stoi(value);
            else if (flag == "--report")
                report = value;
            else if (flag == "--trace-file")
                trace_file = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (argc % 2 == 0 || workload.empty() || report.empty() ||
        seconds <= 0.0 || threads == 0 || (trace != 0 && trace != 1) ||
        (trace == 1 && trace_file.empty()))
        usage("missing or invalid arguments");
    if (!perfbench::makeWorkload(workload, seed, threads))
        usage("unknown workload " + workload);

    // The shared pool sizes itself from ACS_THREADS on first use: pin
    // it to this workload's count, whatever the environment says.
    setenv("ACS_THREADS", std::to_string(threads).c_str(), 1);

    std::vector<Rep> reps;
    std::vector<double> setup_samples;
    perfbench::Checks checks;
    std::uint64_t first_digest = 0;
    std::unique_ptr<perfbench::Workload> traced_rep;
    double longest = 0.0;
    for (;;) {
        const Clock::time_point t0 = Clock::now();
        sampleSetups(workload, seed, threads, setup_samples);
        const bool traced = trace == 1 && reps.size() % 2 == 1;
        if (traced) {
            obs::reset();
            obs::setEnabled(true);
        }
        Rep rep;
        rep.traced = traced;
        resetPeakRss();
        auto w = perfbench::makeWorkload(workload, seed, threads);
        {
            const obs::TraceSpan span("bench.setup");
            w->setup();
        }
        const Clock::time_point t1 = Clock::now();
        {
            const obs::TraceSpan span("bench.job");
            w->job();
        }
        rep.jobS = secondsSince(t1);
        rep.peakRssMb = peakRssMb();
        obs::setEnabled(false);

        w->check(checks);
        const std::uint64_t digest = w->digest();
        if (reps.empty())
            first_digest = digest;
        else
            checks.expect(digest == first_digest,
                          workload + ": repetition " +
                              std::to_string(reps.size()) +
                              " reproduces the first one's outputs");
        reps.push_back(rep);
        if (traced)
            traced_rep = std::move(w);
        longest = std::max(longest, secondsSince(t0));

        // Stop once the next repetition would overrun the budget. A
        // traced run makes at least two repetitions of each kind and
        // ends on a traced one.
        if (trace == 1 && (!traced || reps.size() < 4))
            continue;
        if (secondsSince(start) + longest * (trace == 1 ? 2 : 1) > seconds)
            break;
    }

    perfbench::Stats stats;
    if (traced_rep) {
        obs::setEnabled(true);
        {
            const obs::TraceSpan span("bench.profile");
            traced_rep->profile(stats, checks);
        }
        obs::setEnabled(false);
        if (!obs::writeChromeTraceFile(trace_file))
            usage("cannot write " + trace_file);
    }

    std::ofstream out(report);
    out << "{\"workload\":" << jsonString(workload)
        << ",\"seed\":" << seed << ",\"threads\":" << threads
        << ",\"digest\":\"" << std::hex << first_digest << std::dec
        << "\"";
    if (traced_rep && traced_rep->profileDigest() != 0)
        out << ",\"profile_digest\":\"" << std::hex
            << traced_rep->profileDigest() << std::dec << "\"";
    out << ",\"checks\":{\"attempted\":" << checks.attempted
        << ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i)
        out << (i ? "," : "") << jsonString(checks.failures[i]);
    out << "]},\"setup_s\":"
        << jsonNumber(quantile(setup_samples, kSetupQuantile))
        << ",\"setup_samples\":" << setup_samples.size();
    out << ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        out << (i ? "," : "") << "{\"traced\":"
            << (reps[i].traced ? "true" : "false")
            << ",\"job_s\":" << jsonNumber(reps[i].jobS)
            << ",\"peak_rss_mb\":" << jsonNumber(reps[i].peakRssMb) << "}";
    }
    out << "],\"stats\":{";
    bool first = true;
    for (const auto &[name, value] : stats) {
        out << (first ? "" : ",") << jsonString(name) << ":"
            << jsonNumber(value);
        first = false;
    }
    out << "}}\n";
    if (!out.good())
        usage("cannot write " + report);
    return 0;
}
