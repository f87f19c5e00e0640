/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 */

#ifndef ACS_BENCH_BENCH_UTIL_HH
#define ACS_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/acs.hh"

namespace acs {
namespace bench {

namespace obs_detail {

/** Trace-file destination chosen by initObs ("" = tracing off). */
inline std::string &
tracePath()
{
    static std::string path;
    return path;
}

/** atexit hook: print the per-stage summary and write the trace. */
inline void
reportObs()
{
    if (!obs::enabled())
        return;
    std::cout << "\n--- observability summary ---\n";
    obs::summaryTable().print(std::cout);
    const std::string &path = tracePath();
    if (!path.empty() && obs::writeChromeTraceFile(path)) {
        std::cout << "[trace] " << path << " ("
                  << obs::traceEventCount()
                  << " spans; load in chrome://tracing or Perfetto)\n";
    }
}

} // namespace obs_detail

/**
 * Observability entry point for the bench harness.
 *
 * Enables recording when either the ACS_TRACE environment variable
 * names a trace file or a `--trace=<file>` argument is present (the
 * flag wins when both are set), and registers an atexit hook that
 * prints the per-stage summary table and writes the Chrome-trace
 * JSON after the bench finishes. Idempotent; called automatically by
 * header(), so every fig/ext bench honours ACS_TRACE without
 * per-bench wiring. Benches that accept argv pass it here to also
 * honour the flag.
 */
inline void
initObs(int argc = 0, char **argv = nullptr)
{
    static bool registered = false;
    std::string path = obs::enableFromEnv();
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace=", 8) == 0) {
            path = argv[i] + 8;
            obs::setEnabled(true);
        }
    }
    if (!path.empty())
        obs_detail::tracePath() = path;
    if (obs::enabled() && !registered) {
        registered = true;
        std::atexit(obs_detail::reportObs);
    }
}

/**
 * Build the study's PerfParams from bench arguments.
 *
 * Recognizes `--gemm-mode={analytic,tile_sim,cycle_sim}` (fatal on
 * any other value) and leaves every other parameter at its default,
 * so the DSE benches can sweep with the closed-form roofline, the
 * wave-level tile simulator, or the event-driven cycle simulator. The
 * default (analytic) reproduces the committed CSVs byte for byte. The
 * error message comes from perf::gemmModeNames() so the CLI and the
 * benches always advertise the same mode list.
 */
inline perf::PerfParams
perfParamsFromArgs(int argc, char **argv)
{
    perf::PerfParams params;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--gemm-mode=", 12) == 0) {
            const std::string value = argv[i] + 12;
            fatalIf(!perf::parseGemmMode(value, &params.gemmMode),
                    "unknown --gemm-mode '" + value + "' (expected " +
                        perf::gemmModeNames() + ")");
        }
    }
    return params;
}

/**
 * Write a table as results/<name>.csv so the figures can be re-plotted
 * with external tooling; prints the path on success.
 */
inline void
writeCsv(const std::string &name, const Table &table)
{
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    const std::string path = "results/" + name + ".csv";
    std::ofstream out(path);
    if (!out) {
        warn("cannot write " + path);
        return;
    }
    table.printCsv(out);
    std::cout << "[csv] " << path << " (" << table.rowCount()
              << " rows)\n";
}


/** File-name slug from a free-form label ("GPT-3 175B" -> "gpt-3_175b"). */
inline std::string
slug(const std::string &label)
{
    std::string out;
    for (char c : label) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

/** Full per-design dump of an evaluated sweep (one row per design). */
inline Table
designTable(const std::vector<dse::EvaluatedDesign> &designs)
{
    Table t({"name", "tpp", "systolic_dim", "lanes", "cores",
             "l1_kib", "l2_mib", "mem_bw_tbps", "dev_bw_gbps",
             "die_area_mm2", "perf_density", "die_cost_usd",
             "ttft_ms", "tbt_ms", "under_reticle", "oct2023"});
    for (const auto &d : designs) {
        t.addRow({d.config.name, fmt(d.tpp, 1),
                  std::to_string(d.config.systolicDimX),
                  std::to_string(d.config.lanesPerCore),
                  std::to_string(d.config.coreCount),
                  fmt(d.config.l1BytesPerCore / units::KIB, 0),
                  fmt(d.config.l2Bytes / units::MIB, 0),
                  fmt(d.config.memBandwidth / units::TBPS, 2),
                  fmt(units::toGBps(d.config.deviceBandwidth()), 0),
                  fmt(d.dieAreaMm2, 1), fmt(d.perfDensity, 3),
                  fmt(d.dieCostUsd, 2), fmt(units::toMs(d.ttftS), 3),
                  fmt(units::toMs(d.tbtS), 5),
                  d.underReticle ? "1" : "0",
                  toString(policy::Oct2023Rule::classify(d.toSpec()))});
    }
    return t;
}

/** Glyph per classification for scatter plots. */
inline char
glyph(policy::Classification c)
{
    switch (c) {
      case policy::Classification::NOT_APPLICABLE:   return '.';
      case policy::Classification::NAC_ELIGIBLE:     return 'o';
      case policy::Classification::LICENSE_REQUIRED: return 'X';
    }
    return '?';
}

/** Print a standard bench header (and arm ACS_TRACE observability). */
inline void
header(const std::string &id, const std::string &caption)
{
    initObs();
    std::cout << "\n" << std::string(72, '=') << "\n"
              << id << ": " << caption << "\n"
              << std::string(72, '=') << "\n";
}

/** Split a spec list into three classification buckets. */
struct ClassifiedSpecs
{
    std::vector<policy::DeviceSpec> notApplicable;
    std::vector<policy::DeviceSpec> nacEligible;
    std::vector<policy::DeviceSpec> licenseRequired;
};

template <typename Rule>
ClassifiedSpecs
classifyAll(const std::vector<policy::DeviceSpec> &specs)
{
    ClassifiedSpecs out;
    for (const policy::DeviceSpec &spec : specs) {
        switch (Rule::classify(spec)) {
          case policy::Classification::NOT_APPLICABLE:
            out.notApplicable.push_back(spec);
            break;
          case policy::Classification::NAC_ELIGIBLE:
            out.nacEligible.push_back(spec);
            break;
          case policy::Classification::LICENSE_REQUIRED:
            out.licenseRequired.push_back(spec);
            break;
        }
    }
    return out;
}

} // namespace bench
} // namespace acs

#endif // ACS_BENCH_BENCH_UTIL_HH
