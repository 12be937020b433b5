/**
 * @file
 * run_experiments — list, filter and run named experiment suites on the
 * parallel experiment runner (src/runner/).  It is the one way to run a
 * simulated paper artifact: every figure and table is a suite (`--list`
 * names them; Table 2 is a section of fig4_static_pdp).
 *
 * Usage:
 *   run_experiments --list
 *   run_experiments --suite <name> [--suite <name> ...]
 *                   [--filter <substring>] [--jobs N] [--scale X]
 *                   [--json DIR|none] [--timeout SECONDS] [--verbose]
 *                   [--telemetry[=DIR]] [--trace]
 *                   [--obs-sample-rate X] [--perf-counters]
 *                   [--fault-at N]
 *                   [--tenants N] [--churn N] [--deterministic-json]
 *                   [--explore] [--explore-topk N]
 *
 * The sweep suites (fig2, fig4, fig6, fig9, fig10, exhaustive explore)
 * run each benchmark's policy grid as one wide job over a single trace
 * decode, on every worker, with --telemetry/--trace observers in the
 * lanes; a --filter naming cells rather than a benchmark's
 * "<prefix>lockstep" group narrows the group to those cells, and
 * --perf-counters runs one single-lane job per cell.  Records are
 * byte-identical either way.  fig5a, fig11 and prefetch run one such
 * group per benchmark whose lanes also carry an occupancy tracker, the
 * PD history or a prefetching front end (a --filter selects whole
 * groups there); fig1 and fig6's model side are one RDD fingerprint
 * job per benchmark.
 *
 * --telemetry records per-epoch policy snapshots (PD, RDD, PSEL,
 * partition allocations, interval hit rates) into each job's results;
 * the optional =DIR overrides the --json output directory.  --trace
 * additionally derives structured events (PD changes, PSEL flips,
 * partition reallocations) and writes TRACE_<suite>.jsonl; it implies
 * --telemetry.  Validate either with `tools/report.py check`, render
 * with `tools/report.py show`.
 *
 * The observability plane (DESIGN.md "Observability plane"):
 * --obs-sample-rate X head-samples service-mode request lifecycles into
 * span events at rate X in [0, 1] (implies --trace; deterministic
 * per-request hash decision, so sampled spans byte-compare across
 * worker counts).  --perf-counters profiles each job and telemetry
 * epoch with a hardware perf-counter group (hw/perf_counters.h),
 * degrading to an absent section where perf_event_open is unavailable.
 * --fault-at N trips an injected PDP_CHECK at measured access N in
 * every service job, exercising the fault flight recorder
 * (FLIGHT_<job>.json).  tools/report.py checks and shows all three
 * file kinds.
 *
 * --explore switches the `explore` suite from the exhaustive static-PD
 * grid to the model-pruned path: the analytic estimator (src/model/)
 * ranks every (family, PD) cell in microseconds and only the top-K
 * contenders per family (--explore-topk, default 3) plus one seeded
 * audit cell from the pruned tail are simulated.  Other suites ignore
 * both flags.
 *
 * --tenants / --churn parameterize the `service` suite's scripted
 * tenant population (other suites ignore them).  --deterministic-json
 * writes BENCH_<suite>.json in the volatile-free form so on-disk files
 * byte-compare across worker counts (CI's service-smoke identity
 * check).
 *
 * Defaults come from environment knobs, which the flags override:
 * PDP_BENCH_SCALE (--scale), PDP_BENCH_JOBS (--jobs),
 * PDP_BENCH_VERBOSE=1 (--verbose) and PDP_BENCH_JSON (--json).
 * Exit code is the number of jobs that did not finish Ok plus the
 * number of result files that could not be written (2 for usage
 * errors), so CI can gate on it.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "runner/suites.h"
#include "util/parse.h"

namespace
{

/**
 * Run-length scale factor from PDP_BENCH_SCALE.  Strict whole-string
 * parse (util/parse.h): a malformed, non-positive or absurd value
 * terminates the run instead of silently running at scale 1.0 — a
 * typo'd scale would otherwise burn minutes producing the wrong
 * experiment.
 */
double
envScale()
{
    const char *env = std::getenv("PDP_BENCH_SCALE");
    if (!env || env[0] == '\0')
        return 1.0;
    const std::optional<double> value = pdp::parseDouble(env);
    // !(value > 0) also rejects NaN; the upper bound rejects scales
    // that could only be typos.
    if (!value || !(*value > 0.0) || *value > 1e9) {
        std::fprintf(stderr,
                     "error: invalid PDP_BENCH_SCALE=\"%s\" (want a "
                     "positive number)\n",
                     env);
        std::exit(2);
    }
    return *value;
}

/** Worker threads from PDP_BENCH_JOBS (0/unset = hardware concurrency,
 *  resolved by the executor).  Strict whole-string parse: garbage
 *  terminates the run instead of silently meaning "all cores". */
unsigned
envJobs()
{
    const char *env = std::getenv("PDP_BENCH_JOBS");
    if (!env || env[0] == '\0')
        return 0;
    const std::optional<unsigned long> value = pdp::parseUnsigned(env);
    if (!value || *value > 4096) {
        std::fprintf(stderr,
                     "error: invalid PDP_BENCH_JOBS=\"%s\" (want an "
                     "integer in [0, 4096])\n",
                     env);
        std::exit(2);
    }
    return static_cast<unsigned>(*value);
}

bool
envVerbose()
{
    const char *env = std::getenv("PDP_BENCH_VERBOSE");
    return env && env[0] == '1';
}

void
printUsage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: run_experiments --list\n"
                 "       run_experiments --suite <name> [--suite <name>]\n"
                 "                       [--filter <substring>] [--jobs N]\n"
                 "                       [--scale X] [--json DIR|none]\n"
                 "                       [--timeout SECONDS] [--verbose]\n"
                 "                       [--telemetry[=DIR]] [--trace]\n"
                 "                       [--obs-sample-rate X]\n"
                 "                       [--perf-counters] [--fault-at N]\n"
                 "                       [--tenants N] [--churn N]\n"
                 "                       [--deterministic-json]\n"
                 "                       [--explore] [--explore-topk N]\n"
                 "\n"
                 "Sweep suites run each benchmark's grid as one job over\n"
                 "one trace decode on every worker; a --filter naming\n"
                 "cells runs just those cells, and --perf-counters one\n"
                 "job per cell.\n"
                 "\n"
                 "--telemetry samples per-epoch policy state into the\n"
                 "BENCH json (optional =DIR overrides --json); --trace\n"
                 "also writes TRACE_<suite>.jsonl structured events.\n"
                 "\n"
                 "--obs-sample-rate X head-samples service request\n"
                 "lifecycles into span events at rate X in [0, 1]\n"
                 "(implies --trace); --perf-counters profiles jobs and\n"
                 "epochs with hardware counters (absent where\n"
                 "perf_event_open is unavailable); --fault-at N trips an\n"
                 "injected check at measured access N in service jobs\n"
                 "(flight-recorder exercise).\n"
                 "\n"
                 "--explore prunes the `explore` suite's static-PD grid\n"
                 "with the analytic model and simulates only the top-K\n"
                 "contenders per family (--explore-topk, default 3) plus\n"
                 "one seeded audit cell.\n"
                 "\n"
                 "--tenants/--churn shape the `service` suite's scripted\n"
                 "population; --deterministic-json writes the BENCH json\n"
                 "in the volatile-free (byte-comparable) form.\n"
                 "\n"
                 "Environment defaults: PDP_BENCH_SCALE, PDP_BENCH_JOBS,\n"
                 "PDP_BENCH_VERBOSE, PDP_BENCH_JSON.\n");
}

void
listSuites()
{
    std::printf("available suites:\n");
    for (const pdp::runner::Suite &suite : pdp::runner::allSuites())
        std::printf("  %-20s %s\n", suite.name.c_str(),
                    suite.description.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    pdp::runner::SuiteOptions options;
    options.scale = envScale();
    options.workers = envJobs();
    options.verbose = envVerbose();

    std::vector<std::string> suites;
    bool list = false;

    auto needValue = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list" || arg == "-l") {
            list = true;
        } else if (arg == "--suite" || arg == "-s") {
            suites.push_back(needValue(i));
        } else if (arg == "--filter" || arg == "-f") {
            options.filter = needValue(i);
        } else if (arg == "--jobs" || arg == "-j") {
            const auto jobs = pdp::parseUnsigned(needValue(i));
            if (!jobs || *jobs == 0 || *jobs > 4096) {
                std::fprintf(stderr,
                             "--jobs wants an integer in [1, 4096], got "
                             "\"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.workers = static_cast<unsigned>(*jobs);
        } else if (arg == "--tenants") {
            const auto tenants = pdp::parseUnsigned(needValue(i));
            if (!tenants || *tenants == 0 || *tenants > 32) {
                std::fprintf(stderr,
                             "--tenants wants an integer in [1, 32] (the "
                             "thread-id cap), got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.serviceTenants = static_cast<unsigned>(*tenants);
        } else if (arg == "--churn") {
            const auto churn = pdp::parseUnsigned(needValue(i));
            if (!churn) {
                std::fprintf(stderr,
                             "--churn wants a non-negative integer, got "
                             "\"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.serviceChurn = static_cast<unsigned>(*churn);
        } else if (arg == "--deterministic-json") {
            options.deterministicJson = true;
        } else if (arg == "--explore") {
            options.explore = true;
        } else if (arg == "--explore-topk") {
            const auto topk = pdp::parseUnsigned(needValue(i));
            if (!topk || *topk == 0 || *topk > 64) {
                std::fprintf(stderr,
                             "--explore-topk wants an integer in [1, 64], "
                             "got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.exploreTopK = static_cast<unsigned>(*topk);
        } else if (arg == "--scale") {
            const auto scale = pdp::parseDouble(needValue(i));
            if (!scale || !(*scale > 0)) {
                std::fprintf(stderr,
                             "--scale wants a positive number, got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.scale = *scale;
        } else if (arg == "--json") {
            options.jsonDir = needValue(i);
        } else if (arg == "--timeout") {
            const auto timeout = pdp::parseDouble(needValue(i));
            if (!timeout || *timeout < 0) {
                std::fprintf(stderr,
                             "--timeout wants a non-negative number of "
                             "seconds, got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.timeoutSeconds = *timeout;
        } else if (arg == "--telemetry") {
            options.telemetry = true;
        } else if (arg.rfind("--telemetry=", 0) == 0) {
            const std::string dir =
                arg.substr(std::string("--telemetry=").size());
            if (dir.empty()) {
                std::fprintf(stderr,
                             "--telemetry= wants a directory (or use plain "
                             "--telemetry for the --json default)\n");
                return 2;
            }
            options.telemetry = true;
            options.jsonDir = dir;
        } else if (arg == "--trace") {
            options.trace = true;
        } else if (arg == "--obs-sample-rate") {
            const auto rate = pdp::parseDouble(needValue(i));
            if (!rate || !(*rate >= 0.0) || !(*rate <= 1.0)) {
                std::fprintf(stderr,
                             "--obs-sample-rate wants a number in [0, 1], "
                             "got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.obsSampleRate = *rate;
            if (*rate > 0.0)
                options.trace = true; // spans ride the trace stream
        } else if (arg == "--perf-counters") {
            options.perfCounters = true;
        } else if (arg == "--fault-at") {
            const auto at = pdp::parseUnsigned(needValue(i));
            if (!at || *at == 0) {
                std::fprintf(stderr,
                             "--fault-at wants a positive measured-access "
                             "index, got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.serviceFaultAt = *at;
        } else if (arg == "--verbose" || arg == "-v") {
            options.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            listSuites();
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    if (list) {
        listSuites();
        return 0;
    }
    if (options.serviceChurn >= options.serviceTenants) {
        std::fprintf(stderr,
                     "--churn (%u) must stay below --tenants (%u) so some "
                     "tenants span the whole run\n",
                     options.serviceChurn, options.serviceTenants);
        return 2;
    }
    if (suites.empty()) {
        printUsage(stderr);
        listSuites();
        return 2;
    }

    int notOk = 0;
    for (const std::string &name : suites) {
        const pdp::runner::Suite *suite = pdp::runner::findSuite(name);
        if (!suite) {
            std::fprintf(stderr, "unknown suite: %s (try --list)\n",
                         name.c_str());
            return 2;
        }
        notOk += pdp::runner::runSuite(*suite, options, std::cout);
    }
    return notOk > 255 ? 255 : notOk;
}
