/**
 * @file
 * Named experiment suites: declarative job grids plus the reduce step
 * that renders each paper figure's tables from the collected records.
 *
 * A Suite is (name, description, buildJobs, report).  buildJobs expands
 * the experiment into independent Jobs (one simulation cell each);
 * runSuite() executes them on a ThreadPoolExecutor, streams records into
 * a ResultsSink, writes BENCH_<name>.json and calls report() to print
 * the figure's text tables — identical output no matter how many workers
 * ran the grid.
 *
 * Every paper artifact the simulator reproduces is a suite here, and
 * tools/run_experiments (which lists, filters and runs suites by name)
 * is the one way to run one.
 */

#ifndef PDP_RUNNER_SUITES_H
#define PDP_RUNNER_SUITES_H

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "policies/replacement_policy.h"
#include "runner/job.h"
#include "runner/results_sink.h"

namespace pdp
{
namespace runner
{

/** Knobs of one suite run (usually parsed from env/CLI by the caller). */
struct SuiteOptions
{
    /** Run-length multiplier (PDP_BENCH_SCALE). */
    double scale = 1.0;
    /** Worker threads; 0 = hardware concurrency (PDP_BENCH_JOBS). */
    unsigned workers = 0;
    /** Per-job progress lines on stderr (PDP_BENCH_VERBOSE). */
    bool verbose = false;
    /** JSON output directory; "" = PDP_BENCH_JSON / cwd default,
     *  "none" disables. */
    std::string jsonDir;
    /** Substring filter on job keys; non-empty runs a partial grid and
     *  replaces the figure report with a generic results table. */
    std::string filter;
    /** Soft per-job timeout in seconds; 0 = none. */
    double timeoutSeconds = 0.0;
    /** Record epoch telemetry in every simulation job (--telemetry). */
    bool telemetry = false;
    /** Also derive structured events and write TRACE_<suite>.jsonl
     *  (--trace; implies telemetry). */
    bool trace = false;
    /** Request-span head-sampling rate in [0, 1] for service-mode jobs
     *  (--obs-sample-rate; implies trace).  0 disables the SpanTracer;
     *  the sample decision is a pure hash of (seed, tenant, request), so
     *  sampled spans are deterministic across worker counts. */
    double obsSampleRate = 0.0;
    /** Profile with hardware perf counters: per job via the executor and
     *  per epoch via the sampler (--perf-counters).  Volatile data only;
     *  cleanly absent where perf_event_open is unavailable. */
    bool perfCounters = false;
    /** Service suite: trip an injected PDP_CHECK at this measured-access
     *  index in every service job (--fault-at; 0 disables).  Exercises
     *  the fault flight recorder end to end. */
    uint64_t serviceFaultAt = 0;
    /** Service suite: initial (and max concurrent) tenant count
     *  (--tenants; bounded by CacheStats::kMaxThreads). */
    unsigned serviceTenants = 16;
    /** Service suite: scripted leave+join swap steps (--churn; must stay
     *  below the tenant count). */
    unsigned serviceChurn = 4;
    /** Write BENCH_<suite>.json in the deterministic (volatile-free)
     *  form so files byte-compare across worker counts
     *  (--deterministic-json). */
    bool deterministicJson = false;
    /** Explore suite: prune the design-space grid with the analytic
     *  model (src/model/) and simulate only the top-K contenders per
     *  policy family plus one audit cell (--explore).  Off = simulate
     *  the exhaustive grid. */
    bool explore = false;
    /** Contenders simulated per policy family in --explore mode
     *  (--explore-topk). */
    unsigned exploreTopK = 3;
};

/** Key-indexed view over executed records for the reduce step. */
class RecordLookup
{
  public:
    explicit RecordLookup(const std::vector<JobRecord> &records);

    /** The record for `key`, or nullptr when absent. */
    const JobRecord *find(const std::string &key) const;

    /** The single-core result for `key`; nullptr when absent, failed or
     *  not a single-core job. */
    const SimResult *single(const std::string &key) const;

    /** The multi-core result for `key` under the same rules. */
    const MultiCoreResult *multi(const std::string &key) const;

    /** The service-mode result for `key` under the same rules. */
    const ServiceResult *service(const std::string &key) const;

    /** All record keys, sorted (reports that derive their grid from the
     *  executed keys, e.g. the option-parameterized service suite). */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, const JobRecord *> byKey_;
};

/** One named experiment. */
struct Suite
{
    std::string name;
    std::string description;
    std::function<std::vector<Job>(const SuiteOptions &)> buildJobs;
    std::function<void(std::ostream &, const RecordLookup &)> report;
};

/** Registry of all suites: the paper artifacts (fig1_rdd, fig2_epsilon,
 *  fig4_static_pdp with Table 2, fig5a_occupancy, fig6_model,
 *  fig9_params, fig10_single_core, fig11_phases, fig12_partitioning,
 *  prefetch) and hotpath, smoke, service, model_validation, explore. */
const std::vector<Suite> &allSuites();

/** Lookup by name; nullptr when unknown. */
const Suite *findSuite(const std::string &name);

/**
 * Build, execute, report and serialize one suite.  Returns the number
 * of jobs that did not finish Ok plus the number of result files that
 * could not be written (0 == success), so it can be used as a process
 * exit code.
 */
int runSuite(const Suite &suite, const SuiteOptions &options,
             std::ostream &out);

/**
 * A single-core simulation job: constructs generator (seeded with
 * seedFor(benchmark) so every policy of one benchmark sees the same
 * stream), policy and hierarchy inside the job, per the ownership rule,
 * and runs runSingleCore — the one-lane engine on the worker's thread.
 */
Job singleCoreJob(std::string key, std::string benchmark,
                  std::string policySpec, const SimConfig &config);

/** Same, with an explicit policy builder for policies that have no
 *  factory spec (e.g. DRRIP at a swept epsilon).  The builder runs on
 *  the worker thread and must be self-contained. */
Job singleCoreJob(
    std::string key, std::string benchmark,
    std::function<std::unique_ptr<ReplacementPolicy>()> makePol,
    const SimConfig &config);

/** A multi-core workload × policy job. */
Job multiCoreJob(std::string key, WorkloadSpec workload,
                 std::string policySpec, const MultiCoreConfig &config);

/** A service-mode job: one scripted tenant population under one shared
 *  policy.  All policies of one scenario share `seed` so they see the
 *  identical open-loop traffic (pass seedFor(scenario tag)). */
Job serviceJob(std::string key, std::vector<TenantSpec> tenants,
               std::string policySpec, const ServiceConfig &config,
               uint64_t seed);

/** Fills a lockstep lane's record metrics after the run. */
using LaneReader = std::function<void(std::map<std::string, double> &)>;

/** Extras a lockstep lane reports besides its SimResult: called on the
 *  lane's LLC before the decode (to attach an observer), it returns the
 *  lane's reader. */
using LaneProbe = std::function<LaneReader(Cache &)>;

/** One lane of a lockstep sweep: its record key, its policy and any
 *  per-lane extras. */
struct PolicyCell
{
    std::string key;
    std::function<std::unique_ptr<ReplacementPolicy>()> makePolicy;
    /** Empty: the record carries the SimResult alone. */
    LaneProbe probe;
};

/**
 * One schedulable lockstep sweep: every cell of `cells` simulated over
 * ONE decode of `benchmark` (sim/lockstep_sweep.h) on LLCs the job
 * builds, producing one keyed record per cell in cell order —
 * byte-identical to the equivalent singleCoreJobs, telemetry and audit
 * results included.  With `prefetcher` a StreamPrefetcher on the shared
 * front end fills every lane (Sec. 6.5).  The job is wide (Job::wide):
 * it runs alone and fans its cells out over JobContext::threads.
 */
Job lockstepSweepJob(std::string key, std::string benchmark,
                     std::vector<PolicyCell> cells, const SimConfig &config,
                     bool prefetcher = false);

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_SUITES_H
