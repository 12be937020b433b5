/**
 * @file
 * Tests for intra-job parallelism: the multi-config lockstep sweep
 * driver (sim/lockstep_sweep.h) and the runner's multi-record job
 * fan-out (Job::runMany).  The load-bearing property throughout is
 * byte-identity: lockstep execution must be invisible in the results —
 * the same SimResult fields, the same deterministic dumps — no matter
 * how many threads did the work.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.h"
#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "policies/rrip.h"
#include "runner/json.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "trace/spec_suite.h"

using namespace pdp;
using namespace pdp::runner;

namespace
{

using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

SimConfig
quickConfig()
{
    SimConfig config;
    config.accesses = 120'000;
    config.warmup = 30'000;
    return config;
}

/** Every SimResult field the deterministic dump carries.  Doubles are
 *  compared exactly: both sides must run the identical arithmetic. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.llcBypasses, b.llcBypasses);
    EXPECT_EQ(a.bypassFraction, b.bypassFraction);
    EXPECT_EQ(a.auditsRun, b.auditsRun);
    EXPECT_EQ(a.auditViolations, b.auditViolations);
}

SimResult
sequentialRun(const std::string &bench, const PolicyFactory &makePol,
              const SimConfig &config)
{
    auto gen = SpecSuite::make(bench, seedFor(bench));
    Hierarchy hierarchy(config.hierarchy, makePol());
    return runSingleCore(*gen, hierarchy, config);
}

} // namespace

// ---------------------------------------------------------------------------
// Lockstep sweep driver.

TEST(LockstepSweepTest, MatchesIndependentRuns)
{
    // The whole standard roster (PolicyFactory.BuildsEveryStandardSpec):
    // every lane must match its own sequential run field for field,
    // whatever global state (dueling, samplers, RNGs) the policy keeps.
    const std::vector<std::string> specs = {
        "LRU",   "FIFO",  "Random", "LIP",      "BIP",      "DIP",
        "SRRIP", "BRRIP", "DRRIP",  "EELRU",    "SDP",      "SHiP",
        "PDP-2", "PDP-3", "PDP-8",  "PDP-8-NB", "PDP-1INS", "SPDP-B:72",
        "SPDP-NB:64"};
    const SimConfig config = quickConfig();

    std::vector<PolicyFactory> factories;
    for (const std::string &spec : specs)
        factories.push_back([spec] { return makePolicy(spec); });
    auto gen = SpecSuite::make("450.soplex", seedFor("450.soplex"));
    const std::vector<SimResult> lockstep =
        runSingleCoreLockstep(*gen, config, factories, /*threads=*/3);

    ASSERT_EQ(lockstep.size(), specs.size());
    for (size_t c = 0; c < specs.size(); ++c) {
        SCOPED_TRACE(specs[c]);
        const SimResult plain =
            sequentialRun("450.soplex", factories[c], config);
        expectSameResult(lockstep[c], plain);
    }
}

TEST(LockstepSweepTest, ThreadCountDoesNotChangeResults)
{
    std::vector<PolicyFactory> factories;
    for (uint32_t pd : {16u, 64u, 256u})
        factories.push_back([pd] { return makeSpdpB(pd); });
    const SimConfig config = quickConfig();

    auto genOne = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    const auto one = runSingleCoreLockstep(*genOne, config, factories, 1);
    auto genFour = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    const auto four = runSingleCoreLockstep(*genFour, config, factories, 4);

    ASSERT_EQ(one.size(), four.size());
    for (size_t c = 0; c < one.size(); ++c)
        expectSameResult(one[c], four[c]);
}

TEST(LockstepSweepTest, Fig10RosterIsExactAtEveryThreadCount)
{
    // The fig10 roster (EELRU included) at lane-worker counts that do
    // and don't divide its 26 lanes, and at more threads than lanes.
    // Two warmup chunks plus four measured ones: the double-buffered
    // front end decodes ahead across the warmup/measured boundary.
    std::vector<PolicyFactory> factories;
    for (const std::string &policy : fig10PolicyNames())
        factories.push_back([policy] { return makePolicy(policy); });
    for (uint32_t pd : defaultPdGrid())
        factories.push_back([pd] { return makeSpdpB(pd); });
    ASSERT_EQ(factories.size(), 26u);
    SimConfig config;
    config.accesses = 100'000;
    config.warmup = 40'000;

    std::vector<SimResult> plain;
    for (const PolicyFactory &factory : factories)
        plain.push_back(sequentialRun("482.sphinx3", factory, config));
    for (unsigned threads : {1u, 2u, 3u, 4u, 5u, 32u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto gen = SpecSuite::make("482.sphinx3", seedFor("482.sphinx3"));
        const std::vector<SimResult> lockstep =
            runSingleCoreLockstep(*gen, config, factories, threads);
        ASSERT_EQ(lockstep.size(), plain.size());
        for (size_t c = 0; c < plain.size(); ++c) {
            SCOPED_TRACE(plain[c].policy);
            expectSameResult(lockstep[c], plain[c]);
        }
    }
}

/** LRU that throws on its Nth fill: a lane failing mid-stream. */
class ThrowingLru : public LruPolicy
{
  public:
    void
    onInsert(const AccessContext &ctx, int way) override
    {
        if (++fills_ == 50'000)
            throw std::runtime_error("injected lane failure");
        LruPolicy::onInsert(ctx, way);
    }

  private:
    uint64_t fills_ = 0;
};

TEST(LockstepSweepTest, LaneFailureSurfacesOnTheCaller)
{
    // The exception crosses from whichever lane worker ran the failing
    // lane to the caller, at any thread count, and the workers wind
    // down cleanly.
    std::vector<PolicyFactory> factories(
        6, [] { return makePolicy("LRU"); });
    factories.insert(factories.begin() + 3,
                     [] { return std::make_unique<ThrowingLru>(); });
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto gen = SpecSuite::make("429.mcf", seedFor("429.mcf"));
        try {
            runSingleCoreLockstep(*gen, quickConfig(), factories, threads);
            ADD_FAILURE() << "lane failure was swallowed";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "injected lane failure");
        }
    }
}

TEST(LockstepSweepTest, RejectsGlobalOrderObservers)
{
    std::vector<PolicyFactory> factories = {[] { return makePolicy("LRU"); }};
    SimConfig config = quickConfig();
    config.telemetry.enabled = true;
    auto gen = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    EXPECT_THROW(runSingleCoreLockstep(*gen, config, factories),
                 std::exception);
}

// ---------------------------------------------------------------------------
// Runner fan-out: Job::runMany.

TEST(ThreadPoolExecutorMany, FlattensGroupsInInputOrder)
{
    std::vector<Job> jobs;
    Job before;
    before.key = "a/before";
    before.seed = seedFor(before.key);
    before.run = [](const JobContext &) { return JobOutcome{}; };
    jobs.push_back(std::move(before));

    Job group;
    group.key = "b/group";
    group.seed = seedFor(group.key);
    group.runMany = [](const JobContext &) {
        std::vector<KeyedOutcome> outcomes(3);
        for (int c = 0; c < 3; ++c) {
            outcomes[c].key = "b/cell" + std::to_string(c);
            outcomes[c].outcome.metrics["cell"] = c;
        }
        return outcomes;
    };
    jobs.push_back(std::move(group));

    Job after;
    after.key = "c/after";
    after.seed = seedFor(after.key);
    after.run = [](const JobContext &) { return JobOutcome{}; };
    jobs.push_back(std::move(after));

    const auto records = ThreadPoolExecutor().run(jobs);
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].key, "a/before");
    EXPECT_EQ(records[1].key, "b/cell0");
    EXPECT_EQ(records[2].key, "b/cell1");
    EXPECT_EQ(records[3].key, "b/cell2");
    EXPECT_EQ(records[4].key, "c/after");
    for (const JobRecord &record : records)
        EXPECT_EQ(record.status, JobStatus::Ok);
    // Expanded records inherit the group's seed.
    EXPECT_EQ(records[1].seed, seedFor("b/group"));
    EXPECT_EQ(records[1].outcome.metrics.at("cell"), 0.0);
    EXPECT_EQ(records[3].outcome.metrics.at("cell"), 2.0);
}

TEST(ThreadPoolExecutorMany, ThrowingGroupBecomesOneFailedRecord)
{
    Job job;
    job.key = "boom";
    job.seed = seedFor(job.key);
    job.runMany = [](const JobContext &) -> std::vector<KeyedOutcome> {
        throw std::runtime_error("injected group failure");
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, "boom");
    EXPECT_EQ(records[0].status, JobStatus::Failed);
    EXPECT_NE(records[0].error.find("injected group failure"),
              std::string::npos);
}

TEST(ThreadPoolExecutorMany, SettingBothCallablesIsAFailure)
{
    Job job;
    job.key = "both";
    job.run = [](const JobContext &) { return JobOutcome{}; };
    job.runMany = [](const JobContext &) {
        return std::vector<KeyedOutcome>(1);
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
}

TEST(ThreadPoolExecutorMany, EmptyGroupIsAFailure)
{
    Job job;
    job.key = "empty";
    job.runMany = [](const JobContext &) {
        return std::vector<KeyedOutcome>();
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
}

// ---------------------------------------------------------------------------
// Runner: wide jobs run alone on the whole thread budget.

TEST(ThreadPoolExecutorWide, WideJobsRunAloneInInputOrder)
{
    // Every job sleeps while counted as active, so any job alongside a
    // wide one would be seen; the plain runs show the count does see
    // concurrency.
    std::atomic<int> active{0}, plainPeak{0}, wideCrowded{0};
    const auto makeJob = [&](std::string key, bool wide, bool fail) {
        Job job;
        job.key = std::move(key);
        job.seed = seedFor(job.key);
        job.wide = wide;
        job.run = [&, wide, fail](const JobContext &ctx) {
            const int now = ++active;
            int peak = plainPeak.load();
            while (!wide && now > peak &&
                   !plainPeak.compare_exchange_weak(peak, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            if (wide && (now != 1 || active.load() != 1))
                ++wideCrowded;
            --active;
            if (fail)
                throw std::runtime_error("injected failure");
            JobOutcome outcome;
            outcome.metrics["threads"] = ctx.threads;
            return outcome;
        };
        return job;
    };
    std::vector<Job> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(makeJob("p" + std::to_string(i), false, false));
    jobs.push_back(makeJob("w4", true, true));
    jobs.push_back(makeJob("p5", false, true));
    jobs.push_back(makeJob("p6", false, false));
    jobs.push_back(makeJob("w7", true, false));
    jobs.push_back(makeJob("w8", true, false));
    for (int i = 9; i < 13; ++i)
        jobs.push_back(makeJob("p" + std::to_string(i), false, false));

    ExecutorOptions options;
    options.workers = 4;
    const auto records = ThreadPoolExecutor(options).run(jobs);

    EXPECT_EQ(wideCrowded.load(), 0);
    EXPECT_GE(plainPeak.load(), 2);
    ASSERT_EQ(records.size(), jobs.size());
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const double plainThreads = std::max(1u, hw / 4);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].key);
        EXPECT_EQ(records[i].key, jobs[i].key);
        const bool failed = jobs[i].key == "w4" || jobs[i].key == "p5";
        EXPECT_EQ(records[i].status,
                  failed ? JobStatus::Failed : JobStatus::Ok);
        if (!failed) {
            EXPECT_EQ(records[i].outcome.metrics.at("threads"),
                      jobs[i].wide ? 4 * plainThreads : plainThreads);
        }
    }
}

// ---------------------------------------------------------------------------
// Suite-level byte-identity: the sweep suites' wide lockstep groups dump
// the same documents as an explicitly built independent grid.

namespace
{

using Cell = std::pair<std::string, PolicyFactory>;

std::string
runDump(const std::string &suiteName, const std::vector<Job> &jobs)
{
    ResultsSink sink(suiteName);
    ExecutorOptions eopts;
    eopts.workers = 2;
    eopts.onComplete = [&sink](const JobRecord &r) { sink.add(r); };
    ThreadPoolExecutor(eopts).run(jobs);
    return sink.toJson(/*includeVolatile=*/false).dump(2);
}

/** The suite's own jobs for one benchmark, which must be one wide
 *  lockstep group. */
std::string
groupDump(const std::string &suiteName, const std::string &prefix)
{
    const Suite *suite = findSuite(suiteName);
    EXPECT_NE(suite, nullptr);
    SuiteOptions options;
    options.scale = 0.02;
    options.filter = prefix;
    std::vector<Job> jobs = suite->buildJobs(options);
    std::erase_if(jobs, [&](const Job &job) {
        return job.key.find(prefix) == std::string::npos;
    });
    EXPECT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs.at(0).key, prefix + "lockstep");
    EXPECT_TRUE(jobs.at(0).wide);
    return runDump(suiteName, jobs);
}

/** The independent oracle: one singleCoreJob per cell. */
std::string
independentDump(const std::string &suiteName, const std::string &bench,
                const std::vector<Cell> &cells, const SimConfig &config)
{
    std::vector<Job> jobs;
    for (const Cell &cell : cells)
        jobs.push_back(singleCoreJob(cell.first, bench, cell.second, config));
    return runDump(suiteName, jobs);
}

} // namespace

TEST(SuiteLockstepTest, Fig4LockstepDumpMatchesIndependent)
{
    const std::string prefix = "fig4/429.mcf/";
    std::vector<Cell> cells;
    for (unsigned denom : {4u, 8u, 16u, 32u, 64u, 128u})
        cells.emplace_back(prefix + "DRRIP-eps:" + std::to_string(denom),
                           [denom] { return makeDrrip(1.0 / denom); });
    for (uint32_t pd : defaultPdGrid()) {
        cells.emplace_back(prefix + "SPDP-NB:" + std::to_string(pd),
                           [pd] { return makeSpdpNb(pd); });
        cells.emplace_back(prefix + "SPDP-B:" + std::to_string(pd),
                           [pd] { return makeSpdpB(pd); });
    }
    SimConfig config;
    config.accesses = 2'000'000;
    config.warmup = 800'000;

    const std::string a = independentDump("fig4_static_pdp", "429.mcf",
                                          cells, config.scaled(0.02));
    const std::string b = groupDump("fig4_static_pdp", prefix);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"llc_misses\""), std::string::npos);
}

TEST(SuiteLockstepTest, Fig10LockstepDumpMatchesIndependent)
{
    // One benchmark's full fig10 grid: DIP, DRRIP, EELRU, SDP, the
    // dynamic PDPs and the 19-point SPDP-B sweep — 26 cells.
    const std::string prefix = "fig10/429.mcf/";
    std::vector<Cell> cells;
    for (const std::string &policy : fig10PolicyNames())
        cells.emplace_back(prefix + policy,
                           [policy] { return makePolicy(policy); });
    for (uint32_t pd : defaultPdGrid())
        cells.emplace_back(prefix + "SPDP-B:" + std::to_string(pd),
                           [pd] { return makeSpdpB(pd); });
    SimConfig config;
    config.accesses = 3'000'000;
    config.warmup = 1'000'000;

    const std::string a = independentDump("fig10_single_core", "429.mcf",
                                          cells, config.scaled(0.02));
    const std::string b = groupDump("fig10_single_core", prefix);
    EXPECT_EQ(a, b);
    const auto doc = Json::parse(a);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("jobs")->size(), 26u);
}

TEST(SuiteLockstepTest, ObserversAndCellFiltersGetIndependentJobs)
{
    const Suite *suite = findSuite("fig10_single_core");
    ASSERT_NE(suite, nullptr);
    const auto wideJobs = [](const std::vector<Job> &jobs) {
        return std::count_if(jobs.begin(), jobs.end(),
                             [](const Job &job) { return job.wide; });
    };

    SuiteOptions options;
    options.scale = 0.02;
    const std::vector<Job> grouped = suite->buildJobs(options);
    EXPECT_EQ(wideJobs(grouped),
              static_cast<long>(SpecSuite::singleCoreNames().size()));
    EXPECT_EQ(grouped.size(), SpecSuite::singleCoreNames().size());

    SuiteOptions traced = options;
    traced.telemetry = true;
    EXPECT_EQ(wideJobs(suite->buildJobs(traced)), 0);

    SuiteOptions cellFilter = options;
    cellFilter.filter = "429.mcf/EELRU";
    EXPECT_EQ(wideJobs(suite->buildJobs(cellFilter)), 0);
}

TEST(SuiteLockstepTest, ServiceGridIsOneWideGroupUnlessObserved)
{
    const Suite *suite = findSuite("service");
    ASSERT_NE(suite, nullptr);
    SuiteOptions options;
    options.scale = 0.02;
    options.serviceTenants = 8;
    options.serviceChurn = 2;
    const std::vector<Job> grouped = suite->buildJobs(options);
    ASSERT_EQ(grouped.size(), 1u);
    EXPECT_EQ(grouped[0].key, "service/t8c2/lockstep");
    EXPECT_TRUE(grouped[0].wide);

    // Observers, an injected fault, or a filter naming policies rather
    // than the group: one one-lane job per policy.
    SuiteOptions traced = options;
    traced.trace = true;
    SuiteOptions telemetry = options;
    telemetry.telemetry = true;
    SuiteOptions faulted = options;
    faulted.serviceFaultAt = 1000;
    SuiteOptions policyFilter = options;
    policyFilter.filter = "/LRU";
    for (const SuiteOptions &o : {traced, telemetry, faulted, policyFilter}) {
        const std::vector<Job> jobs = suite->buildJobs(o);
        EXPECT_EQ(jobs.size(), 5u);
        EXPECT_TRUE(std::none_of(jobs.begin(), jobs.end(),
                                 [](const Job &job) { return job.wide; }));
    }

    // Both groupings dump the same records, byte for byte.
    const std::string a = runDump("service", suite->buildJobs(policyFilter));
    const std::string b = runDump("service", grouped);
    EXPECT_EQ(a, b);
    const auto doc = Json::parse(a);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("jobs")->size(), 5u);
}
