/**
 * @file
 * Checked verdicts: one test per paper-artifact suite, asserting over the
 * suite's own records the direction EXPERIMENTS.md records for it.
 *
 * Each artifact runs at the smallest scale of the ladder 0.02, 0.05,
 * 0.1, 0.15, 0.2, ... where it is defined, i.e. where the quantity its
 * verdict is about can take more than one value.  Each test asserts
 * that precondition first, so a change that makes the artifact
 * degenerate at its scale says so instead of passing vacuously.  Where
 * the verdict does not hold at that scale, EXPERIMENTS.md records it
 * and the test pins the recorded outcome.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "sim/static_pd_search.h"
#include "trace/spec_suite.h"

using namespace pdp;
using namespace pdp::runner;

namespace
{

/** Every record of `suiteName` at `scale` whose job key holds `filter`,
 *  as runSuite executes them. */
std::vector<JobRecord>
suiteRecords(const std::string &suiteName, double scale,
             const std::string &filter = "")
{
    const Suite *suite = findSuite(suiteName);
    EXPECT_NE(suite, nullptr) << suiteName;
    if (!suite)
        return {};
    SuiteOptions options;
    options.scale = scale;
    options.filter = filter;
    std::vector<Job> jobs = suite->buildJobs(options);
    std::erase_if(jobs, [&](const Job &job) {
        return job.key.find(filter) == std::string::npos;
    });
    std::vector<JobRecord> records =
        ThreadPoolExecutor(ExecutorOptions{}).run(jobs);
    for (const JobRecord &record : records)
        EXPECT_EQ(record.status, JobStatus::Ok) << record.key;
    return records;
}

const SimResult &
single(const RecordLookup &records, const std::string &key)
{
    const SimResult *r = records.single(key);
    EXPECT_NE(r, nullptr) << key;
    static const SimResult missing;
    return r ? *r : missing;
}

double
metric(const RecordLookup &records, const std::string &key,
       const std::string &name)
{
    const JobRecord *record = records.find(key);
    EXPECT_NE(record, nullptr) << key;
    if (!record)
        return 0.0;
    const auto it = record->outcome.metrics.find(name);
    EXPECT_NE(it, record->outcome.metrics.end()) << key << " " << name;
    return it == record->outcome.metrics.end() ? 0.0 : it->second;
}

/** The miss-minimizing PD of one static-PD grid (strictly fewer misses
 *  wins, so ties keep the earliest grid point). */
uint32_t
bestPd(const RecordLookup &records, const std::string &prefix)
{
    uint32_t best = 0;
    uint64_t fewest = 0;
    for (uint32_t pd : defaultPdGrid()) {
        const uint64_t misses =
            single(records, prefix + std::to_string(pd)).llcMisses;
        if (best == 0 || misses < fewest) {
            best = pd;
            fewest = misses;
        }
    }
    return best;
}

} // namespace

TEST(ArtifactVerdicts, Fig1RddPeaksSitAtThePaperDistances)
{
    // Defined once every profile holds a reuse within d_max (at 0.05 the
    // 483.xalancbmk.2 profile is still empty).
    const auto records = suiteRecords("fig1_rdd", 0.1);
    const RecordLookup lookup(records);
    const std::map<std::string, std::vector<double>> paperPeaks = {
        {"403.gcc", {32, 100}},         {"436.cactusADM", {72}},
        {"450.soplex", {24, 120}},      {"464.h264ref", {20}},
        {"482.sphinx3", {100}},         {"483.xalancbmk.1", {100}},
        {"483.xalancbmk.2", {88}},      {"483.xalancbmk.3", {124, 40}}};
    for (const auto &[bench, peaks] : paperPeaks) {
        const std::string key = "fig1/" + bench + "/rdd";
        ASSERT_GT(metric(lookup, key, "covered"), 0.0) << bench;
        const double peak = metric(lookup, key, "peak_rd");
        EXPECT_TRUE(std::any_of(peaks.begin(), peaks.end(),
                                [&](double p) {
                                    return std::abs(peak - p) <= 8;
                                }))
            << bench << " peaks at " << peak;
    }
}

TEST(ArtifactVerdicts, Fig2H264refEpsilonDirection)
{
    // Defined once every benchmark's row depends on epsilon (at 0.02 the
    // cactusADM and xalancbmk.3 rows are flat).
    const auto records = suiteRecords("fig2_epsilon", 0.05);
    const RecordLookup lookup(records);
    const auto norm = [&](const std::string &bench, unsigned denom) {
        const std::string prefix = "fig2/" + bench + "/DRRIP-eps:";
        return single(lookup, prefix + std::to_string(denom)).mpki /
            single(lookup, prefix + "32").mpki;
    };
    for (const char *bench :
         {"403.gcc", "436.cactusADM", "464.h264ref", "483.xalancbmk.3"}) {
        bool varies = false;
        for (unsigned denom : {4u, 8u, 16u, 64u, 128u, 256u})
            varies = varies || std::abs(norm(bench, denom) - 1.0) >= 5e-4;
        ASSERT_TRUE(varies) << bench;
    }
    // The paper's direction (h264ref prefers a larger epsilon: the 1/4
    // cell below 1.0) holds from scale 0.1 up; at this scale the cell
    // is still above 1.0, as EXPERIMENTS.md records.
    EXPECT_GT(norm("464.h264ref", 4), 1.0);
}

TEST(ArtifactVerdicts, Fig5aChoosesFig4sBestPds)
{
    // Defined at every scale: the choice is fig4's grid, run length and
    // tie-break on the same stream, so the PDs must agree exactly.
    const auto fig5a = suiteRecords("fig5a_occupancy", 0.02);
    const RecordLookup occupancy(fig5a);
    for (const std::string bench : {"436.cactusADM", "464.h264ref"}) {
        const auto fig4 =
            suiteRecords("fig4_static_pdp", 0.02, "fig4/" + bench + "/");
        const RecordLookup grid(fig4);
        for (const std::string family : {"SPDP-NB:", "SPDP-B:"}) {
            const std::string prefix = "fig5a/" + bench + "/" + family;
            const uint32_t chosen = bestPd(occupancy, prefix);
            EXPECT_EQ(chosen, bestPd(grid, "fig4/" + bench + "/" + family))
                << bench << " " << family;
            // The chosen lane carries its occupancy breakdown.
            EXPECT_GT(metric(occupancy, prefix + std::to_string(chosen),
                             "acc_hit"),
                      0.0);
        }
    }
}

TEST(ArtifactVerdicts, Fig6ModelArgmaxIsNearOptimal)
{
    // Defined once E(d_p) is non-empty for every benchmark (at 0.1 the
    // 483.xalancbmk.2 profile still has no reuse to model).
    const auto records = suiteRecords("fig6_model", 0.15);
    const RecordLookup lookup(records);
    const std::vector<uint32_t> grid = {16,  32,  48,  64,  80,  96,
                                        112, 128, 160, 192, 224, 256};
    // Recorded in EXPERIMENTS.md: at this scale sphinx3's E peaks at
    // the short-distance mass (16) while its hit rate peaks at 112.
    const std::set<std::string> deviates = {"482.sphinx3"};
    for (const char *bench :
         {"403.gcc", "436.cactusADM", "464.h264ref", "482.sphinx3",
          "483.xalancbmk.2", "450.soplex"}) {
        const std::string prefix = "fig6/" + std::string(bench) + "/";
        ASSERT_GT(metric(lookup, prefix + "model", "e_max"), 0.0) << bench;
        const double argmaxE = metric(lookup, prefix + "model", "e_argmax");
        double best = 0.0, atArgmax = -1.0;
        for (uint32_t pd : grid) {
            const SimResult &r =
                single(lookup, prefix + "SPDP-B:" + std::to_string(pd));
            const double hit = r.llcAccesses
                ? static_cast<double>(r.llcHits) / r.llcAccesses
                : 0.0;
            best = std::max(best, hit);
            if (atArgmax < 0.0 && pd >= argmaxE)
                atArgmax = hit;
        }
        // The model's choice loses at most 5% of the best hit rate.
        EXPECT_EQ(atArgmax >= 0.95 * best, deviates.count(bench) == 0)
            << bench << ": argmax E " << argmaxE << " reaches "
            << atArgmax / best << " of the best hit rate";
    }
}

TEST(ArtifactVerdicts, Fig9RealSamplerTracksFull)
{
    // Defined once the sampler matters, i.e. some benchmark's PD was
    // recomputed differently under Full and Real (at 0.05 every cell is
    // still exactly 1.000).
    const auto records = suiteRecords("fig9_params", 0.1);
    const RecordLookup lookup(records);
    double sum = 0.0;
    bool differs = false;
    const auto names = SpecSuite::singleCoreNames();
    for (const std::string &bench : names) {
        const std::string prefix = "fig9/" + bench + "/";
        const double ratio = single(lookup, prefix + "Real-Sc1").mpki /
            single(lookup, prefix + "Full-Sc1").mpki;
        differs = differs || ratio != 1.0;
        sum += ratio;
    }
    ASSERT_TRUE(differs);
    // The band CHANGES.md states: the suite-average Real/Full MPKI ratio
    // within 3% of 1.0.
    EXPECT_NEAR(sum / names.size(), 1.0, 0.03);
}

TEST(ArtifactVerdicts, Fig11PhasedPdSeriesChangesValue)
{
    // Defined once every phased benchmark has recomputed its PD at least
    // twice (at 0.1 each series holds one sample).
    const auto records = suiteRecords("fig11_phases", 0.15);
    const RecordLookup lookup(records);
    for (const std::string &bench : SpecSuite::phasedNames())
        ASSERT_GE(metric(lookup, "fig11/" + bench + "/PDP-8", "pd_samples"),
                  2.0)
            << bench;
    const std::string key = "fig11/483.xalancbmk.phased/PDP-8";
    const auto samples =
        static_cast<size_t>(metric(lookup, key, "pd_samples"));
    std::set<double> values;
    for (size_t i = 0; i < samples; ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "pd:%04zu", i);
        values.insert(metric(lookup, key, name));
    }
    EXPECT_GE(values.size(), 2u);
}

TEST(ArtifactVerdicts, Table2SomeBestPdIsAbove128)
{
    // Table 2 is fig4's "best PD (B)" column.  Defined once protecting
    // beyond 128 changes some benchmark's misses (at 0.05 SPDP-B:256 and
    // SPDP-B:128 tie everywhere).  Its other half, "no best PD above
    // 256", cannot fail on a grid that stops at 256.
    const auto records = suiteRecords("fig4_static_pdp", 0.1);
    const RecordLookup lookup(records);
    bool farMatters = false;
    uint32_t largest = 0;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig4/" + bench + "/SPDP-B:";
        farMatters = farMatters ||
            single(lookup, prefix + "256").llcMisses !=
                single(lookup, prefix + "128").llcMisses;
        largest = std::max(largest, bestPd(lookup, prefix));
    }
    ASSERT_TRUE(farMatters);
    EXPECT_GT(largest, 128u);
}

TEST(ArtifactVerdicts, Sec65PdOneInsertionBeatsUnawarePdp)
{
    // Defined once prefetch-aware insertion changes some benchmark's IPC.
    const auto records = suiteRecords("prefetch", 0.02);
    const RecordLookup lookup(records);
    double unaware = 0.0, pdOne = 0.0;
    bool differs = false;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "prefetch/" + bench + "/";
        const double drrip = single(lookup, prefix + "DRRIP").ipc;
        const double a = single(lookup, prefix + "PDP-8").ipc / drrip;
        const double b = single(lookup, prefix + "PDP-8:pf-PD1").ipc / drrip;
        differs = differs || a != b;
        unaware += a;
        pdOne += b;
    }
    ASSERT_TRUE(differs);
    EXPECT_GT(pdOne, unaware);
}
