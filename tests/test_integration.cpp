/**
 * @file
 * Cross-module integration tests: end-to-end reproduction of the paper's
 * qualitative claims on short runs.  These are the "does the repo tell
 * the paper's story" checks.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.h"
#include "core/pdp_policy.h"
#include "sim/multi_core_sim.h"
#include "sim/policy_factory.h"
#include "sim/single_core_sim.h"
#include "trace/spec_suite.h"

using namespace pdp;

namespace
{

SimConfig
shortConfig()
{
    SimConfig config;
    config.accesses = 800000;
    config.warmup = 400000;
    return config;
}

} // namespace

TEST(Integration, DynamicPdpTracksTheStaticOptimumOnCactus)
{
    // The paper's flagship: the computed PD lands on the RDD peak.
    const SimConfig config = shortConfig();
    auto gen = SpecSuite::make("436.cactusADM");
    auto policy = makeDynamicPdp(8);
    const PdpPolicy *pdp = policy.get();
    Hierarchy h(config.hierarchy, std::move(policy));
    runSingleCore(*gen, h, config);
    ASSERT_GE(pdp->pdHistory().size(), 2u);
    const uint32_t final_pd = pdp->pd();
    EXPECT_GE(final_pd, 72u);
    EXPECT_LE(final_pd, 128u);
}

TEST(Integration, PdpBeatsDipAndDrripOnPeakedBenchmarks)
{
    const SimConfig config = shortConfig();
    for (const char *bench : {"436.cactusADM", "482.sphinx3"}) {
        const SimResult dip = runSingleCore(bench, "DIP", config);
        const SimResult drrip = runSingleCore(bench, "DRRIP", config);
        const SimResult pdp = runSingleCore(bench, "PDP-8", config);
        EXPECT_LT(pdp.llcMisses, dip.llcMisses) << bench;
        EXPECT_LE(pdp.llcMisses, drrip.llcMisses * 1.01) << bench;
    }
}

TEST(Integration, EelruLosesToDip)
{
    const SimConfig config = shortConfig();
    const SimResult dip = runSingleCore("450.soplex", "DIP", config);
    const SimResult eelru = runSingleCore("450.soplex", "EELRU", config);
    EXPECT_GT(eelru.llcMisses, dip.llcMisses);
}

TEST(Integration, SdpWinsWherePcPredictsDeath)
{
    const SimConfig config = shortConfig();
    for (const char *bench : {"437.leslie3d", "459.GemsFDTD"}) {
        const SimResult sdp = runSingleCore(bench, "SDP", config);
        const SimResult pdp = runSingleCore(bench, "PDP-8", config);
        const SimResult dip = runSingleCore(bench, "DIP", config);
        EXPECT_LT(sdp.llcMisses, dip.llcMisses) << bench;
        EXPECT_LT(sdp.llcMisses, pdp.llcMisses) << bench;
    }
}

TEST(Integration, SdpLosesOnSharedPcBenchmarks)
{
    const SimConfig config = shortConfig();
    for (const char *bench : {"464.h264ref", "483.xalancbmk.3"}) {
        const SimResult sdp = runSingleCore(bench, "SDP", config);
        const SimResult dip = runSingleCore(bench, "DIP", config);
        EXPECT_GT(sdp.llcMisses, dip.llcMisses) << bench;
    }
}

TEST(Integration, BypassMattersOnH264)
{
    // SPDP-B vs SPDP-NB at the same PD: bypass reduces misses.
    const SimConfig config = shortConfig();
    const SimResult nb = runSingleCore("464.h264ref", "SPDP-NB:40", config);
    const SimResult b = runSingleCore("464.h264ref", "SPDP-B:40", config);
    EXPECT_LT(b.llcMisses, nb.llcMisses);
}

TEST(Integration, LibquantumNeedsFullNc)
{
    // PD = d_max: PDP-2/PDP-3 cannot protect far enough (Sec. 6.2).
    // libquantum's reuse lap is ~512K accesses, so this one needs a
    // longer run than the other integration checks.
    SimConfig config;
    config.accesses = 1'600'000;
    config.warmup = 800'000;
    const SimResult pdp8 = runSingleCore("462.libquantum", "PDP-8", config);
    const SimResult pdp2 = runSingleCore("462.libquantum", "PDP-2", config);
    EXPECT_LT(pdp8.llcMisses, pdp2.llcMisses);
}

TEST(Integration, McfPrefersPdOneInsertion)
{
    // Sec. 6.3: inserting with PD=1 beats the computed PD on mcf.
    const SimConfig config = shortConfig();
    const SimResult pdp = runSingleCore("429.mcf", "PDP-8", config);
    const SimResult pd1 = runSingleCore("429.mcf", "PDP-1INS", config);
    EXPECT_LT(pd1.llcMisses, pdp.llcMisses);
}

TEST(Integration, PhasedBenchmarkTriggersPdChanges)
{
    SimConfig config;
    config.accesses = 4'000'000;
    config.warmup = 200'000;
    auto gen = SpecSuite::make("483.xalancbmk.phased");
    PdpParams params;
    params.recomputeInterval = 512 * 1024;
    auto policy = std::make_unique<PdpPolicy>(params);
    const PdpPolicy *pdp = policy.get();
    Hierarchy h(config.hierarchy, std::move(policy));
    runSingleCore(*gen, h, config);
    // Distinct phases must produce distinct recomputed PDs.
    uint32_t min_pd = ~0u, max_pd = 0;
    for (const PdSample &s : pdp->pdHistory()) {
        min_pd = std::min(min_pd, s.pd);
        max_pd = std::max(max_pd, s.pd);
    }
    EXPECT_GT(max_pd, min_pd + 8);
}

TEST(Integration, PartitioningHelpsMixedWorkload)
{
    // A protectable thread next to streamers: PD partitioning should be
    // at least competitive with TA-DRRIP.
    WorkloadSpec spec;
    spec.benchmarks = {"436.cactusADM", "470.lbm", "433.milc",
                       "482.sphinx3"};
    MultiCoreConfig config;
    config.cores = 4;
    config.accessesPerThread = 400000;
    config.warmupPerThread = 150000;
    const MultiCoreResult base = runMultiCore(spec, "TA-DRRIP", config);
    const MultiCoreResult pdp = runMultiCore(spec, "PDP-3", config);
    EXPECT_GT(pdp.weightedIpc, base.weightedIpc * 0.98);
}

TEST(Integration, PrefetchAwareVariantsDoNotRegress)
{
    SimConfig config;
    config.accesses = 400000;
    config.warmup = 150000;

    auto run = [&](PdpParams::PrefetchMode mode) {
        PdpParams params;
        params.prefetchMode = mode;
        auto gen = SpecSuite::make("482.sphinx3");
        Hierarchy h(config.hierarchy,
                    std::make_unique<PdpPolicy>(params));
        h.attachPrefetcher(std::make_unique<StreamPrefetcher>());
        return runSingleCore(*gen, h, config);
    };
    const SimResult normal = run(PdpParams::PrefetchMode::Normal);
    const SimResult bypass = run(PdpParams::PrefetchMode::Bypass);
    // The aware variant must not be materially worse.
    EXPECT_GT(bypass.ipc, normal.ipc * 0.97);
}
