/**
 * @file
 * Tests for the synthetic trace layer: pattern primitives, mixtures,
 * generator determinism/rewind, and the RDD fingerprints of the suite
 * (the calibration contract every experiment depends on).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/rd_profiler.h"
#include "policies/basic.h"
#include "trace/patterns.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"
#include "trace/zipf.h"
#include "util/rng.h"

using namespace pdp;

TEST(Patterns, LoopCyclesDeterministically)
{
    LoopPattern loop(4);
    loop.bind(0, 0, 1);
    Rng rng(1);
    std::vector<uint64_t> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(loop.nextLine(rng));
    EXPECT_EQ(first[0], first[4]);
    EXPECT_EQ(first[3], first[7]);
    std::set<uint64_t> distinct(first.begin(), first.end());
    EXPECT_EQ(distinct.size(), 4u);
}

TEST(Patterns, LoopDriftShiftsWindow)
{
    LoopPattern loop(4, 1, /*drift_period=*/8);
    loop.bind(0, 0, 1);
    Rng rng(1);
    std::set<uint64_t> lines;
    for (int i = 0; i < 64; ++i)
        lines.insert(loop.nextLine(rng));
    // With drift, more than the base working set is touched over time.
    EXPECT_GT(lines.size(), 4u);
}

TEST(Patterns, ScanNeverRepeatsWithinRun)
{
    ScanPattern scan;
    scan.bind(0, 0, 1);
    Rng rng(1);
    std::set<uint64_t> seen;
    for (int i = 0; i < 10000; ++i)
        EXPECT_TRUE(seen.insert(scan.nextLine(rng)).second);
}

TEST(Patterns, ChaseStaysInWorkingSet)
{
    ChasePattern chase(100);
    chase.bind(1 << 20, 0, 1);
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t line = chase.nextLine(rng);
        EXPECT_GE(line, 1u << 20);
        EXPECT_LT(line, (1u << 20) + 100);
    }
}

TEST(Patterns, HotColdConcentratesOnHotSet)
{
    HotColdPattern pattern({{10, 0.9}, {1000, 0.1}});
    pattern.bind(0, 0, 1);
    Rng rng(3);
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hot += pattern.nextLine(rng) < 10;
    // Hot lines get their own 90% plus a share of the cold draws.
    EXPECT_GT(static_cast<double>(hot) / n, 0.85);
}

TEST(Patterns, MixtureRespectsWeights)
{
    std::vector<MixtureComponent> comps;
    auto a = std::make_unique<LoopPattern>(4);
    a->bind(0, 0, 1);
    auto b = std::make_unique<ScanPattern>();
    b->bind(1ull << 30, 0, 1);
    comps.push_back({0.75, std::move(a)});
    comps.push_back({0.25, std::move(b)});
    MixturePattern mix(std::move(comps));
    Rng rng(4);
    int low = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        low += mix.nextLine(rng) < (1ull << 30);
    EXPECT_NEAR(static_cast<double>(low) / n, 0.75, 0.02);
}

TEST(SpecSuite, RegistryIsConsistent)
{
    EXPECT_GE(SpecSuite::all().size(), 23u);
    for (const auto &info : SpecSuite::all()) {
        EXPECT_TRUE(SpecSuite::contains(info.name));
        EXPECT_FALSE(info.description.empty());
    }
    EXPECT_FALSE(SpecSuite::contains("999.nope"));
    EXPECT_THROW(SpecSuite::make("999.nope"), std::invalid_argument);
    EXPECT_EQ(SpecSuite::singleCoreNames().size(), 18u);
    EXPECT_EQ(SpecSuite::multiCoreNames().size(), 16u);
    EXPECT_EQ(SpecSuite::phasedNames().size(), 5u);
}

TEST(SpecSuite, GeneratorIsDeterministicAndRewindable)
{
    auto a = SpecSuite::make("403.gcc");
    auto b = SpecSuite::make("403.gcc");
    for (int i = 0; i < 1000; ++i) {
        const Access x = a->next();
        const Access y = b->next();
        EXPECT_EQ(x.lineAddr, y.lineAddr);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.instrGap, y.instrGap);
    }
    const Access first = SpecSuite::make("403.gcc")->next();
    a->reset();
    const Access again = a->next();
    EXPECT_EQ(first.lineAddr, again.lineAddr);
}

TEST(SpecSuite, InstancesUseDisjointAddressSpaces)
{
    auto a = SpecSuite::make("429.mcf", 1, 0, 1);
    auto b = SpecSuite::make("429.mcf", 1, 1, 2);
    std::set<uint64_t> lines_a;
    for (int i = 0; i < 5000; ++i)
        lines_a.insert(a->next().lineAddr);
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(lines_a.count(b->next().lineAddr), 0u);
}

namespace
{

/** Exact LLC-input RDD fingerprint of a benchmark. */
struct Fingerprint
{
    uint32_t peak;
    double covered;
};

Fingerprint
fingerprint(const std::string &bench, uint64_t accesses = 1'200'000)
{
    auto gen = SpecSuite::make(bench);
    Cache l2(CacheConfig::paperL2(), std::make_unique<LruPolicy>());
    RdProfiler profiler(2048, 256);
    for (uint64_t i = 0; i < accesses; ++i) {
        const Access a = gen->next();
        AccessContext ctx;
        ctx.lineAddr = a.lineAddr;
        if (!l2.access(ctx).hit)
            profiler.observe(a.lineAddr & 2047, a.lineAddr);
    }
    return {profiler.peakRd(), profiler.coveredFraction()};
}

} // namespace

TEST(SuiteFingerprints, CactusAdmPeakNear72)
{
    const Fingerprint fp = fingerprint("436.cactusADM");
    EXPECT_GE(fp.peak, 56u);
    EXPECT_LE(fp.peak, 90u);
    EXPECT_GT(fp.covered, 0.5);
}

TEST(SuiteFingerprints, SphinxPeakNear100)
{
    const Fingerprint fp = fingerprint("482.sphinx3");
    EXPECT_GE(fp.peak, 80u);
    EXPECT_LE(fp.peak, 125u);
}

TEST(SuiteFingerprints, XalancWindowsPeakInOrder)
{
    const Fingerprint w2 = fingerprint("483.xalancbmk.2");
    const Fingerprint w3 = fingerprint("483.xalancbmk.3");
    EXPECT_GE(w2.peak, 70u);
    EXPECT_LE(w2.peak, 105u);
    EXPECT_GE(w3.peak, 100u);
    EXPECT_LE(w3.peak, 150u);
}

TEST(SuiteFingerprints, StreamingBenchmarksHaveLowCoverage)
{
    EXPECT_LT(fingerprint("433.milc").covered, 0.35);
    EXPECT_LT(fingerprint("470.lbm").covered, 0.35);
}

TEST(SuiteFingerprints, AstarIsLruFriendly)
{
    // Most reuse within a short distance: LRU must already perform well.
    auto gen = SpecSuite::make("473.astar");
    HierarchyConfig cfg;
    Hierarchy h(cfg, std::make_unique<LruPolicy>());
    for (int i = 0; i < 600000; ++i)
        h.access(gen->next());
    EXPECT_GT(h.llc().stats().hitRate(), 0.5);
}

TEST(Workloads, DeterministicAndWellFormed)
{
    const auto a = randomWorkloads(8, 4, 42);
    const auto b = randomWorkloads(8, 4, 42);
    ASSERT_EQ(a.size(), 8u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].benchmarks, b[i].benchmarks);
        EXPECT_EQ(a[i].benchmarks.size(), 4u);
        for (const auto &bench : a[i].benchmarks)
            EXPECT_TRUE(SpecSuite::contains(bench));
    }
    EXPECT_NE(randomWorkloads(1, 4, 1)[0].benchmarks,
              randomWorkloads(1, 4, 2)[0].benchmarks);
}

TEST(Workloads, InstantiateStampsThreadIds)
{
    const auto spec = randomWorkloads(1, 4, 7)[0];
    auto gens = instantiate(spec);
    ASSERT_EQ(gens.size(), 4u);
    for (uint8_t t = 0; t < 4; ++t)
        EXPECT_EQ(gens[t]->next().threadId, t);
}

// ---------------------------------------------------------------------
// ZipfSampler: the guide-table search must return exactly what a
// full-range lower_bound over the same CDF returns.

namespace
{

/** Frozen copy of the pre-guide-table sampler: the same CDF, searched
 *  over its whole range. */
class FullRangeZipf
{
  public:
    FullRangeZipf(uint64_t n, double alpha) : cdf_(n)
    {
        double sum = 0.0;
        for (uint64_t r = 0; r < n; ++r) {
            sum += __builtin_pow(static_cast<double>(r + 1), -alpha);
            cdf_[r] = sum;
        }
        const double inv = 1.0 / sum;
        for (double &c : cdf_)
            c *= inv;
        cdf_.back() = 1.0;
    }

    uint64_t
    rankOf(double u) const
    {
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return it == cdf_.end() ? cdf_.size() - 1
                                : static_cast<uint64_t>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

} // namespace

TEST(ZipfSampler, GuideTableMatchesFullRangeSearch)
{
    struct Shape
    {
        uint64_t n;
        double alpha;
    };
    const Shape shapes[] = {{1, 0.9},      {1, 0.0},     {2, 0.9},
                            {3, 0.0},      {1000, 0.0},  {1000, 0.9},
                            {4097, 1.2},   {16384, 0.6}, {1u << 17, 0.9},
                            {1u << 17, 0.0}, {100'003, 1.5}};
    for (const Shape &shape : shapes) {
        SCOPED_TRACE("n " + std::to_string(shape.n) + " alpha " +
                     std::to_string(shape.alpha));
        const ZipfSampler sampler(shape.n, shape.alpha);
        const FullRangeZipf frozen(shape.n, shape.alpha);
        uint64_t mismatches = 0;
        const auto check = [&](double u) {
            if (sampler.rankOf(u) != frozen.rankOf(u))
                ++mismatches;
        };
        // Every bucket edge of any guide table with at most n buckets
        // (the sampler keeps it below n), and the draws either side.
        uint64_t edges = 1;
        while (edges < shape.n)
            edges *= 2;
        for (uint64_t j = 0; j < edges; ++j) {
            const double edge =
                static_cast<double>(j) / static_cast<double>(edges);
            check(edge);
            check(edge + 0x1.0p-53);
            if (j > 0)
                check(edge - 0x1.0p-53);
        }
        check(1.0 - 0x1.0p-53); // the largest draw Rng::uniform makes
        // Random draws through the public sampling path.
        Rng a(shape.n * 31 + 7), b(shape.n * 31 + 7);
        for (int i = 0; i < 200'000; ++i)
            if (sampler.sample(a) != frozen.rankOf(b.uniform()))
                ++mismatches;
        EXPECT_EQ(mismatches, 0u);
    }
}
