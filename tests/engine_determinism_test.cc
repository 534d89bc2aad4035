/**
 * @file
 * Determinism anchors for the serving engine across the PR 4 hot-path
 * overhaul (allocation-free event core, memoized device models,
 * streaming SLO percentile, nth_element summaries).
 *
 * Two layers of protection:
 *
 *  - Golden metrics: seeded configurations pinned at hex-float
 *    precision to the values the pre-overhaul engine produced (the
 *    phase-energy pins and configs C and E came later, captured from
 *    the engine of their time). Every
 *    simulated quantity — event times, percentiles, throughput,
 *    policy counters, phase energies — must match to double
 *    precision; the three avg* summary means are pinned to 1e-12
 *    relative because finalizeResult now sums samples in production
 *    order instead of ascending order (same samples, same count;
 *    only the last-ulp rounding of the sum differs). The simEvents
 *    pins are work counters rather than results: they fail when an
 *    event nobody observes is reintroduced into the core.
 *
 *  - Run-to-run: the same engine object graph run twice in one
 *    process must be bit-identical in every field, which is what the
 *    CI determinism job also checks across processes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "result_compare.hh"
#include "system/engine.hh"
#include "system/sched_policy.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

EngineResult
runConfigA()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 64; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(30000) : Tokens(2000),
                        24});
    auto timed = gammaArrivals(reqs, 4.0, 3.0, 17);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    return ServingEngine(cluster, model, timed, opts).run();
}

EngineResult
runConfigB()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 20000, 16});
    auto timed = poissonArrivals(reqs, 2.0, 7);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 1024;
    opts.sched.kind = SchedPolicyKind::SloAdmission;
    return ServingEngine(cluster, model, timed, opts).run();
}

/**
 * PIM-only PP=1 closed loop: the PimOnly cycle accounting (attention
 * and FC both on the PIM channels) on a single cohort.
 */
EngineResult
runConfigC()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 8; ++i)
        reqs.push_back({i, 20000 + 5000 * Tokens(i), 16});
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    return ServingEngine(cluster, model, reqs, opts).run();
}

EngineResult
runConfigD()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 16; ++i)
        reqs.push_back({i, 30000, 12});
    auto timed = poissonArrivals(reqs, 1.5, 17);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.sched.kind = SchedPolicyKind::ChunkPreempt;
    return ServingEngine(cluster, model, timed, opts).run();
}

/**
 * PP=4 open loop with the unchunked scalar prefill charge: admissions
 * serialize on the prefillReady clock that gates new cycles, and the
 * XpuPim system leaves most channel-cycles idle, so each cycle
 * charges idle background energy on top of its plan.
 */
EngineResult
runConfigE()
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, (i % 3 == 0) ? Tokens(8000) : Tokens(1000),
                        64});
    auto timed = poissonArrivals(reqs, 12.0, 23);
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.chargePrefill = true;
    return ServingEngine(cluster, model, timed, opts).run();
}

/** Energy components, pinned like every other simulated double. */
void
expectEnergy(const EnergyBreakdown &e, double mac, double io,
             double background, double act_pre, double refresh,
             double other)
{
    EXPECT_DOUBLE_EQ(e.mac, mac);
    EXPECT_DOUBLE_EQ(e.io, io);
    EXPECT_DOUBLE_EQ(e.background, background);
    EXPECT_DOUBLE_EQ(e.actPre, act_pre);
    EXPECT_DOUBLE_EQ(e.refreshE, refresh);
    EXPECT_DOUBLE_EQ(e.elseE, other);
}

/** avg* fields: pinned to relative 1e-12 (summation-order change). */
void
expectAvgNear(double actual, double golden)
{
    EXPECT_NEAR(actual, golden, 1e-12 * std::abs(golden) + 1e-300);
}

TEST(EngineGolden, EventDrivenPp4FifoChunked)
{
    auto r = runConfigA();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.0dc2950e6faffp+6);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.6c69a64fde9b9p+4);
    EXPECT_EQ(r.generatedTokens, 1536u);
    EXPECT_EQ(r.completedRequests, 64u);
    EXPECT_DOUBLE_EQ(r.avgEffectiveBatch, 0x1.293396f5d0b5bp+3);
    EXPECT_DOUBLE_EQ(r.macUtilization, 0x1.3e78189cc649ap-3);
    EXPECT_DOUBLE_EQ(r.capacityUtilization, 0x1.06d349531cda7p-3);
    EXPECT_DOUBLE_EQ(r.attentionSeconds, 0x1.8e79c4abdad46p+1);
    EXPECT_DOUBLE_EQ(r.fcSeconds, 0x1.62d540ad09928p+2);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0x1.ab40b5fda861dp+3);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.9cee1d2c9a9bp+2);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.4c6cd1a96e2ccp+2);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.f8ad03a9d52a8p-2);
    EXPECT_DOUBLE_EQ(r.maxDecodeXpuWaitSeconds, 0x1.8946b705d2885p-2);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.ab40b5fda8616p+5);
    expectAvgNear(r.avgRequestLatency, 0x1.289a62b4d8264p+2);
    expectAvgNear(r.avgFirstTokenSeconds, 0x1.a3b100f0cefa1p+0);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.0aaf7ddf8090cp-3);
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    EXPECT_EQ(r.sloDeferrals, 0u);
    EXPECT_EQ(r.chunkSlices, 0u);
    EXPECT_EQ(r.decodeOvertakes, 0u);
    // Work counter: 4807 while unobserved device reservations
    // (the FIFO FC shadow) were events.
    EXPECT_EQ(r.simEvents, 3011u);
    expectEnergy(r.attentionEnergy, 0x1.275p+42, 0x1.545p+39,
                 0x1.312c1575ab20dp+41, 0x1.d01p+35, 0x1.a5ep+34,
                 0x1.0ep+39);
    expectEnergy(r.fcEnergy, 0.0, 0.0, 0x1.6dd6abd9e35f2p+41, 0.0, 0.0,
                 0x1.b9999999999a5p+42);
}

TEST(EngineGolden, EventDrivenPp2SloAdmission)
{
    auto r = runConfigB();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.c6221449dc69bp+4);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.209ec681ab226p+4);
    EXPECT_EQ(r.generatedTokens, 512u);
    EXPECT_EQ(r.completedRequests, 32u);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.6b67d7357f448p+2);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.292e0105d1166p+2);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.fe72c208383cp-4);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0x1.b7c5d48b072fep+3);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.b7c5d48b07303p+4);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.1f3e419584d91p-5);
    // The SLO gate's deferral count is the sharpest witness that the
    // streaming windowed p95 reproduces the copy+sort signal: one
    // different percentile read would shift admissions.
    EXPECT_EQ(r.sloDeferrals, 73u);
    // 2620 while unobserved device reservations were events.
    EXPECT_EQ(r.simEvents, 1966u);
    expectEnergy(r.attentionEnergy, 0x1.b58p+41, 0x1.b8p+38,
                 0x1.f0e4922a44a27p+40, 0x1.194p+35, 0.0, 0x1.9p+38);
    expectEnergy(r.fcEnergy, 0.0, 0.0, 0x1.14ab99678daeep+41, 0.0, 0.0,
                 0x1.266666666664cp+41);
}

TEST(EngineGolden, EventDrivenPp1PimOnlyClosedLoop)
{
    auto r = runConfigC();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.4499752e43138p+9);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.93cbcf4bd81acp-3);
    EXPECT_EQ(r.generatedTokens, 128u);
    EXPECT_EQ(r.completedRequests, 8u);
    EXPECT_DOUBLE_EQ(r.avgEffectiveBatch, 0x1p+3);
    EXPECT_DOUBLE_EQ(r.macUtilization, 0x1.5921e0372e998p-2);
    EXPECT_DOUBLE_EQ(r.capacityUtilization, 0x1.41f3ea3258a45p-2);
    EXPECT_DOUBLE_EQ(r.attentionSeconds, 0x1.eb60136ea557bp-4);
    EXPECT_DOUBLE_EQ(r.fcSeconds, 0x1.b93da3cf7d811p-5);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.93cbcf4bd81acp-3);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.93ba17cf90b2ap-7);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.93d3dce16cedp-7);
    EXPECT_DOUBLE_EQ(r.maxDecodeXpuWaitSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0.0);
    expectAvgNear(r.avgRequestLatency, 0x1.93cbcf4bd81acp-3);
    expectAvgNear(r.avgFirstTokenSeconds, 0x1.93ba17cf90b29p-7);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.93ccfda97677fp-7);
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    EXPECT_EQ(r.sloDeferrals, 0u);
    EXPECT_EQ(r.chunkSlices, 0u);
    EXPECT_EQ(r.decodeOvertakes, 0u);
    EXPECT_FALSE(r.truncated);
    // One cohort, one completion event per decode cycle.
    EXPECT_EQ(r.simEvents, 16u);
    expectEnergy(r.attentionEnergy, 0x1.98cap+40, 0x1.930cp+37,
                 0x1.74aa494929defp+39, 0x1.0eb4p+34, 0x1.3c68p+33,
                 0x1.75cp+37);
    expectEnergy(r.fcEnergy, 0x1.1c6p+40, 0x1.f15dp+38,
                 0x1.47bc36b6d6211p+39, 0x1.6dap+35, 0.0, 0x1.04p+37);
}

TEST(EngineGolden, EventDrivenChunkPreempt)
{
    auto r = runConfigD();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.ac69c8d7c69eep+3);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.caebe19eb91a8p+3);
    EXPECT_EQ(r.generatedTokens, 192u);
    EXPECT_EQ(r.completedRequests, 16u);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.4d61d3e51d8p-8);
    EXPECT_DOUBLE_EQ(r.maxDecodeXpuWaitSeconds, 0x1.0624dd2f1bp-9);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0x1.7afb48e11a616p+3);
    // Quantum-slicing counters: preemption accounting is exact.
    EXPECT_EQ(r.chunkSlices, 5808u);
    EXPECT_EQ(r.decodeOvertakes, 168u);
    // 6794 while the arbitrated path's PIM attention and stall
    // reservations were events.
    EXPECT_EQ(r.simEvents, 6448u);
    expectEnergy(r.attentionEnergy, 0x1.ec3p+40, 0x1.efp+37,
                 0x1.659c15b8fe361p+40, 0x1.518p+34, 0x1.a5ep+33,
                 0x1.c2p+37);
    expectEnergy(r.fcEnergy, 0.0, 0.0, 0x1.7547c9ed41ca1p+40, 0.0, 0.0,
                 0x1.b9999999999b3p+39);
}

TEST(EngineGolden, EventDrivenPp4ScalarPrefill)
{
    auto r = runConfigE();
    EXPECT_DOUBLE_EQ(r.tokensPerSecond, 0x1.edc6e050bfe15p+8);
    EXPECT_DOUBLE_EQ(r.simulatedSeconds, 0x1.0972a5824eb98p+2);
    EXPECT_EQ(r.generatedTokens, 2048u);
    EXPECT_EQ(r.completedRequests, 32u);
    EXPECT_DOUBLE_EQ(r.avgEffectiveBatch, 0x1.6cd2104072868p+3);
    EXPECT_DOUBLE_EQ(r.macUtilization, 0x1.11378485d593p-4);
    EXPECT_DOUBLE_EQ(r.capacityUtilization, 0x1.5838810361b62p-5);
    EXPECT_DOUBLE_EQ(r.attentionSeconds, 0x1.f56dd5c670906p+0);
    EXPECT_DOUBLE_EQ(r.fcSeconds, 0x1.0594a7fb49314p+3);
    EXPECT_DOUBLE_EQ(r.prefillSeconds, 0x1.dfff2e9ecee2dp+0);
    EXPECT_DOUBLE_EQ(r.p95RequestLatency, 0x1.d4e561477ad33p+0);
    EXPECT_DOUBLE_EQ(r.p95FirstTokenSeconds, 0x1.206bad7274fc8p-2);
    EXPECT_DOUBLE_EQ(r.p95TokenGapSeconds, 0x1.3a3142e4a71ep-3);
    EXPECT_DOUBLE_EQ(r.maxDecodeXpuWaitSeconds, 0x1p-51);
    EXPECT_DOUBLE_EQ(r.xpuPrefillBusySeconds, 0.0);
    expectAvgNear(r.avgRequestLatency, 0x1.8340b53363043p+0);
    expectAvgNear(r.avgFirstTokenSeconds, 0x1.0efd9fccbd71dp-3);
    expectAvgNear(r.avgTokenGapSeconds, 0x1.66fcf50e03648p-6);
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    EXPECT_EQ(r.sloDeferrals, 0u);
    EXPECT_EQ(r.chunkSlices, 0u);
    EXPECT_EQ(r.decodeOvertakes, 0u);
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.simEvents, 2680u);
    expectEnergy(r.attentionEnergy, 0x1.6378p+41, 0x1.e14p+38,
                 0x1.38fc714d1ebbbp+41, 0x1.2e58p+35, 0.0, 0x1.45p+38);
    expectEnergy(r.fcEnergy, 0.0, 0.0, 0x1.ada0807169239p+42, 0.0, 0.0,
                 0x1.2666666666668p+43);
}

TEST(EngineDeterminism, RepeatedRunsAreBitIdentical)
{
    const std::vector<EngineResult (*)()> configs = {
        runConfigA, runConfigB, runConfigC, runConfigD, runConfigE};
    for (std::size_t cfg = 0; cfg < configs.size(); ++cfg) {
        SCOPED_TRACE(cfg);
        expectSameResult(configs[cfg](), configs[cfg]());
    }
}

} // namespace
} // namespace pimphony
