/**
 * @file
 * The one EngineResult comparator of the bit-identity tests (fleet vs
 * bare engine, faulted vs fault-free, replay vs generated, T threads
 * vs serial): every field, the per-class and per-tenant summaries
 * included, compared exactly.
 */

#ifndef PIMPHONY_TESTS_RESULT_COMPARE_HH
#define PIMPHONY_TESTS_RESULT_COMPARE_HH

#include <gtest/gtest.h>

#include "system/engine.hh"

namespace pimphony {

inline void
expectSameEnergy(const EnergyBreakdown &a, const EnergyBreakdown &b)
{
    EXPECT_EQ(a.mac, b.mac);
    EXPECT_EQ(a.io, b.io);
    EXPECT_EQ(a.background, b.background);
    EXPECT_EQ(a.actPre, b.actPre);
    EXPECT_EQ(a.refreshE, b.refreshE);
    EXPECT_EQ(a.elseE, b.elseE);
}

inline void
expectSameResult(const EngineResult &a, const EngineResult &b)
{
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(a.simulatedSeconds, b.simulatedSeconds);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.rejectedRequests, b.rejectedRequests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.avgEffectiveBatch, b.avgEffectiveBatch);
    EXPECT_EQ(a.macUtilization, b.macUtilization);
    EXPECT_EQ(a.capacityUtilization, b.capacityUtilization);
    EXPECT_EQ(a.attentionSeconds, b.attentionSeconds);
    EXPECT_EQ(a.fcSeconds, b.fcSeconds);
    expectSameEnergy(a.attentionEnergy, b.attentionEnergy);
    expectSameEnergy(a.fcEnergy, b.fcEnergy);
    EXPECT_EQ(a.prefillSeconds, b.prefillSeconds);
    EXPECT_EQ(a.avgRequestLatency, b.avgRequestLatency);
    EXPECT_EQ(a.p95RequestLatency, b.p95RequestLatency);
    EXPECT_EQ(a.avgFirstTokenSeconds, b.avgFirstTokenSeconds);
    EXPECT_EQ(a.p95FirstTokenSeconds, b.p95FirstTokenSeconds);
    EXPECT_EQ(a.avgTokenGapSeconds, b.avgTokenGapSeconds);
    EXPECT_EQ(a.p95TokenGapSeconds, b.p95TokenGapSeconds);
    EXPECT_EQ(a.firstTokenLatency, b.firstTokenLatency);
    EXPECT_EQ(a.completionSeconds, b.completionSeconds);

    EXPECT_EQ(a.sloDeferrals, b.sloDeferrals);
    EXPECT_EQ(a.chunkSlices, b.chunkSlices);
    EXPECT_EQ(a.decodeOvertakes, b.decodeOvertakes);
    EXPECT_EQ(a.maxDecodeXpuWaitSeconds, b.maxDecodeXpuWaitSeconds);
    EXPECT_EQ(a.xpuPrefillBusySeconds, b.xpuPrefillBusySeconds);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.truncated, b.truncated);

    ASSERT_EQ(a.classLatencies.size(), b.classLatencies.size());
    for (std::size_t i = 0; i < a.classLatencies.size(); ++i) {
        const auto &ca = a.classLatencies[i];
        const auto &cb = b.classLatencies[i];
        EXPECT_EQ(ca.tier, cb.tier);
        EXPECT_EQ(ca.gapSloTargetSeconds, cb.gapSloTargetSeconds);
        EXPECT_EQ(ca.requests, cb.requests);
        EXPECT_EQ(ca.completedRequests, cb.completedRequests);
        EXPECT_EQ(ca.avgFirstTokenSeconds, cb.avgFirstTokenSeconds);
        EXPECT_EQ(ca.p95FirstTokenSeconds, cb.p95FirstTokenSeconds);
        EXPECT_EQ(ca.avgTokenGapSeconds, cb.avgTokenGapSeconds);
        EXPECT_EQ(ca.p95TokenGapSeconds, cb.p95TokenGapSeconds);
    }
    ASSERT_EQ(a.tenantOccupancy.size(), b.tenantOccupancy.size());
    for (std::size_t i = 0; i < a.tenantOccupancy.size(); ++i) {
        const auto &ta = a.tenantOccupancy[i];
        const auto &tb = b.tenantOccupancy[i];
        EXPECT_EQ(ta.tenant, tb.tenant);
        EXPECT_EQ(ta.budgetShare, tb.budgetShare);
        EXPECT_EQ(ta.avgTokenShare, tb.avgTokenShare);
        EXPECT_EQ(ta.peakTokenShare, tb.peakTokenShare);
        EXPECT_EQ(ta.admittedRequests, tb.admittedRequests);
        EXPECT_EQ(ta.budgetDeferrals, tb.budgetDeferrals);
    }
    EXPECT_EQ(a.budgetDeferrals, b.budgetDeferrals);
    EXPECT_EQ(a.tierInversions, b.tierInversions);
    EXPECT_EQ(a.maxTierInversionWaitSeconds,
              b.maxTierInversionWaitSeconds);
    EXPECT_EQ(a.decodePreemptSlices, b.decodePreemptSlices);

    EXPECT_EQ(a.prefixHits, b.prefixHits);
    EXPECT_EQ(a.prefixMisses, b.prefixMisses);
    EXPECT_EQ(a.prefixEvictions, b.prefixEvictions);
    EXPECT_EQ(a.prefixHitRate, b.prefixHitRate);
    EXPECT_EQ(a.prefixCachedTokens, b.prefixCachedTokens);
    EXPECT_EQ(a.savedPrefillSeconds, b.savedPrefillSeconds);
    EXPECT_EQ(a.sharedKvPeakBytes, b.sharedKvPeakBytes);
    EXPECT_EQ(a.uniqueKvPeakBytes, b.uniqueKvPeakBytes);
}

} // namespace pimphony

#endif // PIMPHONY_TESTS_RESULT_COMPARE_HH
