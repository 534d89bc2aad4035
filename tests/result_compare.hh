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

#include <cstddef>

#include "system/engine.hh"

namespace pimphony {

/**
 * Compile-time completeness guard. The structured binding names every
 * EngineResult field, so adding a field fails to build here ("only 43
 * names provided for structured binding"). Fix: give a new scalar
 * field a forEachMetric row in system/engine.hh (the fold and this
 * comparator pick it up), then add its name below and bump
 * kEngineResultFields; a new non-scalar field also needs its own
 * check in expectSameResult and its own rule in summarize().
 */
constexpr std::size_t kEngineResultFields = 43;
constexpr std::size_t kNonScalarFields = 4; // maps, class/tenant rows

inline void
engineResultFieldGuard(const EngineResult &r)
{
    [[maybe_unused]] const auto &[tokensPerSecond, simulatedSeconds,
                                  generatedTokens, completedRequests,
                                  rejectedRequests, preemptions,
                                  avgEffectiveBatch, macUtilization,
                                  capacityUtilization, attentionSeconds,
                                  fcSeconds, attentionEnergy, fcEnergy,
                                  prefillSeconds, avgRequestLatency,
                                  p95RequestLatency, avgFirstTokenSeconds,
                                  p95FirstTokenSeconds, avgTokenGapSeconds,
                                  p95TokenGapSeconds, firstTokenLatency,
                                  completionSeconds, sloDeferrals, chunkSlices,
                                  decodeOvertakes, maxDecodeXpuWaitSeconds,
                                  xpuPrefillBusySeconds, simEvents, truncated,
                                  classLatencies, tenantOccupancy,
                                  budgetDeferrals, tierInversions,
                                  maxTierInversionWaitSeconds,
                                  decodePreemptSlices, prefixHits,
                                  prefixMisses, prefixEvictions, prefixHitRate,
                                  prefixCachedTokens, savedPrefillSeconds,
                                  sharedKvPeakBytes, uniqueKvPeakBytes] = r;
}

/** Rows in the forEachMetric table. */
constexpr std::size_t
metricRowCount()
{
    std::size_t n = 0;
    forEachMetric([&n](const char *, auto, MetricRule) { ++n; });
    return n;
}

static_assert(metricRowCount() + kNonScalarFields == kEngineResultFields,
              "every scalar EngineResult field needs one forEachMetric "
              "row in system/engine.hh");

inline void
expectSameResult(const EngineResult &a, const EngineResult &b)
{
    forEachMetric([&](const char *name, auto field, MetricRule) {
        EXPECT_EQ(a.*field, b.*field) << name;
    });
    EXPECT_EQ(a.firstTokenLatency, b.firstTokenLatency);
    EXPECT_EQ(a.completionSeconds, b.completionSeconds);

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
}

} // namespace pimphony

#endif // PIMPHONY_TESTS_RESULT_COMPARE_HH
