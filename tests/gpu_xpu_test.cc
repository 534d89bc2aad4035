/**
 * @file
 * Focused tests for the roofline compute models: NPU/PNM presets,
 * batch-efficiency behaviour, and the A100 GPU serving baseline's
 * memory management and bottleneck structure.
 */

#include <gtest/gtest.h>

#include "system/gpu_system.hh"
#include "system/xpu.hh"

namespace pimphony {
namespace {

TEST(XpuPresets, TableIvRates)
{
    auto npu = XpuConfig::neupimsNpu();
    EXPECT_DOUBLE_EQ(npu.peakFlops, 256e12);
    auto pnm = XpuConfig::centPnm();
    EXPECT_DOUBLE_EQ(pnm.peakFlops, 3e12);
    EXPECT_GT(npu.memBandwidth, pnm.memBandwidth);
}

TEST(XpuModel, ComputeBoundAtLargeBatch)
{
    XpuModel npu(XpuConfig::neupimsNpu());
    // Huge FLOPs, small weights: compute-bound; time scales ~linearly
    // with FLOPs once efficiency saturates.
    double t1 = npu.gemmSeconds(1e12, 1_MiB, 256);
    double t2 = npu.gemmSeconds(2e12, 1_MiB, 256);
    EXPECT_NEAR(t2 / t1, 2.0, 0.01);
}

TEST(XpuModel, MemoryBoundFloorsLatency)
{
    XpuModel npu(XpuConfig::neupimsNpu());
    // Tiny FLOPs, big weights: the weight stream is the floor.
    double t = npu.gemmSeconds(1e6, 10_GiB, 1);
    EXPECT_GE(t, 10_GiB / npu.config().memBandwidth * 0.999);
}

TEST(XpuModel, BatchEfficiencyMonotone)
{
    XpuModel npu(XpuConfig::neupimsNpu());
    double prev = 1e9;
    for (std::uint32_t b : {1u, 4u, 16u, 64u, 256u}) {
        // Per-row time at fixed weights falls with batch.
        double t = npu.gemmSeconds(2e9 * b, 1_GiB, b) / b;
        EXPECT_LT(t, prev * 1.0001);
        prev = t;
    }
}

TEST(GpuSystem, MemoryMatchedCapacity)
{
    GpuSystemConfig cfg;
    cfg.nGpus = 2;
    EXPECT_EQ(cfg.totalMemory(), 160_GiB);
}

TEST(GpuSystem, PagedAttentionAdmitsMore)
{
    // The PA utilization factor gates admission: requests beyond the
    // effective capacity wait, shrinking average batch.
    auto model = LlmConfig::llm7b(false); // 512 KiB/token
    GpuSystemConfig cfg;
    cfg.nGpus = 2;
    std::vector<Request> many;
    for (RequestId i = 0; i < 40; ++i)
        many.push_back({i, 16000, 8});
    auto r = runGpuServing(cfg, model, many);
    EXPECT_EQ(r.generatedTokens, 40u * 8u);
    // ~8 GiB per request against ~130 GiB effective: batch ~16.
    EXPECT_GT(r.avgBatch, 8.0);
    EXPECT_LT(r.avgBatch, 20.0);
}

TEST(GpuSystem, UnservableRequestsDropped)
{
    auto model = LlmConfig::llm7b(true);
    GpuSystemConfig cfg;
    cfg.nGpus = 2;
    std::vector<Request> reqs = {{0, 2000000, 8}, {1, 10000, 8}};
    auto r = runGpuServing(cfg, model, reqs);
    EXPECT_EQ(r.generatedTokens, 8u); // only the feasible one
}

TEST(GpuSystem, StepCapIsLoud)
{
    // A decode longer than the 1,000,000-step cap stops there and
    // says so; a run that finishes is not flagged.
    auto model = LlmConfig::llm7b(true);
    GpuSystemConfig cfg;
    cfg.nGpus = 8;
    auto capped = runGpuServing(cfg, model, {{0, 1000, 1000001}});
    EXPECT_TRUE(capped.truncated);
    EXPECT_EQ(capped.generatedTokens, 1000000u);
    auto whole = runGpuServing(cfg, model, {{0, 1000, 8}});
    EXPECT_FALSE(whole.truncated);
    EXPECT_EQ(whole.generatedTokens, 8u);
}

TEST(GpuSystem, GqaNarrowsTheAttentionCost)
{
    // With g=4 the KV scan shrinks 4x, so GQA raises GPU throughput
    // on identical contexts -- the Fig. 20 mechanism.
    GpuSystemConfig cfg;
    cfg.nGpus = 2;
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 8; ++i)
        reqs.push_back({i, 30000, 8});
    auto mha = runGpuServing(cfg, LlmConfig::llm7b(false), reqs);
    auto gqa = runGpuServing(cfg, LlmConfig::llm7b(true), reqs);
    EXPECT_GT(gqa.tokensPerSecond, mha.tokensPerSecond);
}

} // namespace
} // namespace pimphony
