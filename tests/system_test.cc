/**
 * @file
 * System-level tests: module phase models, cluster presets, the
 * serving engine's conservation and improvement properties, and the
 * GPU baseline.
 */

#include <gtest/gtest.h>

#include "system/engine.hh"
#include "system/gpu_system.hh"
#include "workload/trace.hh"

namespace pimphony {
namespace {

std::vector<Request>
fixedRequests(std::initializer_list<Tokens> contexts, Tokens decode = 32)
{
    std::vector<Request> out;
    RequestId id = 0;
    for (Tokens c : contexts)
        out.push_back({id++, c, decode});
    return out;
}

TEST(Xpu, RooflineBehaviour)
{
    XpuModel npu(XpuConfig::neupimsNpu());
    // Tiny batch: memory-bound on the weight stream.
    double small = npu.gemmSeconds(2e9, 1_GiB, 1);
    EXPECT_NEAR(small, 1_GiB / 1e12, small * 0.5);
    // Larger batch same weights: more FLOPs, but amortized weights;
    // per-request time shrinks.
    double large = npu.gemmSeconds(2e9 * 64, 1_GiB, 64);
    EXPECT_LT(large / 64.0, small);
}

TEST(Module, TcpBeatsHfpOnImbalancedJobs)
{
    PimModuleConfig cfg;
    cfg.scheduler = SchedulerKind::Static;
    auto model = LlmConfig::llm7b(false);

    std::vector<AttentionJob> jobs;
    jobs.push_back({0, 0, 30000});
    for (RequestId r = 1; r < 4; ++r)
        jobs.push_back({r, 0, 3000});

    cfg.partitioning = Partitioning::Hfp;
    PimModuleModel hfp(cfg);
    cfg.partitioning = Partitioning::Tcp;
    PimModuleModel tcp(cfg);

    auto a = hfp.attentionLayer(jobs, model);
    auto b = tcp.attentionLayer(jobs, model);
    EXPECT_LT(b.seconds, a.seconds);
    // TCP's busy cycles are spread over all channels.
    double hfp_util = a.busyChannelCycles / a.spanChannelCycles;
    double tcp_util = b.busyChannelCycles / b.spanChannelCycles;
    EXPECT_GT(tcp_util, hfp_util);
}

TEST(Module, DcsShrinksAttentionTime)
{
    auto model = LlmConfig::llm7b(true);
    std::vector<AttentionJob> jobs;
    for (RequestId r = 0; r < 8; ++r)
        jobs.push_back({r, 0, 32768});

    PimModuleConfig cfg;
    cfg.partitioning = Partitioning::Tcp;
    cfg.scheduler = SchedulerKind::Static;
    PimModuleModel st(cfg);
    cfg.scheduler = SchedulerKind::Dcs;
    cfg.timing.outputEntries = 16;
    PimModuleModel dc(cfg);

    auto a = st.attentionLayer(jobs, model);
    auto b = dc.attentionLayer(jobs, model);
    EXPECT_LT(b.seconds, a.seconds);
}

TEST(Module, FcLayerScalesWithBatch)
{
    PimModuleConfig cfg;
    PimModuleModel m(cfg);
    auto model = LlmConfig::llm7b(false);
    auto b1 = m.fcLayer(1, model, 8);
    auto b4 = m.fcLayer(4, model, 8);
    EXPECT_NEAR(b4.seconds, 4.0 * b1.seconds, b1.seconds * 0.01);
}

TEST(Cluster, PresetsMatchEvaluationSection)
{
    auto m7 = LlmConfig::llm7b(false);
    auto cent = ClusterConfig::centLike(m7);
    EXPECT_EQ(cent.nModules, 8u);
    EXPECT_EQ(cent.totalCapacity(), 128_GiB);
    EXPECT_EQ(cent.module.nChannels, 32u);

    auto m72 = LlmConfig::llm72b(false);
    auto cent72 = ClusterConfig::centLike(m72);
    EXPECT_EQ(cent72.nModules, 32u);
    EXPECT_EQ(cent72.totalCapacity(), 512_GiB);

    auto neu = ClusterConfig::neupimsLike(m7);
    EXPECT_EQ(neu.nModules, 4u);
    EXPECT_EQ(neu.totalCapacity(), 128_GiB);
    auto neu72 = ClusterConfig::neupimsLike(m72);
    EXPECT_EQ(neu72.nModules, 16u);
    EXPECT_EQ(neu72.totalCapacity(), 512_GiB);
}

TEST(Cluster, OptionsDriveConfig)
{
    auto cfg = ClusterConfig::centLike(LlmConfig::llm7b(false));
    applyOptions(cfg, PimphonyOptions::baseline());
    EXPECT_EQ(cfg.module.partitioning, Partitioning::Hfp);
    EXPECT_EQ(cfg.module.scheduler, SchedulerKind::Static);
    EXPECT_EQ(cfg.module.timing.outputEntries, 1u);
    applyOptions(cfg, PimphonyOptions::all());
    EXPECT_EQ(cfg.module.partitioning, Partitioning::Tcp);
    EXPECT_EQ(cfg.module.scheduler, SchedulerKind::Dcs);
    EXPECT_EQ(cfg.module.timing.outputEntries, 16u);
    EXPECT_EQ(PimphonyOptions::all().label(), "+TCP+DCS+DPA");
}

TEST(Engine, TokenConservation)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    auto requests = fixedRequests({20000, 40000, 60000}, 16);
    auto r = runServing(cluster, model, requests,
                        PimphonyOptions::all());
    EXPECT_EQ(r.generatedTokens, 3u * 16u);
    EXPECT_EQ(r.completedRequests, 3u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    EXPECT_GT(r.simulatedSeconds, 0.0);
    EXPECT_GT(r.tokensPerSecond, 0.0);
}

TEST(Engine, RejectsImpossibleRequests)
{
    auto model = LlmConfig::llm7b(false); // CW 32K
    auto cluster = ClusterConfig::centLike(model);
    auto requests = fixedRequests({40000}, 16); // beyond CW
    auto r = runServing(cluster, model, requests,
                        PimphonyOptions::baseline());
    EXPECT_EQ(r.completedRequests, 0u);
    EXPECT_EQ(r.rejectedRequests, 1u);
}

// --- Rejection accounting: the two sites in engine.cc. -----------------

TEST(Engine, RejectsRequestBeyondKvCapacity)
{
    // Site 1, capacity arm: the full decode trajectory exceeds the
    // KV capacity of a deliberately tiny cluster while staying
    // inside the context window, so admission rejects it outright.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    cluster.nModules = 1;
    cluster.plan = ParallelPlan{1, 1};
    Tokens cap = cluster.usableKvBytes(model) / model.kvBytesPerToken();
    ASSERT_LT(cap + 1016, model.contextWindow);

    std::vector<Request> requests = {{0, cap + 1000, 16},
                                     {1, 2000, 16}};
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    auto r = ServingEngine(cluster, model, requests, opts).run();
    EXPECT_EQ(r.rejectedRequests, 1u);
    EXPECT_EQ(r.completedRequests, 1u);
}

/**
 * Two-tenant construction reaching the forward-progress rejection
 * sites: tenant 1 holds a large entitlement but its request exceeds
 * the context window (site 1), which leaves tenant 0's over-budget
 * request un-admittable — borrowing is denied while tenant 1 looks
 * entitled — with nothing running. The cohort former's deadlock
 * guard (site 2) must then reject it rather than spin.
 */
TEST(Engine, DeadlockGuardFiresWhenNothingAdmissible)
{
    auto model = LlmConfig::llm7b(false); // 32K context window
    auto cluster = ClusterConfig::centLike(model);
    Tokens cap = cluster.usableKvBytes(model) / model.kvBytesPerToken();
    // Tenant 1's entitlement (0.95 cap) must cover its 40016-token
    // request or the construction collapses.
    ASSERT_GT(cap, 45000u);

    RequestClass starved;
    starved.tenant = 0;
    RequestClass entitled;
    entitled.tenant = 1;
    std::vector<TimedRequest> timed = {
        {Request(0, 2000, 16, starved), 0.0},
        {Request(1, 40000, 16, entitled), 0.0},
    };
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    opts.tenantBudgets = {{0, 0.001}, {1, 0.95}};
    auto r = ServingEngine(cluster, model, timed, opts).run();
    EXPECT_EQ(r.rejectedRequests, 2u);
    EXPECT_EQ(r.completedRequests, 0u);
    EXPECT_GT(r.budgetDeferrals, 0u);
}

TEST(Engine, TechniqueOrderingOnLongContext)
{
    // The paper's central result in miniature: every added technique
    // helps on a long-context trace.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    TraceGenerator gen(TraceTask::MultifieldQa, 21);
    auto requests = gen.generate(16, 32);

    auto base = runServing(cluster, model, requests,
                           PimphonyOptions::baseline());
    auto tcp = runServing(cluster, model, requests,
                          PimphonyOptions{true, false, false});
    auto dcs = runServing(cluster, model, requests,
                          PimphonyOptions{true, true, false});
    auto all = runServing(cluster, model, requests,
                          PimphonyOptions::all());

    EXPECT_GT(tcp.tokensPerSecond, base.tokensPerSecond);
    EXPECT_GT(dcs.tokensPerSecond, tcp.tokensPerSecond);
    EXPECT_GE(all.tokensPerSecond, dcs.tokensPerSecond * 0.95);
    // Cumulative speedup in the paper's reported band (>2x).
    EXPECT_GT(all.tokensPerSecond / base.tokensPerSecond, 2.0);
}

TEST(Engine, DpaLiftsCapacityUtilizationAndBatch)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    TraceGenerator gen(TraceTask::MultifieldQa, 5);
    auto requests = gen.generate(24, 32);

    auto without = runServing(cluster, model, requests,
                              PimphonyOptions{true, true, false});
    auto with = runServing(cluster, model, requests,
                           PimphonyOptions::all());
    EXPECT_GT(with.capacityUtilization, without.capacityUtilization);
    EXPECT_GT(with.avgEffectiveBatch, without.avgEffectiveBatch);
}

TEST(Engine, UtilizationDropsWithContextOnBaseline)
{
    // Fig. 4(a): the baseline loses MAC utilization as contexts grow.
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::centLike(model);
    TraceGenerator gen(TraceTask::QMSum, 9);

    auto short_reqs = gen.generateScaled(16, 4096, 16);
    auto long_reqs = gen.generateScaled(16, 32768, 16);
    auto s = runServing(cluster, model, short_reqs,
                        PimphonyOptions::baseline());
    auto l = runServing(cluster, model, long_reqs,
                        PimphonyOptions::baseline());
    EXPECT_LT(l.macUtilization, s.macUtilization);
}

TEST(Engine, XpuPimOverlapsFcAndAttention)
{
    auto model = LlmConfig::llm7b(true);
    auto cluster = ClusterConfig::neupimsLike(model);
    TraceGenerator gen(TraceTask::MultifieldQa, 13);
    auto requests = gen.generate(8, 16);
    auto r = runServing(cluster, model, requests,
                        PimphonyOptions::all());
    EXPECT_GT(r.tokensPerSecond, 0.0);
    EXPECT_EQ(r.completedRequests, 8u);
}

TEST(Gpu, ServesAndCompletes)
{
    GpuSystemConfig cfg;
    cfg.nGpus = 2;
    auto model = LlmConfig::llm7b(true);
    auto requests = fixedRequests({30000, 50000, 70000}, 16);
    auto r = runGpuServing(cfg, model, requests);
    EXPECT_EQ(r.generatedTokens, 3u * 16u);
    EXPECT_GT(r.tokensPerSecond, 0.0);
}

TEST(Gpu, ThroughputDropsWithContext)
{
    GpuSystemConfig cfg;
    cfg.nGpus = 2;
    auto model = LlmConfig::llm7b(true);
    auto short_r = runGpuServing(cfg, model, fixedRequests({8000}, 16));
    auto long_r = runGpuServing(cfg, model, fixedRequests({80000}, 16));
    EXPECT_GT(short_r.tokensPerSecond, long_r.tokensPerSecond);
}

} // namespace
} // namespace pimphony
