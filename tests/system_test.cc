/**
 * @file
 * System-level tests: module phase models, cluster presets, the
 * serving engine's conservation and improvement properties, and the
 * GPU baseline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/units.hh"
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

// --- Count-weighted attention jobs ------------------------------------

std::uint64_t
bitsOf(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** Field-by-field bit equality, printed in hex on failure. */
void
expectSamePhaseBits(const PhaseResult &a, const PhaseResult &b,
                    const std::string &where)
{
    auto same = [&where](const char *field, double x, double y) {
        EXPECT_EQ(bitsOf(x), bitsOf(y))
            << where << " " << field << ": " << std::hexfloat << x
            << " vs " << y;
    };
    same("seconds", a.seconds, b.seconds);
    same("busyChannelCycles", a.busyChannelCycles, b.busyChannelCycles);
    same("spanChannelCycles", a.spanChannelCycles, b.spanChannelCycles);
    same("energy.mac", a.energy.mac, b.energy.mac);
    same("energy.io", a.energy.io, b.energy.io);
    same("energy.background", a.energy.background, b.energy.background);
    same("energy.actPre", a.energy.actPre, b.energy.actPre);
    same("energy.refreshE", a.energy.refreshE, b.energy.refreshE);
    same("energy.elseE", a.energy.elseE, b.energy.elseE);
}

struct CostCase
{
    std::string name;
    ClusterConfig cluster;
    LlmConfig model;
};

/**
 * PIM-only and xPU+PIM clusters at plans that give 8, 4 and 1 KV-head
 * jobs per request; the last (LLM-72B-GQA on 16 modules at PP = 1,
 * TP 16 > 8 KV heads) splits each head's tokens across two modules.
 */
std::vector<CostCase>
costCases()
{
    auto m7 = LlmConfig::llm7b(true);
    auto m72 = LlmConfig::llm72b(true);
    std::vector<CostCase> out;
    auto add = [&out](std::string name, ClusterConfig c, LlmConfig m,
                      ParallelPlan plan) {
        c.plan = plan;
        out.push_back({std::move(name), c, m});
    };
    add("pim-only 7B tp1", ClusterConfig::centLike(m7), m7, {1, 8});
    add("pim-only 7B tp2", ClusterConfig::centLike(m7), m7, {2, 4});
    add("xpu+pim 7B tp1", ClusterConfig::neupimsLike(m7), m7, {1, 4});
    add("xpu+pim 72B tp16", ClusterConfig::neupimsLike(m72), m72, {16, 1});
    return out;
}

TEST(Module, CountWeightedJobsMatchPerHeadExpansion)
{
    // Contexts across ten octaves, with repeats (the last-value cache)
    // and off-bucket neighbours.
    const std::vector<Tokens> contexts = {150,   1000,  1000,  3000,
                                          9000,  9000,  9001,  33000,
                                          70000, 131000, 64,   520};
    const std::vector<std::vector<Tokens>> cohorts = {
        contexts, {contexts.begin(), contexts.begin() + 1},
        {contexts.begin() + 4, contexts.begin() + 8}};
    for (const CostCase &cc : costCases())
        for (bool tcp : {true, false}) {
            ClusterConfig cluster = cc.cluster;
            applyOptions(cluster, tcp ? PimphonyOptions::all()
                                      : PimphonyOptions::baseline());
            // The engine's job shape (planCohortCycle).
            const unsigned tp = cluster.plan.tp;
            const unsigned kvh = cc.model.kvHeads();
            const unsigned per_req = std::max(1u, ceilDiv(kvh, tp));
            const unsigned split = tp > kvh ? tp / kvh : 1;
            PimModuleModel weighted(cluster.module);
            PimModuleModel expanded(cluster.module);
            for (const auto &cohort : cohorts) {
                std::vector<AttentionJob> counted, heads;
                RequestId id = 0;
                for (Tokens t : cohort) {
                    Tokens tm = ceilDiv<Tokens>(t, split);
                    counted.push_back({id, 0, tm, per_req});
                    for (unsigned h = 0; h < per_req; ++h)
                        heads.push_back({id, h, tm});
                    ++id;
                }
                expectSamePhaseBits(
                    weighted.attentionLayer(counted, cc.model),
                    expanded.attentionLayer(heads, cc.model),
                    cc.name + (tcp ? " tcp" : " hfp") + " cohort of " +
                        std::to_string(cohort.size()));
            }
        }
}

// Count-weighted jobs multiply each per-scan kernel energy by the
// head count where a per-head job list adds it that many times. The
// two agree bit for bit only because every memoized kernel energy is
// an integer-valued double under the default EnergyParams (integer
// pJ per command times integer command counts). A fractional
// parameter, say 350.5 pJ per MAC, would make the products round
// differently from the sums: the engine's attention energies, and
// with them the EngineGolden and FleetGolden energy pins, would
// drift by ulps, and CountWeightedJobsMatchPerHeadExpansion would
// fail.
TEST(Module, DefaultKernelEnergiesAreIntegral)
{
    const EnergyParams defaults;
    for (PicoJoules p : {defaults.macPerCommand, defaults.ioPerCommand,
                         defaults.actPrePair, defaults.refresh,
                         defaults.backgroundPerCycle, defaults.elsePerMac})
        EXPECT_EQ(p, std::floor(p));

    auto integral = [](const EnergyBreakdown &e) {
        for (PicoJoules x :
             {e.mac, e.io, e.background, e.actPre, e.refreshE, e.elseE})
            if (x != std::floor(x) || x >= 0x1p53)
                return false;
        return true;
    };
    // The attention memo's buckets for these head geometries, both
    // mappings: every bucket to 8K tokens, then each octave's top
    // bucket up to the 128K context window that HFP jobs reach (the
    // large kernels take seconds to simulate in a Debug build).
    for (const LlmConfig &model :
         {LlmConfig::llm7b(true), LlmConfig::llm72b(true),
          LlmConfig::llm7b(false)})
        for (bool dcs : {true, false}) {
            ClusterConfig cluster = ClusterConfig::neupimsLike(model);
            applyOptions(cluster, dcs ? PimphonyOptions::all()
                                      : PimphonyOptions::baseline());
            const PimModuleConfig &mod = cluster.module;
            for (Tokens b = 64; b <= model.contextWindow;
                 b = b < 8192 ? bucketTokens(b + 1) : 2 * b) {
                AttentionSpec spec;
                spec.tokens = b;
                spec.headDim = model.headDim;
                spec.gqaGroup = model.gqaGroup;
                spec.rowReuse = mod.rowReuse();
                for (const KernelRequest &req :
                     {KernelRequest::makeQkt(spec, mod.scheduler),
                      KernelRequest::makeSv(spec, mod.scheduler)}) {
                    EnergyBreakdown e = kernelEnergy(
                        KernelStore::process().get(mod.timing, req),
                        defaults);
                    ASSERT_TRUE(integral(e)) << model.name << " " << b;
                    ASSERT_TRUE(integral(e.scaled(mod.nChannels)))
                        << model.name << " " << b;
                }
            }
        }
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
