/**
 * @file
 * The process-wide kernel store under concurrency: PimModuleModels on
 * a SweepRunner fill it with the values a serial fill gives, every
 * distinct kernel is simulated exactly once, and the replicas of a
 * fleet share every kernel they have in common.
 *
 * The store lives as long as the process, so each test keys its
 * kernels with a command clock no other test uses. The clock keys the
 * store but no kernel schedule: it only converts cycles to seconds.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/units.hh"
#include "kernels/kernel_sim.hh"
#include "system/fleet.hh"
#include "system/pim_module.hh"
#include "workload/arrival.hh"

namespace pimphony {
namespace {

std::uint64_t
bitsOf(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** TCP + DCS module on a clock that names this fill's kernels. */
PimModuleConfig
moduleAt(double clock_ghz)
{
    PimModuleConfig cfg;
    cfg.partitioning = Partitioning::Tcp;
    cfg.scheduler = SchedulerKind::Dcs;
    cfg.timing = AimTimingParams::aimxWithObuf(16);
    cfg.timing.clockGhz = clock_ghz;
    return cfg;
}

/** Cohorts whose TCP slices span the buckets from 64 to ~4K tokens. */
std::vector<std::vector<AttentionJob>>
cohorts()
{
    std::vector<std::vector<AttentionJob>> out(24);
    RequestId id = 0;
    for (std::size_t c = 0; c < out.size(); ++c)
        for (Tokens m = 0; m < 6; ++m) {
            Tokens t = 1000 + (c * 6 + m) * 131072 / 144 +
                       (c * 7919 + m * 104729) % 4096;
            out[c].push_back({id++, 0, t, 8});
        }
    return out;
}

struct Fill
{
    /** [model][cohort] attention layers, in cohort order. */
    std::vector<std::vector<PhaseResult>> layers;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
};

/**
 * 8 models, each walking every cohort from its own starting point, so
 * concurrent models ask for the same kernels in different orders.
 */
Fill
fill(unsigned threads, double clock_ghz, const LlmConfig &model)
{
    const auto jobs = cohorts();
    constexpr std::size_t kModels = 8;
    KernelStore &store = KernelStore::process();
    const std::uint64_t misses0 = store.misses();
    const std::size_t entries0 = store.entries();

    Fill f;
    f.layers.assign(kModels, std::vector<PhaseResult>(jobs.size()));
    SweepRunner runner(threads);
    runner.forEach(kModels, [&](std::size_t i) {
        PimModuleModel module(moduleAt(clock_ghz));
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            std::size_t c = (i * 3 + k) % jobs.size();
            f.layers[i][c] = module.attentionLayer(jobs[c], model);
        }
    });
    f.misses = store.misses() - misses0;
    f.entries = store.entries() - entries0;
    return f;
}

TEST(KernelStore, ConcurrentFillMatchesSerialAndSimulatesOnce)
{
    const LlmConfig model = LlmConfig::llm7b(true);
    // Clocks a power of two apart: the parallel fill's seconds per
    // cycle is exactly twice the serial one's, every cycle count the
    // same.
    const Fill serial = fill(1, 0.5, model);
    const Fill parallel = fill(4, 0.25, model);

    std::set<Tokens> buckets;
    for (const auto &cohort : cohorts())
        for (const AttentionJob &job : cohort)
            buckets.insert(bucketTokens(tcpSliceTokens(job, 32)));
    ASSERT_GE(buckets.size(), 40u);
    // QK^T + SV per bucket, each simulated once for all 8 models.
    EXPECT_EQ(serial.misses, 2 * buckets.size());
    EXPECT_EQ(serial.entries, 2 * buckets.size());
    EXPECT_EQ(parallel.misses, 2 * buckets.size());
    EXPECT_EQ(parallel.entries, 2 * buckets.size());

    for (std::size_t i = 0; i < serial.layers.size(); ++i)
        for (std::size_t c = 0; c < serial.layers[i].size(); ++c) {
            const PhaseResult &s = serial.layers[i][c];
            const PhaseResult &p = parallel.layers[i][c];
            const std::string where =
                "model " + std::to_string(i) + " cohort " + std::to_string(c);
            EXPECT_EQ(bitsOf(p.seconds), bitsOf(2.0 * s.seconds)) << where;
            EXPECT_EQ(bitsOf(p.busyChannelCycles),
                      bitsOf(s.busyChannelCycles))
                << where;
            EXPECT_EQ(bitsOf(p.spanChannelCycles),
                      bitsOf(s.spanChannelCycles))
                << where;
            for (auto field :
                 {&EnergyBreakdown::mac, &EnergyBreakdown::io,
                  &EnergyBreakdown::background, &EnergyBreakdown::actPre,
                  &EnergyBreakdown::refreshE, &EnergyBreakdown::elseE})
                EXPECT_EQ(bitsOf(p.energy.*field), bitsOf(s.energy.*field))
                    << where;
        }
}

/** One fleet run on @p replicas replicas; returns the store misses. */
std::uint64_t
fleetMisses(unsigned replicas, double clock_ghz)
{
    const LlmConfig model = LlmConfig::llm7b(true);
    ClusterConfig cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    cluster.module.timing.clockGhz = clock_ghz;

    std::vector<Request> reqs;
    for (RequestId i = 0; i < 32; ++i)
        reqs.push_back({i, 1500 + Tokens(i) * 997, 24});
    FleetOptions fopts;
    fopts.replicas = replicas;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.threads = replicas;
    fopts.engine.allocator = AllocatorKind::LazyChunk;

    KernelStore &store = KernelStore::process();
    const std::uint64_t misses0 = store.misses();
    const std::size_t entries0 = store.entries();
    FleetResult r =
        FleetEngine(cluster, model, poissonArrivals(reqs, 4.0, 5), fopts)
            .run();
    EXPECT_EQ(r.aggregate.completedRequests, reqs.size());
    EXPECT_EQ(store.misses() - misses0, store.entries() - entries0);
    return store.misses() - misses0;
}

TEST(KernelStore, FleetReplicasSimulateEachKernelOnce)
{
    // Every request decodes through the same contexts wherever it is
    // routed, so 4 replicas need exactly the kernels 1 replica needs,
    // and a process that has run the fleet once simulates none again.
    const std::uint64_t one = fleetMisses(1, 0.75);
    const std::uint64_t four = fleetMisses(4, 1.5);
    EXPECT_GT(one, 0u);
    EXPECT_EQ(four, one);
    EXPECT_EQ(fleetMisses(4, 1.5), 0u);
}

} // namespace
} // namespace pimphony
