/**
 * @file
 * Tests for the fleet simulation: conservative-window replica
 * advancement behind a routing front-end.
 *
 * The acceptance properties:
 *  (a) a 1-replica fleet is bit-identical (field by field, over the
 *      timing-independent metrics) to a bare ServingEngine::run()
 *      fed the same arrivals — with zero dispatch latency directly,
 *      with positive latency after shifting every arrival by it;
 *  (b) an N-replica fleet advanced on T threads is bit-identical to
 *      the same fleet advanced serially, for both routing policies;
 *  (c) the zero-lookahead lockstep fallback is thread-count
 *      independent;
 *  (d) window-protocol edges hold: a replica idling across many
 *      windows stays correct, and an arrival landing exactly on a
 *      window barrier routes at that barrier (inclusive bound);
 *  (e) golden: multi-replica routing, windowing and the resulting
 *      simulation are pinned at hex-float precision under zero and
 *      positive lookahead, across all three routing policies;
 *  (f) the aggregate follows the engine's summary rule: exact p95s
 *      over the merged samples, gap averages weighted by gap count,
 *      and every metric row's Sum or Max rule over the replicas.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.hh"
#include "result_compare.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "system/sched_policy.hh"
#include "workload/arrival.hh"
#include "workload/spec.hh"
#include "workload/trace.hh"

namespace pimphony {
namespace {

LlmConfig
testModel()
{
    return LlmConfig::llm7b(true);
}

ClusterConfig
testCluster(const LlmConfig &model)
{
    auto cluster = ClusterConfig::neupimsLike(model);
    cluster.plan = ParallelPlan{cluster.nModules / 4, 4};
    applyOptions(cluster, PimphonyOptions::all());
    return cluster;
}

EngineOptions
testEngineOptions()
{
    EngineOptions opts;
    opts.allocator = AllocatorKind::LazyChunk;
    opts.prefillChunkTokens = 2048;
    return opts;
}

std::vector<TimedRequest>
testTrace(std::size_t n, double rate, std::uint64_t seed)
{
    std::vector<Request> reqs;
    for (RequestId i = 0; i < n; ++i)
        reqs.push_back({i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000),
                        16});
    return poissonArrivals(reqs, rate, seed);
}

// --- (a) 1-replica fleet == bare engine. -------------------------------

TEST(FleetEngine, OneReplicaZeroLookaheadMatchesBareEngine)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 11);

    auto bare =
        ServingEngine(cluster, model, trace, testEngineOptions()).run();

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    ASSERT_EQ(fleet.replicas.size(), 1u);
    EXPECT_EQ(fleet.routedRequests[0], trace.size());
    ASSERT_GT(bare.completedRequests, 0u);
    expectSameResult(fleet.replicas[0], bare);
    // With one replica the aggregate inherits the replica's metrics.
    expectSameResult(fleet.aggregate, bare);
}

TEST(FleetEngine, OneReplicaMatchesBareEngineWithClassesAndBudgets)
{
    // The bare engine registers its classes and tenants from the
    // constructor's request list; a fleet replica starts empty and
    // learns them through declareWorkload + injectArrivals. Both
    // routes must set up the identical tier and tenant state.
    auto model = testModel();
    auto cluster = testCluster(model);
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 48; ++i) {
        Request r{i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000), 16};
        r.cls.tier = i % 3;
        r.cls.tenant = i % 2;
        if (r.cls.tier == 0)
            r.cls.gapSloSeconds = 0.05;
        reqs.push_back(r);
    }
    auto trace = gammaArrivals(reqs, 24.0, 3.0, 13);

    for (SchedPolicyKind kind :
         {SchedPolicyKind::SloAdmission, SchedPolicyKind::TierPriority}) {
        SCOPED_TRACE(schedPolicyName(kind));
        EngineOptions opts = testEngineOptions();
        opts.sched.kind = kind;
        opts.tenantBudgets = {{0, 0.3}, {1, 0.5}};
        auto bare = ServingEngine(cluster, model, trace, opts).run();

        FleetOptions fopts;
        fopts.replicas = 1;
        fopts.dispatchLatencySeconds = 0.0;
        fopts.engine = opts;
        auto fleet = FleetEngine(cluster, model, trace, fopts).run();

        ASSERT_GT(bare.completedRequests, 0u);
        ASSERT_EQ(bare.classLatencies.size(), 3u);
        ASSERT_EQ(bare.tenantOccupancy.size(), 2u);
        ASSERT_EQ(fleet.replicas.size(), 1u);
        expectSameResult(fleet.replicas[0], bare);
        // The aggregate is the engine's summary over {replica 0}.
        expectSameResult(fleet.aggregate, bare);
    }
}

TEST(FleetEngine, OneReplicaLookaheadMatchesShiftedBareEngine)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(48, 24.0, 12);
    const double d = 0.005;

    // The dispatch latency delays every arrival by d; a bare engine
    // fed the shifted trace must observe the identical simulation.
    auto shifted = trace;
    for (auto &t : shifted)
        t.arrivalSeconds += d;
    auto bare =
        ServingEngine(cluster, model, shifted, testEngineOptions())
            .run();

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = d;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    ASSERT_EQ(fleet.replicas.size(), 1u);
    ASSERT_GT(bare.completedRequests, 0u);
    expectSameResult(fleet.replicas[0], bare);
}

// --- (b) Parallel == serial. -------------------------------------------

TEST(FleetEngine, ParallelAdvanceMatchesSerialBothPolicies)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(64, 48.0, 13);

    for (RoutePolicy policy :
         {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded}) {
        FleetOptions fopts;
        fopts.replicas = 4;
        fopts.policy = policy;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();

        fopts.threads = 1;
        auto serial = FleetEngine(cluster, model, trace, fopts).run();
        fopts.threads = 4;
        auto parallel = FleetEngine(cluster, model, trace, fopts).run();

        EXPECT_EQ(serial.windows, parallel.windows);
        EXPECT_EQ(serial.routedRequests, parallel.routedRequests);
        ASSERT_EQ(serial.replicas.size(), parallel.replicas.size());
        for (std::size_t i = 0; i < serial.replicas.size(); ++i)
            expectSameResult(serial.replicas[i], parallel.replicas[i]);
        expectSameResult(serial.aggregate, parallel.aggregate);
        EXPECT_EQ(serial.aggregate.completedRequests, trace.size());
    }
}

// --- (c) Zero-lookahead lockstep is thread-independent. ----------------

TEST(FleetEngine, ZeroLookaheadLockstepIgnoresThreadCount)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(32, 32.0, 14);

    FleetOptions fopts;
    fopts.replicas = 3;
    fopts.policy = RoutePolicy::LeastLoaded;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();

    fopts.threads = 1;
    auto serial = FleetEngine(cluster, model, trace, fopts).run();
    fopts.threads = 4;
    auto pooled = FleetEngine(cluster, model, trace, fopts).run();

    EXPECT_EQ(serial.windows, pooled.windows);
    EXPECT_EQ(serial.routedRequests, pooled.routedRequests);
    for (std::size_t i = 0; i < serial.replicas.size(); ++i)
        expectSameResult(serial.replicas[i], pooled.replicas[i]);
}

// --- (d) Window-protocol edges. ----------------------------------------

TEST(FleetEngine, ReplicaIdleAcrossManyWindowsStaysCorrect)
{
    auto model = testModel();
    auto cluster = testCluster(model);

    // Three requests spaced hundreds of windows apart under
    // round-robin: replica 1 receives one early request and then
    // idles across many barriers while replica 0 keeps working.
    std::vector<Request> reqs = {{0, 2000, 16}, {1, 2000, 16},
                                 {2, 2000, 16}};
    std::vector<TimedRequest> trace = {{reqs[0], 0.01},
                                       {reqs[1], 0.5},
                                       {reqs[2], 1.0}};

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.002;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    // Router-idle barriers between the spaced arrivals are skipped,
    // so the sync-round count is one per routing barrier plus the
    // final drain — not the ~500 barriers of simulated time the
    // last arrival crosses.
    EXPECT_GE(fleet.windows, 4u);
    EXPECT_LE(fleet.windows, 8u);
    EXPECT_EQ(fleet.aggregate.completedRequests, 3u);
    EXPECT_EQ(fleet.routedRequests[0], 2u);
    EXPECT_EQ(fleet.routedRequests[1], 1u);
    EXPECT_EQ(fleet.replicas[0].completedRequests, 2u);
    EXPECT_EQ(fleet.replicas[1].completedRequests, 1u);
}

TEST(FleetEngine, ArrivalExactlyOnWindowBoundaryRoutesInclusive)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    const double w = 0.25; // exactly representable: barriers are exact

    // Arrivals landing exactly on barrier times k * w. The routing
    // bound is inclusive (t <= B_j), so each routes at its own
    // barrier and is delivered at t + w — which a bare engine fed
    // the shifted trace reproduces exactly.
    std::vector<Request> reqs = {{0, 2000, 16}, {1, 2000, 16},
                                 {2, 2000, 16}};
    std::vector<TimedRequest> trace = {{reqs[0], 0.0},
                                       {reqs[1], w},
                                       {reqs[2], 2 * w}};

    auto shifted = trace;
    for (auto &t : shifted)
        t.arrivalSeconds += w;
    auto bare =
        ServingEngine(cluster, model, shifted, testEngineOptions())
            .run();

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = w;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    EXPECT_EQ(fleet.aggregate.completedRequests, 3u);
    expectSameResult(fleet.replicas[0], bare);
}

// --- (e) Golden multi-replica runs. ------------------------------------

/** Three replicas over one 48-request trace (no sessions). */
FleetResult
runGoldenFleet(RoutePolicy policy, double dispatch)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    FleetOptions fopts;
    fopts.replicas = 3;
    fopts.policy = policy;
    fopts.dispatchLatencySeconds = dispatch;
    fopts.engine = testEngineOptions();
    return FleetEngine(cluster, model, testTrace(48, 32.0, 16), fopts)
        .run();
}

/**
 * Three prefix-affinity replicas with the prefix cache on, serving
 * 3-turn sessions whose openings draw from two pooled prefixes.
 */
FleetResult
runGoldenAffinityFleet()
{
    auto model = testModel();
    auto cluster = testCluster(model);
    WorkloadSpec spec;
    spec.count = 12;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 16.0;
    spec.prefix.share = 0.75;
    spec.prefix.pool = 2;
    spec.prefix.tokens = 1024;
    spec.session.turns = 3;
    spec.session.thinkMeanSeconds = 0.2;
    auto built = buildWorkload(spec, 17);

    FleetOptions fopts;
    fopts.replicas = 3;
    fopts.policy = RoutePolicy::PrefixAffinity;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.engine.prefixCache.enabled = true;
    FleetEngine fleet(cluster, model, built.initial, fopts);
    fleet.setSessions(built.sessions);
    return fleet.run();
}

TEST(FleetEngine, CappedReplicaMarksTheAggregateTruncated)
{
    // A replica stopped at its cycle cap taints the fleet roll-up.
    auto model = testModel();
    auto cluster = testCluster(model);
    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    auto trace = testTrace(8, 16.0, 3);
    auto full = FleetEngine(cluster, model, trace, fopts).run();
    EXPECT_FALSE(full.aggregate.truncated);

    fopts.engine.maxSteps = 3;
    auto capped = FleetEngine(cluster, model, trace, fopts).run();
    ASSERT_EQ(capped.replicas.size(), 2u);
    EXPECT_TRUE(capped.replicas[0].truncated);
    EXPECT_TRUE(capped.replicas[1].truncated);
    EXPECT_TRUE(capped.aggregate.truncated);
    EXPECT_LT(capped.aggregate.generatedTokens,
              full.aggregate.generatedTokens);
}

TEST(FleetGolden, ZeroLookaheadRoundRobin)
{
    auto f = runGoldenFleet(RoutePolicy::RoundRobin, 0.0);
    EXPECT_EQ(f.routedRequests, (std::vector<std::uint64_t>{16, 16, 16}));
    EXPECT_EQ(f.routedSessions, (std::vector<std::uint64_t>{0, 0, 0}));
    EXPECT_EQ(f.windows, 49u); // 48 distinct arrival instants + drain
    EXPECT_EQ(f.aggregate.simEvents, 1768u);
    EXPECT_EQ(f.aggregate.generatedTokens, 768u);
    EXPECT_DOUBLE_EQ(f.aggregate.simulatedSeconds, 0x1.6729d950969a7p+1);
    // Exact fleet p95s; the former max-across-replicas bound read
    // 0x1.cb9292b8bf1ecp+0 and 0x1.33df1d7d46f48p-2.
    EXPECT_DOUBLE_EQ(f.aggregate.p95FirstTokenSeconds,
                     0x1.ae80791ce9bb7p+0);
    EXPECT_DOUBLE_EQ(f.aggregate.p95TokenGapSeconds,
                     0x1.28e8869efeee8p-2);
}

TEST(FleetGolden, WindowedLeastLoaded)
{
    auto f = runGoldenFleet(RoutePolicy::LeastLoaded, 0.004);
    EXPECT_EQ(f.routedRequests, (std::vector<std::uint64_t>{15, 15, 18}));
    EXPECT_EQ(f.routedSessions, (std::vector<std::uint64_t>{0, 0, 0}));
    EXPECT_EQ(f.windows, 46u);
    EXPECT_EQ(f.aggregate.simEvents, 1744u);
    EXPECT_EQ(f.aggregate.generatedTokens, 768u);
    EXPECT_DOUBLE_EQ(f.aggregate.simulatedSeconds, 0x1.5f76761142243p+1);
    // Exact fleet p95s; the former max-across-replicas bound read
    // 0x1.e0c88c16e7196p+0 and 0x1.1f7d8bc4d1bd8p-2.
    EXPECT_DOUBLE_EQ(f.aggregate.p95FirstTokenSeconds,
                     0x1.be62968a536bp+0);
    EXPECT_DOUBLE_EQ(f.aggregate.p95TokenGapSeconds,
                     0x1.19fe2bcc73644p-2);
}

TEST(FleetGolden, WindowedPrefixAffinitySessions)
{
    auto f = runGoldenAffinityFleet();
    EXPECT_EQ(f.routedRequests, (std::vector<std::uint64_t>{4, 4, 4}));
    EXPECT_EQ(f.routedSessions, (std::vector<std::uint64_t>{4, 4, 4}));
    EXPECT_EQ(f.windows, 12u);
    EXPECT_EQ(f.aggregate.simEvents, 2556u);
    EXPECT_EQ(f.aggregate.generatedTokens, 576u);
    EXPECT_EQ(f.aggregate.prefixHits, 28u);
    EXPECT_DOUBLE_EQ(f.aggregate.simulatedSeconds, 0x1.4f03ba6d31fa4p+1);
    // Exact fleet p95s; the former max-across-replicas bound read
    // 0x1.597d5d2721e58p-2 and 0x1.a8c499b8c1cap-5.
    EXPECT_DOUBLE_EQ(f.aggregate.p95FirstTokenSeconds,
                     0x1.43f90d1799e0cp-2);
    EXPECT_DOUBLE_EQ(f.aggregate.p95TokenGapSeconds,
                     0x1.949eca9b2008p-7);
}

// --- Roll-up sanity. ---------------------------------------------------

/**
 * Two fault-free replicas over a three-tier trace whose decode lengths
 * vary per request, so gap counts are not proportional to completed
 * requests.
 */
std::vector<TimedRequest>
tieredTrace()
{
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 48; ++i) {
        Request r{i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000),
                  Tokens(4 + (i % 5) * 7)};
        r.cls.tier = i % 3;
        reqs.push_back(r);
    }
    return poissonArrivals(reqs, 32.0, 19);
}

FleetResult
runTieredFleet(const std::vector<TimedRequest> &trace)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::LeastLoaded;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    return FleetEngine(cluster, model, trace, fopts).run();
}

TEST(FleetEngine, TierGapAverageIsWeightedByGapCount)
{
    auto trace = tieredTrace();
    auto fleet = runTieredFleet(trace);
    ASSERT_EQ(fleet.aggregate.completedRequests, trace.size());
    ASSERT_EQ(fleet.aggregate.preemptions, 0u);

    // Without preemption a completed request produced decode - 1 gaps
    // on the replica that completed it.
    std::map<RequestId, const Request *> by_id;
    for (const TimedRequest &t : trace)
        by_id[t.request.id] = &t.request;
    std::map<unsigned, double> weighted, gaps;
    for (const EngineResult &r : fleet.replicas) {
        std::map<unsigned, double> replica_gaps;
        for (const auto &kv : r.completionSeconds) {
            const Request &req = *by_id.at(kv.first);
            replica_gaps[req.cls.tier] +=
                static_cast<double>(req.decodeTokens - 1);
        }
        for (const auto &cl : r.classLatencies) {
            weighted[cl.tier] +=
                cl.avgTokenGapSeconds * replica_gaps[cl.tier];
            gaps[cl.tier] += replica_gaps[cl.tier];
        }
    }
    ASSERT_EQ(fleet.aggregate.classLatencies.size(), 3u);
    for (const auto &cl : fleet.aggregate.classLatencies) {
        ASSERT_GT(gaps[cl.tier], 0.0);
        double expect = weighted[cl.tier] / gaps[cl.tier];
        EXPECT_NEAR(cl.avgTokenGapSeconds, expect, 1e-12 * expect)
            << "tier " << cl.tier;
    }
}

TEST(FleetEngine, FleetTtftP95IsExactOverTheMergedMap)
{
    auto fleet = runTieredFleet(tieredTrace());
    std::vector<double> ttfts;
    for (const auto &kv : fleet.aggregate.firstTokenLatency)
        ttfts.push_back(kv.second);
    std::sort(ttfts.begin(), ttfts.end());
    ASSERT_FALSE(ttfts.empty());
    EXPECT_EQ(fleet.aggregate.p95FirstTokenSeconds,
              nearestRankPercentile(ttfts, 95.0));
}

TEST(FleetEngine, FleetP95sLieWithinTheReplicaP95s)
{
    auto fleet = runTieredFleet(tieredTrace());
    auto expect_within = [](double agg, const std::vector<double> &parts,
                            const char *what) {
        ASSERT_FALSE(parts.empty());
        EXPECT_GE(agg, *std::min_element(parts.begin(), parts.end()))
            << what;
        EXPECT_LE(agg, *std::max_element(parts.begin(), parts.end()))
            << what;
    };
    std::vector<double> lat, ttft, gap;
    std::map<unsigned, std::vector<double>> tier_ttft, tier_gap;
    for (const EngineResult &r : fleet.replicas) {
        ASSERT_GT(r.completedRequests, 0u);
        lat.push_back(r.p95RequestLatency);
        ttft.push_back(r.p95FirstTokenSeconds);
        gap.push_back(r.p95TokenGapSeconds);
        for (const auto &cl : r.classLatencies) {
            tier_ttft[cl.tier].push_back(cl.p95FirstTokenSeconds);
            tier_gap[cl.tier].push_back(cl.p95TokenGapSeconds);
        }
    }
    expect_within(fleet.aggregate.p95RequestLatency, lat, "latency");
    expect_within(fleet.aggregate.p95FirstTokenSeconds, ttft, "ttft");
    expect_within(fleet.aggregate.p95TokenGapSeconds, gap, "gap");
    for (const auto &cl : fleet.aggregate.classLatencies) {
        expect_within(cl.p95FirstTokenSeconds, tier_ttft[cl.tier],
                      "tier ttft");
        expect_within(cl.p95TokenGapSeconds, tier_gap[cl.tier],
                      "tier gap");
    }
}

TEST(FleetEngine, AggregateSumsAndBoundsPerReplicaResults)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto trace = testTrace(64, 48.0, 15);

    FleetOptions fopts;
    fopts.replicas = 4;
    fopts.policy = RoutePolicy::LeastLoaded;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();

    std::uint64_t tokens = 0, completed = 0, events = 0, routed = 0;
    double max_sec = 0.0;
    for (const auto &r : fleet.replicas) {
        tokens += r.generatedTokens;
        completed += r.completedRequests;
        events += r.simEvents;
        max_sec = std::max(max_sec, r.simulatedSeconds);
    }
    for (std::uint64_t n : fleet.routedRequests)
        routed += n;
    EXPECT_EQ(routed, trace.size());
    EXPECT_EQ(fleet.aggregate.generatedTokens, tokens);
    EXPECT_EQ(fleet.aggregate.completedRequests, completed);
    EXPECT_EQ(fleet.aggregate.simEvents, events);
    EXPECT_EQ(fleet.aggregate.simulatedSeconds, max_sec);
    ASSERT_GT(max_sec, 0.0);
    EXPECT_EQ(fleet.aggregate.tokensPerSecond,
              static_cast<double>(tokens) / max_sec);
    // Least-loaded routing spreads work: every replica serves some.
    for (std::uint64_t n : fleet.routedRequests)
        EXPECT_GT(n, 0u);
}

TEST(FleetEngine, AggregateFollowsEveryMetricRowsRule)
{
    // Two replicas, one crash and tenant budgets: each Sum row of the
    // aggregate is the replicas' values added in replica order, each
    // Max row their largest. Mixed decode lengths stagger replica 1's
    // completions, so its crash lands after some and before others.
    auto model = testModel();
    auto cluster = testCluster(model);
    std::vector<Request> reqs;
    for (RequestId i = 0; i < 48; ++i) {
        Request r{i, (i % 4 == 0) ? Tokens(20000) : Tokens(2000),
                  Tokens(4 + (i % 5) * 7)};
        r.cls.tenant = i % 2;
        reqs.push_back(r);
    }
    auto trace = poissonArrivals(reqs, 48.0, 27);

    FleetOptions fopts;
    fopts.replicas = 2;
    fopts.policy = RoutePolicy::RoundRobin;
    fopts.dispatchLatencySeconds = 0.004;
    fopts.engine = testEngineOptions();
    fopts.engine.tenantBudgets = {{0, 0.3}, {1, 0.5}};
    fopts.faults.replicas.resize(2);
    fopts.faults.replicas[1].push_back(crashAt(1.5));
    auto fleet = FleetEngine(cluster, model, trace, fopts).run();
    ASSERT_EQ(fleet.replicas.size(), 2u);
    ASSERT_GT(fleet.retriedRequests, 0u); // the crash displaced work
    ASSERT_EQ(fleet.aggregate.tenantOccupancy.size(), 2u);
    for (const EngineResult &r : fleet.replicas)
        ASSERT_GT(r.completedRequests, 0u);

    std::set<std::string> names;
    std::map<MetricRule, unsigned> rows;
    forEachMetric([&](const char *name, auto field, MetricRule rule) {
        using T = std::decay_t<decltype(fleet.aggregate.*field)>;
        EXPECT_TRUE(names.insert(name).second) << name << " repeats";
        ++rows[rule];
        if (rule == MetricRule::Sum) {
            T sum{};
            for (const EngineResult &r : fleet.replicas)
                sum += r.*field;
            EXPECT_EQ(fleet.aggregate.*field, sum) << name;
        }
        if constexpr (std::is_arithmetic_v<T>) {
            if (rule == MetricRule::Max) {
                T max = fleet.replicas[0].*field;
                for (const EngineResult &r : fleet.replicas)
                    max = std::max(max, r.*field);
                EXPECT_EQ(fleet.aggregate.*field, max) << name;
            }
        }
    });
    EXPECT_GT(rows[MetricRule::Sum], 0u);
    EXPECT_GT(rows[MetricRule::Max], 0u);
    EXPECT_GT(rows[MetricRule::Derived], 0u);
}

} // namespace
} // namespace pimphony
