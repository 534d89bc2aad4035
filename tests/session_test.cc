/**
 * @file
 * Tests for closed-loop multi-turn sessions: a successor turn is
 * released only after its predecessor completes (plus think time),
 * rejected predecessors keep the rest of their session unreleased,
 * the whole pipeline (build -> save -> load -> run) is deterministic
 * bit for bit, and the fleet keeps every session on one replica.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "result_compare.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "workload/replay.hh"
#include "workload/spec.hh"

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
    cluster.plan = ParallelPlan{cluster.nModules / 2, 2};
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

BuiltWorkload
sessionWorkload(std::size_t n_sessions, unsigned turns,
                std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.count = n_sessions;
    spec.length.kind = LengthSourceKind::Pairs;
    spec.length.pairs = {{2000, 16}, {4000, 16}};
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = 8.0;
    spec.session.turns = turns;
    spec.session.thinkMeanSeconds = 0.2;
    return buildWorkload(spec, seed);
}

EngineResult
runWithSessions(const ClusterConfig &cluster, const LlmConfig &model,
                const BuiltWorkload &built)
{
    ServingEngine engine(cluster, model, built.initial,
                         testEngineOptions());
    engine.declareSessionTurns(built.sessions);
    return engine.run();
}

// --- Turn release ordering. --------------------------------------------

TEST(Sessions, SuccessorCompletesAfterPredecessorPlusThink)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 17);
    auto r = runWithSessions(cluster, model, built);

    // Every turn of every session completes: 6 sessions x 3 turns.
    EXPECT_EQ(r.completedRequests, 18u);
    EXPECT_EQ(r.rejectedRequests, 0u);
    ASSERT_EQ(r.completionSeconds.size(), 18u);

    // The successor arrives at completion(pred) + think, so its own
    // completion is strictly later than that release time.
    for (const auto &kv : built.sessions) {
        auto pred = r.completionSeconds.find(kv.first);
        auto succ = r.completionSeconds.find(kv.second.request.id);
        ASSERT_NE(pred, r.completionSeconds.end()) << kv.first;
        ASSERT_NE(succ, r.completionSeconds.end())
            << kv.second.request.id;
        EXPECT_GT(succ->second,
                  pred->second + kv.second.thinkSeconds)
            << "turn " << kv.second.request.turn << " of session "
            << kv.second.request.session;
    }
}

TEST(Sessions, RejectedPredecessorKeepsSessionUnreleased)
{
    auto model = testModel();
    auto cluster = testCluster(model);

    // Turn 0 can never fit (context far beyond KV capacity), so the
    // successor the user would have typed after its answer never
    // arrives.
    Request head(0, 100000000, 16);
    head.session = 1;
    head.turn = 0;
    Request next(1, 2000, 16);
    next.session = 1;
    next.turn = 1;
    BuiltWorkload built;
    built.initial = {{head, 0.0}};
    built.sessions.emplace(0, SessionTurn{next, 0.1});

    auto r = runWithSessions(cluster, model, built);
    EXPECT_EQ(r.rejectedRequests, 1u);
    EXPECT_EQ(r.completedRequests, 0u);
    EXPECT_TRUE(r.completionSeconds.empty());
    EXPECT_EQ(r.firstTokenLatency.count(1), 0u);
}

// --- Determinism. ------------------------------------------------------

TEST(Sessions, RunTwiceIsBitIdentical)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 21);
    auto a = runWithSessions(cluster, model, built);
    auto b = runWithSessions(cluster, model, built);
    ASSERT_GT(a.completedRequests, 0u);
    expectSameResult(a, b);
}

TEST(Sessions, TraceSaveLoadRunIsBitIdentical)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(5, 2, 23);

    const char *path = "SESSION_TRACE_TEST.tmp";
    saveWorkload(path, built);
    BuiltWorkload loaded = loadWorkload(path);
    std::remove(path);

    auto generated = runWithSessions(cluster, model, built);
    auto replayed = runWithSessions(cluster, model, loaded);
    ASSERT_GT(generated.completedRequests, 0u);
    expectSameResult(generated, replayed);
}

// --- Fleet integration: session affinity. ------------------------------

TEST(Sessions, OneReplicaFleetMatchesBareEngine)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(6, 3, 29);

    auto bare = runWithSessions(cluster, model, built);

    FleetOptions fopts;
    fopts.replicas = 1;
    fopts.dispatchLatencySeconds = 0.0;
    fopts.engine = testEngineOptions();
    FleetEngine fleet(cluster, model, built.initial, fopts);
    fleet.setSessions(built.sessions);
    auto out = fleet.run();

    ASSERT_EQ(out.replicas.size(), 1u);
    ASSERT_EQ(out.routedSessions.size(), 1u);
    EXPECT_EQ(out.routedSessions[0], 6u);
    expectSameResult(out.replicas[0], bare);
    expectSameResult(out.aggregate, bare);
}

TEST(Sessions, FleetKeepsEverySessionOnOneReplica)
{
    auto model = testModel();
    auto cluster = testCluster(model);
    auto built = sessionWorkload(8, 3, 31);

    for (RoutePolicy policy :
         {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded}) {
        FleetOptions fopts;
        fopts.replicas = 3;
        fopts.policy = policy;
        fopts.dispatchLatencySeconds = 0.004;
        fopts.engine = testEngineOptions();
        FleetEngine fleet(cluster, model, built.initial, fopts);
        fleet.setSessions(built.sessions);
        auto out = fleet.run();

        // All 8 x 3 turns complete, and the distinct-session pin
        // counts account for every session exactly once.
        EXPECT_EQ(out.aggregate.completedRequests, 24u);
        std::uint64_t pinned = 0;
        for (std::uint64_t n : out.routedSessions)
            pinned += n;
        EXPECT_EQ(pinned, 8u);

        // A successor turn always completes on the replica where its
        // predecessor completed (the closed-loop release fires
        // locally), so sessions never straddle replicas.
        for (const auto &kv : built.sessions) {
            int pred_replica = -1, succ_replica = -1;
            for (std::size_t i = 0; i < out.replicas.size(); ++i) {
                if (out.replicas[i].completionSeconds.count(kv.first))
                    pred_replica = static_cast<int>(i);
                if (out.replicas[i].completionSeconds.count(
                        kv.second.request.id))
                    succ_replica = static_cast<int>(i);
            }
            ASSERT_GE(pred_replica, 0) << kv.first;
            EXPECT_EQ(pred_replica, succ_replica)
                << "session " << kv.second.request.session;
        }
    }
}

} // namespace
} // namespace pimphony
