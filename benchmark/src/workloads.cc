#include "workloads.hh"

#include "common/logging.hh"

namespace pimbench {

namespace {

// Every workload: LLM-7B-128K-GQA on the NeuPIMs-like xPU+PIM system
// with TCP+DCS+DPA, the paged (LazyChunk) allocator, the event-driven
// core and 2048-token prefill chunks.
constexpr Tokens kPrefillChunk = 2048;

// --- decode-steady ----------------------------------------------------
// One PP=4 engine, FIFO, Table II QMSum/Musique contexts decoding 256
// tokens under open-loop Poisson arrivals at ~75% of the simulated
// capacity (a saturated closed-loop run of these requests completes
// ~1.95 requests per simulated second).
constexpr std::size_t kDecodeRequests = 16000;
constexpr Tokens kDecodeOutput = 256;
constexpr double kDecodeRate = 1.45;

// --- fleet-faults -----------------------------------------------------
// 8 PP=4 replicas behind a least-loaded router with 2 ms dispatch
// latency; LV-Eval multifieldqa contexts (20K-119K tokens) decoding 32
// tokens. The fault-free fleet saturates at ~3.7 requests per
// simulated second; arrivals come at ~65% of that. Each replica fails
// every 300 s on average (40% brown-outs at half speed, the rest
// crashes repaired in ~3 s plus 1 s of model reload; half the replicas
// drain for 2 s before they go down), and a displaced request gets one
// retry. Heavier fault or arrival rates make retries the TTFT tail
// and swing ttft_p99_s across seeds beyond its bound (NOTES.md).
constexpr std::size_t kFleetRequests = 20000;
constexpr unsigned kFleetReplicas = 8;
constexpr Tokens kFleetOutput = 32;
constexpr double kFleetRate = 2.4;
constexpr double kFleetMtbfSeconds = 300.0;
constexpr double kFleetMttrSeconds = 3.0;
constexpr double kFleetReloadSeconds = 1.0;
constexpr double kFleetDrainSeconds = 2.0;
constexpr unsigned kFleetRetryBudget = 1;

// --- prefix-sessions --------------------------------------------------
// One PP=2 engine under TierPriority. Sessions of 4 turns carrying
// their history, 0.5 s mean think time, openings Poisson at ~40% of
// the rate where the engine saturates (~0.8 sessions/s); 80% of
// sessions open with one of 8 pooled 2048-token prefixes. Two tenants
// with tight budgets, two tiers with gap SLOs, and an LRU prefix cache
// capped at 4% of KV capacity, so entries are evicted.
constexpr std::size_t kSessions = 4000;
constexpr unsigned kTurns = 4;
constexpr double kSessionRate = 0.3;
constexpr double kPrefixCacheShare = 0.04;
constexpr double kTenant0Share = 0.04;
constexpr double kTenant1Share = 0.02;

ClusterConfig
clusterFor(const LlmConfig &model, unsigned pp)
{
    ClusterConfig c = ClusterConfig::neupimsLike(model);
    c.plan = ParallelPlan{c.nModules / pp, pp};
    applyOptions(c, PimphonyOptions::all());
    return c;
}

EngineOptions
engineOptions()
{
    EngineOptions o;
    o.allocator = AllocatorKind::LazyChunk;
    o.stepModel = StepModel::EventDriven;
    o.prefillChunkTokens = kPrefillChunk;
    // Far above what any workload needs: a run truncated at the cap
    // strands requests and fails the conservation check.
    o.maxSteps = 100000000;
    return o;
}

/** Seed of one auxiliary stream (a splitmix64 finalizer over the
 *  seed and the stream number). */
std::uint64_t
auxSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Workload
decodeSteady(std::uint64_t seed)
{
    Workload w;
    w.name = "decode-steady";
    w.model = LlmConfig::llm7b(true);
    w.cluster = clusterFor(w.model, 4);
    w.engine = engineOptions();

    // Alternate QMSum and Musique contexts, each drawn from its own
    // Table II fit.
    TraceGenerator qmsum(TraceTask::QMSum, auxSeed(seed, 1));
    TraceGenerator musique(TraceTask::Musique, auxSeed(seed, 2));
    auto a = qmsum.generate(kDecodeRequests / 2, kDecodeOutput);
    auto b = musique.generate(kDecodeRequests - a.size(), kDecodeOutput);
    WorkloadSpec spec;
    spec.count = kDecodeRequests;
    spec.length.kind = LengthSourceKind::Pairs;
    for (std::size_t i = 0; i < kDecodeRequests; ++i) {
        const Request &r = (i % 2 == 0) ? a[i / 2] : b[i / 2];
        spec.length.pairs.push_back({r.contextTokens, kDecodeOutput});
    }
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = kDecodeRate;
    w.built = pimphony::buildWorkload(spec, seed);
    return w;
}

Workload
fleetFaults(std::uint64_t seed)
{
    Workload w;
    w.name = "fleet-faults";
    w.fleet = true;
    w.model = LlmConfig::llm7b(true);
    w.cluster = clusterFor(w.model, 4);

    WorkloadSpec spec;
    spec.count = kFleetRequests;
    spec.length.kind = LengthSourceKind::TableTask;
    spec.length.task = TraceTask::MultifieldQa;
    spec.length.decodeTokens = kFleetOutput;
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = kFleetRate;
    w.built = pimphony::buildWorkload(spec, seed);

    FleetOptions &f = w.fleetOptions;
    f.replicas = kFleetReplicas;
    f.policy = RoutePolicy::LeastLoaded;
    f.dispatchLatencySeconds = 2e-3;
    f.threads = 1;
    f.engine = engineOptions();
    f.retryBudget = kFleetRetryBudget;

    // Faults over the trace's span. Replicas in the first half crash
    // hard, those in the second half drain first; both kinds also
    // brown out. Per-replica streams do not depend on the replica
    // count, so the two halves are independent draws.
    FaultSpec fs;
    fs.replicas = kFleetReplicas;
    fs.horizonSeconds = w.built.initial.back().arrivalSeconds;
    fs.mtbfSeconds = kFleetMtbfSeconds;
    fs.mttrSeconds = kFleetMttrSeconds;
    fs.modelReloadSeconds = kFleetReloadSeconds;
    fs.degradeProbability = 0.4;
    fs.slowdownFactor = 2.0;
    FaultSchedule crashes = buildFaultSchedule(fs, auxSeed(seed, 3));
    fs.drainSeconds = kFleetDrainSeconds;
    FaultSchedule drains = buildFaultSchedule(fs, auxSeed(seed, 4));
    f.faults.replicas.resize(kFleetReplicas);
    for (unsigned i = 0; i < kFleetReplicas; ++i) {
        const FaultSchedule &src =
            i < kFleetReplicas / 2 ? crashes : drains;
        if (i < src.replicas.size())
            f.faults.replicas[i] = src.replicas[i];
    }
    f.faults.validate(kFleetReplicas);
    return w;
}

Workload
prefixSessions(std::uint64_t seed)
{
    Workload w;
    w.name = "prefix-sessions";
    w.model = LlmConfig::llm7b(true);
    w.cluster = clusterFor(w.model, 2);
    w.engine = engineOptions();
    w.engine.sched.kind = SchedPolicyKind::TierPriority;
    w.engine.tenantBudgets = {{0, kTenant0Share}, {1, kTenant1Share}};
    w.engine.prefixCache.enabled = true;
    w.engine.prefixCache.evict = PrefixEvictPolicy::Lru;
    w.engine.prefixCache.maxShare = kPrefixCacheShare;

    WorkloadSpec spec;
    spec.count = kSessions;
    // Long prompts, short answers: per-turn prompt 2.5K-8K tokens,
    // 16-48 output tokens.
    spec.length.kind = LengthSourceKind::Histogram;
    for (Tokens p : {2560, 3584, 4608, 6144, 8192})
        for (Tokens d : {16, 32, 48})
            spec.length.histogram.add(p, d);
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.ratePerSecond = kSessionRate;
    spec.prefix.share = 0.8;
    spec.prefix.pool = 8;
    spec.prefix.tokens = 2048;
    spec.session.turns = kTurns;
    spec.session.thinkMeanSeconds = 0.5;
    spec.session.carryHistory = true;
    RequestClass interactive;
    interactive.tier = 0;
    interactive.gapSloSeconds = 50e-3;
    interactive.tenant = 0;
    RequestClass batch;
    batch.tier = 1;
    batch.gapSloSeconds = 200e-3;
    batch.tenant = 1;
    spec.classes = {interactive, batch};
    w.built = pimphony::buildWorkload(spec, seed);
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "decode-steady", "fleet-faults", "prefix-sessions"};
    return names;
}

bool
isWorkload(const std::string &name)
{
    for (const auto &n : workloadNames())
        if (n == name)
            return true;
    return false;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "decode-steady")
        return decodeSteady(seed);
    if (name == "fleet-faults")
        return fleetFaults(seed);
    if (name == "prefix-sessions")
        return prefixSessions(seed);
    fatal("unknown workload '%s'", name.c_str());
}

Outcome
runUntraced(const Workload &w)
{
    Outcome out;
    if (w.fleet) {
        FleetEngine fleet(w.cluster, w.model, w.built.initial,
                          w.fleetOptions);
        if (!w.built.sessions.empty())
            fleet.setSessions(w.built.sessions);
        out.fleet = fleet.run();
        out.result = out.fleet.aggregate;
        return out;
    }
    ServingEngine engine(w.cluster, w.model, w.built.initial, w.engine);
    if (!w.built.sessions.empty())
        engine.declareSessionTurns(w.built.sessions);
    out.result = engine.run();
    return out;
}

Outcome
runTraced(const Workload &w, SpanLog &log, int rep, double slice_seconds)
{
    Outcome out;
    ScopedSpan run_span(log, "run", rep);
    if (w.fleet) {
        std::unique_ptr<FleetEngine> fleet;
        {
            ScopedSpan s(log, "fleet.construct", rep);
            fleet = std::make_unique<FleetEngine>(
                w.cluster, w.model, w.built.initial, w.fleetOptions);
            if (!w.built.sessions.empty())
                fleet->setSessions(w.built.sessions);
        }
        {
            ScopedSpan s(log, "fleet.run", rep);
            out.fleet = fleet->run();
        }
        out.result = out.fleet.aggregate;
        return out;
    }

    std::unique_ptr<ServingEngine> engine;
    {
        ScopedSpan s(log, "engine.construct", rep);
        engine = std::make_unique<ServingEngine>(w.cluster, w.model,
                                                 w.built.initial, w.engine);
    }
    {
        // A no-op on an engine constructed with its requests; calling
        // it keeps the drive on the full resumable protocol.
        ScopedSpan s(log, "engine.declareWorkload", rep);
        engine->declareWorkload(w.built.initial);
    }
    if (!w.built.sessions.empty()) {
        ScopedSpan s(log, "engine.declareSessionTurns", rep);
        engine->declareSessionTurns(w.built.sessions);
    }
    {
        ScopedSpan s(log, "engine.prepare", rep);
        engine->prepare();
    }
    double horizon = slice_seconds;
    while (!engine->drained()) {
        ScopedSpan s(log, "engine.advanceTo", rep);
        engine->advanceTo(horizon);
        horizon += slice_seconds;
    }
    {
        ScopedSpan s(log, "engine.finalize", rep);
        out.result = engine->finalize();
    }
    return out;
}

} // namespace pimbench
