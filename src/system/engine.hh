/**
 * @file
 * Decode-serving engine: continuous batching over a multi-module PIM
 * system with TP/PP parallelism, allocator-driven admission, and
 * per-step latency composed from the module models.
 *
 * The engine runs on the sim subsystem's event queue: per-cohort
 * (micro-batch), per-stage work items traverse the PP stages as
 * devices and cohorts decode asynchronously, so a fast cohort is not
 * padded to the slowest one and admission is arrival-driven. Time,
 * occupancy and energy are charged through one rule, accountCycle(),
 * once per cohort cycle. On PP=1 (single-cohort) configurations the
 * pipeline recurrence degenerates to the closed-form lockstep
 * stageBeats * max_stage_sec, which the tests keep as an oracle.
 *
 * Scope note: decode remains the focus (the paper locates the PIM
 * bottlenecks there), but prefill is first-class work rather than a
 * free memory charge. With EngineOptions::prefillChunkTokens > 0, an
 * admitted request enters a Prefilling state: its context is split
 * into chunked work items (system/prefill's planner) that traverse
 * the per-stage xPU timelines on the event queue, interleaving FIFO
 * with — and delaying — decode FC work, the way a continuous-batching
 * scheduler shares its compute engines between phases. The request
 * joins the decode ready pool only when its last chunk completes.
 * chargePrefill without chunking keeps the scalar prefillSeconds()
 * charge, serialized on one prefill clock; the chunked per-request
 * total matches that scalar exactly.
 */

#ifndef PIMPHONY_SYSTEM_ENGINE_HH
#define PIMPHONY_SYSTEM_ENGINE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "alloc/kv_allocator.hh"
#include "common/stats.hh"
#include "mapping/partition.hh"
#include "sim/event_queue.hh"
#include "sim/work_item.hh"
#include "system/cluster.hh"
#include "system/sched_policy.hh"
#include "system/serving_options.hh"
#include "workload/arrival.hh"
#include "workload/request_class.hh"
#include "workload/session.hh"
#include "workload/trace.hh"

namespace pimphony {

class StageDeviceSet;

/**
 * Engine-level knob set: the shared serving options (prefill
 * chunking, co-scheduling policy, tenant budgets — see
 * system/serving_options.hh) plus the engine's own allocator choice
 * and safety cap.
 */
struct EngineOptions : ServingOptions
{
    AllocatorKind allocator = AllocatorKind::Static;

    /** Cap on simulated decode steps / cohort cycles (safety valve). */
    std::uint64_t maxSteps = 200000;
};

struct EngineResult
{
    double tokensPerSecond = 0.0;
    double simulatedSeconds = 0.0;
    std::uint64_t generatedTokens = 0;
    std::uint64_t completedRequests = 0;
    std::uint64_t rejectedRequests = 0;
    std::uint64_t preemptions = 0;

    /** Time-averaged concurrent batch ("effective batch", Fig. 4). */
    double avgEffectiveBatch = 0.0;

    /** MAC-busy channel-cycles / total channel-cycles (Fig. 4/17). */
    double macUtilization = 0.0;

    /** Time-averaged KV bytes in use / capacity (Fig. 19). */
    double capacityUtilization = 0.0;

    /** Aggregate split for Figs. 16/17(c). */
    double attentionSeconds = 0.0;
    double fcSeconds = 0.0;
    EnergyBreakdown attentionEnergy;
    EnergyBreakdown fcEnergy;

    /** Prefill time charged when EngineOptions::chargePrefill is on. */
    double prefillSeconds = 0.0;

    /** Request latency (completion - arrival), open- or closed-loop. */
    double avgRequestLatency = 0.0;
    double p95RequestLatency = 0.0;

    /** Time to first token (first decode completion - arrival). */
    double avgFirstTokenSeconds = 0.0;
    double p95FirstTokenSeconds = 0.0;

    /**
     * Steady-state decode stall: gaps between consecutive token
     * completions of one request (tokens after its first). Prefill
     * chunks sharing the xPU stretch the tail of this distribution.
     */
    double avgTokenGapSeconds = 0.0;
    double p95TokenGapSeconds = 0.0;

    /** Per-request TTFT, keyed by request id (first admission). */
    std::unordered_map<RequestId, double> firstTokenLatency;

    /**
     * Per-request completion time on the serving clock, keyed by
     * request id. One entry per completed request (rejected requests
     * never complete); the session tests read it to check that turn
     * k+1 is released only after turn k completes.
     */
    std::unordered_map<RequestId, double> completionSeconds;

    // --- Co-scheduling policy metrics. -------------------------------

    /** Admission checks deferred by the SLO gate (SloAdmission). */
    std::uint64_t sloDeferrals = 0;

    /** Preemption splits of in-flight prefill chunks (ChunkPreempt). */
    std::uint64_t chunkSlices = 0;

    /** xPU dispatches where decode overtook earlier-queued prefill. */
    std::uint64_t decodeOvertakes = 0;

    /**
     * Worst xPU queueing delay of one decode FC share (seconds):
     * how long a decode cycle stalled waiting for the compute
     * timeline. ChunkPreempt bounds this by its quantum when one
     * decode share is in flight at a time (PP=1).
     */
    double maxDecodeXpuWaitSeconds = 0.0;

    /**
     * Prefill seconds served to completion on the xPU timelines,
     * summed across stages. Every policy must conserve the planner's
     * apportioned charge: this equals prefillSeconds scaled by
     * prefillEngines / tp regardless of how preemption relocates the
     * work.
     */
    double xpuPrefillBusySeconds = 0.0;

    /**
     * Events dispatched by the event core. Deterministic for a
     * given configuration and seed; bench_simperf divides it by wall
     * time for the events-per-second trajectory metric.
     */
    std::uint64_t simEvents = 0;

    /**
     * The run stopped at the EngineOptions::maxSteps cap: the
     * numbers above cover only the work served before it, not the
     * whole trace.
     */
    bool truncated = false;

    // --- Request-class / multi-tenant metrics. Populated only when
    // --- the workload carries non-default classes or budgets are
    // --- configured; the subsystem is strictly additive otherwise.

    /** Latency summary of one tier (classLatencies). */
    struct ClassLatency
    {
        unsigned tier = 0;

        /** Gap SLO target the tier was judged against (0 = none). */
        double gapSloTargetSeconds = 0.0;

        std::uint64_t requests = 0;
        std::uint64_t completedRequests = 0;

        double avgFirstTokenSeconds = 0.0;
        double p95FirstTokenSeconds = 0.0;
        double avgTokenGapSeconds = 0.0;
        double p95TokenGapSeconds = 0.0;
    };

    /** Per-tier TTFT / decode-gap percentiles, ascending tier.
     *  Empty when every request carries the default class. */
    std::vector<ClassLatency> classLatencies;

    /** Capacity occupancy of one tenant (tenantOccupancy). */
    struct TenantOccupancy
    {
        unsigned tenant = 0;

        /** Configured guarantee (0 for borrow-only tenants). */
        double budgetShare = 0.0;

        /** Time-averaged reserved-token fraction of capacity. */
        double avgTokenShare = 0.0;

        /** Peak reserved-token fraction of capacity. */
        double peakTokenShare = 0.0;

        std::uint64_t admittedRequests = 0;

        /** Admission attempts deferred by the budget (borrow denied). */
        std::uint64_t budgetDeferrals = 0;
    };

    /** Per-tenant admitted-capacity occupancy, ascending tenant id.
     *  Empty unless budgets are configured or tenants are tagged. */
    std::vector<TenantOccupancy> tenantOccupancy;

    /** Admission attempts deferred by tenant budgets (all tenants). */
    std::uint64_t budgetDeferrals = 0;

    /**
     * Tier inversions observed on the xPU timelines: a decode share
     * dispatched after waiting behind a worse-tier decode share (see
     * sim::QueuedDevice::tierInversions). Tier-aware preemption
     * bounds each inversion's wait by its quantum.
     */
    std::uint64_t tierInversions = 0;

    /** Worst tier-inversion wait (seconds) across the timelines. */
    double maxTierInversionWaitSeconds = 0.0;

    /** Decode-side preemption splits (lower-tier in-flight decode
     *  items sliced by a tier-aware policy; charge conserved). */
    std::uint64_t decodePreemptSlices = 0;

    // --- Prefix-sharing metrics (alloc/prefix_cache.hh). All zero
    // --- when caching is off — the subsystem is strictly additive.

    /** Admissions served from the prefix tree / that probed and
     *  found nothing reusable. */
    std::uint64_t prefixHits = 0;
    std::uint64_t prefixMisses = 0;

    /** Cache entries evicted under capacity pressure. */
    std::uint64_t prefixEvictions = 0;

    /** prefixHits / (prefixHits + prefixMisses); 0 with no probes. */
    double prefixHitRate = 0.0;

    /** Prefill tokens skipped because their KV was cached. */
    std::uint64_t prefixCachedTokens = 0;

    /** Prefill seconds the skipped tokens would have cost (each
     *  admission's cold scalar charge minus its warm charge). */
    double savedPrefillSeconds = 0.0;

    /** Peak chunk custody of the prefix tree (shared bytes) and of
     *  per-request KV outside it (unique bytes); the two always sum
     *  to the allocator's reservation at the sampling instant. */
    Bytes sharedKvPeakBytes = 0;
    Bytes uniqueKvPeakBytes = 0;
};

/** How ServingEngine::summarize rolls one EngineResult field up. */
enum class MetricRule {
    Sum,     ///< added over the engines, in engine order
    Max,     ///< the engines' largest value (truncated: true wins)
    Derived, ///< recomputed from the engines' samples or integrals
};

/**
 * Every scalar EngineResult field, once, with its roll-up rule:
 * visit(name, &EngineResult::field, rule) per row, in declaration
 * order. summarize() folds the Sum and Max rows, and the bit-identity
 * comparator checks every row. The per-request maps, classLatencies
 * and tenantOccupancy are handled by name. A new scalar field needs a
 * row here; tests/result_compare.hh fails to build without one.
 */
template <class Visit>
constexpr void
forEachMetric(Visit &&visit)
{
#define PIMPHONY_METRIC(f, r) visit(#f, &EngineResult::f, MetricRule::r)
    PIMPHONY_METRIC(tokensPerSecond, Derived);
    PIMPHONY_METRIC(simulatedSeconds, Max);
    PIMPHONY_METRIC(generatedTokens, Sum);
    PIMPHONY_METRIC(completedRequests, Sum);
    PIMPHONY_METRIC(rejectedRequests, Sum);
    PIMPHONY_METRIC(preemptions, Sum);
    PIMPHONY_METRIC(avgEffectiveBatch, Derived);
    PIMPHONY_METRIC(macUtilization, Derived);
    PIMPHONY_METRIC(capacityUtilization, Derived);
    PIMPHONY_METRIC(attentionSeconds, Sum);
    PIMPHONY_METRIC(fcSeconds, Sum);
    PIMPHONY_METRIC(attentionEnergy, Sum);
    PIMPHONY_METRIC(fcEnergy, Sum);
    PIMPHONY_METRIC(prefillSeconds, Sum);
    PIMPHONY_METRIC(avgRequestLatency, Derived);
    PIMPHONY_METRIC(p95RequestLatency, Derived);
    PIMPHONY_METRIC(avgFirstTokenSeconds, Derived);
    PIMPHONY_METRIC(p95FirstTokenSeconds, Derived);
    PIMPHONY_METRIC(avgTokenGapSeconds, Derived);
    PIMPHONY_METRIC(p95TokenGapSeconds, Derived);
    PIMPHONY_METRIC(sloDeferrals, Sum);
    PIMPHONY_METRIC(chunkSlices, Sum);
    PIMPHONY_METRIC(decodeOvertakes, Sum);
    PIMPHONY_METRIC(maxDecodeXpuWaitSeconds, Max);
    PIMPHONY_METRIC(xpuPrefillBusySeconds, Sum);
    PIMPHONY_METRIC(simEvents, Sum);
    PIMPHONY_METRIC(truncated, Max);
    PIMPHONY_METRIC(budgetDeferrals, Sum);
    PIMPHONY_METRIC(tierInversions, Sum);
    PIMPHONY_METRIC(maxTierInversionWaitSeconds, Max);
    PIMPHONY_METRIC(decodePreemptSlices, Sum);
    PIMPHONY_METRIC(prefixHits, Sum);
    PIMPHONY_METRIC(prefixMisses, Sum);
    PIMPHONY_METRIC(prefixEvictions, Sum);
    PIMPHONY_METRIC(prefixHitRate, Derived);
    PIMPHONY_METRIC(prefixCachedTokens, Sum);
    PIMPHONY_METRIC(savedPrefillSeconds, Sum);
    PIMPHONY_METRIC(sharedKvPeakBytes, Max);
    PIMPHONY_METRIC(uniqueKvPeakBytes, Max);
#undef PIMPHONY_METRIC
}

class ServingEngine
{
  public:
    /** Closed-loop: every request is available at time zero. */
    ServingEngine(const ClusterConfig &cluster, const LlmConfig &model,
                  std::vector<Request> requests,
                  const EngineOptions &options);

    /** Open-loop: requests become available at their arrival times. */
    ServingEngine(const ClusterConfig &cluster, const LlmConfig &model,
                  std::vector<TimedRequest> requests,
                  const EngineOptions &options);

    ~ServingEngine();

    EngineResult run();

    // --- Resumable sub-simulation interface. run() is the exact
    // --- composition prepare() -> advanceTo(+inf) -> finalize(), bit
    // --- for bit, so a windowed caller (the fleet simulation)
    // --- reproduces a monolithic run whenever it feeds the same
    // --- arrivals. ----------------------------------------------------

    /**
     * Pre-declare the class/tenant shape of a workload whose
     * requests will be delivered later through injectArrivals():
     * creates the tiers with their SLO targets and activates the
     * tenant bookkeeping; the constructor runs it over its own
     * request list. Must run before prepare(); a purely
     * default-class trace leaves the engine bit-identical to an
     * undeclared one.
     */
    void declareWorkload(const std::vector<TimedRequest> &trace);

    /**
     * Declare the closed-loop successor turns of a multi-turn
     * workload (workload/session.hh): when the request keyed in
     * @p sessions completes at time t, its successor turn is
     * released as a fresh arrival at t + thinkSeconds — the
     * dependency an open-loop trace cannot express. Must run before
     * prepare(). Calls accumulate.
     *
     * Semantics worth knowing: a rejected or never-completing
     * predecessor keeps the rest of its session unreleased (the user
     * never saw turn k's answer, so turn k+1 is never typed), and
     * unreleased turns are invisible to queuedTokens() — the router
     * load signal sees only work that has actually arrived.
     */
    void declareSessionTurns(const SessionBook &sessions);

    /**
     * Schedule the initial events (constructor-supplied arrivals,
     * first cohorts). After prepare() the engine is a resumable
     * sub-simulation: advance it with advanceTo(), feed it with
     * injectArrivals(), and close it with finalize().
     */
    void prepare();

    /**
     * Dispatch every pending event at or before @p horizon
     * (inclusive) in event order; later events stay queued. Windowed
     * advances with increasing horizons replay exactly the event
     * sequence one runAll() would dispatch.
     */
    void advanceTo(double horizon);

    /** No pending events (the sub-simulation is quiescent). */
    bool drained() const;

    /**
     * Deliver requests mid-run (router dispatch). Arrivals at or
     * before time zero join the admission queue immediately; later
     * ones are merged into the pending-arrival stream and fire as
     * arrival events. Callers must never inject an arrival earlier
     * than events already dispatched — the fleet's conservative
     * window protocol guarantees this by construction.
     */
    void injectArrivals(const std::vector<TimedRequest> &batch);

    /**
     * Outstanding work queued on this engine, in tokens: context +
     * remaining decode summed over waiting, prefilling, and decoding
     * requests. The load signal least-loaded routers balance on;
     * O(queued requests) per call, intended for window barriers.
     */
    double queuedTokens() const;

    /** Current event-queue clock (0 before prepare()). */
    double now() const;

    /** What ServingEngine::evacuate() pulled off the engine. */
    struct Evacuation
    {
        /**
         * Undelivered pending arrivals and queued-but-unadmitted
         * requests, sorted by arrival time — work the engine never
         * started, migratable to another replica as-is.
         */
        std::vector<TimedRequest> queued;

        /**
         * Admitted requests whose in-flight progress (KV
         * reservation, prefill chunks, partial decode) was
         * discarded, each rewound to a fresh TimedRequest at its
         * original arrival. Empty unless kill_in_flight.
         */
        std::vector<TimedRequest> inFlight;

        /** Decode tokens already generated for inFlight, now wasted. */
        std::uint64_t lostTokens = 0;
    };

    /**
     * Pull work off the engine for migration (replica drain or
     * crash). Always extracts the undelivered/unadmitted queue; with
     * @p kill_in_flight additionally discards all admitted work —
     * ready-pool, in-flight prefills, decoding cohort members — by
     * releasing their reservations and returning them rewound (their
     * generated tokens stay counted in generatedTokens as wasted
     * throughput), and halts the engine: no new cohorts form and
     * late prefill completions are dropped until restoreService().
     * Composes with the resumable protocol: call between advanceTo()
     * horizons; a halted engine still drains its residual events.
     */
    Evacuation evacuate(bool kill_in_flight);

    /**
     * Lift the halt a killing evacuate() imposed (the replica's
     * model reload finished): injected arrivals admit and decode
     * again. No-op if not halted.
     */
    void restoreService();

    /**
     * Stretch device charges submitted from now on by @p factor
     * (> 1 is slower — brown-out modeling; 1 restores full speed).
     * Applies to decode cycles, prefill chunks, and the scalar
     * prefill serialization clock; work already on the timelines is
     * unaffected. A factor of exactly 1 is bit-transparent.
     */
    void setServiceRateScale(double factor);

    /**
     * Close a prepared run: collect the per-stage policy metrics and
     * return summarize({this}) with the per-request maps moved in
     * (the engine keeps no copy) — the tail run() executes after its
     * event loop drains. Call once, after the final advanceTo().
     */
    EngineResult finalize();

    /**
     * Shareable cached tokens the prefix tree could serve @p r right
     * now (retained session history first, then the declared
     * prefix); 0 when caching is off or nothing is warm. Read-only —
     * the prefix-affinity router's per-replica warmth signal.
     */
    Tokens prefixWarmTokens(const Request &r) const;

    /** Read-only prefix-cache view (null when caching is off). */
    const PrefixCache *prefixCache() const { return prefixCache_.get(); }

    /** Read-only allocator view (conservation checks in tests). */
    const KvAllocator &allocatorView() const { return *allocator_; }

  private:
    friend class FleetEngine;

    /**
     * The one summary rule over finalized engines, in engine order
     * (finalize() returns it over {this}, FleetEngine over its
     * replicas): the Sum and Max rows of forEachMetric folded in
     * engine order, each Derived row recomputed: averages from the
     * running sums and nearest-rank p95s over the engines' tier
     * samples, reordered in place (top-level over every tier,
     * classLatencies per tier); ratios as sums over sums (see
     * FleetResult). The per-request maps are left to the caller:
     * finalize() hands its own over, FleetEngine merges the
     * replicas'.
     */
    static EngineResult summarize(const std::vector<ServingEngine *> &engines);

    /**
     * One latency metric's samples, in fixed-size chunks, and their
     * running sum. A long run's gaps (4M on a 16000-request decode
     * trace) never need one contiguous block: each chunk is a heap
     * block any earlier run's freed chunk fits, so back-to-back runs
     * in one process reuse the same memory instead of growing the
     * heap whenever a run's big block no longer fits a free hole.
     * No chunk reallocates once started.
     */
    struct Samples
    {
        static constexpr std::size_t kChunk = 8192;

        std::vector<std::vector<double>> chunks;
        double sum = 0.0;

        void
        add(double v)
        {
            if (chunks.empty() || chunks.back().size() == kChunk) {
                chunks.emplace_back();
                chunks.back().reserve(kChunk);
            }
            chunks.back().push_back(v);
            sum += v;
        }
    };

    /**
     * One latency tier: the engine's only TTFT/gap sample store and
     * SLO window. A default-class run is a one-tier run (tier 0,
     * judged against SchedPolicyConfig::sloTargetGapSeconds).
     */
    struct TierState
    {
        /** Gap SLO target (class target, else the policy default). */
        double target = 0.0;

        std::uint64_t requests = 0;
        std::uint64_t completed = 0;
        Samples ttfts;
        Samples gaps;

        /** Windowed p95 of the tier's gaps (gap-steered policies). */
        std::unique_ptr<WindowedQuantile> window;

        /** A member decodes in some cohort (hoisted per gated scan). */
        bool decoding = false;
    };

    struct Active
    {
        Request request;
        Tokens generated = 0;
        double arrival = 0.0;

        /** Completion time of the latest token (< 0: none yet). */
        double lastTokenAt = -1.0;

        // --- Prefix-sharing state (all-zero when caching is off). --

        /** Tokens of this request's KV held by the prefix tree
         *  rather than its own allocation (custody offset: the
         *  allocator account covers context + generated minus
         *  this). */
        Tokens cachedTokens = 0;

        /** Warm-hit tokens whose prefill charge was skipped
         *  (== cachedTokens for consumers; 0 for the publisher,
         *  which prefills its prefix cold). */
        Tokens warmTokens = 0;

        /** Tree entry this request references (0 = none). */
        std::uint64_t cacheKey = 0;

        /** This request is prefilling a new entry cold; its prefill
         *  completion marks the entry ready. */
        bool cachePublisher = false;

        /** Tokens tenantReserve charged; tenantRelease refunds them. */
        double tenantCharge = 0.0;

        /** The request's tier, resolved once at admission. */
        TierState *tier = nullptr;
    };

    /** One in-flight decode cohort (micro-batch). */
    struct Cohort
    {
        std::uint32_t id = 0;
        std::uint64_t cycle = 0;
        std::vector<Active> members;
    };

    /**
     * Device-time plan for one decode cycle of one cohort
     * (micro-batch): the per-stage service time plus the cycle's
     * aggregate phase seconds, occupancy, and energy, charged through
     * accountCycle().
     */
    struct CyclePlan
    {
        /** Service seconds of one model layer. */
        double layerSeconds = 0.0;

        /** xPU share of one layer's service (XpuPim overlap). */
        double fcLayerSeconds = 0.0;

        /** Layers across all stages (= nLayers when pp <= nLayers). */
        double layersTotal = 0.0;

        /** Whole-cycle (all layers, all stages) phase seconds. */
        double attSeconds = 0.0;
        double fcSeconds = 0.0;

        /** MAC-busy channel-cycles across the tp module group. */
        double busyChannelCycles = 0.0;

        EnergyBreakdown attEnergy;
        EnergyBreakdown fcEnergy;
    };

    /**
     * Per-request admission rule: Rejected = can never be served
     * here, Blocked = waits for memory, BudgetBlocked = the request's
     * tenant is over budget and borrowing was denied (@p allow_borrow
     * false; only with tenant budgets configured), Admitted =
     * reserved.
     */
    enum class AdmitOutcome { Admitted, Rejected, Blocked, BudgetBlocked };

    /** What tryAdmitOne decided; on Admitted, the request (with its
     *  prefix-cache state) and its scalar prefill charge (nonzero
     *  when chargePrefill or prefillChunkTokens is set; the chunked
     *  path apportions it over chunk items). */
    struct Admission
    {
        AdmitOutcome outcome = AdmitOutcome::Rejected;
        Active active;
        double prefillSeconds = 0.0;
    };
    Admission tryAdmitOne(const TimedRequest &timed, bool allow_borrow);

    /** What the prefix tree could serve a request (probePrefix). */
    struct PrefixProbe
    {
        std::uint64_t key = 0;        ///< warm entry (0 = none)
        Tokens share = 0;             ///< tokens it holds
        std::uint64_t publishKey = 0; ///< uncached declared prefix
        bool probed = false;          ///< a probe ran (hit/miss count)
    };

    /** The prefix probe rule: retained session history first, then
     *  the declared workload prefix. Read-only; caching on only. */
    PrefixProbe probePrefix(const Request &r) const;

    /**
     * The admission scan at time @p now: walk the arrived queue in
     * FIFO order through tryAdmitOne. Stops at a memory block; skips
     * a prefill the SLO gate defers (one sloDeferrals per scan) and a
     * budget-blocked request. Admissions start their chunked prefill,
     * or take the scalar charge on the prefillReady_ clock and join
     * the ready pool.
     */
    void admitArrived(double now);

    /**
     * Advance @p a by the one token produced at @p completion_clock:
     * grow-or-preempt (re-queueing to the arrived queue with the
     * original arrival), then complete-or-continue. Returns false
     * when the request leaves its cohort.
     */
    bool advanceMember(Active &a, double completion_clock);

    /** Device-time plan for one decode cycle of [@p begin, @p end). */
    CyclePlan planCohortCycle(const Active *begin, const Active *end);

    /**
     * Record a cycle's phase seconds, occupancy, and energy
     * (including the idle-background share over @p span_cycles of
     * channel occupancy) into the running result.
     */
    void accountCycle(const CyclePlan &plan, double span_cycles);

    // --- Event handlers of the run (resumable between advanceTo
    // --- calls). ------------------------------------------------------

    /** Integrate batch/capacity time-averages up to @p t. */
    void accountTo(double t);

    /** Decoding requests across the in-flight cohorts. */
    std::size_t inFlightCount() const;

    /** Stable-sort the ready pool by tier (classes only), then move
     *  a fair share, ceil((in flight + ready) / pp) and at least
     *  one, into @p into. */
    void takeFairShare(std::vector<Active> &into);

    /** Hoist the per-scan TierState::decoding flags (SLO gate). */
    void refreshTiersInFlight();

    /** Per-tier SLO admission gate (see classGateDefers notes). */
    bool classGateDefers(const RequestClass &cls);

    /** Submit an admitted request's chunked prefill sequence. */
    void startPrefill(Active a, double now);

    /** Submit one decode cycle of @p c on the stage pipeline. */
    void startCycle(Cohort &c, double ready);

    /** Cycle completion: advance members, rebalance, resubmit. */
    void onCycleComplete(Cohort &c, double t);

    /** Form cohorts from the ready pool while slots are free. */
    void formNewCohorts(double t);

    /** Arrival event: drain due arrivals, re-arm, form cohorts. */
    void onArrival(double t);

    /**
     * Schedule the arrival event for the earliest pending arrival
     * unless one at or before it is already armed (injectArrivals
     * may re-arm earlier than a drained chain would).
     */
    void armArrivalEvent();

    /** Per-request tier/tenant bookkeeping of an arriving request. */
    void registerInjected(const TimedRequest &timed);

    /** @p tier's state, created on first use with an SLO window when
     *  the policy steers on the gap signal. */
    TierState &tierState(unsigned tier);

    /**
     * Release the successor turn of @p completed (if any) as an
     * arrival at @p now + its think time. Called from
     * advanceMember's completion branch; no-op for requests without
     * a declared successor.
     */
    void releaseNextTurn(RequestId completed, double now);

    // --- Tenant-budget machinery (inactive — and bit-transparent —
    // --- when no request names a tenant and no budgets are
    // --- configured). -------------------------------------------------

    /** Admission-budget accounting of one tenant. */
    struct TenantState
    {
        double budgetTokens = 0.0;
        double reservedTokens = 0.0;

        /** Integral of reservedTokens/capacity over time. */
        double shareSeconds = 0.0;
        double peakShare = 0.0;
        std::uint64_t admitted = 0;
        std::uint64_t deferrals = 0;
    };

    /** Budget verdict for @p tenant wanting @p need more tokens. */
    bool budgetAdmits(unsigned tenant, double need, bool allow_borrow);

    /**
     * Reserve @p tokens of @p request's tenant budget (context +
     * decode tokens, or less for a warm prefix hit, which charges
     * shared chunks fractionally — see tryAdmitOne). Returns the
     * amount reserved (0 when tenant accounting is off), which the
     * request carries as Active::tenantCharge.
     */
    double tenantReserve(const Request &request, double tokens);

    /** Refund @p a's tenantCharge to its tenant. */
    void tenantRelease(const Active &a);

    /** Advance the per-tenant occupancy integrals by @p dt. */
    void integrateTenantShares(double dt);

    /**
     * Tenants with an under-budget ("entitled") request in the
     * arrived queue, computed once per admission scan. A borrower is
     * denied while any OTHER tenant appears here (see
     * entitledElsewhere), preserving every active tenant's
     * guarantee. Reservations only grow during a scan, so the set
     * can only shrink mid-scan — a stale entry defers a borrower to
     * the next round but never breaks a guarantee.
     */
    std::set<unsigned> entitledTenantsWaiting() const;

    /** True when @p entitled holds a tenant other than @p tenant. */
    static bool entitledElsewhere(const std::set<unsigned> &entitled,
                                  unsigned tenant);

    ClusterConfig cluster_;
    LlmConfig model_;
    EngineOptions options_;
    std::unique_ptr<KvAllocator> allocator_;

    // --- Prefix-sharing state (prefixCache.enabled only). -----------

    /** The CoW prefix tree; declared after allocator_ so its chunk
     *  custody is released before the allocator dies. */
    std::unique_ptr<PrefixCache> prefixCache_;

    /** Peak shared/unique custody samples (EngineResult). */
    Bytes prefixSharedPeak_ = 0;
    Bytes prefixUniquePeak_ = 0;

    /** Sample shared/unique custody peaks (caching on only). */
    void prefixSampleOccupancy();

    /** Drop @p a's prefix-tree reference, if it holds one: the
     *  publisher's hold is structural, a warm hit's is a consumer
     *  ref (the fractional-charge divisor). */
    void releaseCacheRef(const Active &a);

    std::unique_ptr<PimModuleModel> module_;
    std::unique_ptr<XpuModel> xpu_;
    Samples latencies_;

    /** Running TTFT and gap sums over every tier, in production
     *  order (the top-level averages; the samples live per tier). */
    double ttftSum_ = 0.0;
    double gapSum_ = 0.0;

    /**
     * Declared-but-unreleased successor turns, keyed by the
     * predecessor request id; entries are erased as they fire.
     */
    SessionBook sessions_;

    /** Any request carries a non-default class: publish
     *  EngineResult::classLatencies. */
    bool classesActive_ = false;

    /** EngineOptions::tenantBudgets is non-empty. */
    bool budgetsActive_ = false;

    /** Track per-tenant occupancy (budgets or tagged tenants). */
    bool tenantsActive_ = false;

    /** KV capacity in tokens (budget shares are fractions of it). */
    double capacityTokens_ = 0.0;

    /**
     * Per-tier state, keyed ascending; one entry per tier declared
     * or injected (tier 0 alone on a default-class run). Nodes are
     * never erased, so Active::tier stays valid. advanceMember feeds
     * each tier's window as gaps are produced, so the admission gate
     * reads the windowed percentile in O(1).
     */
    std::map<unsigned, TierState> tiers_;

    /** Per-tenant state, keyed ascending (tenants active only). */
    std::map<unsigned, TenantState> tenants_;

    /** Per-cycle scratch for planCohortCycle's attention jobs. */
    std::vector<AttentionJob> jobsScratch_;

    // --- Run state (constructor .. finalize()). ----------------------

    sim::EventQueue queue_;

    /** Co-scheduling policy: xPU arbitration and the SLO gate. */
    std::unique_ptr<SchedPolicy> policy_;
    std::unique_ptr<StageDeviceSet> stages_;

    /** prepare() / finalize() ran (call-order checks). */
    bool prepared_ = false;
    bool finalized_ = false;

    /**
     * Running channel-cycle totals for MAC utilization, one (busy,
     * span) pair added per cohort cycle in simulation order.
     */
    double macBusyCycles_ = 0.0;
    double macSpanCycles_ = 0.0;

    /** Integrals of decoding batch and capacity use over time. */
    double batchTime_ = 0.0;
    double capacityTime_ = 0.0;
    double lastAccount_ = 0.0;
    double endTime_ = 0.0;

    std::list<Cohort> cohorts_; // list keeps addresses stable

    /** Arrived, not yet admitted (preemptions requeue here too). */
    std::deque<TimedRequest> arrived_;

    /** Not-yet-arrived requests, nondecreasing arrival order. */
    std::deque<TimedRequest> future_;

    std::vector<Active> readyPool_; // admitted, waiting for a cohort
    std::vector<sim::WorkItem> cycleItems_;
    std::vector<std::vector<sim::WorkItem>> seqScratch_;
    std::uint64_t prefilling_ = 0; // admitted, chunks in flight

    /** Context + decode tokens of the prefilling requests (the
     *  queuedTokens share submitSequence holders hide). */
    double prefillingTokens_ = 0.0;

    /**
     * Requests whose prefill chunks are on the timelines, reachable
     * for evacuation (the submitSequence completion lambdas share
     * ownership). Erased as completions land.
     */
    std::vector<std::shared_ptr<Active>> prefillHolders_;

    /**
     * Brown-out stretch applied to device charges at submission
     * (decode cycles, prefill chunks, the scalar prefill clock).
     * Exactly 1.0 is bit-transparent: multiplying a double by 1.0
     * is exact, so the fault-free engine is reproduced bit for bit.
     */
    double serviceRateScale_ = 1.0;

    /**
     * A killing evacuate() halted the engine: no admissions, no new
     * cohorts, stale prefill completions dropped. Cleared by
     * restoreService().
     */
    bool halted_ = false;

    /**
     * Evacuation generation. In-flight prefill completions capture
     * the epoch at submission and discard themselves when a killing
     * evacuate() has bumped it since — their request was already
     * rewound and failed over.
     */
    std::uint64_t epoch_ = 0;

    std::uint32_t nextCohortId_ = 0;
    std::uint64_t cycles_ = 0;
    bool capped_ = false;

    /** Scalar-prefill serialization clock (chargePrefill). */
    double prefillReady_ = 0.0;

    /** An arrival event is scheduled (at arrivalArmedAt_). */
    bool arrivalArmed_ = false;
    double arrivalArmedAt_ = 0.0;

    EngineResult result_;
};

/**
 * Convenience: build, apply options, run.
 */
EngineResult runServing(ClusterConfig cluster, const LlmConfig &model,
                        const std::vector<Request> &requests,
                        const PimphonyOptions &pimphony,
                        std::uint64_t max_steps = 200000);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_ENGINE_HH
