/**
 * @file
 * Serving-time options shared by every front-end that drives the
 * engine.
 *
 * EngineOptions (the engine's own knob set) and OrchestratorConfig
 * (the library's top-level API) used to mirror these five fields by
 * hand, so every new serving knob had to be added — and copied at
 * runPlan time — in two places. Both now embed ServingOptions as a
 * base, and the orchestrator forwards the whole block with one slice
 * assignment; existing field accesses (`opts.stepModel`,
 * `config.sched`, ...) compile unchanged.
 */

#ifndef PIMPHONY_SYSTEM_SERVING_OPTIONS_HH
#define PIMPHONY_SYSTEM_SERVING_OPTIONS_HH

#include <string>
#include <vector>

#include "alloc/prefix_cache.hh"
#include "common/types.hh"
#include "system/sched_policy.hh"

namespace pimphony {

/** How the engine composes device time into serving time. */
enum class StepModel {
    /** Closed-form lockstep steps: stageBeats * max_stage_sec. */
    Analytic,

    /** Event-driven cohort pipeline on the sim core (default). */
    EventDriven,
};

std::string stepModelName(StepModel model);

/**
 * Admission budget of one tenant: a guaranteed share of the KV token
 * capacity. A tenant may always admit up to share * capacityTokens
 * of reserved decode trajectories; beyond that it *borrows* — and
 * borrowing is allowed only while no other tenant has an
 * under-budget ("entitled") request waiting, so a saturating tenant
 * can use an idle tenant's headroom (work conserving) but can never
 * hold an active tenant below its guarantee as admissions churn.
 * Tenants without a configured budget are borrow-only.
 */
struct TenantBudget
{
    unsigned tenant = 0;

    /** Guaranteed fraction of the KV token capacity, in [0, 1]. */
    double share = 0.0;
};

/**
 * The serving knobs common to EngineOptions and OrchestratorConfig.
 */
struct ServingOptions
{
    StepModel stepModel = StepModel::EventDriven;

    /**
     * Context tokens per prefill chunk. When > 0 under the
     * event-driven model, admitted requests prefill as chunked work
     * items on the xPU stage timelines (continuous prefill/decode
     * batching) instead of a scalar time charge; smaller chunks
     * interleave more finely with decode at the cost of more
     * hand-offs. Under the analytic model a positive value falls
     * back to the scalar charge (chargePrefill semantics) so the two
     * models stay comparable. 0 disables chunking.
     */
    Tokens prefillChunkTokens = 0;

    /**
     * Charge prefill compute time when a request is admitted
     * (extension; the paper's evaluation, like ours by default,
     * reports decode throughput).
     */
    bool chargePrefill = false;

    /**
     * Prefill/decode co-scheduling policy for the per-stage xPU
     * timelines (and the admission gate). Defaults to FIFO — the
     * PR 2 behavior, bit for bit. Policies act under the
     * event-driven model only; the analytic model has no per-item
     * timeline to arbitrate and ignores them.
     */
    SchedPolicyConfig sched;

    /**
     * Per-tenant admission budgets (token-capacity shares with
     * work-conserving borrowing; see TenantBudget). Empty — the
     * default — disables tenant accounting entirely, and no request
     * is ever budget-blocked. With budgets set, the admission scan
     * skips budget-blocked requests so one saturating tenant cannot
     * head-of-line block the others, and looks past requests that
     * have not arrived yet to reach preempted ones requeued behind
     * them.
     */
    std::vector<TenantBudget> tenantBudgets;

    /**
     * Copy-on-write prefix sharing over the paged KV allocator (see
     * alloc/prefix_cache.hh): requests whose workload-declared
     * prefix — or retained session history — is cached skip the
     * cached share of their prefill charge and map the shared chunks
     * instead of reserving fresh ones. Disabled by default; off
     * reproduces the cache-less engine bit for bit. Requires the
     * event-driven model and the LazyChunk allocator.
     */
    PrefixCacheOptions prefixCache;
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_SERVING_OPTIONS_HH
