#include "system/engine.hh"

#include <algorithm>
#include <functional>
#include <list>
#include <type_traits>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/pipeline.hh"
#include "sim/work_item.hh"
#include "system/prefill.hh"
#include "system/stage_device.hh"

namespace pimphony {

ServingEngine::~ServingEngine() = default;

ServingEngine::ServingEngine(const ClusterConfig &cluster,
                             const LlmConfig &model,
                             std::vector<Request> requests,
                             const EngineOptions &options)
    : ServingEngine(cluster, model, immediateArrivals(requests), options)
{
}

ServingEngine::ServingEngine(const ClusterConfig &cluster,
                             const LlmConfig &model,
                             std::vector<TimedRequest> requests,
                             const EngineOptions &options)
    : cluster_(cluster), model_(model), options_(options)
{
    if (cluster_.plan.modules() != cluster_.nModules)
        fatal("parallel plan %s does not cover %u modules",
              cluster_.plan.toString().c_str(), cluster_.nModules);
    Bytes kv_capacity = cluster_.usableKvBytes(model_);
    if (kv_capacity == 0)
        fatal("model weights (%llu B) exceed system capacity",
              static_cast<unsigned long long>(model_.weightBytes()));
    allocator_ = makeAllocator(options_.allocator, kv_capacity,
                               model_.kvBytesPerToken(),
                               model_.contextWindow);
    if (options_.prefixCache.enabled) {
        // The tree shares the allocator's chunks; only the paged
        // allocator has chunks to share.
        if (options_.allocator != AllocatorKind::LazyChunk)
            fatal("prefix caching requires the LazyChunk allocator");
        prefixCache_ = std::make_unique<PrefixCache>(
            static_cast<LazyChunkAllocator &>(*allocator_),
            options_.prefixCache);
    }
    module_ = std::make_unique<PimModuleModel>(cluster_.module);
    xpu_ = std::make_unique<XpuModel>(cluster_.xpu);
    // Co-scheduling policy: arbitration of the xPU timelines (FIFO
    // policies keep the plain reservation arithmetic) plus the SLO
    // admission gate consulted by admitArrived. Every stage carries
    // an xPU timeline: in XpuPim mode it serves decode FC shares and
    // prefill chunks; in PimOnly mode only the prefill chunks (the
    // PNM compute engines) land there.
    policy_ = makeSchedPolicy(options_.sched);
    stages_ = std::make_unique<StageDeviceSet>(
        cluster_.plan.pp, policy_->reordersXpu() ? policy_.get() : nullptr);
    sortByArrival(requests);
    // Tenant budgets, then the tier/tenant registration a fleet
    // replica performs for its routed requests. The tenant side
    // stays inert when no request names a tenant and no budgets are
    // configured; a default-class workload is one tier.
    budgetsActive_ = !options_.tenantBudgets.empty();
    capacityTokens_ = static_cast<double>(allocator_->capacity()) /
                      static_cast<double>(model_.kvBytesPerToken());
    if (budgetsActive_) {
        double total_share = 0.0;
        for (const TenantBudget &b : options_.tenantBudgets) {
            tenants_[b.tenant].budgetTokens = b.share * capacityTokens_;
            total_share += b.share;
        }
        if (total_share > 1.0 + 1e-9)
            warn("tenant budget shares sum to %.3f > 1; guarantees "
                 "cannot all hold under saturation",
                 total_share);
    }
    declareWorkload(requests);
    for (const auto &timed : requests)
        registerInjected(timed);
    result_.firstTokenLatency.reserve(requests.size());
    result_.completionSeconds.reserve(requests.size());
    readyPool_.reserve(requests.size());
    // Open-loop arrivals become events at prepare(); time-zero
    // requests are available immediately.
    for (const auto &timed : requests)
        (timed.arrivalSeconds <= 0.0 ? arrived_ : future_).push_back(timed);
}

bool
ServingEngine::budgetAdmits(unsigned tenant, double need,
                            bool allow_borrow)
{
    TenantState &ts = tenants_[tenant];
    if (ts.reservedTokens + need <= ts.budgetTokens)
        return true; // within the guarantee
    if (allow_borrow)
        return true; // borrowing from idle headroom (work conserving)
    ++ts.deferrals;
    ++result_.budgetDeferrals;
    return false;
}

double
ServingEngine::tenantReserve(const Request &request, double tokens)
{
    if (!tenantsActive_)
        return 0.0;
    TenantState &ts = tenants_[request.cls.tenant];
    ts.reservedTokens += tokens;
    ++ts.admitted;
    if (capacityTokens_ > 0.0)
        ts.peakShare = std::max(ts.peakShare,
                                ts.reservedTokens / capacityTokens_);
    return tokens;
}

void
ServingEngine::tenantRelease(const Active &a)
{
    if (!tenantsActive_)
        return;
    TenantState &ts = tenants_[a.request.cls.tenant];
    ts.reservedTokens -= a.tenantCharge;
    if (ts.reservedTokens < 0.0)
        ts.reservedTokens = 0.0;
}

void
ServingEngine::integrateTenantShares(double dt)
{
    if (!tenantsActive_ || dt <= 0.0 || capacityTokens_ <= 0.0)
        return;
    for (auto &kv : tenants_)
        kv.second.shareSeconds +=
            dt * kv.second.reservedTokens / capacityTokens_;
}

std::set<unsigned>
ServingEngine::entitledTenantsWaiting() const
{
    std::set<unsigned> out;
    if (!budgetsActive_)
        return out;
    for (const auto &timed : arrived_) {
        const RequestClass &cls = timed.request.cls;
        if (out.count(cls.tenant))
            continue;
        auto it = tenants_.find(cls.tenant);
        if (it == tenants_.end())
            continue;
        double need = static_cast<double>(timed.request.contextTokens +
                                          timed.request.decodeTokens);
        if (it->second.reservedTokens + need <= it->second.budgetTokens)
            out.insert(cls.tenant);
    }
    return out;
}

bool
ServingEngine::entitledElsewhere(const std::set<unsigned> &entitled,
                                 unsigned tenant)
{
    for (unsigned u : entitled)
        if (u != tenant)
            return true;
    return false;
}

ServingEngine::Admission
ServingEngine::tryAdmitOne(const TimedRequest &timed, bool allow_borrow)
{
    const Request &front = timed.request;
    Tokens final_tokens = front.contextTokens + front.decodeTokens;
    Bytes need = model_.kvBytesPerToken() * final_tokens;
    if (need > allocator_->capacity() ||
        final_tokens > model_.contextWindow) {
        // Can never be served on this configuration.
        ++result_.rejectedRequests;
        return {AdmitOutcome::Rejected, {}, 0.0};
    }
    // Prefix probe: the best reusable tree entry. A declared prefix
    // nobody has cached yet makes this request its publisher: it
    // prefills cold, but its prefix chunks go into the tree for
    // everyone behind it. The hit is pinned immediately (consumer
    // reference) so the eviction pass below can never take the entry
    // this admission is counting on; every blocked exit hands the
    // reference back.
    PrefixProbe probe = prefixCache_ ? probePrefix(front) : PrefixProbe{};
    std::uint64_t key = probe.key;
    Tokens custody = 0;
    if (key != 0) {
        Tokens s = prefixCache_->acquire(key, now(), front.cls.tier);
        custody = std::min<Tokens>(s, front.contextTokens);
        if (custody == 0)
            key = 0; // entry vanished since the peek: go cold
    }
    Tokens cached = custody;
    // Tenant budget: within the guarantee always admissible (memory
    // permitting); beyond it only while borrowing is allowed. A warm
    // hit charges its unique tokens in full but the shared prefix
    // only at 1 / consumers — the chunks serve all of them at once,
    // this admission's reference is already counted, and structural
    // refs (publisher hold, session-chained children) never dilute
    // the charge. The PR 5 work-conserving guarantee holds because
    // checks and reservations use the same reduced charge, and the
    // request carries its charge so release refunds exactly it.
    double charge_tokens = static_cast<double>(final_tokens);
    if (cached > 0)
        charge_tokens =
            static_cast<double>(final_tokens - cached) +
            static_cast<double>(cached) /
                static_cast<double>(prefixCache_->consumersOf(key));
    if (budgetsActive_ &&
        !budgetAdmits(front.cls.tenant, charge_tokens, allow_borrow)) {
        if (key != 0)
            prefixCache_->releaseConsumer(key);
        return {AdmitOutcome::BudgetBlocked, {}, 0.0};
    }
    // Headroom: only admit when the full decode trajectory fits
    // next to the current reservations (avoids preemption storms).
    // Warm admissions need headroom only for their unique share;
    // under pressure the cache sheds idle entries first — never the
    // pinned one, which is reference-held.
    Bytes need_unique = model_.kvBytesPerToken() * (final_tokens - cached);
    if (allocator_->reservedBytes() + need_unique >
        allocator_->capacity()) {
        if (!prefixCache_ || !prefixCache_->evictFor(need_unique)) {
            if (key != 0)
                prefixCache_->releaseConsumer(key);
            return {AdmitOutcome::Blocked, {}, 0.0};
        }
    }
    // Commit: count the hit or miss, seed the tree as the prefix's
    // publisher if nobody cached it yet, then reserve the unique
    // share.
    bool publisher = false;
    if (key != 0)
        prefixCache_->noteHit();
    else if (probe.probed)
        prefixCache_->noteMiss();
    if (probe.publishKey != 0 &&
        prefixCache_->publish(probe.publishKey, 0, 0, front.prefixTokens,
                              front.prefixTokens, now(),
                              front.cls.tier, /*hold=*/true,
                              /*ready=*/false)) {
        publisher = true;
        key = probe.publishKey;
        custody = front.prefixTokens;
    }
    if (!allocator_->tryAdmit(front.id,
                              front.contextTokens - custody)) {
        if (key != 0) {
            if (publisher)
                prefixCache_->release(key);
            else
                prefixCache_->releaseConsumer(key);
        }
        return {AdmitOutcome::Blocked, {}, 0.0};
    }
    // Scalar prefill is a serialized time charge, not chunk items:
    // the prefix KV is modelled present once the charge is taken, so
    // the entry opens at admission. The chunked path opens it from
    // the prefill-completion callback instead.
    if (publisher && options_.prefillChunkTokens == 0)
        prefixCache_->markReady(key, now());
    double tenant_charge = tenantReserve(front, charge_tokens);
    // Reused tokens are counted whether or not prefill time is
    // charged, so sweeps with charging off still report the hit's
    // substance (savedPrefillSeconds stays zero there: no time
    // charge means nothing to save).
    Tokens warm = publisher ? 0 : custody;
    result_.prefixCachedTokens += warm;
    double prefill_sec = 0.0;
    if (options_.chargePrefill || options_.prefillChunkTokens > 0) {
        prefill_sec = prefillSecondsFrom(model_, warm, front.contextTokens,
                                         cluster_.xpu,
                                         cluster_.prefillEngines());
        if (warm > 0)
            result_.savedPrefillSeconds +=
                prefillSeconds(model_, front.contextTokens, cluster_.xpu,
                               cluster_.prefillEngines()) -
                prefill_sec;
        result_.prefillSeconds += prefill_sec;
    }
    if (prefixCache_)
        prefixSampleOccupancy();
    // The prefix state is all zero when caching is off, making the
    // record identical to the pre-cache construction. The tier was
    // registered when the request arrived.
    return {AdmitOutcome::Admitted,
            Active{front, 0, timed.arrivalSeconds, -1.0, custody, warm,
                   key, publisher, tenant_charge, &tiers_.at(front.cls.tier)},
            prefill_sec};
}

ServingEngine::PrefixProbe
ServingEngine::probePrefix(const Request &r) const
{
    PrefixProbe probe;
    if (r.session != kNoSession && r.turn > 0) {
        std::uint64_t skey =
            PrefixCache::sessionKey(r.session, r.turn - 1);
        probe.share = prefixCache_->peek(skey);
        if (probe.share > 0)
            probe.key = skey;
        probe.probed = true;
    }
    if (probe.key == 0 && r.prefixHash != 0 && r.prefixTokens > 0 &&
        r.prefixTokens <= r.contextTokens) {
        std::uint64_t pkey = PrefixCache::prefixKey(r.prefixHash);
        probe.share = prefixCache_->peek(pkey);
        if (probe.share > 0)
            probe.key = pkey;
        else if (!prefixCache_->knows(pkey))
            probe.publishKey = pkey;
        probe.probed = true;
    }
    return probe;
}

Tokens
ServingEngine::prefixWarmTokens(const Request &r) const
{
    // Routing probe: how many of this request's context tokens this
    // replica's tree could serve right now. Read-only, so fleet
    // probes never perturb the replica state.
    if (!prefixCache_)
        return 0;
    return std::min<Tokens>(probePrefix(r).share, r.contextTokens);
}

void
ServingEngine::releaseCacheRef(const Active &a)
{
    if (!prefixCache_ || a.cacheKey == 0)
        return;
    if (a.cachePublisher)
        prefixCache_->release(a.cacheKey);
    else
        prefixCache_->releaseConsumer(a.cacheKey);
}

void
ServingEngine::prefixSampleOccupancy()
{
    // Shared (tree custody) vs unique (per-request) split of the
    // allocator's reservation — allocated == shared + unique holds
    // structurally because the tree reserves its chunks through the
    // same allocator.
    Bytes shared = prefixCache_->heldBytes();
    Bytes unique = allocator_->reservedBytes() - shared;
    prefixSharedPeak_ = std::max(prefixSharedPeak_, shared);
    prefixUniquePeak_ = std::max(prefixUniquePeak_, unique);
}

bool
ServingEngine::advanceMember(Active &a, double completion_clock)
{
    // The allocator holds this request's KV minus whatever the prefix
    // cache holds on its behalf (cachedTokens == 0 when caching is
    // off, making the subtraction a no-op).
    Tokens total = a.request.contextTokens + a.generated + 1;
    if (!allocator_->grow(a.request.id, total - a.cachedTokens)) {
        // Out of memory: preempt (vLLM-style recompute); the
        // request re-queues with its original arrival time.
        allocator_->release(a.request.id);
        tenantRelease(a);
        releaseCacheRef(a);
        ++result_.preemptions;
        arrived_.push_back({a.request, a.arrival});
        return false;
    }
    ++a.generated;
    ++result_.generatedTokens;
    if (a.generated == 1) {
        double ttft = completion_clock - a.arrival;
        // First admission wins: a preempted-and-recomputed request
        // keeps the TTFT of its first emitted token.
        if (result_.firstTokenLatency.emplace(a.request.id, ttft).second) {
            ttftSum_ += ttft;
            a.tier->ttfts.add(ttft);
        }
    } else if (a.lastTokenAt >= 0.0) {
        double gap = completion_clock - a.lastTokenAt;
        gapSum_ += gap;
        a.tier->gaps.add(gap);
        if (a.tier->window)
            a.tier->window->add(gap);
    }
    a.lastTokenAt = completion_clock;
    if (a.generated >= a.request.decodeTokens) {
        if (prefixCache_ && a.request.session != kNoSession &&
            sessions_.count(a.request.id)) {
            // A declared successor exists: hand the full KV (context
            // plus everything generated) to the tree under this
            // turn's session key so turn k+1 prefills only its delta.
            // The consumer chunks are released and the cache
            // re-admits the same count — net-zero occupancy — and a
            // warm turn chains onto its own parent entry.
            Tokens total_kv = a.request.contextTokens + a.generated;
            Tokens own = total_kv - a.cachedTokens;
            Tokens parent_share =
                a.cacheKey != 0
                    ? std::min<Tokens>(prefixCache_->peek(a.cacheKey),
                                       total_kv)
                    : 0;
            allocator_->release(a.request.id);
            prefixCache_->publish(
                PrefixCache::sessionKey(a.request.session,
                                        a.request.turn),
                a.cacheKey, parent_share, total_kv, own,
                completion_clock, a.request.cls.tier, /*hold=*/false,
                /*ready=*/true);
        } else {
            allocator_->release(a.request.id);
        }
        releaseCacheRef(a);
        tenantRelease(a);
        ++result_.completedRequests;
        ++a.tier->completed;
        latencies_.add(completion_clock - a.arrival);
        result_.completionSeconds.emplace(a.request.id,
                                          completion_clock);
        releaseNextTurn(a.request.id, completion_clock);
        return false;
    }
    return true;
}

void
ServingEngine::admitArrived(double now)
{
    // Skipping a gated tier or an over-budget tenant, rather than
    // halting on it, keeps FIFO order inside each (class, tenant)
    // population without head-of-line blocking the others.
    if (halted_)
        return; // crashed replica: admissions wait for the sweep
    // The SLO gate guards new prefills on the chunked path when the
    // policy steers on the gap signal; it is re-checked at every
    // cycle completion.
    const bool chunked = options_.prefillChunkTokens > 0;
    const bool gated = chunked && policy_->needsGapSignal();
    if (gated)
        refreshTiersInFlight();
    std::set<unsigned> entitled = entitledTenantsWaiting();
    bool gate_deferred = false;
    for (std::size_t i = 0; i < arrived_.size();) {
        const TimedRequest &timed = arrived_[i];
        if (gated && timed.request.contextTokens > 0 &&
            classGateDefers(timed.request.cls)) {
            // At most one deferral per admission check.
            if (!gate_deferred) {
                ++result_.sloDeferrals;
                gate_deferred = true;
            }
            ++i;
            continue;
        }
        Admission adm = tryAdmitOne(
            timed, !entitledElsewhere(entitled, timed.request.cls.tenant));
        if (adm.outcome == AdmitOutcome::Blocked)
            break;
        if (adm.outcome == AdmitOutcome::BudgetBlocked) {
            ++i;
            continue;
        }
        arrived_.erase(arrived_.begin() + static_cast<std::ptrdiff_t>(i));
        if (adm.outcome != AdmitOutcome::Admitted)
            continue; // Rejected: already counted
        if (chunked) {
            startPrefill(std::move(adm.active), now);
        } else {
            prefillReady_ = std::max(prefillReady_, now) +
                            adm.prefillSeconds * serviceRateScale_;
            readyPool_.push_back(std::move(adm.active));
        }
    }
}

ServingEngine::CyclePlan
ServingEngine::planCohortCycle(const Active *begin, const Active *end)
{
    const unsigned tp = cluster_.plan.tp;
    const unsigned pp = cluster_.plan.pp;
    const std::uint32_t batch =
        static_cast<std::uint32_t>(end - begin);
    const unsigned kvh = model_.kvHeads();
    const unsigned jobs_per_req = std::max(1u, ceilDiv(kvh, tp));
    // When the TP group outnumbers the KV heads, the modules sharing
    // a head split its token range (sequence parallelism); the extra
    // partial reduction folds into the EPU path.
    const unsigned seq_split = tp > kvh ? tp / kvh : 1;

    // One job per request stands for its jobs_per_req identical
    // KV-head scans; the module charges it count-weighted.
    std::vector<AttentionJob> &jobs = jobsScratch_;
    jobs.clear();
    jobs.reserve(batch);
    for (const Active *it = begin; it != end; ++it) {
        const Active &a = *it;
        Tokens t = a.request.contextTokens + a.generated;
        Tokens t_mod = seq_split > 1 ? ceilDiv<Tokens>(t, seq_split) : t;
        jobs.push_back({a.request.id, 0, t_mod, jobs_per_req});
    }

    PhaseResult att = module_->attentionLayer(jobs, model_);
    double fc_sec;
    PhaseResult fc;
    if (cluster_.kind == SystemKind::PimOnly) {
        fc = module_->fcLayer(batch, model_, tp);
        fc_sec = fc.seconds;
    } else {
        double layer_params = static_cast<double>(model_.paramCount()) /
                              model_.nLayers;
        double flops = 2.0 * layer_params / tp *
                       static_cast<double>(batch);
        Bytes w = static_cast<Bytes>(
            static_cast<double>(model_.weightBytes()) /
            model_.nLayers / tp);
        fc_sec = xpu_->gemmSeconds(flops, w, batch);
        // Simple NPU energy: 0.4 pJ/FLOP.
        fc.energy.elseE = flops * 0.4;
    }

    double sync = 2.0 * allReduceSeconds(
        static_cast<Bytes>(batch) * model_.dModel * 2, tp,
        cluster_.linkBandwidth, cluster_.linkAlpha);

    double layer_sec = cluster_.kind == SystemKind::PimOnly
        ? att.seconds + fc_sec + sync
        : std::max(att.seconds, fc_sec) + sync;

    CyclePlan plan;
    plan.layerSeconds = layer_sec;
    plan.fcLayerSeconds =
        cluster_.kind == SystemKind::XpuPim ? fc_sec : 0.0;

    // Per full cycle the cohort crosses all pp stages.
    double layers_total = stageLayersTotal(model_.nLayers, pp);
    plan.layersTotal = layers_total;
    plan.attSeconds = att.seconds * layers_total;
    plan.fcSeconds = fc_sec * layers_total;
    plan.busyChannelCycles =
        (att.busyChannelCycles + fc.busyChannelCycles) * layers_total *
        tp;
    plan.attEnergy = att.energy.scaled(layers_total * tp);
    plan.fcEnergy = fc.energy.scaled(layers_total * tp);
    return plan;
}

void
ServingEngine::accountCycle(const CyclePlan &plan, double span_cycles)
{
    macBusyCycles_ += plan.busyChannelCycles;
    macSpanCycles_ += span_cycles;

    double spc = cluster_.module.timing.secondsPerCycle();
    double busy_span_cycles =
        (plan.attSeconds + (cluster_.kind == SystemKind::PimOnly
                                ? plan.fcSeconds
                                : 0.0)) /
        spc * cluster_.module.nChannels * cluster_.plan.tp;
    double idle = span_cycles - busy_span_cycles;
    EnergyBreakdown att_energy = plan.attEnergy;
    EnergyBreakdown fc_energy = plan.fcEnergy;
    if (idle > 0) {
        // Attribute idle background proportionally to phase time.
        double tot = plan.attSeconds + plan.fcSeconds;
        double att_share = tot > 0 ? plan.attSeconds / tot : 1.0;
        EnergyBreakdown bg = backgroundEnergy(
            static_cast<Cycle>(idle), 1, EnergyParams{});
        att_energy += bg.scaled(att_share);
        fc_energy += bg.scaled(1.0 - att_share);
    }

    result_.attentionSeconds += plan.attSeconds;
    result_.fcSeconds += plan.fcSeconds;
    result_.attentionEnergy += att_energy;
    result_.fcEnergy += fc_energy;
}

EngineResult
ServingEngine::run()
{
    prepare();
    queue_.runAll();
    return finalize();
}

void
ServingEngine::accountTo(double t)
{
    if (t <= lastAccount_)
        return;
    double dt = t - lastAccount_;
    // Effective batch counts decoding requests only; pooled requests
    // hold memory but are not batched on any device.
    batchTime_ += dt * static_cast<double>(inFlightCount());
    capacityTime_ += dt * allocator_->capacityUtilization();
    integrateTenantShares(dt);
    lastAccount_ = t;
    endTime_ = std::max(endTime_, t);
}

std::size_t
ServingEngine::inFlightCount() const
{
    std::size_t n = 0;
    for (const auto &c : cohorts_)
        n += c.members.size();
    return n;
}

void
ServingEngine::takeFairShare(std::vector<Active> &into)
{
    // Tier-segregated refills: order the pool by tier (stable, so
    // survivors keep precedence inside a tier) and the take forms
    // the most tier-pure cohort the pool allows — higher tiers
    // decode in cohorts the tier-aware arbiters can favor. One tier
    // has nothing to order.
    if (tiers_.size() > 1)
        std::stable_sort(readyPool_.begin(), readyPool_.end(),
                         [](const Active &a, const Active &b) {
                             return a.request.cls.tier <
                                    b.request.cls.tier;
                         });
    std::size_t total = inFlightCount() + readyPool_.size();
    std::size_t target = std::max<std::size_t>(
        1, ceilDiv<std::size_t>(total, cluster_.plan.pp));
    std::size_t take = std::min<std::size_t>(target, readyPool_.size());
    into.assign(std::make_move_iterator(readyPool_.begin()),
                std::make_move_iterator(readyPool_.begin() + take));
    readyPool_.erase(readyPool_.begin(), readyPool_.begin() + take);
}

void
ServingEngine::refreshTiersInFlight()
{
    for (auto &kv : tiers_)
        kv.second.decoding = false;
    for (const auto &c : cohorts_)
        for (const auto &m : c.members)
            m.tier->decoding = true;
}

bool
ServingEngine::classGateDefers(const RequestClass &cls)
{
    // A prefill of tier T defers while any tier T' <= T (equal or
    // higher priority) exceeds its own target on its own window — the
    // nearest-rank p95 over its most recent decode token gaps — so
    // admitting lower-priority work can never break a higher tier's
    // SLO, while a high-priority prefill is not held hostage by a
    // struggling lower tier. A tier's gate may only bind while its
    // own gaps can still be produced (decode in flight), or a stale
    // window would deadlock that tier's admissions. A default-class
    // run has tier 0 alone, so its gate reads every gap.
    for (auto &kv : tiers_) {
        if (kv.first > cls.tier)
            break; // ascending map: only tiers <= T guard T
        const TierState &ts = kv.second;
        if (ts.window &&
            !policy_->admitPrefillAt(ts.window->value(), ts.window->size(),
                                     ts.decoding, ts.target))
            return true;
    }
    return false;
}

void
ServingEngine::startPrefill(Active a, double now)
{
    // Chunked prefill: the admitted request enters a Prefilling
    // state (memory held, not decoding) while its chunks traverse
    // the per-stage xPU timelines; it joins the decode ready pool at
    // the last chunk's last-stage completion. Per-chunk seconds
    // apportion the scalar charge tryAdmitOne already accounted, so
    // chunked and scalar prefill cost the same total device time.
    // A warm prefix skips its cached share: the chunk plan covers
    // only [warmTokens, context), apportioning the reduced scalar
    // charge (warmTokens == 0 is the cold plan).
    auto chunk_secs = prefillChunkSecondsFrom(
        model_, a.warmTokens, a.request.contextTokens,
        options_.prefillChunkTokens, cluster_.xpu,
        cluster_.prefillEngines());
    if (chunk_secs.empty()) {
        // Fully cached context: nothing left to prefill. A publisher
        // with an empty plan (zero-context request) opens its entry
        // immediately.
        if (prefixCache_ && a.cachePublisher && a.cacheKey != 0)
            prefixCache_->markReady(a.cacheKey, now);
        readyPool_.push_back(std::move(a));
        return;
    }
    // prefillSeconds() spreads the work over prefillEngines();
    // a stage owns tp of them for stageLayers/nLayers of the
    // model, so scale per-stage occupancy to keep each request's
    // per-stage total at scalar * engines / (tp * pp-equivalent).
    const unsigned pp = cluster_.plan.pp;
    double engine_scale =
        static_cast<double>(cluster_.prefillEngines()) / cluster_.plan.tp;
    double layers_total = stageLayersTotal(model_.nLayers, pp);
    seqScratch_.resize(chunk_secs.size());
    for (std::size_t k = 0; k < chunk_secs.size(); ++k) {
        std::vector<sim::WorkItem> &row = seqScratch_[k];
        row.assign(pp, sim::WorkItem{});
        for (unsigned s = 0; s < pp; ++s) {
            row[s].kind = sim::WorkItem::Kind::PrefillChunk;
            row[s].request = a.request.id;
            row[s].chunk = static_cast<std::uint32_t>(k);
            row[s].tier = a.request.cls.tier;
            row[s].seconds = chunk_secs[k] * engine_scale *
                             stageLayers(model_.nLayers, pp, s) /
                             layers_total * serviceRateScale_;
        }
    }
    ++prefilling_;
    double holder_tokens = static_cast<double>(
        a.request.contextTokens + a.request.decodeTokens);
    prefillingTokens_ += holder_tokens;
    auto holder = std::make_shared<Active>(std::move(a));
    prefillHolders_.push_back(holder);
    std::uint64_t epoch = epoch_;
    stages_->pipeline().submitSequence(
        queue_, seqScratch_, now,
        [this, holder, holder_tokens, epoch](double t) {
            if (epoch != epoch_)
                return; // evacuated mid-prefill; already failed over
            prefillHolders_.erase(
                std::find(prefillHolders_.begin(),
                          prefillHolders_.end(), holder));
            --prefilling_;
            prefillingTokens_ -= holder_tokens;
            accountTo(t);
            // Publisher's prefix KV is now materialized: open the
            // tree entry for the requests queued behind it.
            if (prefixCache_ && holder->cachePublisher &&
                holder->cacheKey != 0)
                prefixCache_->markReady(holder->cacheKey, t);
            readyPool_.push_back(std::move(*holder));
            formNewCohorts(t);
        });
}

void
ServingEngine::startCycle(Cohort &c, double ready)
{
    CyclePlan plan = planCohortCycle(
        c.members.data(), c.members.data() + c.members.size());
    // Brown-out: stretch the cycle's device time (and its channel
    // span, so MAC utilization sees the slowdown) without changing
    // the intrinsic work. scale == 1.0 multiplies exactly.
    double layer_sec = plan.layerSeconds * serviceRateScale_;
    double fc_layer_sec = plan.fcLayerSeconds * serviceRateScale_;
    double span_cycles = layer_sec * plan.layersTotal /
                         cluster_.module.timing.secondsPerCycle() *
                         cluster_.module.nChannels * cluster_.plan.tp;
    accountCycle(plan, span_cycles);

    // A cohort's decode items carry the best (lowest) tier of
    // its members, so a mixed cohort is arbitrated at the
    // priority of its most latency-sensitive member.
    std::uint32_t cohort_tier = 0;
    if (!c.members.empty()) {
        cohort_tier = c.members.front().request.cls.tier;
        for (const Active &m : c.members)
            cohort_tier = std::min(cohort_tier, m.request.cls.tier);
    }

    const unsigned pp = cluster_.plan.pp;
    cycleItems_.assign(pp, sim::WorkItem{});
    for (unsigned s = 0; s < pp; ++s) {
        unsigned layers = stageLayers(model_.nLayers, pp, s);
        cycleItems_[s].cohort = c.id;
        cycleItems_[s].cycle = c.cycle;
        cycleItems_[s].tier = cohort_tier;
        cycleItems_[s].seconds = layer_sec * layers;
        cycleItems_[s].fcSeconds = fc_layer_sec * layers;
    }
    ++c.cycle;
    Cohort *cohort = &c;
    stages_->pipeline().submitChain(
        queue_, cycleItems_, ready, [this, cohort](double t) {
            onCycleComplete(*cohort, t);
        });
}

void
ServingEngine::onCycleComplete(Cohort &c, double t)
{
    accountTo(t);

    // Advance every cohort member by one token, compacting the
    // survivors in place (order preserved, no allocation).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < c.members.size(); ++i) {
        if (advanceMember(c.members[i], t)) {
            if (keep != i)
                c.members[keep] = std::move(c.members[i]);
            ++keep;
        }
    }
    c.members.resize(keep);

    ++cycles_;
    if (cycles_ >= options_.maxSteps)
        capped_ = true;

    // Continuous batching with balanced cohorts: survivors and
    // admissible pending requests meet in the ready pool
    // (survivors first, so mid-decode requests keep priority),
    // and the cohort refills up to a fair share of the active
    // set. The cap keeps cohorts balanced the way a lockstep
    // per-step re-split would, while leaving the other cohorts'
    // in-flight cycles untouched.
    if (!capped_) {
        admitArrived(t);
        readyPool_.insert(readyPool_.begin(),
                            std::make_move_iterator(c.members.begin()),
                            std::make_move_iterator(c.members.end()));
        c.members.clear();
        takeFairShare(c.members);
    }
    if (!c.members.empty() && !capped_) {
        startCycle(c, std::max(t, prefillReady_));
    } else {
        Cohort *self = &c;
        cohorts_.remove_if(
            [self](const Cohort &x) { return &x == self; });
    }
    formNewCohorts(t);
}

void
ServingEngine::formNewCohorts(double t)
{
    for (;;) {
        if (capped_ || halted_)
            return;
        if (cohorts_.size() >= cluster_.plan.pp)
            return; // pipeline slots full; rebalance at cycle ends
        admitArrived(t);
        if (readyPool_.empty()) {
            // Deadlock guard: nothing in flight (decoding or
            // prefilling), nothing admissible, and no event can
            // change that -> the front request can never be
            // served; reject it.
            if (cohorts_.empty() && prefilling_ == 0 &&
                queue_.empty() && !arrived_.empty()) {
                ++result_.rejectedRequests;
                arrived_.pop_front();
                continue;
            }
            return;
        }
        cohorts_.push_back(Cohort{nextCohortId_++, 0, {}});
        takeFairShare(cohorts_.back().members);
        startCycle(cohorts_.back(), std::max(t, prefillReady_));
    }
}

void
ServingEngine::onArrival(double t)
{
    arrivalArmed_ = false;
    accountTo(t);
    while (!future_.empty() && future_.front().arrivalSeconds <= t) {
        arrived_.push_back(future_.front());
        future_.pop_front();
    }
    armArrivalEvent();
    formNewCohorts(t);
}

void
ServingEngine::armArrivalEvent()
{
    // Only the head arrival is scheduled — each arrival event chains
    // the next one, so the event heap stays O(1) in the trace
    // length. injectArrivals re-arms when it delivers an arrival
    // earlier than the armed one.
    if (future_.empty())
        return;
    double at = future_.front().arrivalSeconds;
    if (arrivalArmed_ && arrivalArmedAt_ <= at)
        return;
    queue_.schedule(at, [this](double t) { onArrival(t); });
    arrivalArmed_ = true;
    arrivalArmedAt_ = at;
}

void
ServingEngine::prepare()
{
    if (prepared_)
        fatal("ServingEngine::prepare() called twice");
    prepared_ = true;
    armArrivalEvent();
    formNewCohorts(0.0);
}

void
ServingEngine::advanceTo(double horizon)
{
    if (!prepared_)
        fatal("ServingEngine::advanceTo() before prepare()");
    queue_.runUntil(horizon);
}

bool
ServingEngine::drained() const
{
    return queue_.empty();
}

void
ServingEngine::declareWorkload(const std::vector<TimedRequest> &trace)
{
    if (prepared_)
        fatal("ServingEngine::declareWorkload() after prepare()");
    requireSortedByArrival(trace, "ServingEngine::declareWorkload");
    // Activation scan over a trace whose requests arrive later (the
    // constructor passes its own list): create the tiers with their
    // SLO targets and flip the tenant machinery on. Per-tier request
    // counts stay zero — registerInjected counts what this engine
    // actually receives.
    for (const auto &timed : trace) {
        const RequestClass &cls = timed.request.cls;
        if (!cls.isDefault())
            classesActive_ = true;
        if (cls.tenant != 0)
            tenantsActive_ = true;
        TierState &ts = tierState(cls.tier);
        // First explicit per-class target wins; tiers without one
        // are judged against the policy-wide default.
        if (ts.target == 0.0 && cls.gapSloSeconds > 0.0)
            ts.target = cls.gapSloSeconds;
    }
    for (auto &kv : tiers_)
        if (kv.second.target == 0.0)
            kv.second.target = options_.sched.sloTargetGapSeconds;
    tenantsActive_ = tenantsActive_ || budgetsActive_;
    if (tenantsActive_)
        for (const auto &timed : trace)
            (void)tenants_[timed.request.cls.tenant];
}

void
ServingEngine::declareSessionTurns(const SessionBook &sessions)
{
    if (prepared_)
        fatal("ServingEngine::declareSessionTurns() after prepare()");
    // Successor turns join the class/tenant declaration exactly as a
    // declared open-loop trace would (tier targets fixed before
    // prepare() allocates the windows). Scan in ascending key order
    // so the first-target-wins rule is independent of the book's
    // bucket layout.
    std::vector<RequestId> keys;
    keys.reserve(sessions.size());
    for (const auto &kv : sessions) {
        if (kv.second.thinkSeconds < 0.0)
            fatal("session think times must be nonnegative");
        keys.push_back(kv.first);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<TimedRequest> decl;
    decl.reserve(keys.size());
    for (RequestId key : keys) {
        const SessionTurn &turn = sessions.at(key);
        decl.push_back({turn.request, 0.0});
        if (!sessions_.emplace(key, turn).second)
            fatal("request %u already has a declared successor",
                  key);
    }
    declareWorkload(decl);
}

void
ServingEngine::releaseNextTurn(RequestId completed, double now)
{
    auto it = sessions_.find(completed);
    if (it == sessions_.end())
        return;
    TimedRequest next{it->second.request,
                      now + it->second.thinkSeconds};
    sessions_.erase(it);
    registerInjected(next);
    // The release gets its own event rather than joining the
    // pending-arrival chain: a release often lands earlier than the
    // armed head arrival, and re-arming would leave a stale no-op
    // event behind whose count depends on how much of the trace the
    // caller has delivered — breaking the bare-vs-windowed simEvents
    // parity the fleet contract asserts. One event per release keeps
    // both runs identical. The release time is at or after the
    // current event time, so the conservative-ordering contract
    // holds by construction — including inside a fleet window, where
    // the successor lands on the replica that completed its
    // predecessor (natural session stickiness) without crossing the
    // window barrier protocol.
    queue_.schedule(next.arrivalSeconds, [this, next](double t) {
        accountTo(t);
        arrived_.push_back(next);
        formNewCohorts(t);
    });
}

void
ServingEngine::registerInjected(const TimedRequest &timed)
{
    // The per-request share of the tier/tenant bookkeeping: count
    // the request into its tier (a tier first seen here takes its
    // class target, else the policy default) and touch its tenant.
    const RequestClass &cls = timed.request.cls;
    TierState &ts = tierState(cls.tier);
    ++ts.requests;
    if (ts.target == 0.0)
        ts.target = cls.gapSloSeconds > 0.0
                        ? cls.gapSloSeconds
                        : options_.sched.sloTargetGapSeconds;
    if (tenantsActive_)
        (void)tenants_[cls.tenant];
}

ServingEngine::TierState &
ServingEngine::tierState(unsigned tier)
{
    // Policies steering on the gap signal read each tier's streaming
    // windowed p95 (fed by advanceMember) instead of copying and
    // sorting the window every decode cycle.
    TierState &ts = tiers_[tier];
    if (!ts.window && policy_->needsGapSignal() &&
        options_.sched.sloWindow > 0)
        ts.window = std::make_unique<WindowedQuantile>(
            options_.sched.sloWindow, 95.0);
    return ts;
}

void
ServingEngine::injectArrivals(const std::vector<TimedRequest> &batch)
{
    if (!prepared_)
        fatal("ServingEngine::injectArrivals() before prepare()");
    if (finalized_)
        fatal("ServingEngine::injectArrivals() after finalize()");
    requireSortedByArrival(batch, "ServingEngine::injectArrivals");
    bool immediate = false;
    for (const TimedRequest &timed : batch) {
        registerInjected(timed);
        if (timed.arrivalSeconds <= 0.0) {
            arrived_.push_back(timed);
            immediate = true;
        } else {
            // Merge into the nondecreasing pending-arrival stream;
            // upper_bound keeps FIFO order among equal arrival
            // times (later injections queue behind earlier ones).
            auto pos = std::upper_bound(
                future_.begin(), future_.end(),
                timed.arrivalSeconds,
                [](double t, const TimedRequest &r) {
                    return t < r.arrivalSeconds;
                });
            future_.insert(pos, timed);
        }
    }
    armArrivalEvent();
    // Time-zero deliveries skip the arrival-event path (exactly as
    // constructor-supplied time-zero requests do), so form cohorts
    // for them now.
    if (immediate)
        formNewCohorts(queue_.now());
}

double
ServingEngine::queuedTokens() const
{
    auto request_tokens = [](const Request &r) {
        return static_cast<double>(r.contextTokens + r.decodeTokens);
    };
    double sum = 0.0;
    for (const auto &timed : future_)
        sum += request_tokens(timed.request);
    for (const auto &timed : arrived_)
        sum += request_tokens(timed.request);
    for (const auto &a : readyPool_)
        sum += request_tokens(a.request) - static_cast<double>(a.generated);
    for (const auto &c : cohorts_)
        for (const auto &a : c.members)
            sum += request_tokens(a.request) -
                   static_cast<double>(a.generated);
    return sum + prefillingTokens_;
}

double
ServingEngine::now() const
{
    return queue_.now();
}

ServingEngine::Evacuation
ServingEngine::evacuate(bool kill_in_flight)
{
    if (!prepared_)
        fatal("ServingEngine::evacuate() before prepare()");
    if (finalized_)
        fatal("ServingEngine::evacuate() after finalize()");

    Evacuation out;
    // The undelivered/unadmitted queue migrates as-is. arrived may
    // hold preemption requeues with past arrivals, so the merged
    // batch is re-sorted rather than assumed ordered.
    out.queued.reserve(arrived_.size() + future_.size());
    for (const TimedRequest &timed : arrived_)
        out.queued.push_back(timed);
    arrived_.clear();
    for (const TimedRequest &timed : future_)
        out.queued.push_back(timed);
    future_.clear();
    sortByArrival(out.queued);
    if (!kill_in_flight)
        return out;

    // Hard crash: every admitted request loses its progress. KV
    // reservations are released, partial decode tokens are counted
    // as wasted, and the request is rewound to a fresh arrival for
    // the failover router. Residual timeline events for the killed
    // work drain as no-ops: cycle completions find empty cohorts and
    // prefill completions see a stale epoch.
    halted_ = true;
    ++epoch_;
    auto drop = [&](Active &a) {
        allocator_->release(a.request.id);
        tenantRelease(a);
        releaseCacheRef(a);
        out.lostTokens += a.generated;
        out.inFlight.push_back({a.request, a.arrival});
    };
    for (Active &a : readyPool_)
        drop(a);
    readyPool_.clear();
    for (Cohort &c : cohorts_) {
        for (Active &m : c.members)
            drop(m);
        c.members.clear();
    }
    for (const auto &holder : prefillHolders_)
        drop(*holder);
    prefillHolders_.clear();
    prefilling_ = 0;
    prefillingTokens_ = 0.0;
    // The crash loses the replica's KV wholesale — retained prefixes
    // included. The tree restarts cold after restoreService().
    if (prefixCache_)
        prefixCache_->clear();
    sortByArrival(out.inFlight);
    return out;
}

void
ServingEngine::restoreService()
{
    if (!prepared_)
        fatal("ServingEngine::restoreService() before prepare()");
    // Just lift the halt: queues are empty (the evacuation took
    // them), so service resumes with the next injected arrival.
    halted_ = false;
}

void
ServingEngine::setServiceRateScale(double factor)
{
    if (!prepared_)
        fatal("ServingEngine::setServiceRateScale() before prepare()");
    if (!(factor > 0.0))
        fatal("ServingEngine::setServiceRateScale(%.17g): factor "
              "must be positive",
              factor);
    serviceRateScale_ = factor;
}

EngineResult
ServingEngine::finalize()
{
    if (!prepared_)
        fatal("ServingEngine::finalize() before prepare()");
    if (finalized_)
        fatal("ServingEngine::finalize() called twice");
    finalized_ = true;

    result_.truncated = capped_;
    if (capped_)
        warn("engine stopped at the cycle cap (%llu)",
             static_cast<unsigned long long>(options_.maxSteps));

    // Per-policy observability off the stage timelines.
    for (unsigned s = 0; s < stages_->count(); ++s) {
        const XpuStageDevice &x = stages_->stage(s).xpu();
        result_.chunkSlices += x.preemptionSlices() -
                               x.decodePreemptionSlices();
        result_.decodePreemptSlices += x.decodePreemptionSlices();
        result_.decodeOvertakes += x.overtakes();
        result_.tierInversions += x.tierInversions();
        result_.maxTierInversionWaitSeconds =
            std::max(result_.maxTierInversionWaitSeconds,
                     x.maxTierInversionWaitSeconds());
        result_.maxDecodeXpuWaitSeconds =
            std::max(result_.maxDecodeXpuWaitSeconds,
                     x.maxDecodeWaitSeconds());
        result_.xpuPrefillBusySeconds += x.prefillBusySeconds();
    }

    result_.simulatedSeconds = endTime_;
    result_.simEvents = queue_.dispatched();
    if (prefixCache_) {
        const PrefixCacheStats &pc = prefixCache_->stats();
        result_.prefixHits = pc.hits;
        result_.prefixMisses = pc.misses;
        result_.prefixEvictions = pc.evictions;
        result_.sharedKvPeakBytes = prefixSharedPeak_;
        result_.uniqueKvPeakBytes = prefixUniquePeak_;
    }
    // The summary scratch comes and goes before the maps change
    // hands; moving them allocates nothing and keeps their order.
    EngineResult out = summarize({this});
    out.firstTokenLatency = std::move(result_.firstTokenLatency);
    out.completionSeconds = std::move(result_.completionSeconds);
    return out;
}

EngineResult
ServingEngine::summarize(const std::vector<ServingEngine *> &engines)
{
    using Parts = std::vector<std::vector<double> *>;
    auto addParts = [](Parts &parts, Samples &s) {
        for (std::vector<double> &chunk : s.chunks)
            parts.push_back(&chunk);
    };
    // Ratios: the engines' integrals and channel-cycles, summed.
    double batch_time = 0.0, capacity_time = 0.0, engine_seconds = 0.0;
    double mac_busy = 0.0, mac_span = 0.0;
    double latency_sum = 0.0, ttft_sum = 0.0, gap_sum = 0.0;
    bool classes = false;
    Parts latencies, ttfts, gaps;
    std::map<unsigned, std::vector<TierState *>> tiers;
    std::map<unsigned, EngineResult::TenantOccupancy> tenants;
    for (ServingEngine *e : engines) {
        batch_time += e->batchTime_;
        capacity_time += e->capacityTime_;
        engine_seconds += e->endTime_;
        mac_busy += e->macBusyCycles_;
        mac_span += e->macSpanCycles_;
        latency_sum += e->latencies_.sum;
        ttft_sum += e->ttftSum_;
        gap_sum += e->gapSum_;
        addParts(latencies, e->latencies_);
        classes = classes || e->classesActive_;
        for (auto &kv : e->tiers_) {
            addParts(ttfts, kv.second.ttfts);
            addParts(gaps, kv.second.gaps);
            tiers[kv.first].push_back(&kv.second);
        }
        // tenants_ is empty unless tenants are tracked.
        for (const auto &kv : e->tenants_) {
            EngineResult::TenantOccupancy &to = tenants[kv.first];
            to.tenant = kv.first;
            to.budgetShare =
                std::max(to.budgetShare, safeRatio(kv.second.budgetTokens,
                                                   e->capacityTokens_));
            to.avgTokenShare += kv.second.shareSeconds; // divided below
            to.peakTokenShare =
                std::max(to.peakTokenShare, kv.second.peakShare);
            to.admittedRequests += kv.second.admitted;
            to.budgetDeferrals += kv.second.deferrals;
        }
    }

    // Mean from the running sum and one nearest-rank selection over
    // the sample chunks: O(n), no merged copy. The top level selects
    // over every tier's chunks, so it sees each sample exactly once.
    auto summarize_samples = [](double sum, const Parts &parts, double &avg,
                                double &p95) {
        std::size_t n = 0;
        for (const std::vector<double> *v : parts)
            n += v->size();
        if (n == 0)
            return;
        avg = sum / static_cast<double>(n);
        p95 = nearestRankPercentileInPlace(parts, 95.0);
    };
    EngineResult agg;
    summarize_samples(latency_sum, latencies, agg.avgRequestLatency,
                      agg.p95RequestLatency);
    summarize_samples(ttft_sum, ttfts, agg.avgFirstTokenSeconds,
                      agg.p95FirstTokenSeconds);
    summarize_samples(gap_sum, gaps, agg.avgTokenGapSeconds,
                      agg.p95TokenGapSeconds);
    // Per-tier rows are published only when some request carries a
    // non-default class; a default-class run is its tier 0 alone.
    if (!classes)
        tiers.clear();
    agg.classLatencies.reserve(tiers.size());
    for (auto &kv : tiers) {
        EngineResult::ClassLatency cl;
        cl.tier = kv.first;
        double ttft_sum_tier = 0.0, gap_sum_tier = 0.0;
        Parts tier_ttfts, tier_gaps;
        for (TierState *ts : kv.second) {
            cl.gapSloTargetSeconds =
                std::max(cl.gapSloTargetSeconds, ts->target);
            cl.requests += ts->requests;
            cl.completedRequests += ts->completed;
            ttft_sum_tier += ts->ttfts.sum;
            gap_sum_tier += ts->gaps.sum;
            addParts(tier_ttfts, ts->ttfts);
            addParts(tier_gaps, ts->gaps);
        }
        summarize_samples(ttft_sum_tier, tier_ttfts, cl.avgFirstTokenSeconds,
                          cl.p95FirstTokenSeconds);
        summarize_samples(gap_sum_tier, tier_gaps, cl.avgTokenGapSeconds,
                          cl.p95TokenGapSeconds);
        agg.classLatencies.push_back(cl);
    }
    agg.tenantOccupancy.reserve(tenants.size());
    for (auto &kv : tenants) {
        kv.second.avgTokenShare =
            safeRatio(kv.second.avgTokenShare, engine_seconds);
        agg.tenantOccupancy.push_back(kv.second);
    }

    // Counters, energies and maxima: the Sum and Max rows of the
    // metric table, folded in engine order. Only arithmetic rows can
    // be maxima (the energies are sums).
    forEachMetric([&](const char *, auto field, MetricRule rule) {
        using T = std::remove_reference_t<decltype(agg.*field)>;
        for (const ServingEngine *e : engines) {
            const T &v = e->result_.*field;
            if (rule == MetricRule::Sum)
                agg.*field += v;
            else if constexpr (std::is_arithmetic_v<T>) {
                if (rule == MetricRule::Max)
                    agg.*field = std::max(agg.*field, v);
            }
        }
    });
    if (agg.simulatedSeconds > 0.0) {
        agg.tokensPerSecond = static_cast<double>(agg.generatedTokens) /
                              agg.simulatedSeconds;
        agg.avgEffectiveBatch = batch_time / agg.simulatedSeconds;
    }
    agg.capacityUtilization = safeRatio(capacity_time, engine_seconds);
    agg.macUtilization = safeRatio(mac_busy, mac_span);
    agg.prefixHitRate =
        safeRatio(static_cast<double>(agg.prefixHits),
                  static_cast<double>(agg.prefixHits + agg.prefixMisses));
    return agg;
}

EngineResult
runServing(ClusterConfig cluster, const LlmConfig &model,
           const std::vector<Request> &requests,
           const PimphonyOptions &pimphony, std::uint64_t max_steps)
{
    applyOptions(cluster, pimphony);
    EngineOptions options;
    options.allocator =
        pimphony.dpa ? AllocatorKind::LazyChunk : AllocatorKind::Static;
    options.maxSteps = max_steps;
    ServingEngine engine(cluster, model, requests, options);
    return engine.run();
}

} // namespace pimphony
