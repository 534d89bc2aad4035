#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>

#include "alloc/prefix_cache.hh"
#include "common/logging.hh"
#include "kernels/kernel_sim.hh"
#include "sim/event_queue.hh"
#include "system/pim_module.hh"

namespace pimbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median host seconds of @p reps calls of @p body. */
template <typename F>
double
medianSeconds(int reps, F &&body)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        body();
        s.push_back(secondsSince(t0));
    }
    std::nth_element(s.begin(), s.begin() + s.size() / 2, s.end());
    return s[s.size() / 2];
}

/** Probe state: a queue whose every event schedules one successor. */
struct QueueProbe
{
    sim::EventQueue queue;
    std::uint64_t lcg = 0;
    std::uint64_t left = 0;
};

struct Tick
{
    QueueProbe *p;

    void
    operator()(double now) const
    {
        if (p->left == 0)
            return;
        --p->left;
        p->lcg = p->lcg * 6364136223846793005ull + 1442695040888963407ull;
        double dt = 1e-6 * static_cast<double>((p->lcg >> 33) % 1000 + 1);
        p->queue.schedule(now + dt, Tick{p});
    }
};

/** KV-head jobs per request and the sequence split, as the engine
 *  derives them from the parallel plan (planCohortCycle). */
struct JobShape
{
    unsigned jobsPerRequest = 1;
    unsigned seqSplit = 1;

    Tokens
    tokens(Tokens t) const
    {
        return seqSplit > 1 ? (t + seqSplit - 1) / seqSplit : t;
    }
};

JobShape
jobShape(const Workload &w)
{
    const unsigned tp = w.cluster.plan.tp;
    const unsigned kvh = w.model.kvHeads();
    JobShape s;
    s.jobsPerRequest = std::max(1u, (kvh + tp - 1) / tp);
    s.seqSplit = tp > kvh ? tp / kvh : 1;
    return s;
}

LazyChunkAllocator
makeAllocator(const Workload &w)
{
    return LazyChunkAllocator(w.cluster.usableKvBytes(w.model),
                              w.model.kvBytesPerToken(),
                              w.model.contextWindow);
}

} // namespace

std::vector<Request>
allRequests(const Workload &w)
{
    std::vector<Request> out;
    out.reserve(w.attempted());
    for (const auto &t : w.built.initial)
        out.push_back(t.request);
    std::vector<Request> turns;
    for (const auto &kv : w.built.sessions)
        turns.push_back(kv.second.request);
    // The book is a hash map; order its turns by id so the probes
    // replay the same sequence on every platform.
    std::sort(turns.begin(), turns.end(),
              [](const Request &a, const Request &b) { return a.id < b.id; });
    out.insert(out.end(), turns.begin(), turns.end());
    return out;
}

double
probeEventQueue(std::uint64_t seed)
{
    constexpr std::uint64_t kEvents = 2000000;
    constexpr unsigned kPending = 16;
    QueueProbe p;
    p.lcg = seed;
    p.left = kEvents;
    p.queue.reserve(kPending + 1);
    auto t0 = Clock::now();
    for (unsigned i = 0; i < kPending; ++i)
        p.queue.schedule(1e-6 * i, Tick{&p});
    p.queue.runAll();
    double s = secondsSince(t0);
    return s * 1e9 / static_cast<double>(p.queue.dispatched());
}

KernelProbe
probeKernels(const Workload &w)
{
    const JobShape shape = jobShape(w);
    std::set<Tokens> buckets;
    for (const Request &r : allRequests(w)) {
        // Every decode step's context, one bucket at a time
        // (bucketTokens is monotone and constant up to its bucket).
        Tokens end = r.contextTokens + r.decodeTokens;
        for (Tokens t = r.contextTokens; t < end;) {
            Tokens b = bucketTokens(shape.tokens(t));
            buckets.insert(b);
            t = std::max(t + 1, b * shape.seqSplit + 1);
        }
    }

    KernelProbe k;
    k.distinctBuckets = buckets.size();
    PimModuleModel model(w.cluster.module);
    std::vector<AttentionJob> job(1);
    double sink = 0.0;
    auto t0 = Clock::now();
    for (Tokens b : buckets) {
        job[0].tokens = b;
        sink += model.attentionLayer(job, w.model).seconds;
    }
    k.coldSeconds = secondsSince(t0);

    constexpr int kRounds = 200;
    t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i)
        for (Tokens b : buckets) {
            job[0].tokens = b;
            sink += model.attentionLayer(job, w.model).seconds;
        }
    k.warmNsPerCall = secondsSince(t0) * 1e9 /
                      static_cast<double>(kRounds * buckets.size());
    if (!(sink > 0.0))
        fatal("kernel probe: attention layers took no time");
    return k;
}

CostProbe
probeCostModel(const Workload &w, std::size_t cohort)
{
    const JobShape shape = jobShape(w);
    const std::vector<Request> reqs = allRequests(w);
    constexpr std::size_t kCohorts = 64;
    cohort = std::max<std::size_t>(1, cohort);

    // kCohorts job vectors over consecutive requests at mid-decode.
    std::vector<std::vector<AttentionJob>> cohorts(kCohorts);
    for (std::size_t c = 0; c < kCohorts; ++c)
        for (std::size_t m = 0; m < cohort; ++m) {
            const Request &r = reqs[(c * cohort + m) % reqs.size()];
            Tokens t = shape.tokens(r.contextTokens + r.decodeTokens / 2);
            for (unsigned h = 0; h < shape.jobsPerRequest; ++h)
                cohorts[c].push_back({r.id, h, t});
        }

    PimModuleModel model(w.cluster.module);
    double sink = 0.0;
    for (const auto &jobs : cohorts) // fill the memo
        sink += model.attentionLayer(jobs, w.model).seconds;
    sink += model.fcLayer(static_cast<std::uint32_t>(cohort), w.model,
                          w.cluster.plan.tp)
                .seconds;

    constexpr int kCalls = 20000;
    CostProbe c;
    auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i)
        sink += model.attentionLayer(cohorts[i % kCohorts], w.model).seconds;
    c.attentionNsPerCall = secondsSince(t0) * 1e9 / kCalls;
    t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i)
        sink += model.fcLayer(static_cast<std::uint32_t>(cohort), w.model,
                              w.cluster.plan.tp)
                    .seconds;
    c.fcNsPerCall = secondsSince(t0) * 1e9 / kCalls;
    if (!(sink > 0.0))
        fatal("cost probe: layers took no time");
    return c;
}

double
probeAllocator(const Workload &w, std::size_t live)
{
    const std::vector<Request> reqs = allRequests(w);
    live = std::max<std::size_t>(1, live);
    std::uint64_t ops = 0;
    double s = medianSeconds(3, [&]() {
        LazyChunkAllocator alloc = makeAllocator(w);
        std::deque<RequestId> resident;
        auto evict_oldest = [&]() {
            if (resident.empty())
                fatal("allocator probe: request does not fit alone");
            alloc.release(resident.front());
            resident.pop_front();
            ++ops;
        };
        ops = 0;
        for (const Request &r : reqs) {
            while (!alloc.tryAdmit(r.id, r.contextTokens))
                evict_oldest();
            ++ops;
            for (Tokens g = 1; g <= r.decodeTokens; ++g) {
                while (!alloc.grow(r.id, r.contextTokens + g))
                    evict_oldest();
                ++ops;
            }
            resident.push_back(r.id);
            if (resident.size() > live)
                evict_oldest();
        }
        while (!resident.empty())
            evict_oldest();
    });
    return s * 1e9 / static_cast<double>(ops);
}

double
probePrefixCache(const Workload &w, std::size_t live)
{
    const std::vector<Request> reqs = allRequests(w);
    live = std::max<std::size_t>(1, live);
    PrefixCacheOptions opts;
    opts.enabled = true;
    opts.evict = PrefixEvictPolicy::Lru;
    opts.maxShare = w.engine.prefixCache.enabled
                        ? w.engine.prefixCache.maxShare
                        : 0.04;
    std::uint64_t ops = 0;
    double s = medianSeconds(5, [&]() {
        LazyChunkAllocator alloc = makeAllocator(w);
        PrefixCache cache(alloc, opts);
        std::deque<std::uint64_t> consumers;
        double now = 0.0;
        ops = 0;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Request &r = reqs[i];
            now += 1e-3;
            // A declared prefix is shared across its pool; otherwise
            // the request's whole context is a key of its own.
            bool declared = r.prefixHash != 0;
            std::uint64_t key = PrefixCache::prefixKey(
                declared ? r.prefixHash : (std::uint64_t(1) << 60) + r.id);
            Tokens tokens = declared ? r.prefixTokens : r.contextTokens;
            if (cache.acquire(key, now, r.cls.tier) > 0) {
                cache.noteHit();
                consumers.push_back(key);
            } else {
                cache.noteMiss();
                if (!cache.knows(key))
                    cache.publish(key, 0, 0, tokens, tokens, now, r.cls.tier,
                                  false, true);
                ++ops;
            }
            ++ops;
            if (consumers.size() > live) {
                cache.releaseConsumer(consumers.front());
                consumers.pop_front();
                ++ops;
            }
            if (i % 16 == 15) {
                // Ask for headroom that frees about half the idle tree.
                cache.evictFor(alloc.capacity() - cache.heldBytes() / 2);
                ++ops;
            }
        }
        while (!consumers.empty()) {
            cache.releaseConsumer(consumers.front());
            consumers.pop_front();
            ++ops;
        }
    });
    return s * 1e9 / static_cast<double>(ops);
}

} // namespace pimbench
