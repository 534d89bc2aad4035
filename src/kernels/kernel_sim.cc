#include "kernels/kernel_sim.hh"

#include <cstring>

namespace pimphony {

KernelRequest
KernelRequest::makeGemv(GemvSpec spec, SchedulerKind sched)
{
    KernelRequest r;
    r.kind = KernelKind::Gemv;
    r.gemv = spec;
    r.scheduler = sched;
    return r;
}

KernelRequest
KernelRequest::makeQkt(AttentionSpec spec, SchedulerKind sched,
                       bool pingpong)
{
    KernelRequest r;
    r.kind = KernelKind::Qkt;
    r.att = spec;
    r.scheduler = sched;
    r.pingpong = pingpong;
    return r;
}

KernelRequest
KernelRequest::makeSv(AttentionSpec spec, SchedulerKind sched, bool pingpong)
{
    KernelRequest r;
    r.kind = KernelKind::Sv;
    r.att = spec;
    r.scheduler = sched;
    r.pingpong = pingpong;
    return r;
}

bool
KernelRequest::operator==(const KernelRequest &o) const
{
    return kind == o.kind && scheduler == o.scheduler &&
           pingpong == o.pingpong && gemv.doutGroups == o.gemv.doutGroups &&
           gemv.dinTiles == o.gemv.dinTiles && att.tokens == o.att.tokens &&
           att.headDim == o.att.headDim && att.gqaGroup == o.att.gqaGroup &&
           att.rowReuse == o.att.rowReuse;
}

ScheduleResult
simulateKernel(const KernelRequest &req, const AimTimingParams &params)
{
    CommandStream stream;
    switch (req.kind) {
      case KernelKind::Gemv:
        stream = buildGemvStream(req.gemv, params, req.pingpong);
        break;
      case KernelKind::Qkt:
        stream = buildQktStream(req.att, params, req.pingpong);
        break;
      case KernelKind::Sv:
        stream = buildSvStream(req.att, params, req.pingpong);
        break;
    }
    auto scheduler = makeScheduler(req.scheduler, params);
    return scheduler->schedule(stream, false);
}

Tokens
bucketTokens(Tokens t)
{
    if (t <= 64)
        return 64;
    // Round up to 1/32 of the enclosing power of two (~3% buckets).
    Tokens pow2 = 1;
    while (pow2 < t)
        pow2 <<= 1;
    Tokens step = pow2 / 32 ? pow2 / 32 : 1;
    return ((t + step - 1) / step) * step;
}

bool
KernelStore::Key::operator==(const Key &o) const
{
    return params == o.params && req == o.req;
}

std::size_t
KernelStore::Hash::operator()(const Key &key) const
{
    // FNV-1a over the timing params and the descriptor fields.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    const AimTimingParams &p = key.params;
    std::uint64_t clock_bits = 0;
    std::memcpy(&clock_bits, &p.clockGhz, sizeof clock_bits);
    mix(clock_bits);
    for (std::uint64_t v : {p.tCcds, p.tWrInp, p.tMac, p.tRdOut, p.tRcdRd,
                            p.tRp, p.tRefi, p.tRfc, p.tileBytes,
                            p.rowBytesPerBank})
        mix(v);
    for (unsigned v : {p.banksPerChannel, p.gbufEntries, p.outputEntries})
        mix(v);
    const KernelRequest &r = key.req;
    mix(static_cast<std::uint64_t>(r.kind));
    mix(static_cast<std::uint64_t>(r.scheduler));
    mix(r.pingpong ? 1 : 0);
    mix(r.gemv.doutGroups);
    mix(r.gemv.dinTiles);
    mix(r.att.tokens);
    mix(r.att.headDim);
    mix(r.att.gqaGroup);
    mix(r.att.rowReuse ? 1 : 0);
    // The hash only picks a bucket; the map compares whole keys, so
    // two kernels whose hashes collide still get their own entries.
    return static_cast<std::size_t>(h);
}

KernelStore &
KernelStore::process()
{
    static KernelStore store;
    return store;
}

const ScheduleResult &
KernelStore::get(const AimTimingParams &params, const KernelRequest &req)
{
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = store_.try_emplace(Key{params, req});
        if (!inserted)
            ++hits_;
        entry = &it->second;
    }
    // The first caller to reach the entry simulates it; callers that
    // arrive meanwhile block here until that result is in place.
    std::call_once(entry->simulated, [&]() {
        entry->result = simulateKernel(req, params);
        std::lock_guard<std::mutex> lock(mu_);
        ++misses_;
    });
    return entry->result;
}

std::size_t
KernelStore::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return store_.size();
}

std::uint64_t
KernelStore::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
KernelStore::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

} // namespace pimphony
