/**
 * @file
 * Kernel-level simulation facade: generate a command stream for a
 * kernel descriptor, schedule it on a channel model, and store the
 * result.
 *
 * End-to-end serving simulations evaluate millions of kernel
 * instances whose latency depends only on (shape, mapping, scheduler,
 * channel geometry); the kernel store plus token bucketing keep the system
 * simulator fast without changing any reported trend.
 */

#ifndef PIMPHONY_KERNELS_KERNEL_SIM_HH
#define PIMPHONY_KERNELS_KERNEL_SIM_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "dram/timing.hh"
#include "kernels/attention.hh"
#include "kernels/gemv.hh"
#include "pim/scheduler.hh"

namespace pimphony {

enum class KernelKind : std::uint8_t {
    Gemv,
    Qkt,
    Sv,
};

struct KernelRequest
{
    KernelKind kind = KernelKind::Gemv;
    GemvSpec gemv;
    AttentionSpec att;
    SchedulerKind scheduler = SchedulerKind::Static;
    bool pingpong = false;

    static KernelRequest makeGemv(GemvSpec spec, SchedulerKind sched);
    static KernelRequest makeQkt(AttentionSpec spec, SchedulerKind sched,
                                 bool pingpong = false);
    static KernelRequest makeSv(AttentionSpec spec, SchedulerKind sched,
                                bool pingpong = false);

    /** Every descriptor field equal, the spec of the other kind too. */
    bool operator==(const KernelRequest &o) const;
};

/** Generate + schedule a kernel (uncached). */
ScheduleResult simulateKernel(const KernelRequest &req,
                              const AimTimingParams &params);

/**
 * Round a token count up to a simulation bucket (~3% resolution,
 * minimum granularity 64 tokens). Monotone: t <= bucketTokens(t).
 */
Tokens bucketTokens(Tokens t);

/**
 * The process-wide kernel store: each (timing params, request) pair is
 * simulated once per process and shared by every caller, so fleet
 * replicas, sweep cells and repeated set-ups pay for a kernel shape
 * once. Entries are keyed by value, never evicted, and never move, so
 * returned references stay valid for the life of the process.
 *
 * Thread-safe. The mutex guards only the find/insert; the simulation
 * runs outside it, once per entry, while concurrent requests for the
 * same kernel wait for that one result. Kernel simulation is
 * deterministic, so which thread runs it cannot change any value.
 */
class KernelStore
{
  public:
    /** The store every PimModuleModel in the process uses. */
    static KernelStore &process();

    KernelStore() = default;
    KernelStore(const KernelStore &) = delete;
    KernelStore &operator=(const KernelStore &) = delete;

    /** Simulate (or recall) @p req on a channel with @p params;
     *  attention token counts should be pre-bucketed by the caller
     *  for high hit rates. */
    const ScheduleResult &get(const AimTimingParams &params,
                              const KernelRequest &req);

    std::size_t entries() const;

    /** Lookups that found their entry already inserted. */
    std::uint64_t hits() const;

    /** Kernels simulated; one per entry, however many threads ask. */
    std::uint64_t misses() const;

  private:
    struct Key
    {
        AimTimingParams params;
        KernelRequest req;

        bool operator==(const Key &o) const;
    };

    struct Hash
    {
        std::size_t operator()(const Key &key) const;
    };

    struct Entry
    {
        std::once_flag simulated;
        ScheduleResult result;
    };

    mutable std::mutex mu_; ///< guards store_, hits_ and misses_
    std::unordered_map<Key, Entry, Hash> store_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace pimphony

#endif // PIMPHONY_KERNELS_KERNEL_SIM_HH
