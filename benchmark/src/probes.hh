/**
 * @file
 * Stand-alone layer probes. Each replays the workload's own shapes
 * (lengths, buckets, cohort size) through one layer's public entry
 * point with nothing else running, so its host time is that layer's
 * alone.
 */

#ifndef PIMBENCH_PROBES_HH
#define PIMBENCH_PROBES_HH

#include <cstdint>

#include "workloads.hh"

namespace pimbench {

/** sim::EventQueue schedule + dispatch, ns per dispatched event. */
double probeEventQueue(std::uint64_t seed);

struct KernelProbe
{
    /** Distinct bucketTokens contexts the workload's decode touches. */
    std::size_t distinctBuckets = 0;

    /** attentionLayer over every bucket on a fresh PimModuleModel. */
    double coldSeconds = 0.0;

    /** The same calls once the model's memo holds every bucket. */
    double warmNsPerCall = 0.0;
};

KernelProbe probeKernels(const Workload &w);

struct CostProbe
{
    double attentionNsPerCall = 0.0;
    double fcNsPerCall = 0.0;
};

/**
 * Warm attentionLayer / fcLayer calls on job vectors shaped like the
 * workload's average cohort (@p cohort requests, each with its
 * tp-share of KV heads, at the workload's mid-decode contexts).
 */
CostProbe probeCostModel(const Workload &w, std::size_t cohort);

/**
 * The workload's lengths through a LazyChunkAllocator: admit, grow
 * token by token, release, with @p live requests resident. ns per op.
 */
double probeAllocator(const Workload &w, std::size_t live);

/**
 * The workload's prefixes (declared prefix, else the whole context)
 * through a PrefixCache: acquire on a hit, publish on a miss,
 * releaseConsumer as consumers retire, and evictFor under pressure.
 * ns per op.
 */
double probePrefixCache(const Workload &w, std::size_t live);

/** Every request of the workload, session turns included. */
std::vector<Request> allRequests(const Workload &w);

} // namespace pimbench

#endif // PIMBENCH_PROBES_HH
