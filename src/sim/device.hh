/**
 * @file
 * Device abstractions for the event-driven serving core.
 *
 * A Device is a FIFO-serial timeline: work submitted with a ready
 * time begins at max(ready, busyUntil()) and completes after its
 * service time. Submission is pure timeline arithmetic (so callers
 * can chain stages deterministically); a caller that observes the
 * completion passes a callback, which is scheduled on the event
 * queue at the completion time. Work submitted without a callback
 * costs no event at all.
 *
 * A QueuedDevice generalizes the timeline to queue-based arbitration:
 * items wait in a pending queue and a QueueArbiter picks the next one
 * at every dispatch point (dispatch decisions happen in event time,
 * so later-submitted work can overtake queued work) and may bound a
 * dispatch to a service quantum (preempting an in-flight item at the
 * slice boundary). With no arbiter a QueuedDevice degenerates to the
 * plain Device timeline, bit for bit. Because arbitration depends on
 * future submissions, QueuedDevice completion times are authoritative
 * only through the completion callback; the submit() return value is
 * a congestion-free estimate.
 *
 * Performance contract: completion callbacks are sim::SimFn
 * (small-buffer, no heap) stored inline in the event heap, and a
 * Device keeps no per-item state, so steady-state submission
 * allocates nothing.
 */

#ifndef PIMPHONY_SIM_DEVICE_HH
#define PIMPHONY_SIM_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/small_fn.hh"
#include "sim/work_item.hh"

namespace pimphony {
namespace sim {

class Device
{
  public:
    using CompletionFn = SimFn;

    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;

    const std::string &name() const { return name_; }

    /** Time the device frees after everything submitted so far. */
    virtual double busyUntil() const { return busyUntil_; }

    /** Total service seconds accepted (occupancy accounting). */
    virtual double busySeconds() const { return busySeconds_; }

    /** Items accepted; each completes at its reserved time. */
    virtual std::uint64_t completedItems() const { return completed_; }

    /**
     * Submit @p item, eligible to start at @p ready. The item begins
     * at max(ready, busyUntil()) and occupies the device for
     * item.seconds. @p done (optional) is scheduled on @p queue at
     * the completion time; without it nothing is scheduled.
     *
     * @return the completion time.
     */
    virtual double submit(EventQueue &queue, const WorkItem &item,
                          double ready, CompletionFn done = nullptr);

  private:
    std::string name_;
    double busyUntil_ = 0.0;
    double busySeconds_ = 0.0;
    std::uint64_t completed_ = 0;
};

/**
 * Arbitration hooks for a QueuedDevice. The sim layer defines only
 * the mechanism (pick + slice); the serving policies implementing it
 * live in system/sched_policy.
 */
class QueueArbiter
{
  public:
    virtual ~QueueArbiter() = default;

    /**
     * Pick the next item to dispatch. @p eligible holds the queued
     * items whose ready time has passed, in submission (FIFO) order;
     * it is never empty. @return an index into @p eligible. The
     * default is FIFO (index 0).
     */
    virtual std::size_t
    pickNext(const std::vector<const WorkItem *> &eligible) const
    {
        (void)eligible;
        return 0;
    }

    /**
     * Longest single dispatch of @p item in seconds. A value <= 0
     * serves the item's remaining charge unsliced; a positive
     * quantum preempts the item at the slice boundary and re-queues
     * the remainder (keeping its queue position), so the device
     * re-arbitrates at least every quantum.
     */
    virtual double
    sliceSeconds(const WorkItem &item) const
    {
        (void)item;
        return 0.0;
    }
};

/**
 * A serial device whose dispatch order is delegated to a
 * QueueArbiter. Submitted items wait in a pending queue; whenever
 * the device idles it dispatches the arbiter's pick among the ready
 * items (or sleeps until the earliest ready time). Preempted items
 * conserve their total service charge exactly: the slices of one
 * item sum to its WorkItem::seconds, and busySeconds() accounts
 * every slice as served.
 *
 * With a null arbiter every call forwards to the plain Device
 * timeline arithmetic, preserving the FIFO semantics (including
 * advance reservation of future-ready items) exactly.
 */
class QueuedDevice : public Device
{
  public:
    QueuedDevice(std::string name, const QueueArbiter *arbiter)
        : Device(std::move(name)), arbiter_(arbiter)
    {
    }

    double submit(EventQueue &queue, const WorkItem &item, double ready,
                  CompletionFn done = nullptr) override;

    double busyUntil() const override;
    double busySeconds() const override;
    std::uint64_t completedItems() const override;

    bool arbitrated() const { return arbiter_ != nullptr; }

    // --- Policy observability. --------------------------------------

    /** Preemption splits (dispatches that left a remainder queued). */
    std::uint64_t preemptionSlices() const { return slices_; }

    /** Preemption splits of DecodeCycle-kind items only (tier-aware
     *  policies slice lower-tier in-flight decode work). */
    std::uint64_t decodePreemptionSlices() const { return decodeSlices_; }

    /** Dispatches that overtook earlier-queued eligible work. */
    std::uint64_t overtakes() const { return overtakes_; }

    /**
     * Tier inversions observed at dispatch time: a DecodeCycle item
     * started after waiting, and the dispatch immediately before it
     * was a decode item of a strictly worse (numerically greater)
     * tier — the occupant the waiter was inverted behind.
     * Tier-aware slicing bounds the wait of each such inversion (see
     * maxTierInversionWaitSeconds); a FIFO arbiter lets it grow to a
     * whole service.
     */
    std::uint64_t tierInversions() const { return tierInversions_; }

    /** Worst queueing delay among the tier inversions counted above. */
    double maxTierInversionWaitSeconds() const { return maxTierInvWait_; }

    /**
     * Worst queueing delay (start - ready) of a DecodeCycle-kind
     * item, i.e. the longest a decode share stalled behind other
     * work on this timeline. Arbitrated dispatches record it
     * automatically; reservation-path callers (null arbiter) report
     * theirs through noteDecodeWait() so the metric stays comparable
     * across policies.
     */
    double maxDecodeWaitSeconds() const { return maxDecodeWait_; }

    /** Record a decode queueing delay observed outside pump(). */
    void
    noteDecodeWait(double seconds)
    {
        maxDecodeWait_ = std::max(maxDecodeWait_, seconds);
    }

  protected:
    /** Hook observed when an arbitrated item's final slice
     *  completes (via the event queue). */
    virtual void onComplete(const WorkItem &, double) {}

  private:
    struct Pending
    {
        WorkItem item;
        double ready = 0.0;
        double remaining = 0.0;
        CompletionFn done;
        std::uint64_t seq = 0;
    };

    /** Dispatch the next eligible item when idle. */
    void pump(EventQueue &queue);

    /** Completion of the in-service slice at @p t. */
    void finishSlice(EventQueue &queue, double t);

    const QueueArbiter *arbiter_;
    std::vector<Pending> pending_;
    /** Per-pump scratch (reused; pump is never re-entered). */
    std::vector<const WorkItem *> eligibleScratch_;
    std::vector<std::size_t> indexScratch_;
    bool inService_ = false;
    bool sliceIsFinal_ = false;
    double sliceSeconds_ = 0.0;
    std::uint64_t serviceSeq_ = 0;
    double timelineEnd_ = 0.0;
    double servedSeconds_ = 0.0;
    std::uint64_t completed_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t slices_ = 0;
    std::uint64_t decodeSlices_ = 0;
    std::uint64_t overtakes_ = 0;
    std::uint64_t tierInversions_ = 0;
    double maxDecodeWait_ = 0.0;
    double maxTierInvWait_ = 0.0;
    bool lastWasDecode_ = false;
    std::uint32_t lastDecodeTier_ = 0;
};

} // namespace sim
} // namespace pimphony

#endif // PIMPHONY_SIM_DEVICE_HH
