#include "sim/device.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace pimphony {
namespace sim {

double
Device::submit(EventQueue &queue, const WorkItem &item, double ready,
               CompletionFn done)
{
    double completion = std::max(ready, busyUntil_) + item.seconds;
    busyUntil_ = completion;
    busySeconds_ += item.seconds;
    ++completed_;
    if (done)
        queue.schedule(completion, std::move(done));
    return completion;
}

double
QueuedDevice::submit(EventQueue &queue, const WorkItem &item,
                     double ready, CompletionFn done)
{
    if (!arbiter_)
        return Device::submit(queue, item, ready, std::move(done));

    Pending p;
    p.item = item;
    p.ready = ready;
    p.remaining = item.seconds;
    p.done = std::move(done);
    p.seq = nextSeq_++;
    pending_.push_back(std::move(p));

    if (ready > queue.now()) {
        // Not yet eligible: wake the dispatcher when it becomes so.
        queue.schedule(ready, [this, &queue](double) { pump(queue); });
    } else {
        pump(queue);
    }
    // Advisory congestion-free estimate; the completion callback is
    // the authoritative time (arbitration depends on future work).
    return std::max(ready, busyUntil()) + item.seconds;
}

double
QueuedDevice::busyUntil() const
{
    return arbiter_ ? timelineEnd_ : Device::busyUntil();
}

double
QueuedDevice::busySeconds() const
{
    return arbiter_ ? servedSeconds_ : Device::busySeconds();
}

std::uint64_t
QueuedDevice::completedItems() const
{
    return arbiter_ ? completed_ : Device::completedItems();
}

void
QueuedDevice::pump(EventQueue &queue)
{
    if (inService_ || pending_.empty())
        return;
    double now = queue.now();

    std::vector<const WorkItem *> &eligible = eligibleScratch_;
    std::vector<std::size_t> &index = indexScratch_;
    eligible.clear();
    index.clear();
    double earliest = pending_.front().ready;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        earliest = std::min(earliest, pending_[i].ready);
        if (pending_[i].ready <= now) {
            eligible.push_back(&pending_[i].item);
            index.push_back(i);
        }
    }
    if (eligible.empty()) {
        // Everything queued becomes ready in the future; sleep until
        // the earliest (redundant wakes no-op through this guard).
        queue.schedule(earliest, [this, &queue](double) { pump(queue); });
        return;
    }

    std::size_t pick = arbiter_->pickNext(eligible);
    if (pick >= eligible.size())
        pick = 0;
    if (pick != 0)
        ++overtakes_; // jumped at least one earlier-queued item
    Pending &p = pending_[index[pick]];

    double quantum = arbiter_->sliceSeconds(p.item);
    sliceIsFinal_ =
        !(quantum > 0.0 && p.remaining > quantum * (1.0 + 1e-9));
    double serve = sliceIsFinal_ ? p.remaining : quantum;

    if (p.item.kind == WorkItem::Kind::DecodeCycle) {
        // Wait metrics are recorded only on an item's FIRST dispatch:
        // a quantum-sliced decode item's resumes would otherwise
        // count its own earlier service as queueing delay.
        if (p.item.servedSeconds == 0.0) {
            double wait = now - p.ready;
            maxDecodeWait_ = std::max(maxDecodeWait_, wait);
            // A decode item that waited while the previous dispatch
            // was decode work of a worse tier sat in a tier
            // inversion; tier-aware quantum slicing bounds this wait.
            if (wait > 0.0 && lastWasDecode_ &&
                lastDecodeTier_ > p.item.tier) {
                ++tierInversions_;
                maxTierInvWait_ = std::max(maxTierInvWait_, wait);
            }
        }
        lastWasDecode_ = true;
        lastDecodeTier_ = p.item.tier;
    } else {
        lastWasDecode_ = false;
    }

    inService_ = true;
    serviceSeq_ = p.seq;
    sliceSeconds_ = serve;
    timelineEnd_ = now + serve;
    servedSeconds_ += serve;
    queue.schedule(timelineEnd_,
                   [this, &queue](double t) { finishSlice(queue, t); });
}

void
QueuedDevice::finishSlice(EventQueue &queue, double t)
{
    inService_ = false;
    std::size_t idx = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].seq == serviceSeq_) {
            idx = i;
            break;
        }
    }
    if (idx == pending_.size())
        panic("%s: in-service item vanished from the queue",
              name().c_str());
    Pending &p = pending_[idx];
    p.item.servedSeconds += sliceSeconds_;
    if (sliceIsFinal_) {
        WorkItem done_item = p.item;
        CompletionFn done = std::move(p.done);
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        ++completed_;
        onComplete(done_item, t);
        if (done)
            done(t);
    } else {
        // Preempted at the quantum: the remainder keeps its queue
        // position (seq) and re-enters arbitration.
        p.remaining -= sliceSeconds_;
        ++p.item.slices;
        ++slices_;
        if (p.item.kind == WorkItem::Kind::DecodeCycle)
            ++decodeSlices_;
    }
    pump(queue);
}

} // namespace sim
} // namespace pimphony
