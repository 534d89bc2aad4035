#include "sim/pipeline.hh"

#include <utility>

#include "common/logging.hh"

namespace pimphony {
namespace sim {

StagePipeline::Chain *
StagePipeline::acquireChain()
{
    if (freeChains_.empty()) {
        chains_.push_back(std::make_unique<Chain>());
        return chains_.back().get();
    }
    Chain *ch = freeChains_.back();
    freeChains_.pop_back();
    return ch;
}

void
StagePipeline::releaseChain(Chain *ch)
{
    ch->stage = 0;
    ch->firstDone = nullptr;
    ch->done = nullptr;
    // items keeps its capacity for the next traversal.
    freeChains_.push_back(ch);
}

StagePipeline::Sequence *
StagePipeline::acquireSequence()
{
    if (freeSequences_.empty()) {
        sequences_.push_back(std::make_unique<Sequence>());
        return sequences_.back().get();
    }
    Sequence *sq = freeSequences_.back();
    freeSequences_.pop_back();
    return sq;
}

void
StagePipeline::releaseSequence(Sequence *sq)
{
    sq->next = 0;
    sq->done = nullptr;
    freeSequences_.push_back(sq);
}

void
StagePipeline::advanceChain(EventQueue &queue, Chain *ch, double at)
{
    unsigned s = ch->stage;
    WorkItem item = ch->items[s];
    item.stage = s;
    // Deferring each stage's submission to its predecessor's
    // completion keeps per-stage FIFO order consistent with event
    // order, so work queues at a busy stage instead of reserving it
    // in advance.
    stages_[s]->submit(queue, item, at,
                       [this, ch, &queue](double t) {
                           onStageComplete(queue, ch, t);
                       });
}

void
StagePipeline::onStageComplete(EventQueue &queue, Chain *ch, double t)
{
    unsigned s = ch->stage;
    if (s == 0 && ch->firstDone) {
        // The stage-0 hand-off (sequence submission launches the
        // next element here) runs before this chain advances, so
        // the next element's stage-0 submission keeps its FIFO slot.
        CompletionFn first = std::move(ch->firstDone);
        ch->firstDone = nullptr;
        first(t);
    }
    if (s + 1 < stages_.size()) {
        ch->stage = s + 1;
        advanceChain(queue, ch, t);
    } else {
        CompletionFn done = std::move(ch->done);
        releaseChain(ch);
        if (done)
            done(t);
    }
}

void
StagePipeline::submitChain(EventQueue &queue,
                           const std::vector<WorkItem> &stage_items,
                           double ready, CompletionFn done)
{
    if (stage_items.size() != stages_.size())
        panic("submitChain with %zu items for %zu stages",
              stage_items.size(), stages_.size());
    Chain *ch = acquireChain();
    ch->items.assign(stage_items.begin(), stage_items.end());
    ch->done = std::move(done);
    advanceChain(queue, ch, ready);
}

void
StagePipeline::launchElement(EventQueue &queue, Sequence *sq, double at)
{
    std::size_t e = sq->next;
    const std::vector<WorkItem> &element = sq->elements[e];
    if (element.size() != stages_.size())
        panic("submitSequence element %zu has %zu items for %zu "
              "stages",
              e, element.size(), stages_.size());
    bool last = (e + 1 == sq->elements.size());
    Chain *ch = acquireChain();
    ch->items.assign(element.begin(), element.end());
    if (last) {
        // The last element completes the sequence at its last-stage
        // completion.
        ch->done = [this, sq](double t) {
            CompletionFn done = std::move(sq->done);
            releaseSequence(sq);
            if (done)
                done(t);
        };
    } else {
        // Launching element e+1 at e's *stage-0* completion (not the
        // chain end) pipelines elements across stages while leaving a
        // FIFO gap other submitters can slot into between elements.
        sq->next = e + 1;
        ch->firstDone = [this, sq, &queue](double t) {
            launchElement(queue, sq, t);
        };
    }
    advanceChain(queue, ch, at);
}

void
StagePipeline::submitSequence(
    EventQueue &queue, const std::vector<std::vector<WorkItem>> &elements,
    double ready, CompletionFn done)
{
    if (elements.empty()) {
        if (done)
            queue.schedule(ready, std::move(done));
        return;
    }
    Sequence *sq = acquireSequence();
    // Element-wise assign reuses the pooled inner vectors' capacity.
    sq->elements.resize(elements.size());
    for (std::size_t e = 0; e < elements.size(); ++e)
        sq->elements[e].assign(elements[e].begin(), elements[e].end());
    sq->next = 0;
    sq->done = std::move(done);
    launchElement(queue, sq, ready);
}

} // namespace sim
} // namespace pimphony
