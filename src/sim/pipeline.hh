/**
 * @file
 * Pipeline-parallel stage composition for the event-driven core.
 *
 * A StagePipeline owns an ordered list of stage devices (each the
 * serializing resource of one PP stage). One decode cycle of a
 * cohort traverses every stage in order; the hand-off from stage s
 * to s+1 happens at s's completion event, so cohort m+1 enters stage
 * s while cohort m occupies s+1 — the pipeline overlap a lockstep
 * model flattens into stageBeats * max_stage_sec (the closed form the
 * engine tests keep as an oracle).
 *
 * Prefill chunks use the same traversal: submitSequence() runs an
 * ordered list of elements (one per chunk) through the stages with
 * chunk k+1 entering stage 0 at chunk k's stage-0 completion, so at
 * most one chunk per request queues at any stage and decode work
 * submitted in between interleaves with the chunk stream.
 *
 * Stage devices need not be plain FIFO timelines: a queue-arbitrated
 * stage (see sim::QueuedDevice and the co-scheduling policies in
 * system/sched_policy) may reorder or slice queued work, so its
 * submit() return value is only an estimate. The pipeline therefore
 * advances chains and sequences exclusively on completion events —
 * the authoritative times under every arbitration policy.
 *
 * Performance contract: in-flight chain and sequence state lives in
 * free lists owned by the pipeline (item vectors keep their
 * capacity across reuse), and every per-stage completion callback
 * captures only two pointers. Submitting one decode cycle on the
 * steady-state path therefore allocates nothing once the pools are
 * warm — the shared_ptr-per-chain and std::function-per-stage of
 * the previous design are gone.
 */

#ifndef PIMPHONY_SIM_PIPELINE_HH
#define PIMPHONY_SIM_PIPELINE_HH

#include <memory>
#include <vector>

#include "sim/device.hh"
#include "sim/event_queue.hh"
#include "sim/work_item.hh"

namespace pimphony {
namespace sim {

class StagePipeline
{
  public:
    using CompletionFn = Device::CompletionFn;

    explicit StagePipeline(std::vector<Device *> stages)
        : stages_(std::move(stages))
    {
    }

    unsigned stageCount() const
    {
        return static_cast<unsigned>(stages_.size());
    }

    Device &stage(unsigned s) { return *stages_[s]; }
    const Device &stage(unsigned s) const { return *stages_[s]; }

    /**
     * Submit one traversal (e.g. a cohort's decode cycle):
     * @p stage_items[s] runs on stage s (stage indexes are stamped
     * here), so uneven layer splits give the last stage the layer
     * remainder. Size must equal stageCount(). The chain enters
     * stage 0 no earlier than @p ready; @p done fires at the last
     * stage's completion. The items are copied into pooled chain
     * storage; the caller's vector is reusable scratch.
     */
    void submitChain(EventQueue &queue,
                     const std::vector<WorkItem> &stage_items,
                     double ready, CompletionFn done);

    /**
     * Submit an ordered sequence of traversals (e.g. one request's
     * prefill chunks): element e+1 enters stage 0 at element e's
     * stage-0 completion, so elements pipeline across stages while
     * later submitters can interleave between them in FIFO order.
     * @p done fires at the last element's last-stage completion.
     * Empty sequences complete immediately at @p ready. Elements
     * are copied into pooled sequence storage.
     */
    void submitSequence(EventQueue &queue,
                        const std::vector<std::vector<WorkItem>> &elements,
                        double ready, CompletionFn done);

  private:
    /**
     * One in-flight traversal. A chain occupies exactly one stage at
     * a time (stage s+1 is submitted at s's completion event), so a
     * single cursor tracks progress and the per-stage completion
     * callback carries only {pipeline, chain}.
     */
    struct Chain
    {
        std::vector<WorkItem> items;
        unsigned stage = 0;
        CompletionFn firstDone; ///< fires at stage-0 completion
        CompletionFn done;      ///< fires at last-stage completion
    };

    /** One in-flight sequence of chained elements. */
    struct Sequence
    {
        std::vector<std::vector<WorkItem>> elements;
        std::size_t next = 0;
        CompletionFn done;
    };

    Chain *acquireChain();
    void releaseChain(Chain *ch);
    Sequence *acquireSequence();
    void releaseSequence(Sequence *sq);

    /** Submit chain->items[chain->stage] on its stage device. */
    void advanceChain(EventQueue &queue, Chain *ch, double at);

    /** Stage-completion continuation for @p ch at time @p t. */
    void onStageComplete(EventQueue &queue, Chain *ch, double t);

    /** Launch sequence element sq->next as a chain at @p at. */
    void launchElement(EventQueue &queue, Sequence *sq, double at);

    std::vector<Device *> stages_;
    std::vector<std::unique_ptr<Chain>> chains_;
    std::vector<Chain *> freeChains_;
    std::vector<std::unique_ptr<Sequence>> sequences_;
    std::vector<Sequence *> freeSequences_;
};

} // namespace sim
} // namespace pimphony

#endif // PIMPHONY_SIM_PIPELINE_HH
