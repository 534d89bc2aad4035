/**
 * @file
 * Prefill latency model (extension beyond the paper's decode-focused
 * evaluation).
 *
 * Prefill is compute-bound GEMM work: 2 x params FLOPs per context
 * token for the linear stack plus the quadratic attention term. The
 * CENT-like system prefillls on its PNM (slow -- one of the reasons
 * PIM-only systems assume prefill elsewhere), the NeuPIMs-like system
 * on its NPUs, the GPU baseline on the GPUs.
 *
 * One planner family, prefillChunksFrom() / prefillChunkSecondsFrom(),
 * splits the not-yet-cached tail [cached, total) of one request's
 * context into fixed-size token chunks for the event-driven engine
 * (cached == 0 for a cold prefill): each chunk becomes a pipeline
 * work item on the xPU stage timelines, and the causal attention
 * term makes later chunks (which attend to everything before them)
 * more expensive. Per-chunk seconds apportion the scalar
 * prefillSecondsFrom() charge by chunk FLOPs, so the chunked total
 * matches the unchunked charge exactly.
 */

#ifndef PIMPHONY_SYSTEM_PREFILL_HH
#define PIMPHONY_SYSTEM_PREFILL_HH

#include <vector>

#include "model/llm.hh"
#include "system/xpu.hh"

namespace pimphony {

/** Total FLOPs to prefill @p tokens of context. */
double prefillFlops(const LlmConfig &model, Tokens tokens);

/**
 * Seconds to prefill @p tokens on @p n_engines compute engines of
 * @p config (weights already resident; chunked prefill streams
 * activations).
 */
double prefillSeconds(const LlmConfig &model, Tokens tokens,
                      const XpuConfig &config, unsigned n_engines);

/** One chunk of a request's prefill. */
struct PrefillChunk
{
    /** Offset of the chunk's first context token. */
    Tokens firstToken = 0;

    /** Context tokens processed by this chunk. */
    Tokens tokens = 0;

    /**
     * FLOPs of this chunk: its share of the linear stack plus the
     * causal attention over every token before and inside it. Sums
     * to prefillFlops() across the chunks of a cold plan.
     */
    double flops = 0.0;
};

/**
 * Warm-prefix delta prefill: seconds to extend an already-prefilled
 * @p cached -token KV to @p total tokens — exactly
 * prefillSeconds(total) - prefillSeconds(cached), so skipping a
 * cached prefix skips precisely the cached share of the scalar
 * charge (and full-context and warm charges telescope across session
 * turns). cached == 0 reduces to prefillSeconds() bit for bit.
 */
double prefillSecondsFrom(const LlmConfig &model, Tokens cached,
                          Tokens total, const XpuConfig &config,
                          unsigned n_engines);

/**
 * Chunk plan for the prefill of context tokens [@p cached, @p total):
 * chunks of at most @p chunk_tokens (the last takes the remainder;
 * chunk_tokens == 0 means one chunk), empty when nothing is left to
 * prefill. Each chunk's causal attention covers every token before
 * and inside it (the e^2 - s^2 split), so the delta tokens of a warm
 * prefix still attend to the cached part, and the chunk FLOPs sum to
 * prefillFlops(total) - prefillFlops(cached). cached == 0 is the
 * cold plan.
 */
std::vector<PrefillChunk> prefillChunksFrom(const LlmConfig &model,
                                            Tokens cached, Tokens total,
                                            Tokens chunk_tokens);

/**
 * Per-chunk seconds for prefillChunksFrom(): prefillSecondsFrom()
 * apportioned by chunk FLOPs, so the values sum exactly to the scalar
 * charge. cached == 0 apportions prefillSeconds(total) bit for bit
 * (prefillSeconds(0) is exactly 0).
 */
std::vector<double> prefillChunkSecondsFrom(const LlmConfig &model,
                                            Tokens cached, Tokens total,
                                            Tokens chunk_tokens,
                                            const XpuConfig &config,
                                            unsigned n_engines);

/**
 * Preemption re-plan: the dispatch slices a quantum co-scheduling
 * policy (SchedPolicyKind::ChunkPreempt) serves one chunk's service
 * charge in — full quanta followed by the remainder, matching the
 * sim core's slice arithmetic. The slices sum exactly to
 * @p chunk_seconds: preempting a chunk relocates its remaining
 * charge in time but never loses any of it. A quantum <= 0 (or a
 * charge that fits one quantum) yields a single slice; a charge
 * <= 0 yields none.
 */
std::vector<double> preemptionSlices(double chunk_seconds,
                                     double quantum);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_PREFILL_HH
