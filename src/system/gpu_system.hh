/**
 * @file
 * A100 GPU serving baseline (Fig. 20): flash-decoding for the KV
 * scan, paged-attention for memory management, roofline GEMMs for
 * the FC stack. Memory-matched module counts follow the paper (two
 * A100-80GB for LLM-7B, eight for LLM-72B).
 */

#ifndef PIMPHONY_SYSTEM_GPU_SYSTEM_HH
#define PIMPHONY_SYSTEM_GPU_SYSTEM_HH

#include <vector>

#include "model/llm.hh"
#include "system/xpu.hh"
#include "workload/trace.hh"

namespace pimphony {

struct GpuSystemConfig
{
    GpuConfig gpu = GpuConfig::a100();
    unsigned nGpus = 2;

    Bytes
    totalMemory() const
    {
        return static_cast<Bytes>(nGpus) * gpu.memoryBytes;
    }
};

struct GpuRunResult
{
    double tokensPerSecond = 0.0;
    double avgBatch = 0.0;
    std::uint64_t generatedTokens = 0;

    /** The run stopped at the step cap with requests still decoding:
     *  the numbers cover only the steps served before it. */
    bool truncated = false;
};

/**
 * Decode-serving simulation on the GPU baseline with continuous
 * batching and paged-attention admission, capped at 1,000,000 decode
 * steps (a capped run warns and sets GpuRunResult::truncated).
 */
GpuRunResult runGpuServing(const GpuSystemConfig &config,
                           const LlmConfig &model,
                           const std::vector<Request> &requests);

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_GPU_SYSTEM_HH
