#include "system/gpu_system.hh"

#include <algorithm>
#include <deque>

#include "common/logging.hh"

namespace pimphony {

namespace {

/** One decode step for the active set. */
double
gpuStepSeconds(const GpuSystemConfig &config, const LlmConfig &model,
               const std::vector<std::pair<Request, Tokens>> &active)
{
    const GpuConfig &g = config.gpu;
    double n = config.nGpus;

    // Attention: flash-decoding scans every request's KV cache at
    // HBM bandwidth (tensor-parallel across GPUs).
    Bytes kv_bytes = 0;
    for (const auto &[req, gen] : active)
        kv_bytes += model.kvBytes(req.contextTokens + gen);
    double attn = static_cast<double>(kv_bytes) /
                  (g.hbmBandwidth * g.flashDecodingEfficiency * n);

    // FC: weights stream once per batch; compute scales with batch.
    auto batch = static_cast<std::uint32_t>(active.size());
    double flops = 2.0 * static_cast<double>(model.paramCount()) * batch;
    double compute = flops / (g.peakFlops * g.gemmEfficiency * n);
    double weights = static_cast<double>(model.weightBytes()) /
                     (g.hbmBandwidth * 0.9 * n);
    double fc = std::max(compute, weights);

    return attn + fc;
}

} // namespace

GpuRunResult
runGpuServing(const GpuSystemConfig &config, const LlmConfig &model,
              const std::vector<Request> &requests)
{
    GpuRunResult out;
    Bytes kv_capacity_raw = config.totalMemory();
    if (model.weightBytes() >= kv_capacity_raw)
        fatal("model does not fit the GPU system");
    Bytes kv_capacity = static_cast<Bytes>(
        (kv_capacity_raw - model.weightBytes()) *
        config.gpu.pagedAttentionUtilization);

    std::deque<Request> pending(requests.begin(), requests.end());
    std::vector<std::pair<Request, Tokens>> active;
    Bytes used = 0;
    double seconds = 0.0;
    double batch_time = 0.0;

    auto admit = [&]() {
        while (!pending.empty()) {
            const Request &front = pending.front();
            Bytes need = model.kvBytes(front.contextTokens +
                                       front.decodeTokens);
            if (need > kv_capacity) {
                pending.pop_front(); // unservable
                continue;
            }
            if (used + need > kv_capacity)
                break;
            used += need;
            active.emplace_back(front, 0);
            pending.pop_front();
        }
    };

    admit();
    const std::uint64_t max_steps = 1000000;
    std::uint64_t steps = 0;
    while (!active.empty() && steps++ < max_steps) {
        double sec = gpuStepSeconds(config, model, active);
        seconds += sec;
        batch_time += sec * static_cast<double>(active.size());

        std::vector<std::pair<Request, Tokens>> next;
        next.reserve(active.size());
        for (auto &[req, gen] : active) {
            ++gen;
            ++out.generatedTokens;
            if (gen >= req.decodeTokens)
                used -= model.kvBytes(req.contextTokens + req.decodeTokens);
            else
                next.emplace_back(req, gen);
        }
        active = std::move(next);
        admit();
    }
    out.truncated = !active.empty();
    if (out.truncated)
        warn("GPU baseline stopped at the step cap (%llu)",
             static_cast<unsigned long long>(max_steps));

    if (seconds > 0.0) {
        out.tokensPerSecond =
            static_cast<double>(out.generatedTokens) / seconds;
        out.avgBatch = batch_time / seconds;
    }
    return out;
}

} // namespace pimphony
