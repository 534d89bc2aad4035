/**
 * @file
 * Long-context serving walkthrough: drives the serving engine
 * directly on a mixed LV-Eval trace and reports per-technique
 * behaviour -- admission, preemption, the attention/FC time split,
 * and the energy picture. This is the workload the paper's
 * introduction motivates: repository-scale contexts with widely
 * varying lengths.
 */

#include <cstdio>

#include "common/logging.hh"
#include "system/engine.hh"
#include "workload/trace.hh"

using namespace pimphony;

int
main()
{
    setLogThreshold(LogLevel::Warn);

    auto model = LlmConfig::llm72b(true); // 72B, GQA, 128K contexts
    auto cluster = ClusterConfig::centLike(model);
    std::printf("serving %s on %u modules (%llu GiB total)\n",
                model.name.c_str(), cluster.nModules,
                static_cast<unsigned long long>(
                    cluster.totalCapacity() >> 30));

    TraceGenerator gen(TraceTask::LoogleSd, 1234);
    auto requests = gen.generate(48, 64);

    Tokens max_ctx = 0, min_ctx = ~Tokens{0};
    for (const auto &r : requests) {
        max_ctx = std::max(max_ctx, r.contextTokens);
        min_ctx = std::min(min_ctx, r.contextTokens);
    }
    std::printf("trace: %zu requests, context %llu..%llu tokens, "
                "64 generated tokens each\n\n",
                requests.size(),
                static_cast<unsigned long long>(min_ctx),
                static_cast<unsigned long long>(max_ctx));

    for (auto options :
         {PimphonyOptions::baseline(), PimphonyOptions::all()}) {
        auto result = runServing(cluster, model, requests, options);
        if (result.truncated) {
            std::fprintf(stderr, "error: %s stopped at the cycle cap\n",
                         options.label().c_str());
            return 1;
        }
        double attn_share =
            result.attentionSeconds /
            (result.attentionSeconds + result.fcSeconds);
        double attn_energy = result.attentionEnergy.total();
        std::printf("[%s]\n", options.label().c_str());
        std::printf("  throughput       %.1f tokens/s\n",
                    result.tokensPerSecond);
        std::printf("  completed        %llu requests "
                    "(%llu preemptions, %llu rejected)\n",
                    static_cast<unsigned long long>(
                        result.completedRequests),
                    static_cast<unsigned long long>(result.preemptions),
                    static_cast<unsigned long long>(
                        result.rejectedRequests));
        std::printf("  effective batch  %.1f\n",
                    result.avgEffectiveBatch);
        std::printf("  MAC utilization  %.1f%%\n",
                    result.macUtilization * 100.0);
        std::printf("  time split       %.1f%% attention / %.1f%% FC\n",
                    attn_share * 100.0, (1.0 - attn_share) * 100.0);
        std::printf("  attention energy %.2f J (%.1f%% background)\n\n",
                    attn_energy * 1e-12,
                    result.attentionEnergy.background / attn_energy *
                        100.0);
    }
    return 0;
}
