/**
 * @file
 * Quickstart: evaluate PIMphony on a long-context workload in a few
 * lines.
 *
 * Builds a CENT-like PIM-only system for LLM-7B-128K (GQA), runs the
 * LV-Eval multifieldqa trace with and without the PIMphony technique
 * stack, and prints throughput, utilization and capacity metrics.
 */

#include <cstdio>

#include "common/logging.hh"
#include "core/orchestrator.hh"

using namespace pimphony;

int
main()
{
    setLogThreshold(LogLevel::Warn);

    OrchestratorConfig config;
    config.system = SystemKind::PimOnly;            // CENT-like host
    config.model = LlmConfig::llm7b(true);          // LLM-7B, GQA, 128K
    config.plan = ParallelPlan{8, 1};               // 8 modules, TP=8
    config.nRequests = 32;
    config.decodeTokens = 64;

    std::printf("PIMphony quickstart: %s on %s, %s\n",
                config.model.name.c_str(),
                systemKindName(config.system).c_str(),
                config.plan.toString().c_str());
    std::printf("%-14s %10s %10s %10s %10s\n", "config", "tokens/s",
                "MAC util", "cap util", "batch");

    double baseline = 0.0;
    for (auto options :
         {PimphonyOptions::baseline(), PimphonyOptions{true, false, false},
          PimphonyOptions{true, true, false}, PimphonyOptions::all()}) {
        config.options = options;
        PimphonyOrchestrator orchestrator(config);
        auto result = orchestrator.evaluate(TraceTask::MultifieldQa);
        if (result.engine.truncated) {
            std::fprintf(stderr, "error: %s stopped at the cycle cap\n",
                         options.label().c_str());
            return 1;
        }
        if (baseline == 0.0)
            baseline = result.engine.tokensPerSecond;
        std::printf("%-14s %10.1f %9.1f%% %9.1f%% %10.1f   (%.2fx)\n",
                    options.label().c_str(),
                    result.engine.tokensPerSecond,
                    result.engine.macUtilization * 100.0,
                    result.engine.capacityUtilization * 100.0,
                    result.engine.avgEffectiveBatch,
                    result.engine.tokensPerSecond / baseline);
    }
    return 0;
}
