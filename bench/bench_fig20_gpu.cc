/**
 * @file
 * Fig. 20: throughput comparison with a memory-matched GPU system
 * (A100s with flash-decoding + paged-attention). (a) non-GQA LLM on
 * QMSum; (b) GQA LLM on multifieldqa. GPU memory is matched: two
 * A100-80GB for LLM-7B, eight for LLM-72B.
 */

#include "bench_util.hh"
#include "system/gpu_system.hh"
#include "workload/trace.hh"

using namespace pimphony;

namespace {

void
compare(const char *title, const LlmConfig &model, TraceTask task,
        unsigned n_gpus, bench::JsonRows *json,
        const bench::BenchArgs &args, bench::TruncatedRuns &truncated)
{
    printBanner(std::cout, title);
    TraceGenerator gen(task, 55);
    auto requests = gen.generate(24, 32);

    GpuSystemConfig gpu;
    gpu.nGpus = n_gpus;
    auto g = runGpuServing(gpu, model, requests);
    truncated.note(std::string(title) + " GPU", g.truncated);

    bench::MirroredTable t(

        {"system", "tokens/s", "vs GPU"},

        json);
    t.addRow({"GPU (A100 x" + TablePrinter::fmtInt(n_gpus) + ", FD+PA)",
              TablePrinter::fmt(g.tokensPerSecond, 1), "1.00x"});

    const std::vector<SystemKind> kinds = {SystemKind::PimOnly,
                                           SystemKind::XpuPim};
    auto outs = bench::runSweep(args, kinds.size(), [&](std::size_t i) {
        OrchestratorConfig cfg;
        cfg.system = kinds[i];
        cfg.model = model;
        cfg.options = PimphonyOptions::all();
        cfg.plan = ParallelPlan{0, 0};
        cfg.nRequests = 24;
        cfg.decodeTokens = 32;
        cfg.seed = 55;
        PimphonyOrchestrator orch(cfg);
        return orch.evaluate(task);
    });
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const auto &r = outs[i].value;
        truncated.note(std::string(title) + " " +
                           systemKindName(kinds[i]),
                       r.engine);
        t.addRow({systemKindName(kinds[i]) + " + PIMphony",
                  TablePrinter::fmt(r.engine.tokensPerSecond, 1),
                  bench::fmtSpeedup(r.engine.tokensPerSecond /
                                    g.tokensPerSecond)},
                 args.threads, outs[i].wallSeconds);
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Fig. 20: GPU baseline comparison");
    bench::JsonRows json("bench_fig20_gpu");
    bench::TruncatedRuns truncated;
    compare("Fig. 20(a): LLM-7B-32K (non-GQA) on QMSum, GPU memory "
            "matched (2x A100-80GB)",
            LlmConfig::llm7b(false), TraceTask::QMSum, 2,
         args.json ? &json : nullptr, args, truncated);
    compare("Fig. 20(b): LLM-7B-128K-GQA on multifieldqa (2x A100)",
            LlmConfig::llm7b(true), TraceTask::MultifieldQa, 2,
         args.json ? &json : nullptr, args, truncated);
    compare("Fig. 20(a): LLM-72B-32K (non-GQA) on QMSum (8x A100)",
            LlmConfig::llm72b(false), TraceTask::QMSum, 8,
         args.json ? &json : nullptr, args, truncated);
    compare("Fig. 20(b): LLM-72B-128K-GQA on multifieldqa (8x A100)",
            LlmConfig::llm72b(true), TraceTask::MultifieldQa, 8,
         args.json ? &json : nullptr, args, truncated);
    bench::writeJsonIfRequested(json, args);
    return truncated.exitCode();
}
