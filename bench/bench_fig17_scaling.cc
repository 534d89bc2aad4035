/**
 * @file
 * Fig. 17: scalability of PIMphony on LLM-7B-128K-GQA-class models
 * with 3-sigma context variation. (a) throughput vs capacity at 64K
 * mean context; (b) speedup over the baseline as mean context scales
 * 4K -> 1M on a fixed 512 GB system (paper: 1.3/2.3/4.8/12.7/46.6x
 * on CENT, 2.0/2.3/2.6/3.4/5.0x on NeuPIMs); (c) attention vs FC
 * time shares explaining the trend.
 *
 * Each sweep point compiles the model for T_max = 2.5x the mean
 * context, covering the trace's 3-sigma tail; compiling every length
 * for a 2M worst case would cripple the static baseline everywhere
 * and is not what either system would deploy.
 */

#include "bench_util.hh"
#include "workload/trace.hh"

using namespace pimphony;

namespace {

std::vector<Request>
scaledTrace(Tokens mean, std::size_t n, Tokens decode)
{
    TraceGenerator gen(TraceTask::MultifieldQa, 99);
    return gen.generateScaled(n, mean, decode);
}

LlmConfig
modelFor(Tokens mean_context)
{
    auto model = LlmConfig::llm7b(true);
    model.contextWindow = mean_context * 5 / 2;
    return model;
}

EvaluationResult
evaluate(SystemKind system, const LlmConfig &model, unsigned modules,
         const std::vector<Request> &requests,
         const PimphonyOptions &options)
{
    OrchestratorConfig cfg;
    cfg.system = system;
    cfg.model = model;
    cfg.options = options;
    cfg.plan = ParallelPlan{0, 0}; // best plan per configuration
    cfg.modulesOverride = modules;
    PimphonyOrchestrator orch(cfg);
    return orch.evaluateRequests(requests);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Fig. 17: scaling with context length and modules");
    bench::JsonRows json("bench_fig17_scaling");
    bench::TruncatedRuns truncated;

    printBanner(std::cout,
                "Fig. 17(a): throughput vs capacity at 64K mean context "
                "(CENT-like, PIMphony, best plan)");
    {
        auto model = modelFor(65536);
        bench::MirroredTable t(
            {"capacity", "modules", "plan", "tokens/s",
                        "effective batch"},
            args.json ? &json : nullptr, "17a");
        std::vector<unsigned> module_counts =
            args.smoke ? std::vector<unsigned>{8u}
                       : std::vector<unsigned>{8u, 16u, 32u, 64u};
        auto outs = bench::runSweep(
            args, module_counts.size(), [&](std::size_t i) {
                unsigned modules = module_counts[i];
                auto requests = scaledTrace(65536, 4u * modules, 16);
                return evaluate(SystemKind::PimOnly, model, modules,
                                requests, PimphonyOptions::all());
            });
        for (std::size_t i = 0; i < module_counts.size(); ++i) {
            unsigned modules = module_counts[i];
            const auto &r = outs[i].value;
            truncated.note("17a modules " + std::to_string(modules),
                           r.engine);
            t.addRow({TablePrinter::fmtInt(modules * 16u) + " GiB",
                      TablePrinter::fmtInt(modules),
                      r.plan.toString(),
                      TablePrinter::fmt(r.engine.tokensPerSecond, 1),
                      TablePrinter::fmt(r.engine.avgEffectiveBatch, 1)},
                     args.threads, outs[i].wallSeconds);
        }
        t.print(std::cout);
    }

    printBanner(std::cout,
                "Fig. 17(b): PIMphony speedup vs context length at 512 "
                "GiB (paper CENT: 1.3/2.3/4.8/12.7/46.6; NeuPIMs: "
                "2.0/2.3/2.6/3.4/5.0)");
    {
        bench::MirroredTable t(
            {"mean context", "CENT base tok/s",
                        "CENT +PIMphony", "speedup", "NeuPIMs base",
                        "NeuPIMs +PIMphony", "speedup"},
            args.json ? &json : nullptr, "17b");
        std::vector<Tokens> contexts =
            args.smoke ? std::vector<Tokens>{4096u, 32768u}
                       : std::vector<Tokens>{4096u, 32768u, 131072u,
                                             524288u, 1048576u};
        // Four system/option variants per context; flatten to
        // contexts.size() * 4 cells (cell 4c+v = context c, variant
        // v in {CENT base, CENT +PIMphony, NeuPIMs base, NeuPIMs
        // +PIMphony}) and reassemble the rows during emission.
        auto outs = bench::runSweep(
            args, contexts.size() * 4, [&](std::size_t i) {
                Tokens ctx = contexts[i / 4];
                std::size_t v = i % 4;
                auto model = modelFor(ctx);
                std::size_t n = ctx >= 524288 ? 12 : 32;
                auto requests = scaledTrace(ctx, n, 16);
                SystemKind sys = v < 2 ? SystemKind::PimOnly
                                       : SystemKind::XpuPim;
                unsigned modules = v < 2 ? 32 : 16;
                auto opt = (v % 2) == 0 ? PimphonyOptions::baseline()
                                        : PimphonyOptions::all();
                return evaluate(sys, model, modules, requests, opt);
            });
        for (std::size_t c = 0; c < contexts.size(); ++c) {
            const auto &cb = outs[4 * c + 0].value;
            const auto &cp = outs[4 * c + 1].value;
            const auto &nb = outs[4 * c + 2].value;
            const auto &np = outs[4 * c + 3].value;
            double row_wall = 0.0;
            for (std::size_t v = 0; v < 4; ++v) {
                row_wall += outs[4 * c + v].wallSeconds;
                truncated.note("17b context " +
                                   std::to_string(contexts[c]) +
                                   " variant " + std::to_string(v),
                               outs[4 * c + v].value.engine);
            }
            t.addRow({TablePrinter::fmtInt(contexts[c]),
                      TablePrinter::fmt(cb.engine.tokensPerSecond, 2),
                      TablePrinter::fmt(cp.engine.tokensPerSecond, 2),
                      bench::fmtSpeedup(cp.engine.tokensPerSecond /
                                        cb.engine.tokensPerSecond),
                      TablePrinter::fmt(nb.engine.tokensPerSecond, 2),
                      TablePrinter::fmt(np.engine.tokensPerSecond, 2),
                      bench::fmtSpeedup(np.engine.tokensPerSecond /
                                        nb.engine.tokensPerSecond)},
                     args.threads, row_wall);
        }
        t.print(std::cout);
    }

    printBanner(std::cout,
                "Fig. 17(c): where the time goes (CENT-like, 512 GiB)");
    {
        bench::MirroredTable t(
            {"mean context", "config", "attention share",
                        "FC share", "MAC util"},
            args.json ? &json : nullptr, "17c");
        std::vector<Tokens> contexts =
            args.smoke ? std::vector<Tokens>{32768u}
                       : std::vector<Tokens>{32768u, 524288u};
        const std::vector<PimphonyOptions> opts = {
            PimphonyOptions::baseline(), PimphonyOptions::all()};
        auto outs = bench::runSweep(
            args, contexts.size() * opts.size(), [&](std::size_t i) {
                Tokens ctx = contexts[i / opts.size()];
                auto model = modelFor(ctx);
                auto requests =
                    scaledTrace(ctx, ctx >= 524288 ? 12 : 32, 16);
                return evaluate(SystemKind::PimOnly, model, 32,
                                requests, opts[i % opts.size()]);
            });
        for (std::size_t i = 0; i < contexts.size() * opts.size();
             ++i) {
            Tokens ctx = contexts[i / opts.size()];
            const auto &opt = opts[i % opts.size()];
            const auto &r = outs[i].value;
            truncated.note("17c context " + std::to_string(ctx) + " " +
                               opt.label(),
                           r.engine);
            double tot = r.engine.attentionSeconds + r.engine.fcSeconds;
            t.addRow({TablePrinter::fmtInt(ctx), opt.label(),
                      TablePrinter::fmtPercent(
                          r.engine.attentionSeconds / tot),
                      TablePrinter::fmtPercent(r.engine.fcSeconds /
                                               tot),
                      TablePrinter::fmtPercent(
                          r.engine.macUtilization)},
                     args.threads, outs[i].wallSeconds);
        }
        t.print(std::cout);
    }
    bench::writeJsonIfRequested(json, args);
    return truncated.exitCode();
}
