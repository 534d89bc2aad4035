/**
 * @file
 * Fig. 13: throughput of PIM-only (CENT-like) systems with TCP, DCS
 * and DPA applied cumulatively, using the best (TP,PP) plan per
 * configuration. (a) non-GQA models on LongBench; (b) GQA models on
 * LV-Eval. The paper reports 2.1-4.5x for (a) and up to 11.3x for
 * (b).
 */

#include "bench_util.hh"

using namespace pimphony;

namespace {

void
grid(const char *title, const std::vector<LlmConfig> &models,
     const std::vector<TraceTask> &tasks, bench::JsonRows *json,
     const bench::BenchArgs &args, bench::TruncatedRuns &truncated)
{
    printBanner(std::cout, title);
    bench::MirroredTable t(
        {"model", "task", "config", "plan", "tokens/s",
                    "speedup"},
        json);

    // Flattened (model, task, option stack) grid for the sweep
    // runner; the cumulative-speedup base (the first stack of each
    // (model, task) group) is recovered during serial emission.
    struct Cell
    {
        LlmConfig model;
        TraceTask task;
        PimphonyOptions opt;
        bool groupStart;
    };
    std::vector<Cell> cells;
    for (const auto &model : models)
        for (TraceTask task : tasks) {
            bool first = true;
            for (const auto &opt : bench::cumulativeOptions()) {
                cells.push_back({model, task, opt, first});
                first = false;
            }
        }

    auto outs = bench::runSweep(args, cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        OrchestratorConfig cfg;
        cfg.system = SystemKind::PimOnly;
        cfg.model = c.model;
        cfg.options = c.opt;
        cfg.plan = ParallelPlan{0, 0}; // search best
        cfg.nRequests = 24;
        cfg.decodeTokens = 32;
        PimphonyOrchestrator orch(cfg);
        return orch.evaluate(c.task);
    });

    double base = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const auto &r = outs[i].value;
        truncated.note(c.model.name + " " + traceTaskName(c.task) + " " +
                           c.opt.label(),
                       r.engine);
        if (c.groupStart)
            base = r.engine.tokensPerSecond;
        t.addRow({c.model.name, traceTaskName(c.task), c.opt.label(),
                  r.plan.toString(),
                  TablePrinter::fmt(r.engine.tokensPerSecond, 1),
                  bench::fmtSpeedup(r.engine.tokensPerSecond / base)},
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
        argc, argv, "Fig. 13: PIM-only throughput, cumulative techniques");
    bench::JsonRows json("bench_fig13_pim_only");
    bench::TruncatedRuns truncated;
    grid("Fig. 13(a): PIM-only, non-GQA LLMs on LongBench "
         "(paper: 2.1-4.5x)",
         args.smoke
             ? std::vector<LlmConfig>{LlmConfig::llm7b(false)}
             : std::vector<LlmConfig>{LlmConfig::llm7b(false),
                                      LlmConfig::llm72b(false)},
         args.smoke
             ? std::vector<TraceTask>{TraceTask::QMSum}
             : std::vector<TraceTask>{TraceTask::QMSum,
                                      TraceTask::Musique},
         args.json ? &json : nullptr, args, truncated);
    grid("Fig. 13(b): PIM-only, GQA LLMs on LV-Eval "
         "(paper: up to 11.3x)",
         args.smoke
             ? std::vector<LlmConfig>{LlmConfig::llm7b(true)}
             : std::vector<LlmConfig>{LlmConfig::llm7b(true),
                                      LlmConfig::llm72b(true)},
         args.smoke
             ? std::vector<TraceTask>{TraceTask::MultifieldQa}
             : std::vector<TraceTask>{TraceTask::MultifieldQa,
                                      TraceTask::LoogleSd},
         args.json ? &json : nullptr, args, truncated);
    bench::writeJsonIfRequested(json, args);
    return truncated.exitCode();
}
