/**
 * @file
 * Fig. 15: throughput across (TP,PP) organizations on the CENT-like
 * system, with PIMphony techniques applied cumulatively.
 * (a) LLM-7B-32K on LongBench QMSum; (b) LLM-7B-128K-GQA on LV-Eval
 * multifieldqa.
 */

#include "bench_util.hh"

using namespace pimphony;

namespace {

void
sweep(const char *title, const LlmConfig &model, TraceTask task,
      bench::JsonRows *json, const bench::BenchArgs &args,
      bench::TruncatedRuns &truncated)
{
    printBanner(std::cout, title);
    OrchestratorConfig probe;
    probe.system = SystemKind::PimOnly;
    probe.model = model;
    PimphonyOrchestrator plans_orch(probe);
    auto plans = plans_orch.candidatePlans();

    std::vector<std::string> headers = {"config"};
    for (const auto &p : plans)
        headers.push_back(p.toString());
    bench::MirroredTable t(headers, json, title);

    // Flattened (option stack, plan) grid; one table row spans all
    // plans of a stack, so emission reassembles rows from the
    // submission-ordered cell vector (cell o*P+p = stack o, plan p).
    auto opts = bench::cumulativeOptions();
    std::size_t n_plans = plans.size();
    auto outs = bench::runSweep(
        args, opts.size() * n_plans, [&](std::size_t i) {
            OrchestratorConfig cfg;
            cfg.system = SystemKind::PimOnly;
            cfg.model = model;
            cfg.options = opts[i / n_plans];
            cfg.plan = plans[i % n_plans];
            cfg.nRequests = 24;
            cfg.decodeTokens = 32;
            PimphonyOrchestrator orch(cfg);
            return orch.evaluate(task).engine;
        });

    for (std::size_t o = 0; o < opts.size(); ++o) {
        std::vector<std::string> row = {opts[o].label()};
        double row_wall = 0.0;
        for (std::size_t p = 0; p < n_plans; ++p) {
            const EngineResult &r = outs[o * n_plans + p].value;
            truncated.note(std::string(title) + " " + opts[o].label() +
                               " " + plans[p].toString(),
                           r);
            row.push_back(TablePrinter::fmt(r.tokensPerSecond, 1));
            row_wall += outs[o * n_plans + p].wallSeconds;
        }
        t.addRow(row, args.threads, row_wall);
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Fig. 15: throughput across fixed (TP,PP) plans");
    bench::JsonRows json("bench_fig15_tp_pp");
    bench::TruncatedRuns truncated;
    sweep("Fig. 15(a): LLM-7B-32K on QMSum, tokens/s across (TP,PP)",
          LlmConfig::llm7b(false), TraceTask::QMSum,
          args.json ? &json : nullptr, args, truncated);
    sweep("Fig. 15(b): LLM-7B-128K-GQA on multifieldqa, tokens/s "
          "across (TP,PP)",
          LlmConfig::llm7b(true), TraceTask::MultifieldQa,
          args.json ? &json : nullptr, args, truncated);
    bench::writeJsonIfRequested(json, args);
    return truncated.exitCode();
}
