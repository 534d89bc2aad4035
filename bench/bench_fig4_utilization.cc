/**
 * @file
 * Fig. 4: PIM utilization under short (4K) and long (32K) contexts on
 * LLM-7B-32K-GQA over the CENT-like system, with TCP/DCS/DPA applied
 * cumulatively. The paper reports a 48% relative utilization drop
 * from 4K to 32K on the baseline, stepwise gains of ~1.4x/1.9x/1.1x
 * at 32K, and an effective batch of 53 with DPA.
 */

#include "bench_util.hh"
#include "workload/trace.hh"

using namespace pimphony;

namespace {

void
contextCase(const char *title, Tokens mean_context, Tokens t_max,
            bench::JsonRows *json, const bench::BenchArgs &args,
            bench::TruncatedRuns &truncated)
{
    printBanner(std::cout, title);
    auto model = LlmConfig::llm7b(true);
    model.contextWindow = t_max; // the compile-time maximum

    TraceGenerator gen(TraceTask::QMSum, 17);
    // Offered load well above what static reservations can admit, so
    // the admission limit (not the trace size) sets the batch.
    auto requests = gen.generateScaled(96, mean_context, 32);

    // One sweep cell per cumulative stack; the util-gain column is a
    // ratio of adjacent rows, so it is computed during the serial
    // emission pass, not inside the cells.
    auto opts = bench::cumulativeOptions();
    auto outs = bench::runSweep(args, opts.size(), [&](std::size_t i) {
        auto cluster = ClusterConfig::centLike(model);
        return runServing(cluster, model, requests, opts[i]);
    });

    bench::MirroredTable t(

        {"config", "MAC util", "util gain", "tokens/s",
                    "effective batch", "capacity util"},

        json);
    double prev_util = 0.0;
    for (std::size_t i = 0; i < opts.size(); ++i) {
        const auto &r = outs[i].value;
        truncated.note(std::string(title) + " " + opts[i].label(), r);
        std::string gain = prev_util > 0.0
            ? bench::fmtSpeedup(r.macUtilization / prev_util)
            : std::string("-");
        t.addRow({opts[i].label(),
                  TablePrinter::fmtPercent(r.macUtilization),
                  gain,
                  TablePrinter::fmt(r.tokensPerSecond, 1),
                  TablePrinter::fmt(r.avgEffectiveBatch, 1),
                  TablePrinter::fmtPercent(r.capacityUtilization)},
                 args.threads, outs[i].wallSeconds);
        prev_util = r.macUtilization;
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Fig. 4: effective batch and MAC utilization");
    bench::JsonRows json("bench_fig4_utilization");
    bench::TruncatedRuns truncated;
    contextCase("Fig. 4(a): short context (~4K, T_max 4K)", 4096, 4096,
         args.json ? &json : nullptr, args, truncated);
    contextCase("Fig. 4(b): long context (~32K, T_max 32K; paper: 48% "
                "baseline util drop vs (a), gains 1.4x/1.9x/1.1x, "
                "effective batch 53)",
                28000, 32768,
         args.json ? &json : nullptr, args, truncated);
    bench::writeJsonIfRequested(json, args);
    return truncated.exitCode();
}
