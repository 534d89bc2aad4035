/**
 * @file
 * Fig. 16: energy breakdowns of CENT vs CENT+PIMphony. Top: FC vs
 * Attention share; bottom: MAC / I/O / Background / Else. The paper
 * reports the baseline's attention background at 71.5% of attention
 * energy, collapsing to 13.0% with PIMphony (up to 3.46x attention
 * energy reduction).
 */

#include "bench_util.hh"
#include "workload/trace.hh"

using namespace pimphony;

namespace {

void
energyCase(const char *title, const LlmConfig &model, TraceTask task,
           bench::JsonRows *json, const bench::BenchArgs &args,
           bench::TruncatedRuns &truncated)
{
    printBanner(std::cout, title);
    TraceGenerator gen(task, 33);
    auto requests = gen.generate(16, 32);

    bench::MirroredTable top(

        {"config", "total (J)", "FC share", "Attn share",
                      "Attn energy reduction"},

        json, "top");
    bench::MirroredTable bottom(
        {"config", "Attn MAC", "Attn I/O",
                         "Attn background", "Attn ACT/PRE+REF+else"},
        json, "bottom");

    // Two sweep cells (baseline, all); the attention-energy
    // reduction is relative to the baseline row, computed during
    // serial emission.
    const std::vector<PimphonyOptions> opts = {
        PimphonyOptions::baseline(), PimphonyOptions::all()};
    auto outs = bench::runSweep(args, opts.size(), [&](std::size_t i) {
        auto cluster = ClusterConfig::centLike(model);
        return runServing(cluster, model, requests, opts[i]);
    });

    double base_attn = 0.0;
    for (std::size_t i = 0; i < opts.size(); ++i) {
        const auto &r = outs[i].value;
        truncated.note(std::string(title) + " " + opts[i].label(), r);
        double fc = r.fcEnergy.total();
        double at = r.attentionEnergy.total();
        double tot = fc + at;
        if (base_attn == 0.0)
            base_attn = at;
        top.addRow({opts[i].label(), TablePrinter::fmt(tot * 1e-12, 2),
                    TablePrinter::fmtPercent(fc / tot),
                    TablePrinter::fmtPercent(at / tot),
                    bench::fmtSpeedup(base_attn / at)},
                   args.threads, outs[i].wallSeconds);
        const auto &e = r.attentionEnergy;
        double rest = e.actPre + e.refreshE + e.elseE;
        bottom.addRow({opts[i].label(),
                       TablePrinter::fmtPercent(e.mac / at),
                       TablePrinter::fmtPercent(e.io / at),
                       TablePrinter::fmtPercent(e.background / at),
                       TablePrinter::fmtPercent(rest / at)});
    }
    top.print(std::cout);
    bottom.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Fig. 16: energy breakdown per technique stack");
    bench::JsonRows json("bench_fig16_energy");
    bench::TruncatedRuns truncated;
    energyCase("Fig. 16(a): LLM-7B-32K on LongBench QMSum (32K class)",
               LlmConfig::llm7b(false), TraceTask::QMSum,
         args.json ? &json : nullptr, args, truncated);
    energyCase("Fig. 16(a): LLM-72B-32K on LongBench Musique",
               LlmConfig::llm72b(false), TraceTask::Musique,
         args.json ? &json : nullptr, args, truncated);
    energyCase("Fig. 16(b): LLM-7B-128K-GQA on LV-Eval multifieldqa "
               "(paper: background 71.5% -> 13.0%)",
               LlmConfig::llm7b(true), TraceTask::MultifieldQa,
         args.json ? &json : nullptr, args, truncated);
    energyCase("Fig. 16(b): LLM-72B-128K-GQA on LV-Eval Loogle-SD",
               LlmConfig::llm72b(true), TraceTask::LoogleSd,
         args.json ? &json : nullptr, args, truncated);
    bench::writeJsonIfRequested(json, args);
    return truncated.exitCode();
}
