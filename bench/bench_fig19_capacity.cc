/**
 * @file
 * Fig. 19: memory capacity utilization with and without DPA across
 * the four workloads. QMSum/Musique run the 7B-32K model,
 * multifieldqa/Loogle-SD the 7B-128K GQA model. The paper reports
 * 31.0-40.5% static and 75.6% average with DPA.
 */

#include "bench_util.hh"
#include "workload/trace.hh"

using namespace pimphony;

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, "Fig. 19: KV capacity utilization per allocator");
    bench::JsonRows json("bench_fig19_capacity");
    bench::TruncatedRuns truncated;
    printBanner(std::cout,
                "Fig. 19: capacity utilization, static vs DPA "
                "(paper: 31.0-40.5% -> avg 75.6%)");

    bench::MirroredTable t(

        {"task", "model", "static util", "DPA util",
                    "static batch", "DPA batch"},

        args.json ? &json : nullptr);
    // Flattened (task, allocator) grid: cell 2t+a runs task t with
    // the static stack (a=0) or the DPA stack (a=1).
    auto tasks = allTraceTasks();
    auto outs = bench::runSweep(
        args, tasks.size() * 2, [&](std::size_t i) {
            TraceTask task = tasks[i / 2];
            bool lveval = task == TraceTask::MultifieldQa ||
                          task == TraceTask::LoogleSd;
            auto model = LlmConfig::llm7b(lveval);
            auto cluster = ClusterConfig::centLike(model);
            TraceGenerator gen(task, 7);
            auto requests = gen.generate(48, 64);
            auto opt = (i % 2) == 0 ? PimphonyOptions{true, true, false}
                                    : PimphonyOptions::all();
            return runServing(cluster, model, requests, opt);
        });

    double dpa_sum = 0.0;
    int n = 0;
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
        bool lveval = tasks[ti] == TraceTask::MultifieldQa ||
                      tasks[ti] == TraceTask::LoogleSd;
        auto model = LlmConfig::llm7b(lveval);
        const auto &st = outs[2 * ti].value;
        const auto &dp = outs[2 * ti + 1].value;
        truncated.note(traceTaskName(tasks[ti]) + " static", st);
        truncated.note(traceTaskName(tasks[ti]) + " DPA", dp);
        dpa_sum += dp.capacityUtilization;
        ++n;
        t.addRow({traceTaskName(tasks[ti]), model.name,
                  TablePrinter::fmtPercent(st.capacityUtilization),
                  TablePrinter::fmtPercent(dp.capacityUtilization),
                  TablePrinter::fmt(st.avgEffectiveBatch, 1),
                  TablePrinter::fmt(dp.avgEffectiveBatch, 1)},
                 args.threads,
                 outs[2 * ti].wallSeconds +
                     outs[2 * ti + 1].wallSeconds);
    }
    t.print(std::cout);
    std::cout << "  DPA average: "
              << TablePrinter::fmtPercent(dpa_sum / n)
              << " (paper: 75.6%)\n";
    bench::writeJsonIfRequested(json, args);
    return truncated.exitCode();
}
