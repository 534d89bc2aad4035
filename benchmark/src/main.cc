/**
 * @file
 * The repository benchmark: one workload per invocation.
 *
 *   pimbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--spans PATH]
 *
 * --trace 0 measures the end-to-end metrics: set-up (workload build,
 * configuration and a first full run) repeats for S seconds, at least
 * five times, with no tracing. --trace 1 gives the per-layer metrics:
 * untraced and traced runs alternate for S seconds, then the layer
 * probes run; spans go to --spans PATH.
 *
 * Every run's outputs are checked (conservation, seed sensitivity,
 * bit-identical simulated results across repetitions and between the
 * traced and untraced drives). A failed check prints the reason on
 * stderr, reports "correct": false and exits 1. The last stdout line
 * is one JSON object: correct, attempted, failed, metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "probes.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace pimbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pimbench: %s\nusage: pimbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\nworkloads:",
                 why);
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Parse a whole-string number; repeated flags keep the last value. */
Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!*v || *end || !(a.seconds > 0.0) || a.seconds > 120.0)
                usage("--seconds takes a number in (0, 120]");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
        } else if (flag == "--spans") {
            a.spansPath = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!isWorkload(a.workload))
        usage("--workload names no workload");
    return a;
}

// --- Output checks -----------------------------------------------------

/** First failed check (empty while every check passes). */
std::string g_failure;

void
check(bool ok, const std::string &what)
{
    if (!ok && g_failure.empty())
        g_failure = what;
    if (!ok)
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

/** Requests lost to injected faults (fleet only). */
std::uint64_t
lostRequests(const Outcome &o)
{
    return o.fleet.lostRequests;
}

/** TTFT samples in ascending order. */
std::vector<double>
sortedTtfts(const EngineResult &r)
{
    std::vector<double> v;
    v.reserve(r.firstTokenLatency.size());
    for (const auto &kv : r.firstTokenLatency)
        v.push_back(kv.second);
    std::sort(v.begin(), v.end());
    return v;
}

/** Nearest-rank percentile of an ascending sample. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p * sorted.size()));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) -
                  1];
}

/** The simulated (host-independent) end-to-end metrics of one run. */
struct SimMetrics
{
    double goodput = 0.0;
    double ttftP50 = 0.0;
    double ttftP99 = 0.0;
    double gapMean = 0.0;
    double mjPerToken = 0.0;
    double servedShare = 0.0;
};

SimMetrics
simMetrics(const Workload &w, const Outcome &o)
{
    const EngineResult &r = o.result;
    SimMetrics m;
    m.goodput = w.fleet ? o.fleet.goodputTokensPerSecond : r.tokensPerSecond;
    std::vector<double> ttft = sortedTtfts(r);
    m.ttftP50 = percentile(ttft, 0.50);
    m.ttftP99 = percentile(ttft, 0.99);
    // The engine's p95 gap is pinned to one cycle time on
    // prefix-sessions (see NOTES.md), so the end-to-end gap metric is
    // the mean; the p95 stays in the bit-identity fingerprint.
    m.gapMean = r.avgTokenGapSeconds;
    double pj = r.attentionEnergy.total() + r.fcEnergy.total();
    m.mjPerToken = r.generatedTokens ? pj * 1e-9 / r.generatedTokens : 0.0;
    m.servedShare = static_cast<double>(r.completedRequests) /
                    static_cast<double>(w.attempted());
    return m;
}

/**
 * Every simulated quantity of a run, for bit-identity checks: the
 * result's scalar fields, the per-request TTFT and completion maps in
 * id order, and the fleet's counters.
 */
std::vector<double>
fingerprint(const Outcome &o)
{
    const EngineResult &r = o.result;
    std::vector<double> f = {
        r.tokensPerSecond, r.simulatedSeconds,
        double(r.generatedTokens), double(r.completedRequests),
        double(r.rejectedRequests), double(r.preemptions),
        r.avgEffectiveBatch, r.macUtilization, r.capacityUtilization,
        r.attentionSeconds, r.fcSeconds, r.attentionEnergy.total(),
        r.fcEnergy.total(), r.prefillSeconds, r.avgRequestLatency,
        r.p95RequestLatency, r.avgFirstTokenSeconds,
        r.p95FirstTokenSeconds, r.avgTokenGapSeconds, r.p95TokenGapSeconds,
        double(r.sloDeferrals), double(r.chunkSlices),
        double(r.decodeOvertakes), r.maxDecodeXpuWaitSeconds,
        r.xpuPrefillBusySeconds, double(r.simEvents),
        double(r.budgetDeferrals), double(r.tierInversions),
        r.maxTierInversionWaitSeconds, double(r.decodePreemptSlices),
        double(r.prefixHits), double(r.prefixMisses),
        double(r.prefixEvictions), r.prefixHitRate,
        double(r.prefixCachedTokens), r.savedPrefillSeconds,
        double(r.sharedKvPeakBytes), double(r.uniqueKvPeakBytes),
        double(o.fleet.windows), double(o.fleet.goodputTokens),
        o.fleet.goodputTokensPerSecond, double(o.fleet.evacuatedRequests),
        double(o.fleet.retriedRequests), double(o.fleet.lostRequests),
        double(o.fleet.lostTokens), o.fleet.reloadSeconds};
    for (const auto *map : {&r.firstTokenLatency, &r.completionSeconds}) {
        std::vector<std::pair<RequestId, double>> v(map->begin(), map->end());
        std::sort(v.begin(), v.end());
        for (const auto &kv : v) {
            f.push_back(double(kv.first));
            f.push_back(kv.second);
        }
    }
    for (double a : o.fleet.availability)
        f.push_back(a);
    for (auto n : o.fleet.routedRequests)
        f.push_back(double(n));
    return f;
}

/** Bit-for-bit equality of two fingerprints. */
bool
identical(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** FNV-1a digest of every input the library sees for a workload. */
std::uint64_t
inputDigest(const Workload &w)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    auto mixd = [&mix](double d) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    };
    for (const auto &t : w.built.initial) {
        mixd(t.arrivalSeconds);
        mix(t.request.contextTokens);
        mix(t.request.decodeTokens);
        mix(t.request.prefixHash);
    }
    for (const Request &r : allRequests(w)) {
        mix(r.id);
        mix(r.contextTokens);
    }
    for (const auto &rep : w.fleetOptions.faults.replicas)
        for (const auto &ev : rep) {
            mix(static_cast<std::uint64_t>(ev.kind));
            mixd(ev.atSeconds);
        }
    return h;
}

/** Checks every run of the workload must pass. */
void
checkOutcome(const Workload &w, const Outcome &o)
{
    const EngineResult &r = o.result;
    const std::uint64_t attempted = w.attempted();
    check(r.completedRequests + r.rejectedRequests + lostRequests(o) ==
              attempted,
          "completed + rejected + lost == attempted (" +
              std::to_string(r.completedRequests) + " + " +
              std::to_string(r.rejectedRequests) + " + " +
              std::to_string(lostRequests(o)) +
              " != " + std::to_string(attempted) + ")");
    if (w.fleet) {
        check(o.fleet.goodputTokens + o.fleet.lostTokens ==
                  r.generatedTokens,
              "fleet goodput == generated - lost tokens");
    } else {
        check(r.completedRequests == attempted,
              "every request completes (fail share 0) on " + w.name);
    }
    check(r.firstTokenLatency.size() >= 1000,
          "at least 1000 TTFT samples (" +
              std::to_string(r.firstTokenLatency.size()) + ")");
    check(r.generatedTokens > 0 && r.simulatedSeconds > 0.0,
          "the run generated tokens");
}

// --- Output --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Print the result line; a non-finite metric fails the run. */
void
printResult(std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        check(std::isfinite(m.value), m.name + " is finite");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                g_failure.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Requests the simulator turned away or left unfinished, other than
 *  those lost to injected faults (none on these workloads). */
std::uint64_t
failedRequests(const Workload &w, const Outcome &o)
{
    std::uint64_t done = o.result.completedRequests + lostRequests(o);
    return w.attempted() > done ? w.attempted() - done : 0;
}

/** A second seed must change the inputs, so a seed that is ignored
 *  cannot pass. */
void
checkSeedSensitivity(const Args &a, const Workload &w)
{
    Workload other = makeWorkload(a.workload, a.seed + 1);
    check(inputDigest(other) != inputDigest(w),
          "seed " + std::to_string(a.seed + 1) +
              " builds the same inputs as seed " + std::to_string(a.seed));
}

// --- --trace 0: end-to-end metrics -----------------------------------------

int
endToEnd(const Args &a)
{
    // Set-up repeats for the whole window (at least five times); each
    // one builds the inputs, configures, and makes the first run.
    constexpr std::size_t kMinSetups = 5;
    std::vector<double> setup;
    Workload w;
    Outcome ref;
    std::vector<double> ref_print;
    auto start = Clock::now();
    while (setup.size() < kMinSetups || secondsSince(start) < a.seconds) {
        auto t0 = Clock::now();
        w = makeWorkload(a.workload, a.seed);
        Outcome o = runUntraced(w);
        setup.push_back(secondsSince(t0));
        std::vector<double> fp = fingerprint(o);
        if (ref_print.empty()) {
            ref = std::move(o);
            ref_print = std::move(fp);
        } else {
            check(identical(fp, ref_print),
                  "set-up " + std::to_string(setup.size()) +
                      " is bit-identical to the first");
        }
    }
    checkSeedSensitivity(a, w);
    checkOutcome(w, ref);

    SimMetrics s = simMetrics(w, ref);
    std::vector<Metric> m = {
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_goodput_tok_s", s.goodput, "tok/s"},
        {"ttft_p50_s", s.ttftP50, "s"},
        {"ttft_p99_s", s.ttftP99, "s"},
        {"token_gap_mean_s", s.gapMean, "s"},
        {"sim_energy_mj_per_token", s.mjPerToken, "mJ"},
        {"served_share", s.servedShare, "ratio"},
    };
    std::fprintf(stderr,
                 "%s seed %llu: %zu set-ups, median %.3f s; %llu requests "
                 "per run, %llu TTFT samples\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 setup.size(), median(setup),
                 static_cast<unsigned long long>(w.attempted()),
                 static_cast<unsigned long long>(
                     ref.result.firstTokenLatency.size()));
    const std::uint64_t runs = setup.size();
    printResult(runs * w.attempted(), runs * failedRequests(w, ref), m);
    return g_failure.empty() ? 0 : 1;
}

// --- --trace 1: per-layer metrics -------------------------------------------

int
perLayer(const Args &a)
{
    // Fixed simulated-time slice for the windowed advanceTo drive.
    constexpr double kSliceSeconds = 10.0;

    SpanLog log(a.workload);
    Workload w;
    {
        ScopedSpan s(log, "workload.build");
        w = makeWorkload(a.workload, a.seed);
    }
    checkSeedSensitivity(a, w);

    // Untraced and traced runs alternate (which goes first alternates
    // too), so host drift hits both alike.
    std::vector<double> untraced, traced;
    Outcome ref;
    std::vector<double> ref_print;
    auto start = Clock::now();
    for (int rep = 0; rep < 2 || secondsSince(start) < a.seconds; ++rep) {
        for (int k = 0; k < 2; ++k) {
            bool run_traced = (k == 1) != (rep % 2 == 1);
            auto t0 = Clock::now();
            Outcome o = run_traced ? runTraced(w, log, rep, kSliceSeconds)
                                   : runUntraced(w);
            (run_traced ? traced : untraced).push_back(secondsSince(t0));
            std::vector<double> fp = fingerprint(o);
            if (ref_print.empty()) {
                ref = std::move(o);
                ref_print = std::move(fp);
                checkOutcome(w, ref);
            } else {
                check(identical(fp, ref_print),
                      std::string(run_traced ? "traced" : "untraced") +
                          " run " + std::to_string(rep) +
                          " is bit-identical to the first run");
            }
        }
    }
    // Per-repetition span sums, then medians over repetitions.
    const int reps = static_cast<int>(traced.size());
    auto per_rep = [&](const std::vector<std::string> &names) {
        std::vector<double> v(reps, 0.0);
        for (const auto &s : log.spans())
            for (const auto &n : names)
                if (s.rep >= 0 && s.name == n)
                    v[s.rep] += 1e-9 * static_cast<double>(s.endNs -
                                                           s.startNs);
        return median(v);
    };
    const double construct_s =
        per_rep({"engine.construct", "fleet.construct"});
    const double advance_s = per_rep({"engine.advanceTo", "fleet.run"});
    const double finalize_s = per_rep({"engine.finalize"});
    const double fleet_run_s = w.fleet ? per_rep({"fleet.run"}) : 0.0;
    // Best runs: on a shared host, identical runs slow down by up to
    // 2x in phases of seconds, which moves a median of the window more
    // than its minimum (NOTES.md).
    const double host_s = *std::min_element(untraced.begin(), untraced.end());
    const double traced_s = *std::min_element(traced.begin(), traced.end());

    const EngineResult &r = ref.result;
    const unsigned pp = w.cluster.plan.pp;
    const std::size_t cohort = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(r.avgEffectiveBatch / pp)));
    const std::size_t live = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(r.avgEffectiveBatch)));

    double probe_ns_per_event, alloc_ns, prefix_ns;
    KernelProbe kp;
    CostProbe cp;
    {
        ScopedSpan s(log, "probe.event_queue");
        probe_ns_per_event = probeEventQueue(a.seed);
    }
    {
        ScopedSpan s(log, "probe.kernels");
        kp = probeKernels(w);
    }
    {
        ScopedSpan s(log, "probe.cost_model");
        cp = probeCostModel(w, cohort);
    }
    {
        ScopedSpan s(log, "probe.allocator");
        alloc_ns = probeAllocator(w, live);
    }
    {
        ScopedSpan s(log, "probe.prefix_cache");
        prefix_ns = probePrefixCache(w, live);
    }

    const double gen = static_cast<double>(r.generatedTokens);
    const double engines = w.fleet ? w.fleetOptions.replicas : 1.0;
    // Decode cycles, estimated as generated tokens over the average
    // cohort; each plans one attentionLayer call.
    const double cycles = gen / static_cast<double>(cohort);
    const FleetResult &f = ref.fleet;
    double avail = 0.0, route_max = 0.0, route_sum = 0.0;
    for (double x : f.availability)
        avail += x;
    for (auto n : f.routedRequests) {
        route_max = std::max(route_max, double(n));
        route_sum += double(n);
    }
    const double nrep = static_cast<double>(f.routedRequests.size());

    std::vector<Metric> m = {
        {"workload.build_s", log.totalSeconds("workload.build"), "s"},
        {"workload.requests", double(w.attempted()), "count"},
        {"sim.events", double(r.simEvents), "count"},
        {"sim.events_per_token", double(r.simEvents) / gen, "count"},
        {"sim.tokens_per_host_s", gen / host_s, "tok/s"},
        {"sim.events_per_host_s", double(r.simEvents) / host_s, "1/s"},
        {"sim.probe_ns_per_event", probe_ns_per_event, "ns"},
        {"sim.host_share_est",
         double(r.simEvents) * probe_ns_per_event * 1e-9 / host_s, "ratio"},
        {"kernels.distinct_buckets", double(kp.distinctBuckets), "count"},
        {"kernels.cold_s", kp.coldSeconds, "s"},
        {"kernels.warm_ns_per_call", kp.warmNsPerCall, "ns"},
        {"kernels.host_share_est", kp.coldSeconds * engines / host_s,
         "ratio"},
        {"cost.attention_ns_per_call", cp.attentionNsPerCall, "ns"},
        {"cost.fc_ns_per_call", cp.fcNsPerCall, "ns"},
        {"cost.host_share_est", cycles * cp.attentionNsPerCall * 1e-9 / host_s,
         "ratio"},
        {"alloc.probe_ns_per_op", alloc_ns, "ns"},
        {"alloc.capacity_util", r.capacityUtilization, "ratio"},
        {"alloc.preemptions", double(r.preemptions), "count"},
        {"prefix.probe_ns_per_op", prefix_ns, "ns"},
        {"prefix.hits", double(r.prefixHits), "count"},
        {"prefix.misses", double(r.prefixMisses), "count"},
        {"prefix.hit_rate", r.prefixHitRate, "ratio"},
        {"prefix.evictions", double(r.prefixEvictions), "count"},
        {"prefix.cached_tokens", double(r.prefixCachedTokens), "count"},
        {"prefix.saved_prefill_s", r.savedPrefillSeconds, "s"},
        {"engine.construct_s", construct_s, "s"},
        {"engine.advance_s", advance_s, "s"},
        {"engine.finalize_s", finalize_s, "s"},
        {"engine.host_s_per_sim_s", advance_s / r.simulatedSeconds, "s/s"},
        {"engine.avg_batch", r.avgEffectiveBatch, "count"},
        {"engine.mac_util", r.macUtilization, "ratio"},
        {"engine.attention_share",
         r.attentionSeconds / (r.attentionSeconds + r.fcSeconds), "ratio"},
        {"engine.slo_deferrals", double(r.sloDeferrals), "count"},
        {"engine.budget_deferrals", double(r.budgetDeferrals), "count"},
        {"engine.chunk_slices", double(r.chunkSlices), "count"},
        {"engine.decode_overtakes", double(r.decodeOvertakes), "count"},
        {"engine.tier_inversions", double(r.tierInversions), "count"},
        {"engine.max_decode_xpu_wait_s", r.maxDecodeXpuWaitSeconds, "s"},
        {"fleet.run_s", fleet_run_s, "s"},
        {"fleet.windows", double(f.windows), "count"},
        {"fleet.host_ms_per_window",
         f.windows ? fleet_run_s * 1e3 / double(f.windows) : 0.0, "ms"},
        {"fleet.retried", double(f.retriedRequests), "count"},
        {"fleet.evacuated", double(f.evacuatedRequests), "count"},
        {"fleet.lost", double(f.lostRequests), "count"},
        {"fleet.availability_mean", nrep ? avail / nrep : 0.0, "ratio"},
        {"fleet.route_max_over_mean",
         route_sum > 0.0 ? route_max * nrep / route_sum : 0.0, "ratio"},
        {"trace.overhead_share", traced_s / host_s - 1.0, "ratio"},
    };

    if (!a.spansPath.empty() && !log.write(a.spansPath, a.seed))
        check(false, "write spans to " + a.spansPath);
    std::fprintf(stderr,
                 "%s seed %llu: %d traced + %zu untraced runs; %zu spans\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 reps, untraced.size(), log.spans().size());
    const std::uint64_t runs = traced.size() + untraced.size();
    printResult(runs * w.attempted(),
                runs * failedRequests(w, ref), m);
    return g_failure.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    return a.trace ? perLayer(a) : endToEnd(a);
}
