/**
 * @file
 * The benchmark's three workloads and the functions that run them
 * through the library's public entry points. Every workload is a pure
 * function of its seed: the library sees only the generated requests,
 * session turns and fault schedule. NOTES.md says why each workload
 * exists and which layers it exercises or bypasses.
 */

#ifndef PIMBENCH_WORKLOADS_HH
#define PIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"
#include "system/engine.hh"
#include "system/fleet.hh"
#include "workload/spec.hh"

namespace pimbench {

using namespace pimphony;

struct Workload
{
    std::string name;
    LlmConfig model;
    ClusterConfig cluster;

    /** One engine (fleet == false) or a FleetEngine of replicas. */
    bool fleet = false;
    EngineOptions engine;
    FleetOptions fleetOptions;

    BuiltWorkload built;

    /** Requests the run attempts, counting every session turn. */
    std::size_t attempted() const
    {
        return built.initial.size() + built.sessions.size();
    }
};

const std::vector<std::string> &workloadNames();

bool isWorkload(const std::string &name);

/** Build @p name's inputs and configuration from @p seed. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** What one run of a workload produced (simulated time only). */
struct Outcome
{
    /** The engine's result, or the fleet aggregate. */
    EngineResult result;

    /** The whole fleet result (fleet workload only). */
    FleetResult fleet;
};

/** Construct -> run -> finalize, untraced: the timed body. */
Outcome runUntraced(const Workload &w);

/**
 * The same run with a span around each call: engine construction,
 * declareWorkload, declareSessionTurns, prepare, every advanceTo of
 * @p slice_seconds simulated time, and finalize; for the fleet,
 * construction and FleetEngine::run.
 */
Outcome runTraced(const Workload &w, SpanLog &log, int rep,
                  double slice_seconds);

} // namespace pimbench

#endif // PIMBENCH_WORKLOADS_HH
