/**
 * @file
 * Inter-module parallelism plans: tensor parallelism (TP) splits the
 * attention heads and FC columns of every layer across a module
 * group, with an all-reduce per layer; pipeline parallelism (PP)
 * assigns consecutive layers to stages through which micro-batches
 * flow.
 */

#ifndef PIMPHONY_MAPPING_PARALLEL_HH
#define PIMPHONY_MAPPING_PARALLEL_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace pimphony {

struct ParallelPlan
{
    unsigned tp = 1;
    unsigned pp = 1;

    unsigned modules() const { return tp * pp; }

    std::string toString() const;
};

/**
 * Micro-batching decision for PP decode: split @p batch requests
 * into micro-batches so the pipeline is as full as it can be.
 */
struct MicroBatching
{
    /** Requests per micro-batch. */
    std::uint32_t microBatchSize = 1;

    /** Number of micro-batches in flight. */
    std::uint32_t count = 1;

    /** Slots a full step occupies: max(count, pp) stage beats. */
    std::uint32_t stageBeats = 1;

    /** Fraction of stage beats doing useful work. */
    double pipelineFill = 1.0;
};

MicroBatching planMicroBatches(std::uint32_t batch, unsigned pp);

/**
 * Layers assigned to @p stage of a @p pp-deep pipeline over
 * @p n_layers: every stage gets floor(n_layers / pp) (at least 1)
 * and the last stage additionally absorbs the remainder, so layer
 * counts sum to n_layers whenever pp <= n_layers. The serving
 * engine charges the last stage's longer service accordingly.
 */
unsigned stageLayers(unsigned n_layers, unsigned pp, unsigned stage);

/** Sum of stageLayers over all @p pp stages. */
unsigned stageLayersTotal(unsigned n_layers, unsigned pp);

/**
 * Latency of one tensor-parallel all-reduce of @p bytes across
 * @p tp modules over a link of @p link_bytes_per_sec with fixed
 * per-hop latency @p alpha_seconds (ring all-reduce).
 */
double allReduceSeconds(Bytes bytes, unsigned tp,
                        double link_bytes_per_sec, double alpha_seconds);

} // namespace pimphony

#endif // PIMPHONY_MAPPING_PARALLEL_HH
