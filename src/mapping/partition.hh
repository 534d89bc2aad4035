/**
 * @file
 * Intra-module workload partitioning (Sec. IV).
 *
 * HFP (head/batch-first, prior work): each (request, KV-head)
 * attention scan runs wholly on one channel; channels are filled
 * round-robin by index. Long contexts leave channels idle whenever
 * there are fewer scans than channels or the scans are unequal.
 *
 * TCP (token-centric, PIMphony): the token axis of every job is
 * sliced across all channels of the module, so every channel works on
 * every job; per-module imbalance disappears and utilization is
 * decoupled from batch size. QK^T slices concatenate for the EPU
 * softmax; SV slices need one inter-channel reduction through the
 * PIM HUB's GPR.
 */

#ifndef PIMPHONY_MAPPING_PARTITION_HH
#define PIMPHONY_MAPPING_PARTITION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace pimphony {

enum class Partitioning {
    Hfp,
    Tcp,
};

std::string partitioningName(Partitioning p);

/**
 * One attention job: @p count identical KV scans of one request, each
 * over @p tokens (the KV heads kvHead .. kvHead + count - 1). The cost
 * model charges a job as @p count copies of one (request, KV-head)
 * scan; that is exact because every per-scan term is an integer-valued
 * double (see PimModuleModel::attentionLayer).
 */
struct AttentionJob
{
    RequestId request = 0;
    std::uint32_t kvHead = 0;
    Tokens tokens = 0;
    std::uint32_t count = 1;
};

/**
 * HFP assignment: (request, KV-head) scans to channels by index
 * round-robin, blind to their lengths (scan i goes to channel
 * i % n_channels). A job stands for @p count consecutive scans, so it
 * fills @p count consecutive slots, one single-head job each; the
 * placement is the one a per-head job list gets.
 *
 * @return per-channel job lists, size @p n_channels.
 */
std::vector<std::vector<AttentionJob>>
assignHfp(std::vector<AttentionJob> jobs, unsigned n_channels);

/**
 * Allocation-reusing form: fills @p out (resized to @p n_channels,
 * per-channel lists cleared) with the same assignment. The serving
 * engine calls this once per decode cycle; reusing the nested
 * vectors keeps the cycle path allocation-free once warm.
 */
void assignHfp(const std::vector<AttentionJob> &jobs, unsigned n_channels,
               std::vector<std::vector<AttentionJob>> &out);

/** Tokens a single channel processes for @p job under TCP. */
Tokens tcpSliceTokens(const AttentionJob &job, unsigned n_channels);

/**
 * Minimum total tokens at which TCP activates every channel for a
 * QK^T (one token group of 16 per channel).
 */
Tokens tcpFullActivationTokens(unsigned n_channels);

} // namespace pimphony

#endif // PIMPHONY_MAPPING_PARTITION_HH
