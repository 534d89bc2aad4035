/**
 * @file
 * Module-level latency/energy composition: one PIM module executes
 * attention job sets (partitioned by HFP or TCP across its channels)
 * and, in PIM-only systems, the FC GEMVs of the decoder layers.
 */

#ifndef PIMPHONY_SYSTEM_PIM_MODULE_HH
#define PIMPHONY_SYSTEM_PIM_MODULE_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "dram/timing.hh"
#include "energy/energy.hh"
#include "hub/epu.hh"
#include "kernels/kernel_sim.hh"
#include "mapping/partition.hh"
#include "model/llm.hh"

namespace pimphony {

struct PimModuleConfig
{
    unsigned nChannels = 32;
    Bytes capacityBytes = 16_GiB;
    AimTimingParams timing;
    SchedulerKind scheduler = SchedulerKind::Static;
    Partitioning partitioning = Partitioning::Hfp;

    /**
     * GQA KV mapping. Row-reuse saves ACT/PRE but adds WR-INP swaps
     * that only DCS hides (Sec. V-C); each configuration uses the
     * mapping that suits its scheduler.
     */
    bool
    rowReuse() const
    {
        return scheduler == SchedulerKind::Dcs;
    }

    /** Internal bandwidth implied by the channel timing (B/s). */
    double internalBandwidth() const;
};

/** Latency + occupancy of a phase executed on one module. */
struct PhaseResult
{
    double seconds = 0.0;

    /** MAC-busy cycles accumulated over all channels. */
    double busyChannelCycles = 0.0;

    /** Channel-cycles the phase occupied (seconds x channels). */
    double spanChannelCycles = 0.0;

    EnergyBreakdown energy;
};

class PimModuleModel
{
  public:
    explicit PimModuleModel(const PimModuleConfig &config,
                            const EnergyParams &energy = {});

    /**
     * One decoder layer's attention for @p jobs (each job = the KV
     * scans of one request's job.count KV heads with the model's GQA
     * group).
     *
     * A job with count c costs exactly what c single-head jobs cost:
     * under TCP each per-scan term is added c times as one product,
     * and HFP expands the job in assignHfp. The product equals the
     * repeated sum because every term (kernel makespans, MAC-busy and
     * EPU cycles, kernel energies) is an integer-valued double and
     * every per-layer sum stays far below 2^53. The energies are
     * integral only for integer-valued EnergyParams, like the
     * defaults; a fractional parameter would make the count-weighted
     * sums round differently, by up to 1 ulp per operation.
     */
    PhaseResult attentionLayer(const std::vector<AttentionJob> &jobs,
                               const LlmConfig &model);

    /**
     * One decoder layer's FC stack (QKVO projections + FFN) for
     * @p batch requests, executed as PIM GEMVs on this module's
     * shard (1/tp of every output dimension).
     */
    PhaseResult fcLayer(std::uint32_t batch, const LlmConfig &model,
                        unsigned tp);

    const PimModuleConfig &config() const { return config_; }

  private:
    /** Channel-level result of one attention job at @p tokens. */
    const ScheduleResult &attentionKernel(KernelKind kind, Tokens tokens,
                                          const LlmConfig &model);

    /**
     * Memoized per-scan attention contribution at one bucketed token
     * count: the QK^T/SV schedules plus their per-channel kernel
     * energies and the sums the TCP path adds. The serving engine
     * resolves every job of every decode cycle through this table,
     * turning the per-job cost into one hash probe instead of two
     * kernel-store lookups plus two energy recomputations. Values are
     * pure functions of the stored schedules, so the memo changes
     * nothing bit-wise.
     */
    struct AttnJobCost
    {
        const ScheduleResult *qkt = nullptr;
        const ScheduleResult *sv = nullptr;
        EnergyBreakdown qktEnergy; ///< kernelEnergy(qkt)
        EnergyBreakdown svEnergy;  ///< kernelEnergy(sv)
        double kernelCycles = 0.0; ///< qkt + sv makespans
        double busyCh = 0.0;       ///< qkt + sv MAC-busy x nChannels
        EnergyBreakdown energyCh;  ///< (qktEnergy + svEnergy) x nChannels
    };

    /** Memo lookup for @p bucketed tokens (bucketTokens applied). */
    const AttnJobCost &attentionJobCost(Tokens bucketed,
                                        const LlmConfig &model);

    PimModuleConfig config_;
    EnergyParams energyParams_;
    EpuModel epu_;

    /**
     * Keyed by bucketed token count; cleared when a different model's
     * head geometry shows up. The schedules live in the process-wide
     * KernelStore, which never moves or drops an entry.
     */
    std::unordered_map<Tokens, AttnJobCost> attnMemo_;
    unsigned attnMemoHeadDim_ = 0;
    unsigned attnMemoGqa_ = 0;

    struct FcCost
    {
        bool valid = false;
        std::uint64_t dModel = 0;
        std::uint64_t dFfn = 0;
        unsigned kvHeads = 0;
        unsigned headDim = 0;
        unsigned tp = 0;
        double cyclesPerRequest = 0.0;
        double busyPerRequest = 0.0;
        EnergyBreakdown energyPerRequest;
    };
    FcCost fcMemo_;

    /** Per-cycle scratch for the HFP channel assignment. */
    std::vector<std::vector<AttentionJob>> hfpScratch_;
};

} // namespace pimphony

#endif // PIMPHONY_SYSTEM_PIM_MODULE_HH
