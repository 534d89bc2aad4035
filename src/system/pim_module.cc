#include "system/pim_module.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pimphony {

double
PimModuleConfig::internalBandwidth() const
{
    // Every channel moves one 512 B all-bank MAC's worth of weights
    // per tCCDS at peak.
    double per_channel =
        static_cast<double>(timing.macBytesPerCommand()) /
        (timing.tCcds * timing.secondsPerCycle());
    return per_channel * nChannels;
}

PimModuleModel::PimModuleModel(const PimModuleConfig &config,
                               const EnergyParams &energy)
    : config_(config), energyParams_(energy), epu_()
{
    if (config_.nChannels == 0)
        fatal("PIM module needs at least one channel");
}

const ScheduleResult &
PimModuleModel::attentionKernel(KernelKind kind, Tokens tokens,
                                const LlmConfig &model)
{
    AttentionSpec spec;
    spec.tokens = bucketTokens(tokens);
    spec.headDim = model.headDim;
    spec.gqaGroup = model.gqaGroup;
    spec.rowReuse = config_.rowReuse();
    KernelRequest req = kind == KernelKind::Qkt
        ? KernelRequest::makeQkt(spec, config_.scheduler)
        : KernelRequest::makeSv(spec, config_.scheduler);
    return KernelStore::process().get(config_.timing, req);
}

const PimModuleModel::AttnJobCost &
PimModuleModel::attentionJobCost(Tokens bucketed, const LlmConfig &model)
{
    // One serving run reuses one model; a geometry change (different
    // LlmConfig against the same module model) drops the memo. The
    // kernel store itself keys on the full descriptor and is
    // unaffected.
    if (attnMemoHeadDim_ != model.headDim ||
        attnMemoGqa_ != model.gqaGroup) {
        attnMemo_.clear();
        attnMemoHeadDim_ = model.headDim;
        attnMemoGqa_ = model.gqaGroup;
    }
    auto it = attnMemo_.find(bucketed);
    if (it != attnMemo_.end())
        return it->second;

    AttnJobCost cost;
    cost.qkt = &attentionKernel(KernelKind::Qkt, bucketed, model);
    cost.sv = &attentionKernel(KernelKind::Sv, bucketed, model);
    cost.qktEnergy = kernelEnergy(*cost.qkt, energyParams_);
    cost.svEnergy = kernelEnergy(*cost.sv, energyParams_);
    const unsigned n_ch = config_.nChannels;
    cost.kernelCycles = static_cast<double>(cost.qkt->makespan) +
                        static_cast<double>(cost.sv->makespan);
    cost.busyCh = static_cast<double>(cost.qkt->macBusyCycles +
                                      cost.sv->macBusyCycles) *
                  n_ch;
    cost.energyCh = cost.qktEnergy.scaled(n_ch);
    cost.energyCh += cost.svEnergy.scaled(n_ch);
    // Kernel-store entries never move, so the ScheduleResult pointers
    // stay valid for the life of the process.
    return attnMemo_.emplace(bucketed, cost).first->second;
}

PhaseResult
PimModuleModel::attentionLayer(const std::vector<AttentionJob> &jobs,
                               const LlmConfig &model)
{
    PhaseResult out;
    if (jobs.empty())
        return out;

    const double spc = config_.timing.secondsPerCycle();
    const unsigned n_ch = config_.nChannels;

    if (config_.partitioning == Partitioning::Tcp) {
        // Every channel processes a token slice of every job; the
        // module walks jobs one after another. The EPU (softmax and
        // the SV inter-channel reduction) runs pipelined with the
        // next job's channel work, so the module time is the larger
        // of the two streams (Sec. IV-C: aggregation overhead is
        // negligible).
        double kernel_cycles = 0.0;
        double epu_cycles = 0.0;
        // Cohort members often share a bucket, so consecutive jobs
        // repeat: a last-value cache turns the memo probe + EPU
        // formula into a comparison. Each job adds count x its terms,
        // exact because the terms are integer-valued (see the header).
        const Cycle reduce = epu_.reduceCycles(
            n_ch,
            static_cast<std::uint64_t>(model.headDim) * model.gqaGroup);
        Tokens last_tokens = 0;
        const AttnJobCost *c = nullptr;
        double epu_cached = 0.0;
        for (const auto &job : jobs) {
            if (!c || job.tokens != last_tokens) {
                Tokens slice = tcpSliceTokens(job, n_ch);
                c = &attentionJobCost(bucketTokens(slice), model);
                epu_cached = static_cast<double>(
                    epu_.softmaxCycles(job.tokens) * model.gqaGroup +
                    reduce);
                last_tokens = job.tokens;
            }
            const double n = job.count;
            kernel_cycles += n * c->kernelCycles;
            epu_cycles += n * epu_cached;
            out.busyChannelCycles += n * c->busyCh;
            out.energy += c->energyCh.scaled(n);
        }
        double total_cycles = std::max(kernel_cycles, epu_cycles);
        out.seconds = total_cycles * spc;
        out.spanChannelCycles = total_cycles * n_ch;
        return out;
    }

    // HFP: whole jobs on single channels; module waits for the
    // slowest channel. One pass accumulates both the per-channel
    // makespans and the kernel-busy span the idle-background charge
    // needs (the memo makes each job one table probe).
    assignHfp(jobs, n_ch, hfpScratch_);
    double max_cycles = 0.0;
    double busy_span = 0.0;
    Tokens last_tokens = 0;
    const AttnJobCost *c = nullptr;
    double epu_cached = 0.0;
    for (const auto &channel_jobs : hfpScratch_) {
        double ch_cycles = 0.0;
        double ch_kernel_cycles = 0.0;
        for (const auto &job : channel_jobs) {
            if (!c || job.tokens != last_tokens) {
                c = &attentionJobCost(bucketTokens(job.tokens), model);
                epu_cached = static_cast<double>(
                    epu_.softmaxCycles(job.tokens) * model.gqaGroup);
                last_tokens = job.tokens;
            }
            ch_cycles += static_cast<double>(c->qkt->makespan) +
                         static_cast<double>(c->sv->makespan) +
                         epu_cached;
            ch_kernel_cycles += static_cast<double>(c->qkt->makespan +
                                                    c->sv->makespan);
            out.busyChannelCycles +=
                static_cast<double>(c->qkt->macBusyCycles +
                                    c->sv->macBusyCycles);
            out.energy += c->qktEnergy;
            out.energy += c->svEnergy;
        }
        max_cycles = std::max(max_cycles, ch_cycles);
        busy_span += ch_kernel_cycles;
    }
    out.seconds = max_cycles * spc;
    out.spanChannelCycles = max_cycles * n_ch;
    // Idle channels still burn background power for the span.
    double idle = max_cycles * n_ch - busy_span;
    if (idle > 0)
        out.energy += backgroundEnergy(static_cast<Cycle>(idle), 1,
                                       energyParams_);
    return out;
}

PhaseResult
PimModuleModel::fcLayer(std::uint32_t batch, const LlmConfig &model,
                        unsigned tp)
{
    PhaseResult out;
    if (batch == 0)
        return out;
    const double spc = config_.timing.secondsPerCycle();
    const unsigned n_ch = config_.nChannels;

    // The per-request linear-stack cost depends only on the model
    // dims and the TP shard, both fixed across a serving run: memoize
    // it so the per-cycle call is arithmetic on cached sums instead
    // of seven kernel-cache lookups (values identical bit for bit).
    if (!fcMemo_.valid || fcMemo_.dModel != model.dModel ||
        fcMemo_.dFfn != model.dFfn || fcMemo_.kvHeads != model.kvHeads() ||
        fcMemo_.headDim != model.headDim || fcMemo_.tp != tp) {
        const unsigned shard = n_ch * std::max(1u, tp);

        // The decoder layer's linear stack (Q, K, V, O, gate, up,
        // down).
        std::uint64_t kv_dim =
            static_cast<std::uint64_t>(model.kvHeads()) * model.headDim;
        struct Op { std::uint64_t dout, din; };
        const Op ops[] = {
            {model.dModel, model.dModel},          // Q
            {kv_dim, model.dModel},                // K
            {kv_dim, model.dModel},                // V
            {model.dModel, model.dModel},          // O
            {model.dFfn, model.dModel},            // gate
            {model.dFfn, model.dModel},            // up
            {model.dModel, model.dFfn},            // down
        };

        fcMemo_ = FcCost{};
        for (const auto &op : ops) {
            std::uint64_t dout_ch =
                std::max<std::uint64_t>(16, op.dout / shard);
            GemvSpec spec = GemvSpec::fromDims(dout_ch, op.din);
            const auto &r = KernelStore::process().get(
                config_.timing,
                KernelRequest::makeGemv(spec, config_.scheduler));
            fcMemo_.cyclesPerRequest += static_cast<double>(r.makespan);
            fcMemo_.busyPerRequest +=
                static_cast<double>(r.macBusyCycles);
            fcMemo_.energyPerRequest += kernelEnergy(r, energyParams_);
        }
        fcMemo_.valid = true;
        fcMemo_.dModel = model.dModel;
        fcMemo_.dFfn = model.dFfn;
        fcMemo_.kvHeads = model.kvHeads();
        fcMemo_.headDim = model.headDim;
        fcMemo_.tp = tp;
    }

    out.seconds = fcMemo_.cyclesPerRequest * batch * spc;
    out.busyChannelCycles = fcMemo_.busyPerRequest * batch * n_ch;
    out.spanChannelCycles = fcMemo_.cyclesPerRequest * batch * n_ch;
    out.energy = fcMemo_.energyPerRequest.scaled(
        static_cast<double>(batch) * n_ch);
    return out;
}

} // namespace pimphony
