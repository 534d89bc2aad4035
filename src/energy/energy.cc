#include "energy/energy.hh"

namespace pimphony {

EnergyBreakdown
kernelEnergy(const ScheduleResult &result, const EnergyParams &params)
{
    EnergyBreakdown e;
    e.mac = params.macPerCommand * static_cast<double>(result.macCount);
    e.io = params.ioPerCommand *
           static_cast<double>(result.wrInpCount + result.rdOutCount);
    e.actPre = params.actPrePair * static_cast<double>(result.activates);
    e.refreshE = params.refresh * static_cast<double>(result.refreshes);
    e.background = params.backgroundPerCycle *
                   static_cast<double>(result.makespan);
    e.elseE = params.elsePerMac * static_cast<double>(result.macCount);
    return e;
}

EnergyBreakdown
backgroundEnergy(Cycle cycles, unsigned channels, const EnergyParams &params)
{
    EnergyBreakdown e;
    e.background = params.backgroundPerCycle * static_cast<double>(cycles) *
                   channels;
    return e;
}

} // namespace pimphony
