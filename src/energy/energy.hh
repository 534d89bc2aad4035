/**
 * @file
 * Energy model (Fig. 16).
 *
 * Per-event energies for the PIM channel operations plus a
 * background (standby/peripheral) power term. The paper's central
 * energy observation is that low MAC utilization makes runtime-
 * proportional background energy dominate (71.5% of baseline
 * attention energy) and that PIMphony's speedups collapse it.
 */

#ifndef PIMPHONY_ENERGY_ENERGY_HH
#define PIMPHONY_ENERGY_ENERGY_HH

#include "common/types.hh"
#include "dram/timing.hh"
#include "pim/schedule_result.hh"

namespace pimphony {

struct EnergyParams
{
    /** MAC command across all banks (pJ). */
    PicoJoules macPerCommand = 350.0;

    /** WR-INP / RD-OUT transfer (pJ per command, 32 B moved). */
    PicoJoules ioPerCommand = 220.0;

    /** Row activate + precharge pair (pJ). */
    PicoJoules actPrePair = 900.0;

    /** One all-bank refresh (pJ). */
    PicoJoules refresh = 4500.0;

    /** Background power per channel (pJ per cycle = mW at 1 GHz). */
    PicoJoules backgroundPerCycle = 45.0;

    /** EPU / GPR / interconnect ("else") pJ per MAC command. */
    PicoJoules elsePerMac = 40.0;
};

/** Energy split used by the Fig. 16 bars. */
struct EnergyBreakdown
{
    PicoJoules mac = 0;
    PicoJoules io = 0;
    PicoJoules background = 0;
    PicoJoules actPre = 0;
    PicoJoules refreshE = 0;
    PicoJoules elseE = 0;

    PicoJoules
    total() const
    {
        return mac + io + background + actPre + refreshE + elseE;
    }

    EnergyBreakdown &
    operator+=(const EnergyBreakdown &o)
    {
        mac += o.mac;
        io += o.io;
        background += o.background;
        actPre += o.actPre;
        refreshE += o.refreshE;
        elseE += o.elseE;
        return *this;
    }

    bool
    operator==(const EnergyBreakdown &o) const
    {
        return mac == o.mac && io == o.io && background == o.background &&
               actPre == o.actPre && refreshE == o.refreshE &&
               elseE == o.elseE;
    }

    /** Scale all components (e.g. replicate across channels). */
    EnergyBreakdown
    scaled(double f) const
    {
        EnergyBreakdown e = *this;
        e.mac *= f;
        e.io *= f;
        e.background *= f;
        e.actPre *= f;
        e.refreshE *= f;
        e.elseE *= f;
        return e;
    }
};

/**
 * Energy of one scheduled kernel on one channel.
 */
EnergyBreakdown kernelEnergy(const ScheduleResult &result,
                             const EnergyParams &params);

/** Background-only energy for @p cycles of (idle or busy) runtime. */
EnergyBreakdown backgroundEnergy(Cycle cycles, unsigned channels,
                                 const EnergyParams &params);

} // namespace pimphony

#endif // PIMPHONY_ENERGY_ENERGY_HH
