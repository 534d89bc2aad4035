#include "dram/timing.hh"

namespace pimphony {

AimTimingParams
AimTimingParams::aimx()
{
    return AimTimingParams{};
}

AimTimingParams
AimTimingParams::aimxWithObuf(unsigned obuf_entries)
{
    AimTimingParams p;
    p.outputEntries = obuf_entries;
    return p;
}

AimTimingParams
AimTimingParams::illustrative()
{
    AimTimingParams p;
    p.tCcds = 2;
    p.tWrInp = 4;
    p.tMac = 3;
    p.tRdOut = 4;
    p.tRcdRd = 0;
    p.tRp = 0;
    p.tRefi = 0; // disable refresh for the worked example
    p.tRfc = 0;
    p.outputEntries = 4;
    return p;
}

bool
AimTimingParams::operator==(const AimTimingParams &o) const
{
    return clockGhz == o.clockGhz && tCcds == o.tCcds &&
           tWrInp == o.tWrInp && tMac == o.tMac && tRdOut == o.tRdOut &&
           tRcdRd == o.tRcdRd && tRp == o.tRp && tRefi == o.tRefi &&
           tRfc == o.tRfc && banksPerChannel == o.banksPerChannel &&
           gbufEntries == o.gbufEntries &&
           outputEntries == o.outputEntries && tileBytes == o.tileBytes &&
           rowBytesPerBank == o.rowBytesPerBank;
}

} // namespace pimphony
