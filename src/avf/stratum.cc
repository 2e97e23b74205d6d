#include "avf/stratum.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace rmt
{

std::string
StratumSpec::name() const
{
    std::ostringstream os;
    os << faultKindName(kind) << ":w" << window;
    return os.str();
}

std::vector<FaultRecord::Kind>
parseFaultKinds(const std::string &csv)
{
    std::vector<FaultRecord::Kind> kinds;
    std::stringstream ss(csv);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (!tok.empty())
            kinds.push_back(parseFaultKind(tok));
    }
    return kinds;
}

std::vector<FaultRecord::Kind>
defaultStratifyKinds(bool has_pairs)
{
    std::vector<FaultRecord::Kind> kinds = {
        FaultRecord::Kind::TransientReg,
        FaultRecord::Kind::TransientSqData,
        FaultRecord::Kind::TransientSqAddr,
        FaultRecord::Kind::TransientPc,
        FaultRecord::Kind::TransientDecode,
        FaultRecord::Kind::TransientMergeBuffer,
    };
    if (has_pairs) {
        kinds.push_back(FaultRecord::Kind::TransientLvq);
        kinds.push_back(FaultRecord::Kind::TransientLpq);
        kinds.push_back(FaultRecord::Kind::TransientBoq);
    }
    return kinds;
}

std::vector<StratumSpec>
buildStrata(const std::vector<FaultRecord::Kind> &kinds,
            unsigned windows, std::uint64_t insts)
{
    if (kinds.empty())
        throw std::invalid_argument("buildStrata: no fault kinds");
    windows = std::max(1u, windows);

    // The campaign strike range: inside the run, clear of the cold
    // start and of the post-measure drain (see CampaignBuilder).
    const Cycle lo = insts / 12;
    const Cycle span = std::max<std::uint64_t>(windows, (insts * 2) / 3);

    std::vector<StratumSpec> strata;
    strata.reserve(kinds.size() * windows);
    for (const FaultRecord::Kind kind : kinds) {
        for (unsigned w = 0; w < windows; ++w) {
            StratumSpec s;
            s.kind = kind;
            s.window = w;
            s.lo = lo + span * w / windows;
            s.hi = lo + span * (w + 1) / windows;
            s.weight = 1;
            strata.push_back(s);
        }
    }
    return strata;
}

FaultRecord
drawFault(const StratumSpec &stratum, Random &rng, unsigned max_reg)
{
    FaultRecord f;
    f.kind = stratum.kind;
    f.core = 0;
    f.when = stratum.lo +
             rng.range(std::max<Cycle>(1, stratum.hi - stratum.lo));

    switch (stratum.kind) {
      case FaultRecord::Kind::TransientReg:
        f.tid = static_cast<ThreadId>(rng.range(2));
        f.reg = static_cast<RegIndex>(
            1 + rng.range(std::max(1u, max_reg - 1)));
        f.bit = static_cast<unsigned>(rng.range(64));
        break;
      case FaultRecord::Kind::TransientLvq:
        f.tid = static_cast<ThreadId>(rng.range(2));
        f.pairLogical = 0;
        break;
      case FaultRecord::Kind::PermanentFu:
        // Strike an integer ALU; the stuck-at bit is the draw.
        f.fuIndex = static_cast<unsigned>(rng.range(8));
        f.mask = std::uint64_t{1} << rng.range(64);
        break;
      default:
        // All remaining transient kinds share tid + bit support.
        f.tid = static_cast<ThreadId>(rng.range(2));
        f.bit = static_cast<unsigned>(rng.range(64));
        break;
    }
    return f;
}

} // namespace rmt
