#include "obs/host_profile.hh"

#include "common/json.hh"

namespace rmt
{

std::string
HostTiming::json() const
{
    std::string s;
    s.reserve(128);
    s += "{\"build_ms\":";
    s += jsonNum(build_seconds * 1e3);
    s += ",\"warmup_ms\":";
    s += jsonNum(warmup_seconds * 1e3);
    s += ",\"measure_ms\":";
    s += jsonNum(measure_seconds * 1e3);
    s += ",\"kips\":";
    s += jsonNum(sim_kips);
    s += ",\"restore_ms\":";
    s += jsonNum(restore_seconds * 1e3);
    s += ",\"oracle_ms\":";
    s += jsonNum(oracle_seconds * 1e3);
    s += "}";
    return s;
}

} // namespace rmt
