#include "runner/campaign.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "avf/stratum.hh"
#include "common/random.hh"

namespace rmt
{

namespace
{

/** SplitMix64: spreads a counter into an independent 64-bit stream so
 *  per-trial fault draws do not correlate across grid points. */
std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

FaultRecord
transientRegStrike(std::uint64_t seed, std::uint64_t trial,
                   const SimOptions &options, unsigned max_reg)
{
    Random rng(mixSeed(seed, trial));
    const StratumSpec reg = buildStrata(
        {FaultRecord::Kind::TransientReg}, 1,
        options.warmup_insts + options.measure_insts)[0];
    return drawFault(reg, rng, max_reg);
}

CampaignBuilder::CampaignBuilder(std::string name, std::uint64_t seed)
    : _name(std::move(name)), _seed(seed)
{
}

CampaignBuilder &
CampaignBuilder::base(const SimOptions &options)
{
    _base = options;
    return *this;
}

CampaignBuilder &
CampaignBuilder::modes(const std::vector<SimMode> &modes)
{
    _modes = modes;
    return *this;
}

CampaignBuilder &
CampaignBuilder::mixes(const std::vector<std::vector<std::string>> &mixes)
{
    _mixes = mixes;
    return *this;
}

CampaignBuilder &
CampaignBuilder::workloads(const std::vector<std::string> &names)
{
    _mixes.clear();
    for (const auto &n : names)
        _mixes.push_back({n});
    return *this;
}

CampaignBuilder &
CampaignBuilder::sweep(const std::string &key,
                       const std::vector<std::string> &values)
{
    if (values.empty())
        throw std::invalid_argument("sweep " + key + ": no values");
    if (key == "mode")
        throw std::invalid_argument("sweep mode: modes() is that axis");
    _axes.push_back({key, values});
    return *this;
}

CampaignBuilder &
CampaignBuilder::transientRegTrials(unsigned trials, unsigned max_reg)
{
    if (trials && (max_reg < 2 || max_reg > numArchRegs))
        throw std::invalid_argument(
            "transientRegTrials: max_reg " + std::to_string(max_reg) +
            " is outside [2, " + std::to_string(numArchRegs) + "]");
    _fault_trials = trials;
    _fault_max_reg = max_reg;
    return *this;
}

Campaign
CampaignBuilder::build() const
{
    Campaign c;
    c.name = _name;
    c.seed = _seed;

    const std::vector<SimMode> modes =
        _modes.empty() ? std::vector<SimMode>{_base.mode} : _modes;
    const std::vector<std::vector<std::string>> mixes =
        _mixes.empty() ? std::vector<std::vector<std::string>>{{"gcc"}}
                       : _mixes;

    // Odometer over the sweep axes (empty axes -> one grid point).
    std::vector<std::size_t> idx(_axes.size(), 0);
    bool done = false;
    while (!done) {
        for (const SimMode mode : modes) {
            for (const auto &mix : mixes) {
                SimOptions o = _base;
                o.mode = mode;
                std::string label = modeName(mode);
                label += ":";
                for (std::size_t w = 0; w < mix.size(); ++w) {
                    if (w)
                        label += "+";
                    label += mix[w];
                }
                for (std::size_t a = 0; a < _axes.size(); ++a) {
                    applySetting(o, _axes[a].key, _axes[a].values[idx[a]]);
                    label += " " + _axes[a].key + "=" +
                             _axes[a].values[idx[a]];
                }

                const unsigned trials = std::max(1u, _fault_trials);
                for (unsigned t = 0; t < trials; ++t) {
                    JobSpec spec;
                    spec.id = c.jobs.size();
                    spec.workloads = mix;
                    spec.options = o;
                    spec.label = label;
                    spec.seed = mixSeed(_seed, spec.id);
                    if (_fault_trials) {
                        spec.label +=
                            " trial=" + std::to_string(t);
                        spec.faults.push_back(transientRegStrike(
                            _seed, spec.id, o, _fault_max_reg));
                    }
                    c.jobs.push_back(std::move(spec));
                }
            }
        }
        // Advance the odometer.
        done = true;
        for (std::size_t a = _axes.size(); a-- > 0;) {
            if (++idx[a] < _axes[a].values.size()) {
                done = false;
                break;
            }
            idx[a] = 0;
        }
    }
    return c;
}

} // namespace rmt
