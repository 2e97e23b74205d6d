#include "avf/sampler.hh"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.hh"

namespace rmt
{

namespace
{

/** SplitMix64 counter mix, same idiom as the campaign builders: one
 *  independent stream per (cell, stratum, trial) triple. */
std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

StratifiedSampler::StratifiedSampler(std::vector<Cell> cells,
                                     const SamplerConfig &config,
                                     std::uint64_t seed)
    : _cells(std::move(cells)), _cfg(config), _seed(seed)
{
    if (_cells.empty())
        throw std::invalid_argument("StratifiedSampler: no cells");
    if (_cfg.max_reg < 2 || _cfg.max_reg > numArchRegs)
        throw std::invalid_argument(
            "StratifiedSampler: max_reg " + std::to_string(_cfg.max_reg) +
            " is outside [2, " + std::to_string(numArchRegs) + "]");
    if (_cfg.batch == 0)
        _cfg.batch = 1;
    if (_cfg.max_trials == 0)
        _cfg.max_trials = 1;

    std::vector<FaultRecord::Kind> kinds =
        _cfg.kinds.empty() ? defaultStratifyKinds(_cfg.has_pairs)
                           : _cfg.kinds;
    // Strike windows come from the first cell's budget; cells in one
    // campaign share warmup/measure budgets (sweeps vary structure
    // sizes, not run length), which keeps strata comparable across
    // cells and modes.
    const SimOptions &o = _cells.front().options;
    _strata = buildStrata(kinds, _cfg.windows,
                          o.warmup_insts + o.measure_insts);

    _counts.assign(_cells.size() * _strata.size(), StratumCounts{});
    _issued.assign(_cells.size() * _strata.size(), 0);
}

bool
StratifiedSampler::stratumActive(std::size_t cell,
                                 std::size_t stratum) const
{
    const std::size_t i = index(cell, stratum);
    if (_issued[i] >= _cfg.max_trials)
        return false;
    if (_cfg.ci_width > 0 &&
        _counts[i].resolved(_cfg.ci_width, _cfg.confidence)) {
        return false;
    }
    return true;
}

bool
StratifiedSampler::done() const
{
    for (std::size_t c = 0; c < _cells.size(); ++c)
        for (std::size_t s = 0; s < _strata.size(); ++s)
            if (stratumActive(c, s))
                return false;
    return true;
}

std::vector<JobSpec>
StratifiedSampler::nextRound()
{
    std::vector<JobSpec> jobs;
    for (std::size_t c = 0; c < _cells.size(); ++c) {
        const Cell &cell = _cells[c];
        for (std::size_t s = 0; s < _strata.size(); ++s) {
            if (!stratumActive(c, s))
                continue;
            const std::size_t i = index(c, s);
            const std::uint64_t want =
                std::min<std::uint64_t>(_cfg.batch,
                                        _cfg.max_trials - _issued[i]);
            for (std::uint64_t t = 0; t < want; ++t) {
                const std::uint64_t trial = _issued[i] + t;
                JobSpec spec;
                spec.id = _next_id + jobs.size();
                spec.workloads = cell.workloads;
                spec.options = cell.options;
                // Seed depends only on (cell, stratum, trial index):
                // batching and round boundaries cannot change the
                // drawn faults.
                spec.seed = mixSeed(
                    _seed, mixSeed(i + 1, trial) ^ (i * 0x10001ull));
                Random rng(spec.seed);
                spec.faults.push_back(
                    drawFault(_strata[s], rng, _cfg.max_reg));
                spec.label = cell.label + " stratum=" +
                             _strata[s].name() +
                             " trial=" + std::to_string(trial);
                _origin.push_back({static_cast<std::uint32_t>(c),
                                   static_cast<std::uint32_t>(s)});
                jobs.push_back(std::move(spec));
            }
            _issued[i] += want;
        }
    }
    _next_id += jobs.size();
    if (!jobs.empty())
        ++_rounds;
    return jobs;
}

void
StratifiedSampler::record(const JobSpec &spec, const JobResult &result)
{
    if (spec.id >= _origin.size())
        throw std::invalid_argument(
            "StratifiedSampler::record: unknown job id");
    const auto [c, s] = _origin[spec.id];
    StratumCounts &counts = _counts[index(c, s)];
    if (!result.ok() || !result.has_verdict) {
        ++counts.failed;
        return;
    }
    ++counts.trials;
    switch (result.verdict) {
      case FaultVerdict::Masked:   ++counts.masked;   break;
      case FaultVerdict::Detected: ++counts.detected; break;
      case FaultVerdict::Sdc:      ++counts.sdc;      break;
      case FaultVerdict::Hang:     ++counts.hang;     break;
    }
}

const StratumCounts &
StratifiedSampler::counts(std::size_t cell, std::size_t stratum) const
{
    return _counts[index(cell, stratum)];
}

RollupEstimate
StratifiedSampler::cellRollup(std::size_t cell) const
{
    std::vector<StratumCounts> counts;
    std::vector<double> weights;
    counts.reserve(_strata.size());
    weights.reserve(_strata.size());
    for (std::size_t s = 0; s < _strata.size(); ++s) {
        counts.push_back(_counts[index(cell, s)]);
        weights.push_back(_strata[s].weight);
    }
    return rollupEstimate(counts, weights, _cfg.confidence);
}

bool
StratifiedSampler::resolvedEarly(std::size_t cell,
                                 std::size_t stratum) const
{
    const std::size_t i = index(cell, stratum);
    return _cfg.ci_width > 0 &&
           _counts[i].resolved(_cfg.ci_width, _cfg.confidence) &&
           _issued[i] < _cfg.max_trials;
}

std::string
StratifiedSampler::summaryJson() const
{
    std::ostringstream os;
    os << "{\"avf_summary\":{\"confidence\":" << jsonNum(_cfg.confidence)
       << ",\"ci_width\":" << jsonNum(_cfg.ci_width)
       << ",\"windows\":" << _cfg.windows
       << ",\"rounds\":" << _rounds
       << ",\"cells\":[";
    for (std::size_t c = 0; c < _cells.size(); ++c) {
        if (c)
            os << ",";
        os << "{\"label\":\"" << jsonEscape(_cells[c].label) << "\""
           << ",\"strata\":[";
        for (std::size_t s = 0; s < _strata.size(); ++s) {
            const StratumSpec &spec = _strata[s];
            const StratumCounts &n = _counts[index(c, s)];
            const Interval avf = n.avfInterval(_cfg.confidence);
            const Interval sdc = n.sdcInterval(_cfg.confidence);
            if (s)
                os << ",";
            os << "{\"stratum\":\"" << spec.name() << "\""
               << ",\"kind\":\"" << faultKindName(spec.kind) << "\""
               << ",\"window\":[" << spec.lo << "," << spec.hi << "]"
               << ",\"trials\":" << n.trials
               << ",\"failed\":" << n.failed
               << ",\"masked\":" << n.masked
               << ",\"detected\":" << n.detected
               << ",\"sdc\":" << n.sdc
               << ",\"hang\":" << n.hang
               << ",\"avf\":" << jsonNum(n.avf())
               << ",\"avf_ci\":[" << jsonNum(avf.low) << ","
               << jsonNum(avf.high) << "]"
               << ",\"sdc_rate\":" << jsonNum(n.sdcRate())
               << ",\"sdc_ci\":[" << jsonNum(sdc.low) << ","
               << jsonNum(sdc.high) << "]"
               << ",\"resolved_early\":"
               << (resolvedEarly(c, s) ? "true" : "false") << "}";
        }
        const RollupEstimate roll = cellRollup(c);
        os << "],\"rollup\":{\"avf\":" << jsonNum(roll.avf)
           << ",\"avf_ci\":[" << jsonNum(roll.avf_ci.low) << ","
           << jsonNum(roll.avf_ci.high) << "]"
           << ",\"sdc_rate\":" << jsonNum(roll.sdc_rate)
           << ",\"sdc_ci\":[" << jsonNum(roll.sdc_ci.low) << ","
           << jsonNum(roll.sdc_ci.high) << "]"
           << ",\"trials\":" << roll.trials
           << ",\"strata\":" << roll.strata << "}}";
    }
    os << "]}}";
    return os.str();
}

} // namespace rmt
