/**
 * @file
 * Campaign description and cartesian-sweep builders.
 *
 * A Campaign is a flat, ordered list of JobSpecs.  CampaignBuilder
 * expands the cross product
 *
 *     modes x workload mixes x sweep axes x fault trials
 *
 * into that list, assigning dense job ids in grid order so results can
 * be reassembled deterministically regardless of which worker finishes
 * first.  Sweep axes are settings (applySetting: "slack=0,32,64") so
 * the batch CLI can drive the same code path as C++ callers.
 */

#ifndef RMTSIM_RUNNER_CAMPAIGN_HH
#define RMTSIM_RUNNER_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "sim/simulator.hh"

namespace rmt
{

struct Campaign
{
    std::string name = "campaign";
    std::uint64_t seed = 1;
    std::vector<JobSpec> jobs;
};

/**
 * The seeded transient register strike of fault trial @p trial of a
 * campaign seeded @p seed: drawFault on the one-window register
 * stratum over the budget of @p options (buildStrata), so a cycle
 * inside the run, a victim copy, a register in [1, @p max_reg) and a
 * bit.  The draw of CampaignBuilder::transientRegTrials and of the
 * faults_reg figure.
 */
FaultRecord transientRegStrike(std::uint64_t seed, std::uint64_t trial,
                               const SimOptions &options, unsigned max_reg);

/** One sweep axis: a key and the values it takes. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

class CampaignBuilder
{
  public:
    explicit CampaignBuilder(std::string name = "campaign",
                             std::uint64_t seed = 1);

    /** Options shared by every job (budgets, machine parameters). */
    CampaignBuilder &base(const SimOptions &options);

    /** Modes to evaluate (default: just the base() mode). */
    CampaignBuilder &modes(const std::vector<SimMode> &modes);

    /** Workload mixes; each inner vector is one logical-thread set. */
    CampaignBuilder &mixes(
        const std::vector<std::vector<std::string>> &mixes);

    /** Convenience: one single-workload mix per name. */
    CampaignBuilder &workloads(const std::vector<std::string> &names);

    /** Add one cartesian sweep axis (may be called repeatedly) over a
     *  setting other than mode; build() applies it with applySetting. */
    CampaignBuilder &sweep(const std::string &key,
                           const std::vector<std::string> &values);

    /**
     * Per grid point, add @p trials jobs with one deterministic
     * transient register strike each (random cycle / victim copy /
     * register / bit: transientRegStrike of the campaign seed and the
     * job id).  @p max_reg bounds the victim register index; with
     * trials, it must lie in [2, numArchRegs] (std::invalid_argument).
     */
    CampaignBuilder &transientRegTrials(unsigned trials,
                                        unsigned max_reg);

    /** Expand the cross product into a Campaign. */
    Campaign build() const;

  private:
    std::string _name;
    std::uint64_t _seed;
    SimOptions _base;
    std::vector<SimMode> _modes;
    std::vector<std::vector<std::string>> _mixes;
    std::vector<SweepAxis> _axes;
    unsigned _fault_trials = 0;
    unsigned _fault_max_reg = 0;
};

} // namespace rmt

#endif // RMTSIM_RUNNER_CAMPAIGN_HH
