/**
 * @file
 * Sequential stratified fault sampling.
 *
 * A StratifiedSampler turns a set of campaign cells (mode x workload
 * mix x sweep point) and a stratification (kind x cycle-window, see
 * stratum.hh) into rounds of JobSpecs.  After every round the caller
 * feeds the classified results back; the sampler tallies per-stratum
 * verdict counts and stops sampling a stratum once its Wilson interval
 * is tighter than the requested ci-width (sequential early
 * termination) or its trial budget is spent.  Trial parameters are
 * derived deterministically from (cell, stratum, trial index), so the
 * drawn faults do not depend on batch size, round boundaries, or which
 * executor ran the previous round.
 */

#ifndef RMTSIM_AVF_SAMPLER_HH
#define RMTSIM_AVF_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "avf/estimator.hh"
#include "avf/stratum.hh"
#include "runner/job.hh"

namespace rmt
{

struct SamplerConfig
{
    /** Kinds to stratify over; empty -> defaultStratifyKinds(). */
    std::vector<FaultRecord::Kind> kinds;
    unsigned windows = 2;           ///< strike windows per kind
    unsigned batch = 16;            ///< trials per stratum per round
    std::uint64_t max_trials = 256; ///< budget per (cell, stratum)
    double ci_width = 0;            ///< 0 = fixed budget, no early stop
    double confidence = 0.95;
    unsigned max_reg = 32;          ///< TransientReg victim bound,
                                    ///< in [2, numArchRegs]
    bool has_pairs = true;          ///< machine has redundant pairs
};

class StratifiedSampler
{
  public:
    /** One grid point faults are sampled within. */
    struct Cell
    {
        std::string label;
        std::vector<std::string> workloads;
        SimOptions options;
    };

    StratifiedSampler(std::vector<Cell> cells,
                      const SamplerConfig &config, std::uint64_t seed);

    const std::vector<StratumSpec> &strata() const { return _strata; }

    /** All strata resolved or out of budget? */
    bool done() const;

    /**
     * JobSpecs for the next sampling round: `batch` fresh trials for
     * every stratum still being sampled, with globally increasing
     * dense job ids.  Empty once done().
     */
    std::vector<JobSpec> nextRound();

    /** Feed one completed trial back (matched by spec id). */
    void record(const JobSpec &spec, const JobResult &result);

    const StratumCounts &counts(std::size_t cell,
                                std::size_t stratum) const;

    /** Whole-sphere roll-up over one cell's strata. */
    RollupEstimate cellRollup(std::size_t cell) const;

    /** Did this stratum stop because its interval got tight (rather
     *  than by exhausting the trial budget)? */
    bool resolvedEarly(std::size_t cell, std::size_t stratum) const;

    std::uint64_t issuedTrials() const { return _next_id; }
    unsigned rounds() const { return _rounds; }

    /**
     * One-line JSON summary ({"avf_summary": ...}) with per-cell,
     * per-stratum counts, point estimates, Wilson intervals and the
     * weighted roll-up — appended to the campaign JSONL after the
     * per-trial records.
     */
    std::string summaryJson() const;

  private:
    std::size_t index(std::size_t cell, std::size_t stratum) const
    {
        return cell * _strata.size() + stratum;
    }
    bool stratumActive(std::size_t cell, std::size_t stratum) const;

    std::vector<Cell> _cells;
    SamplerConfig _cfg;
    std::uint64_t _seed;
    std::vector<StratumSpec> _strata;
    std::vector<StratumCounts> _counts;     // cell-major
    std::vector<std::uint64_t> _issued;     // trials issued, cell-major
    std::vector<std::pair<std::uint32_t, std::uint32_t>> _origin;
                                            // job id -> (cell, stratum)
    std::uint64_t _next_id = 0;
    unsigned _rounds = 0;
};

} // namespace rmt

#endif // RMTSIM_AVF_SAMPLER_HH
