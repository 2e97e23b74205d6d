/**
 * @file
 * Stratification of the fault space for statistical campaigns.
 *
 * The sphere-of-replication fault space is partitioned into strata
 * along two axes: the fault kind (which hardware structure is struck —
 * register file, store queue, fetch PC, ...) and the cycle window the
 * strike lands in.  Kinds differ in vulnerability by orders of
 * magnitude (a register strike is far more often masked than a PC
 * strike), so sampling them separately and rolling up with fixed
 * nominal weights gives far tighter whole-sphere intervals than
 * uniform sampling at the same trial budget — and lets the sampler
 * stop early on strata that resolve quickly.
 *
 * The strike window mirrors the campaign idiom: strikes land in
 * [insts/12, insts/12 + 2*insts/3), i.e. inside the run with margin
 * for warmup and drain; `windows` splits that range into equal
 * sub-windows so early/mid/late vulnerability can be told apart.
 */

#ifndef RMTSIM_AVF_STRATUM_HH
#define RMTSIM_AVF_STRATUM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "rmt/fault_injector.hh"

namespace rmt
{

/** One stratum: a fault kind crossed with one strike cycle-window. */
struct StratumSpec
{
    FaultRecord::Kind kind = FaultRecord::Kind::TransientReg;
    unsigned window = 0;        ///< window index within the kind
    Cycle lo = 0;               ///< strike cycles drawn from [lo, hi)
    Cycle hi = 1;
    double weight = 1;          ///< nominal roll-up weight (pre-norm)

    /** Stable name used in labels and reports, e.g. "reg:w0". */
    std::string name() const;
};

/** Parse a comma-separated kind list; empty -> empty vector. */
std::vector<FaultRecord::Kind>
parseFaultKinds(const std::string &csv);

/**
 * Kinds a stratified campaign samples by default.  Pair-resident kinds
 * (lvq/lpq/boq) only exist when the machine has redundant pairs;
 * permanent FU faults are a different experiment (space redundancy)
 * and are never included by default.
 */
std::vector<FaultRecord::Kind> defaultStratifyKinds(bool has_pairs);

/**
 * Cross @p kinds with @p windows equal strike windows over a run of
 * @p insts total (warmup + measure) instructions.  Every stratum gets
 * equal nominal weight: the campaign estimates the mean AVF over an
 * equal-rate mixture of the sampled kinds (raw bit-count weighting
 * would need per-structure bit inventories the model does not carry).
 */
std::vector<StratumSpec> buildStrata(
    const std::vector<FaultRecord::Kind> &kinds, unsigned windows,
    std::uint64_t insts);

/**
 * Draw one fault uniformly from @p stratum: the strike cycle from
 * [lo, hi), the victim thread/register/bit from the kind's support.
 * @p max_reg bounds the victim register index (TransientReg), matching
 * CampaignBuilder::transientRegTrials.
 */
FaultRecord drawFault(const StratumSpec &stratum, Random &rng,
                      unsigned max_reg);

} // namespace rmt

#endif // RMTSIM_AVF_STRATUM_HH
