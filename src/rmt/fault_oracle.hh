/**
 * @file
 * Outcome classification for fault-injection trials.
 *
 * Every trial ends in exactly one verdict of the standard taxonomy
 * (Khoshavi et al.): Masked (the strike never reached an output),
 * Detected (the sphere's comparators flagged it), Sdc (silent data
 * corruption: the final memory image differs from a golden fault-free
 * run with nothing detected), or Hang (the run never finished and
 * nothing was detected).  Detection latency is attributed to the pair
 * that actually hosts the faulted thread — not pair 0 — and to the
 * first detection at or after the fault's activation cycle.
 */

#ifndef RMTSIM_RMT_FAULT_ORACLE_HH
#define RMTSIM_RMT_FAULT_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "rmt/fault_injector.hh"
#include "sim/simulator.hh"

namespace rmt
{

enum class FaultVerdict : std::uint8_t
{
    Masked,
    Detected,
    Sdc,
    Hang,
};

/** Printable name of a verdict ("masked", "detected", "sdc", "hang"). */
const char *verdictName(FaultVerdict verdict);

/** Everything the oracle can say about one finished trial. */
struct FaultTrialReport
{
    FaultVerdict verdict = FaultVerdict::Masked;
    bool memory_corrupted = false;
    std::uint64_t detections = 0;       ///< on the faulted pair
    bool latency_valid = false;
    Cycle detection_latency = 0;        ///< activation -> first detection
    int faulted_pair = -1;              ///< -1 when no pair applies
};

class FaultOracle
{
  public:
    /**
     * Final memory image of logical thread @p logical after a
     * fault-free run of @p workloads under @p options — the reference
     * every faulted trial's memory is compared against.
     */
    static std::vector<std::uint8_t>
    goldenImage(const std::vector<std::string> &workloads,
                const SimOptions &options, unsigned logical = 0);

    /** Keeps only the nonzero pages of @p golden (the snapshot rule),
     *  so an oracle costs what its workload touched, not the image. */
    explicit FaultOracle(std::vector<std::uint8_t> golden,
                         unsigned logical = 0);

    /**
     * Classify a finished trial.  Call while the trial's Simulation is
     * still alive (the oracle reads its memory image and the faulted
     * pair's detection log).
     */
    FaultTrialReport classify(Simulation &sim, const RunResult &result,
                              const FaultRecord &fault) const;

  private:
    /** True when @p mem differs from the golden image anywhere. */
    bool differs(const DataMemory &mem) const;

    std::size_t goldenSize = 0;
    std::vector<std::uint32_t> goldenPages;    ///< ascending page indices
    std::vector<std::uint8_t> goldenBytes;     ///< those pages, in order
    unsigned logical;
};

} // namespace rmt

#endif // RMTSIM_RMT_FAULT_ORACLE_HH
