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
 * that actually hosts the faulted thread — not pair 0 — (for a stuck-at
 * unit, which strikes every pair with a copy on its core, the pair that
 * detected it first) and to the first detection at or after the fault's
 * activation cycle.
 */

#ifndef RMTSIM_RMT_FAULT_ORACLE_HH
#define RMTSIM_RMT_FAULT_ORACLE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/snapshot.hh"
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
     * The oracle of one fault-free run of @p workloads under @p options
     * to the end: the reference every faulted trial's memory (logical
     * thread @p logical) is compared against, kept sparse straight from
     * the finished run, and the run's final RunResult (referenceRun()).
     * When @p snapshots is set, the same run also appends a snapshot at
     * every barrier to it (in cycle order), so one reference run per
     * point is both the golden and the snapshot producer trials fork
     * from, and the run a trial that rejoins it at a barrier ends as.
     */
    static FaultOracle
    reference(const std::vector<std::string> &workloads,
              const SimOptions &options, unsigned logical = 0,
              SnapshotSet *snapshots = nullptr);

    /** The whole final memory image of logical thread @p logical after
     *  the same fault-free run reference() makes, zero pages included. */
    static std::vector<std::uint8_t>
    goldenImage(const std::vector<std::string> &workloads,
                const SimOptions &options, unsigned logical = 0);

    /** Keeps only the nonzero pages of @p golden (the snapshot rule),
     *  so an oracle costs what its workload touched, not the image. */
    explicit FaultOracle(const std::vector<std::uint8_t> &golden,
                         unsigned logical = 0);

    /** The reference run's final RunResult; null for an oracle built
     *  from a golden image. */
    const std::shared_ptr<const RunResult> &referenceRun() const
    {
        return finalRun;
    }

    /** The reference run's machine, as fault validation sees it
     *  (cores == 0 for an oracle built from a golden image). */
    const FaultMachineShape &machine() const { return shape; }

    /** Per hardware context of machine(), at core * threads + tid: the
     *  registers its program can read (Program::readMask), 0 for a
     *  context with no thread.  Empty for an oracle built from a
     *  golden image. */
    const std::vector<std::uint64_t> &readMasks() const { return reads; }

    /**
     * Classify a finished trial.  Call while the trial's Simulation is
     * still alive (the oracle reads its memory image and the faulted
     * pair's detection log).  A trial that rejoined its reference run
     * -- its run stopped at a barrier (Simulation::stoppedAtBarrier),
     * or it was finished from that run without a machine (@p sim
     * null) -- has that run's @p result, which completed clean, so it
     * is masked and no mid-run memory is read.
     */
    FaultTrialReport classify(Simulation *sim, const RunResult &result,
                              const FaultRecord &fault) const;

    /** classify() of a trial that ran on @p sim. */
    FaultTrialReport
    classify(Simulation &sim, const RunResult &result,
             const FaultRecord &fault) const
    {
        return classify(&sim, result, fault);
    }

  private:
    FaultOracle(std::size_t size, unsigned logical)
        : goldenSize(size), logical(logical)
    {
    }

    /** Keep page @p page of the golden when any of its bytes is set. */
    void keepPage(std::size_t page, std::span<const std::uint8_t> bytes);

    /**
     * True when @p mem differs from the golden image anywhere: a kept
     * page differs, or any other touched page of @p mem is nonzero.
     * Untouched pages are zero on both sides, so they are never read.
     */
    bool differs(const DataMemory &mem) const;

    std::size_t goldenSize = 0;
    std::vector<std::uint32_t> goldenPages;    ///< ascending page indices
    std::vector<std::uint8_t> goldenBytes;     ///< those pages, in order
    unsigned logical;
    std::shared_ptr<const RunResult> finalRun; ///< reference() only
    FaultMachineShape shape;                   ///< reference() only
    std::vector<std::uint64_t> reads;          ///< reference() only
};

} // namespace rmt

#endif // RMTSIM_RMT_FAULT_ORACLE_HH
