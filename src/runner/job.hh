/**
 * @file
 * Unit of work for the campaign runner: one fully-specified simulation
 * (workload mix + options + optional scheduled faults) and its outcome.
 *
 * A JobSpec is self-contained and immutable once a campaign is built,
 * so jobs can execute on any worker thread in any order and still
 * produce identical results (each job constructs its own Simulation;
 * nothing is shared between jobs except the read-only spec).
 */

#ifndef RMTSIM_RUNNER_JOB_HH
#define RMTSIM_RUNNER_JOB_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "rmt/fault_injector.hh"
#include "rmt/fault_oracle.hh"
#include "sim/simulator.hh"

namespace rmt
{

struct JobResult;

struct JobSpec
{
    std::uint64_t id = 0;           ///< dense index within the campaign
    std::string label;              ///< human-readable configuration tag
    std::vector<std::string> workloads;
    SimOptions options;

    /** Faults scheduled on the injector before the run (fault
     *  campaigns).  Generated deterministically at campaign-build time
     *  from @ref seed, never from run-time state, so a grid point's
     *  faults do not depend on worker scheduling. */
    std::vector<FaultRecord> faults;

    /** Deterministic per-job seed (recorded in results; used by the
     *  sweep builders to derive fault parameters). */
    std::uint64_t seed = 0;

    /**
     * Optional per-job evaluation hook, called on the worker thread
     * after a successful run while the Simulation is still alive.
     * Fault-coverage campaigns use it to compare the final memory
     * image against a golden image and to read detection latencies.
     * Results go into JobResult::extra so sinks can serialise them.
     */
    std::function<void(Simulation &, const RunResult &, JobResult &)>
        post_run;
};

enum class JobStatus : std::uint8_t
{
    Ok,
    Failed,     ///< exception (after retry) or timeout
};

struct JobResult
{
    std::uint64_t id = 0;
    std::string label;
    JobStatus status = JobStatus::Failed;
    std::string error;              ///< empty unless Failed
    unsigned attempts = 0;
    bool timed_out = false;
    /** Failed every crash-retry attempt and was set aside so the
     *  campaign could finish.  No in-process executor sets it; it stays
     *  in the record formats (wire codec v2, journal, the JSONL row and
     *  the rmtsim-failures-v1 digest) so existing files still read. */
    bool quarantined = false;
    double wall_seconds = 0;

    RunResult run;                  ///< valid when status == Ok

    /** Mean SMT-efficiency vs the campaign baseline cache; negative
     *  when no baseline was requested. */
    double mean_efficiency = -1;
    std::vector<double> efficiencies;   ///< per logical thread

    /** Extra named metrics from JobSpec::post_run (kept ordered so
     *  serialised output is deterministic). */
    std::vector<std::pair<std::string, double>> extra;

    /** Fault-oracle classification (attachFaultOracle campaigns). */
    bool has_verdict = false;
    FaultVerdict verdict = FaultVerdict::Masked;
    double detection_latency = -1;  ///< cycles; negative = no detection

    bool ok() const { return status == JobStatus::Ok; }
};

} // namespace rmt

#endif // RMTSIM_RUNNER_JOB_HH
