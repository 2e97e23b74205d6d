/**
 * @file
 * Campaign execution: fan JobSpecs out over the thread pool, guard
 * each job (validation, retry-once on exception, wall-clock timeout,
 * instruction cap), and deliver JobResults to a ResultSink as they
 * complete plus as an id-ordered vector at the end.
 *
 * Every job builds its own Simulation, so jobs are independent and the
 * per-job results are bit-identical whatever the worker count or
 * completion order (tests/test_runner.cc asserts this).  The only
 * shared mutable state is the optional BaselineCache, which is
 * internally synchronised with single-flight semantics.
 */

#ifndef RMTSIM_RUNNER_RUNNER_HH
#define RMTSIM_RUNNER_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "runner/campaign.hh"
#include "runner/job.hh"
#include "runner/result_sink.hh"
#include "runner/snapshot_cache.hh"
#include "sim/metrics.hh"

namespace rmt
{

struct RunnerConfig
{
    unsigned jobs = 1;              ///< worker threads (0 = all cores)
    unsigned max_attempts = 2;      ///< 2 = retry once, then record
    double timeout_seconds = 0;     ///< 0 = no wall-clock guard
    std::uint64_t max_insts = 0;    ///< clamp warmup+measure (0 = off)

    /** When set, mean_efficiency / efficiencies are filled from this
     *  cache (single-thread baselines simulated once per workload). */
    BaselineCache *baseline = nullptr;

    /** When set (and a job's options place snapshot barriers), fault
     *  trials fork from the latest cached snapshot strictly before the
     *  first fault's activation cycle instead of running the common
     *  prefix from scratch.  The per-job "extra" metrics record the
     *  hit and the cycles saved. */
    SnapshotCache *snapshots = nullptr;

    /** When set, receives each JobResult as it completes. */
    ResultSink *sink = nullptr;

    /** Cooperative cancellation (the SIGTERM/SIGINT drain): checked
     *  between jobs/trials, never mid-simulation.  Once it reads true,
     *  no new job starts; in-flight jobs finish and are recorded, so
     *  the journal stays a clean prefix of the campaign. */
    const std::atomic<bool> *stop = nullptr;
};

/**
 * Reject a spec the Simulation constructor would abort the process on
 * (unknown workload, too many logical threads for the mode, option
 * conflicts).  Throws std::invalid_argument; used by executeJob so a
 * bad grid point becomes a recorded failure instead of killing a
 * thousand-run campaign.
 */
void validateJobSpec(const JobSpec &spec);

/** Run one job inline (validation, guards, post_run, efficiency). */
JobResult executeJob(const JobSpec &spec, const RunnerConfig &config);

/** Apply the runner-level instruction cap to a copy of the options. */
SimOptions cappedOptions(const JobSpec &spec, const RunnerConfig &config);

/** Snapshot bookkeeping a fault trial records in its "extra" block. */
struct SnapshotForkInfo
{
    bool enabled = false;   ///< trial was eligible to fork (record extras)
    bool hit = false;       ///< a snapshot was actually restored
    bool scratch_fallback = false;  ///< restore rejected; rebuilt fresh
    Cycle cycle = 0;        ///< barrier cycle of the restored snapshot
    double bytes = 0;       ///< serialized image size
};

/**
 * Finish a successful run exactly the way executeJob does: set status,
 * store the RunResult, fill efficiencies from config.baseline, append
 * the snapshot "extra" metrics, then invoke spec.post_run while @p sim
 * is still alive.  A caller that builds and runs the Simulation itself
 * records through this, so its records cannot drift from executeJob's.
 */
void finalizeJobResult(const JobSpec &spec, const RunnerConfig &config,
                       Simulation &sim, const RunResult &run,
                       const SnapshotForkInfo &snap, JobResult &result);

/**
 * Chain a FaultOracle classification onto @p spec's post_run hook: the
 * JobResult gains has_verdict/verdict/detection_latency, attributed to
 * the spec's first scheduled fault.  Call *after* spec.faults is
 * populated; @p oracle must outlive the campaign.  Any previously
 * installed post_run hook still runs (first).
 */
void attachFaultOracle(JobSpec &spec, const FaultOracle *oracle);

/** Run all jobs; returns results indexed by job id. */
std::vector<JobResult> runCampaign(const Campaign &campaign,
                                   const RunnerConfig &config);

/**
 * Run an explicit job list (e.g. the not-yet-done remainder of a
 * resumed campaign) over the thread pool, recording each result to
 * config.sink as it completes.  Unlike runCampaign, the sink's
 * begin()/end() are NOT called — the caller owns the sink lifecycle —
 * and results come back by position in @p jobs, not by job id.
 * Jobs skipped by config.stop keep JobStatus::Failed defaults and are
 * never fed to the sink.
 */
std::vector<JobResult> runCampaignJobs(const std::vector<JobSpec> &jobs,
                                       const RunnerConfig &config);

} // namespace rmt

#endif // RMTSIM_RUNNER_RUNNER_HH
