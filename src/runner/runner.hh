/**
 * @file
 * Campaign execution: fan JobSpecs out over the thread pool, guard
 * each job (validation, exception to failed row), and deliver
 * JobResults to a ResultSink as they complete plus as an id-ordered
 * vector at the end.
 *
 * Every job builds its own Simulation, so jobs are independent and the
 * per-job results are bit-identical whatever the worker count or
 * completion order (tests/test_runner.cc asserts this).  The shared
 * mutable state is the optional BaselineCache, internally synchronised
 * with single-flight semantics, and the optional SnapshotCache, whose
 * entries are made before the trials that read them.
 */

#ifndef RMTSIM_RUNNER_RUNNER_HH
#define RMTSIM_RUNNER_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
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

    /** When set, mean_efficiency / efficiencies are filled from this
     *  cache (single-thread baselines simulated once per workload). */
    BaselineCache *baseline = nullptr;

    /** When set, each fault trial starts from its point's reference
     *  run in this cache, which must be there first (makeReferenceRun;
     *  executeJob).  A trial whose point has no entry, or whose image
     *  fails validation, fails its row.  Under barriers, the per-job
     *  "extra" metrics record the hit and the restored barrier.  Null:
     *  every trial runs from scratch, the tests' reference. */
    SnapshotCache *snapshots = nullptr;

    /** When set, receives each JobResult as it completes. */
    ResultSink *sink = nullptr;

    /** Cooperative cancellation (the SIGTERM/SIGINT drain): checked
     *  between jobs/trials, never mid-simulation.  Once it reads true,
     *  no new job starts; in-flight jobs finish and are recorded, so
     *  a rerun only has the never-started jobs left to run. */
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

/** Snapshot bookkeeping a fault trial records in its "extra" block. */
struct SnapshotForkInfo
{
    bool enabled = false;   ///< trial ran under barriers (record extras)
    bool hit = false;       ///< a snapshot was actually restored
    Cycle cycle = 0;        ///< barrier cycle of the restored snapshot
    double bytes = 0;       ///< serialized image size
};

/**
 * Finish a successful run exactly the way executeJob does: set status,
 * store the RunResult, fill efficiencies from config.baseline, append
 * the snapshot "extra" metrics (and rejoin_cycle when result.rejoined),
 * then invoke spec.post_run while @p sim is still alive (null for a
 * trial finished without a machine).  A caller that builds and runs
 * the Simulation itself records through this, so its records cannot
 * drift from executeJob's.
 */
void finalizeJobResult(const JobSpec &spec, const RunnerConfig &config,
                       Simulation *sim, const RunResult &run,
                       const SnapshotForkInfo &snap, JobResult &result);

/** finalizeJobResult of a run on @p sim. */
inline void
finalizeJobResult(const JobSpec &spec, const RunnerConfig &config,
                  Simulation &sim, const RunResult &run,
                  const SnapshotForkInfo &snap, JobResult &result)
{
    finalizeJobResult(spec, config, &sim, run, snap, result);
}

/**
 * Chain a FaultOracle classification onto @p spec's post_run hook: the
 * JobResult gains has_verdict/verdict/detection_latency, attributed to
 * the spec's first scheduled fault.  Call *after* spec.faults is
 * populated; @p oracle must outlive the campaign.  Any previously
 * installed post_run hook still runs (first).
 */
void attachFaultOracle(JobSpec &spec, const FaultOracle *oracle);

/**
 * The release rule of fault trials, shared by CampaignEngine::run and
 * runCampaignJobs: a job that needs its point's fault-free reference
 * run waits for that run only, never for another point's.  @p jobs
 * pairs each job index with the key of the point whose reference run
 * it needs first, or an empty key when it can start now.  Walking
 * @p jobs in order, each job with an empty key is start()ed at once,
 * and at the first job of each keyed point one task is handed to
 * @p submit: it calls @p reference with the point's key and jobs (in
 * order) and, when that returns true, start()s them.  So row 0's point
 * is the first reference run under way, and its trials run while later
 * points' reference runs still are.
 */
void releaseTrials(
    const std::vector<std::pair<std::size_t, std::string>> &jobs,
    const std::function<bool(const std::string &point,
                             const std::vector<std::size_t> &jobs)>
        &reference,
    const std::function<void(std::size_t job)> &start,
    const std::function<void(std::function<void()> task)> &submit);

/** Run all jobs; returns results indexed by job id. */
std::vector<JobResult> runCampaign(const Campaign &campaign,
                                   const RunnerConfig &config);

/**
 * Run an explicit job list over a pool of config.jobs workers,
 * recording each result to config.sink as it completes.  With
 * config.snapshots, each fault trial whose point has no entry yet
 * waits for that point's reference run, made on the same pool
 * (makeReferenceRun, released by releaseTrials).  Unlike
 * runCampaign, the sink's begin()/end() are NOT called, and results
 * come back by position in @p jobs.  Jobs skipped by config.stop keep
 * JobStatus::Failed defaults and are never fed to the sink.  (The
 * tools run store-backed campaigns through serve/campaign_engine.hh.)
 */
std::vector<JobResult> runCampaignJobs(const std::vector<JobSpec> &jobs,
                                       const RunnerConfig &config);

} // namespace rmt

#endif // RMTSIM_RUNNER_RUNNER_HH
