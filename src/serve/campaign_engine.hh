/**
 * @file
 * The store-backed campaign engine: the one path by which rmtsim_batch
 * and rmtsimd turn a job list into rows.
 *
 * CampaignEngine::run takes a job list through five steps:
 *
 *  1. every job is tryClaim()ed in the ResultStore under
 *     resultKeyU64(spec, config): a Hit is served from the store, an
 *     Owner claim is this run's to simulate, and an InFlight key (the
 *     same content claimed by another client, or earlier in the same
 *     list) is await()ed and re-claimed if its owner abandons it;
 *  2. every owned faulted job is validated on the calling thread (a
 *     bad point is one "golden run failed" error), then one fault-free
 *     reference run (makeReferenceRun) is submitted to the pool per
 *     (mix, options) point that has an *owned* faulted job and no
 *     entry in config.snapshots yet, in the order of each point's first
 *     job: it puts the point's golden and its snapshots (one per
 *     barrier the options place, if any) in config.snapshots, and
 *     attaches the golden to those jobs, before any of its trials
 *     starts -- a resubmission that is all hits builds no reference
 *     run;
 *  3. owned jobs run on the caller's pool (executeJob), a point's
 *     trials as soon as its own reference run ends, not every point's
 *     (releaseTrials), and each result is publish()ed before it is
 *     emitted; a fault trial that rejoins its point's reference run
 *     ends at that barrier, or without a machine when nothing reads its
 *     strikes (counted in EngineTally::rejoined);
 *  4. emit(spec, result) is called on the calling thread, in job order;
 *  5. once emit returns false or config.stop reads true, unstarted
 *     owned jobs are abandoned (waiters elsewhere re-claim them).
 *
 * Claims and awaits happen only on the calling thread, so pool workers
 * never block on store state and several engines may share one pool:
 * each run() returns when its own jobs are done, never via
 * ThreadPool::wait().  config.snapshots, which the engine requires, is
 * the only home of the reference runs: they outlive each run(), so the
 * rounds of a stratified campaign share them.  A reference run that
 * still throws after validation releases its point's claims, and run()
 * throws its "golden run failed" error once its tasks have drained,
 * with no row of that point emitted.
 */

#ifndef RMTSIM_SERVE_CAMPAIGN_ENGINE_HH
#define RMTSIM_SERVE_CAMPAIGN_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "serve/result_store.hh"

namespace rmt
{

/** What one CampaignEngine::run did with its jobs. */
struct EngineTally
{
    std::uint64_t hits = 0;         ///< rows already in the store
    std::uint64_t awaited = 0;      ///< rows another claimant computed
    std::uint64_t simulated = 0;    ///< owned jobs executed by this run
    std::uint64_t failed = 0;       ///< emitted rows whose job failed
    std::uint64_t skipped = 0;      ///< jobs left without a row
    std::uint64_t goldens = 0;      ///< fault-free reference runs built
    std::uint64_t rejoined = 0;     ///< owned trials that rejoined
                                    ///< their reference run
};

class CampaignEngine
{
  public:
    /** Receives each row in job order; false stops the run. */
    using Emit =
        std::function<bool(const JobSpec &spec, const JobResult &result)>;

    /** @p pool, @p store and config.snapshots are the caller's and
     *  must outlive this.  Throws std::invalid_argument without
     *  config.snapshots. */
    CampaignEngine(ThreadPool &pool, ResultStore &store,
                   const RunnerConfig &config);

    /**
     * Claim, simulate and emit @p jobs (see the file comment).  Throws
     * std::runtime_error("golden run failed: ...") once every claim
     * this run held is released, when a reference run cannot be built.
     */
    EngineTally run(std::vector<JobSpec> jobs, const Emit &emit);

  private:
    struct Run;

    /** Validate @p owned's faulted jobs (throws the golden error with
     *  every claim of @p owned released) and start them through
     *  releaseTrials. */
    void release(Run &run, const std::vector<std::size_t> &owned);
    /** The pool task of the reference run of @p jobs' point: true
     *  once it is in config.snapshots and its golden is attached to
     *  @p jobs; false, with their claims released, when the run was
     *  stopped or failed (Run::failure). */
    bool referenceRun(Run &run, const std::vector<std::size_t> &jobs);
    /** Run owned job @p i on the pool. */
    void start(Run &run, std::size_t i);
    /** Submit @p task to the pool, counted in Run::outstanding. */
    void spawn(Run &run, std::function<void()> task);

    ThreadPool &pool;
    ResultStore &store;
    RunnerConfig config;
};

} // namespace rmt

#endif // RMTSIM_SERVE_CAMPAIGN_ENGINE_HH
