/**
 * @file
 * Shared snapshot store for fault campaigns (src/ckpt/ exploitation).
 *
 * A fault campaign runs many trials of the *same* (workload mix,
 * options) point, differing only in the injected fault.  Everything
 * before the injection cycle is identical across trials, so the runner
 * can fork each trial from a periodic snapshot instead of re-simulating
 * the common prefix: one fault-free run per distinct
 * (mix, options-fingerprint) collects a snapshot at every barrier, and
 * each trial restores the latest snapshot strictly before its first
 * fault's activation cycle.
 *
 * The same entry keeps that run's final RunResult, so a trial that
 * has rejoined the run at a barrier (its state equal to the snapshot
 * taken there) can end at once with the run's result (executeJob).
 * It also keeps the run's machine shape and each hardware context's
 * read set, so a trial whose strikes no instruction can read is
 * finished from that result without building a machine at all.
 *
 * CampaignEngine fills the cache up front: its golden run of a point
 * is that fault-free run (FaultOracle::reference with a SnapshotSet),
 * and it insert()s the set before any trial of the point starts.  When
 * a trial finds no entry -- runCampaignJobs, which builds no goldens,
 * or a point whose set was invalidate()d -- snapshots() runs the same
 * fault-free run lazily, with single-flight semantics exactly like
 * BaselineCache: when N workers ask for the same point at once, one
 * runs it while the rest block until it publishes.
 */

#ifndef RMTSIM_RUNNER_SNAPSHOT_CACHE_HH
#define RMTSIM_RUNNER_SNAPSHOT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/snapshot.hh"
#include "rmt/fault_injector.hh"
#include "sim/simulator.hh"

namespace rmt
{

class FaultOracle;

/** One point's fault-free reference run, as its trials see it. */
struct ReferenceRun
{
    std::shared_ptr<const SnapshotSet> snapshots;
    /** The run's final RunResult; null when the set was insert()ed
     *  without its golden. */
    std::shared_ptr<const RunResult> final;
    /** The run's machine, as fault validation sees it. */
    FaultMachineShape machine;
    /** FaultOracle::readMasks of the run; empty when the set was
     *  insert()ed without its golden. */
    std::vector<std::uint64_t> read_masks;
};

class SnapshotCache
{
  public:
    /**
     * The reference run of (@p workloads, @p options), producing it
     * with one fault-free run if no entry exists yet.  @p options must
     * have snapshot_every set and must be the exact options the trials
     * run under (the snapshot fingerprint check enforces this at
     * restore time).  The set is empty when the run placed no barriers
     * (budget shorter than snapshot_every).
     */
    ReferenceRun reference(const std::vector<std::string> &workloads,
                           const SimOptions &options);

    /** reference(@p workloads, @p options).snapshots. */
    std::shared_ptr<const SnapshotSet>
    snapshots(const std::vector<std::string> &workloads,
              const SimOptions &options)
    {
        return reference(workloads, options).snapshots;
    }

    /**
     * The latest snapshot in @p set strictly before @p cycle, or
     * nullptr.  Strictly: the injector applies a fault when
     * now >= fault.when, so a snapshot taken *at* the fault cycle
     * already post-dates the nominal injection point.
     */
    static const CachedSnapshot *
    latestBefore(const SnapshotSet &set, Cycle cycle);

    /**
     * Publish @p set, and what @p golden (FaultOracle::reference of
     * the run that took it, when known) keeps of that run, for
     * (@p workloads, @p options) without a producer run, replacing any
     * existing entry.  CampaignEngine publishes its golden runs here;
     * tests also pre-seed corrupted images, which restore-time
     * validation must catch.
     */
    void insert(const std::vector<std::string> &workloads,
                const SimOptions &options,
                std::shared_ptr<const SnapshotSet> set,
                const FaultOracle *golden = nullptr);

    /**
     * Drop the entry for (@p workloads, @p options), if any.  Called
     * when a cached image fails its restore-time validation, so the
     * next trial re-produces clean snapshots instead of tripping over
     * the same corruption forever.
     */
    void invalidate(const std::vector<std::string> &workloads,
                    const SimOptions &options);

    /** Lazy producer simulations snapshots() actually executed (the
     *  single-flight invariant: at most one per distinct key and
     *  invalidation; zero when every entry was insert()ed). */
    std::uint64_t producerRuns() const;

  private:
    struct Entry
    {
        bool ready = false;
        ReferenceRun run;
    };

    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, Entry> cache;
    std::uint64_t runs = 0;
};

} // namespace rmt

#endif // RMTSIM_RUNNER_SNAPSHOT_CACHE_HH
