/**
 * The home of every fault point's reference run (src/ckpt/
 * exploitation).
 *
 * A fault campaign runs many trials of the *same* (workload mix,
 * options) point, differing only in the injected fault.  One
 * fault-free reference run per point is made before its trials and
 * kept here: its golden (FaultOracle::reference) and a snapshot at
 * every barrier the options place (none without snapshot_every).  Each
 * trial starts from it (executeJob): it restores the latest snapshot
 * strictly before its first strike, stops at a barrier where its state
 * equals the snapshot taken there and ends with the run's result, or,
 * when no instruction can read its strikes, is finished from that
 * result without building a machine at all.
 *
 * makeReferenceRun is the one place an entry is made: CampaignEngine
 * and runCampaignJobs call it for each point of their fault trials with
 * no entry yet, each as a pool task that releases that point's trials,
 * and only those, when the entry is in (releaseTrials).  The cache
 * itself runs nothing; a trial whose point has no entry fails.
 */

#ifndef RMTSIM_RUNNER_SNAPSHOT_CACHE_HH
#define RMTSIM_RUNNER_SNAPSHOT_CACHE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/snapshot.hh"
#include "sim/simulator.hh"

namespace rmt
{

class FaultOracle;

/** One point's fault-free reference run, as its trials see it. */
struct ReferenceRun
{
    std::shared_ptr<const SnapshotSet> snapshots;
    /** The run's golden: its final RunResult, machine shape and read
     *  sets.  Null when the set was insert()ed without it. */
    std::shared_ptr<const FaultOracle> golden;
};

/** The one key of a (workload mix, options) point: the mix, then the
 *  options fingerprint. */
std::string pointKey(const std::vector<std::string> &workloads,
                     const SimOptions &options);

class SnapshotCache
{
  public:
    /**
     * The reference run of (@p workloads, @p options), or nullopt when
     * none was insert()ed.  @p options must be the exact options the
     * trials run under (the snapshot fingerprint check enforces this
     * at restore time).  The set is empty when the run placed no
     * barriers (no snapshot_every, or a budget shorter than it).
     */
    std::optional<ReferenceRun>
    find(const std::vector<std::string> &workloads,
         const SimOptions &options) const;

    /**
     * The latest snapshot in @p set strictly before @p cycle, or
     * nullptr.  Strictly: the injector applies a fault when
     * now >= fault.when, so a snapshot taken *at* the fault cycle
     * already post-dates the nominal injection point.
     */
    static const CachedSnapshot *
    latestBefore(const SnapshotSet &set, Cycle cycle);

    /**
     * Publish @p set, and @p golden (the FaultOracle::reference of the
     * run that took it, when known), for (@p workloads, @p options),
     * unless its entry has a golden, which trials hold by pointer
     * (attachFaultOracle).  Returns the entry's golden.  Tests also
     * pre-seed corrupted images, which restore-time validation must
     * catch.
     */
    std::shared_ptr<const FaultOracle>
    insert(const std::vector<std::string> &workloads,
           const SimOptions &options,
           std::shared_ptr<const SnapshotSet> set,
           std::shared_ptr<const FaultOracle> golden = nullptr);

    /** Points with an entry. */
    std::size_t size() const;

  private:
    mutable std::mutex mu;
    std::unordered_map<std::string, ReferenceRun> cache;
};

/**
 * Make the fault-free reference run of (@p workloads, @p options) --
 * the one place a point's reference run is made -- and return its
 * golden (FaultOracle::reference).  When @p cache is set, the run also
 * collects a snapshot at every barrier @p options place, and both are
 * insert()ed into @p cache, whose entry's golden is returned.
 */
std::shared_ptr<const FaultOracle>
makeReferenceRun(const std::vector<std::string> &workloads,
                 const SimOptions &options, SnapshotCache *cache);

} // namespace rmt

#endif // RMTSIM_RUNNER_SNAPSHOT_CACHE_HH
