#include "runner/snapshot_cache.hh"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "rmt/fault_oracle.hh"

namespace rmt
{

namespace
{

std::string
cacheKey(const std::vector<std::string> &workloads,
         const SimOptions &options)
{
    std::string key;
    for (const auto &w : workloads) {
        key += w;
        key += '\n';
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                  optionsFingerprintU64(options));
    key += buf;
    return key;
}

/** The entry of @p set, taken by the run of @p golden when set. */
ReferenceRun
referenceOf(std::shared_ptr<const SnapshotSet> set, const FaultOracle *golden)
{
    ReferenceRun run;
    run.snapshots = std::move(set);
    if (golden) {
        run.final = golden->referenceRun();
        run.machine = golden->machine();
        run.read_masks = golden->readMasks();
    }
    return run;
}

ReferenceRun
produce(const std::vector<std::string> &workloads,
        const SimOptions &options)
{
    // The same fault-free run a golden is; its snapshots, final
    // RunResult and read sets are kept.
    auto set = std::make_shared<SnapshotSet>();
    const FaultOracle oracle =
        FaultOracle::reference(workloads, options, 0, set.get());
    return referenceOf(std::move(set), &oracle);
}

} // namespace

ReferenceRun
SnapshotCache::reference(const std::vector<std::string> &workloads,
                         const SimOptions &options)
{
    const std::string key = cacheKey(workloads, options);

    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        auto [it, inserted] = cache.try_emplace(key);
        if (inserted)
            break;              // we own the placeholder
        if (it->second.ready)
            return it->second.run;
        cv.wait(lock);
    }

    // We inserted the placeholder, so we are the single flight that
    // runs the producer; everyone else blocks above.
    lock.unlock();
    ReferenceRun run;
    try {
        run = produce(workloads, options);
    } catch (...) {
        // Unpublish so waiters do not hang; the next caller retries.
        lock.lock();
        cache.erase(key);
        cv.notify_all();
        throw;
    }
    lock.lock();
    Entry &entry = cache.at(key);
    entry.run = std::move(run);
    entry.ready = true;
    ++runs;
    cv.notify_all();
    return entry.run;
}

void
SnapshotCache::insert(const std::vector<std::string> &workloads,
                      const SimOptions &options,
                      std::shared_ptr<const SnapshotSet> set,
                      const FaultOracle *golden)
{
    const std::string key = cacheKey(workloads, options);
    ReferenceRun run = referenceOf(std::move(set), golden);
    std::lock_guard<std::mutex> lock(mu);
    Entry &entry = cache[key];
    entry.run = std::move(run);
    entry.ready = true;
    cv.notify_all();
}

void
SnapshotCache::invalidate(const std::vector<std::string> &workloads,
                          const SimOptions &options)
{
    const std::string key = cacheKey(workloads, options);
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    // Never erase an in-flight placeholder (ready == false): its
    // producer will publish over it, and erasing would strand waiters.
    if (it != cache.end() && it->second.ready)
        cache.erase(it);
}

const CachedSnapshot *
SnapshotCache::latestBefore(const SnapshotSet &set, Cycle cycle)
{
    const CachedSnapshot *best = nullptr;
    for (const CachedSnapshot &snap : set) {
        if (snap.cycle >= cycle)
            break;
        best = &snap;
    }
    return best;
}

std::uint64_t
SnapshotCache::producerRuns() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runs;
}

} // namespace rmt
