#include "runner/snapshot_cache.hh"

#include <utility>

#include "common/fingerprint.hh"
#include "rmt/fault_oracle.hh"

namespace rmt
{

std::string
pointKey(const std::vector<std::string> &workloads,
         const SimOptions &options)
{
    std::string key;
    for (const std::string &w : workloads)
        key += w + "+";
    return key + fingerprintHex(optionsFingerprintU64(options));
}

std::optional<ReferenceRun>
SnapshotCache::find(const std::vector<std::string> &workloads,
                    const SimOptions &options) const
{
    const std::string key = pointKey(workloads, options);
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    if (it == cache.end())
        return std::nullopt;
    return it->second;
}

std::shared_ptr<const FaultOracle>
SnapshotCache::insert(const std::vector<std::string> &workloads,
                      const SimOptions &options,
                      std::shared_ptr<const SnapshotSet> set,
                      std::shared_ptr<const FaultOracle> golden)
{
    const std::string key = pointKey(workloads, options);
    std::lock_guard<std::mutex> lock(mu);
    ReferenceRun &entry = cache[key];
    if (!entry.golden)
        entry = ReferenceRun{std::move(set), std::move(golden)};
    return entry.golden;
}

std::size_t
SnapshotCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cache.size();
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

std::shared_ptr<const FaultOracle>
makeReferenceRun(const std::vector<std::string> &workloads,
                 const SimOptions &options, SnapshotCache *cache)
{
    std::shared_ptr<SnapshotSet> set;
    if (cache)
        set = std::make_shared<SnapshotSet>();
    auto golden = std::make_shared<const FaultOracle>(
        FaultOracle::reference(workloads, options, 0, set.get()));
    if (!cache)
        return golden;
    return cache->insert(workloads, options, std::move(set),
                         std::move(golden));
}

} // namespace rmt
