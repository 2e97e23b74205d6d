#include "sim/metrics.hh"

#include "serve/result_store.hh"

namespace rmt
{

double
smtEfficiency(double mode_ipc, double single_thread_ipc)
{
    return single_thread_ipc > 0 ? mode_ipc / single_thread_ipc : 0.0;
}

double
meanEfficiency(const std::vector<double> &efficiencies)
{
    if (efficiencies.empty())
        return 0.0;
    double sum = 0;
    for (double e : efficiencies)
        sum += e;
    return sum / static_cast<double>(efficiencies.size());
}

BaselineCache::BaselineCache(const SimOptions &options,
                             ResultStore *store)
    : opts(options), store(store)
{
    if (!this->store) {
        own = std::make_unique<ResultStore>();
        this->store = own.get();
    }
}

BaselineCache::~BaselineCache() = default;

double
BaselineCache::ipc(const std::string &workload)
{
    // The same machine singleThreadIpc() builds; the stats tree never
    // feeds an IPC, so the row is kept lean.
    JobSpec spec;
    spec.label = "baseline/" + workload;
    spec.workloads = {workload};
    spec.options = opts;
    spec.options.mode = SimMode::Base;
    spec.options.checker_penalty = 0;
    spec.options.collect_stats_json = false;
    const std::uint64_t key = resultKeyU64(spec);

    JobResult row;
    for (;;) {
        const ResultStore::Claim claim = store->tryClaim(key, row);
        if (claim == ResultStore::Claim::Hit ||
            (claim == ResultStore::Claim::InFlight &&
             store->await(key, row)))
            return row.run.threads.at(0).ipc;
        if (claim == ResultStore::Claim::Owner)
            break;
        // The owner gave up (its simulation threw): claim it afresh.
    }
    try {
        Simulation sim(spec.workloads, spec.options);
        row.run = sim.run();
    } catch (...) {
        // Release the claim so waiters retry instead of hanging.
        store->abandon(key);
        throw;
    }
    row.label = spec.label;
    row.status = JobStatus::Ok;
    row.attempts = 1;
    store->publish(key, modeName(SimMode::Base), row);
    ++sims;
    return row.run.threads.at(0).ipc;
}

std::vector<double>
BaselineCache::efficiencies(const RunResult &result)
{
    std::vector<double> effs;
    effs.reserve(result.threads.size());
    for (const auto &t : result.threads)
        effs.push_back(smtEfficiency(t.ipc, ipc(t.workload)));
    return effs;
}

double
BaselineCache::efficiency(const RunResult &result)
{
    return meanEfficiency(efficiencies(result));
}

} // namespace rmt
