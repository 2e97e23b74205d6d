#include "serve/campaign_engine.hh"

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>

namespace rmt
{

/** One run()'s jobs and per-job state, shared with its pool tasks. */
struct CampaignEngine::Run
{
    enum class State : std::uint8_t
    {
        Ready,      ///< result in hand (stored, or finished here)
        Pending,    ///< owned job queued or running on the pool
        Waiting,    ///< in flight elsewhere; await it when its turn comes
        Skipped,    ///< owned job abandoned before it started
    };

    struct Slot
    {
        State state = State::Pending;
        std::uint64_t key = 0;
        JobResult result;
    };

    std::vector<JobSpec> jobs;
    std::vector<Slot> slots;

    std::mutex mu;
    std::condition_variable cv;
    std::size_t outstanding = 0;    ///< owned jobs not yet retired
    std::uint64_t simulated = 0;
    std::uint64_t rejoined = 0;
    std::atomic<bool> cancel{false};    ///< emit refused a row

    bool stopped(const RunnerConfig &config) const
    {
        return cancel.load() ||
               (config.stop &&
                config.stop->load(std::memory_order_relaxed));
    }

    /** Block until every submitted job has retired. */
    void drain()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return outstanding == 0; });
    }
};

CampaignEngine::CampaignEngine(ThreadPool &pool, ResultStore &store,
                               const RunnerConfig &config)
    : pool(pool), store(store), config(config)
{
}

std::uint64_t
CampaignEngine::attachGoldens(Run &run,
                              const std::vector<std::size_t> &owned)
{
    // One fault-free reference run per (mix, capped options) point,
    // under the capped budgets the trials really run with: a budget
    // difference would read as memory corruption.  It is the point's
    // golden and, when trials fork, puts the point's snapshots in
    // config.snapshots before any of its trials starts.  The runs are
    // independent, so they are built side by side on the pool; a bad
    // point must throw here, not fatal() in Simulation.
    using Golden = std::shared_ptr<const FaultOracle>;
    std::map<std::string, std::future<Golden>> builds;
    std::vector<std::pair<std::size_t, std::string>> faulted;
    for (std::size_t i : owned) {
        const JobSpec &job = run.jobs[i];
        if (job.faults.empty())
            continue;
        const SimOptions capped = cappedOptions(job, config);
        std::string point = pointKey(job.workloads, capped);
        if (!goldens.count(point) && !builds.count(point)) {
            auto build = std::make_shared<std::packaged_task<Golden()>>(
                [this, &job, capped] {
                    validateJobSpec(job);
                    return makeReferenceRun(job.workloads, capped,
                                            config.snapshots);
                });
            builds.emplace(point, build->get_future());
            pool.submit([build] { (*build)(); });
        }
        faulted.emplace_back(i, std::move(point));
    }
    for (auto &[point, build] : builds)
        build.wait();
    for (auto &[point, build] : builds) {
        try {
            goldens.emplace(point, build.get());
        } catch (const std::exception &e) {
            for (std::size_t i : owned)
                store.abandon(run.slots[i].key);
            throw std::runtime_error(std::string("golden run failed: ") +
                                     e.what());
        }
    }
    for (const auto &[i, point] : faulted)
        attachFaultOracle(run.jobs[i], goldens.at(point).get());
    return builds.size();
}

EngineTally
CampaignEngine::run(std::vector<JobSpec> jobs, const Emit &emit)
{
    Run run;
    run.jobs = std::move(jobs);
    const std::size_t n = run.jobs.size();
    run.slots.resize(n);
    EngineTally tally;

    std::vector<std::size_t> owned;
    for (std::size_t i = 0; i < n; ++i) {
        Run::Slot &slot = run.slots[i];
        slot.key = resultKeyU64(run.jobs[i], config);
        switch (store.tryClaim(slot.key, slot.result)) {
          case ResultStore::Claim::Hit:
            slot.state = Run::State::Ready;
            ++tally.hits;
            break;
          case ResultStore::Claim::Owner:
            owned.push_back(i);
            break;
          case ResultStore::Claim::InFlight:
            slot.state = Run::State::Waiting;
            break;
        }
    }

    // Owned jobs run on the pool and are published before any emit.
    const auto submit = [&](std::size_t i) {
        run.slots[i].state = Run::State::Pending;
        {
            std::lock_guard<std::mutex> lock(run.mu);
            ++run.outstanding;
        }
        pool.submit([this, &run, i] {
            const JobSpec &spec = run.jobs[i];
            Run::Slot &slot = run.slots[i];
            const bool skip = run.stopped(config);
            JobResult r;
            if (skip) {
                store.abandon(slot.key);
            } else {
                r = executeJob(spec, config);
                store.publish(slot.key, modeName(spec.options.mode), r);
            }
            std::lock_guard<std::mutex> lock(run.mu);
            slot.state = skip ? Run::State::Skipped : Run::State::Ready;
            slot.result = std::move(r);
            run.simulated += !skip;
            run.rejoined += slot.result.rejoined;
            --run.outstanding;
            run.cv.notify_all();
        });
    };
    tally.goldens += attachGoldens(run, owned);
    for (std::size_t i : owned)
        submit(i);

    // Rows leave in job order while the pool finishes jobs out of
    // order ahead of the cursor.
    try {
        for (std::size_t i = 0; i < n; ++i) {
            Run::Slot &slot = run.slots[i];
            // Pool tasks write a slot's state under run.mu; a Waiting
            // slot stays this thread's until it is submitted.
            std::unique_lock<std::mutex> lock(run.mu);
            while (slot.state == Run::State::Waiting) {
                lock.unlock();
                if (run.stopped(config)) {
                    slot.state = Run::State::Skipped;
                } else if (store.await(slot.key, slot.result)) {
                    slot.state = Run::State::Ready;
                    ++tally.awaited;
                } else if (store.tryClaim(slot.key, slot.result) ==
                           ResultStore::Claim::Owner) {
                    // The owner abandoned and the key is ours now.
                    tally.goldens += attachGoldens(run, {i});
                    submit(i);
                }
                // After a Hit the next await returns at once; after
                // InFlight it waits for the new owner.
                lock.lock();
            }
            run.cv.wait(lock, [&] {
                return slot.state != Run::State::Pending;
            });
            lock.unlock();
            if (slot.state == Run::State::Skipped || run.cancel.load()) {
                ++tally.skipped;
                continue;
            }
            const JobSpec &spec = run.jobs[i];
            JobResult result = std::move(slot.result);
            result.id = spec.id;        // the key ignores both
            result.label = spec.label;
            if (!emit(spec, result)) {
                run.cancel.store(true);
                ++tally.skipped;
            } else if (!result.ok()) {
                ++tally.failed;
            }
        }
    } catch (...) {
        // Unstarted owned jobs abandon their claims; the running ones
        // still reference this frame, so wait them out first.
        run.cancel.store(true);
        run.drain();
        throw;
    }
    run.drain();
    tally.simulated = run.simulated;
    tally.rejoined = run.rejoined;
    return tally;
}

} // namespace rmt
