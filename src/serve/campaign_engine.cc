#include "serve/campaign_engine.hh"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>

namespace rmt
{

/** One run()'s jobs and per-job state, shared with its pool tasks. */
struct CampaignEngine::Run
{
    enum class State : std::uint8_t
    {
        Ready,      ///< result in hand (stored, or finished here)
        Pending,    ///< owned job waiting for its point's reference
                    ///< run, queued or running on the pool
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
    std::size_t outstanding = 0;    ///< tasks (jobs, reference runs)
                                    ///< not yet retired
    std::uint64_t simulated = 0;
    std::uint64_t rejoined = 0;
    std::uint64_t goldens = 0;
    std::string failure;            ///< a reference run's error
    std::atomic<bool> cancel{false};    ///< emit refused a row

    bool stopped(const RunnerConfig &config) const
    {
        return cancel.load() ||
               (config.stop &&
                config.stop->load(std::memory_order_relaxed));
    }

    /** Block until every submitted task has retired. */
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
    if (!config.snapshots)
        throw std::invalid_argument(
            "CampaignEngine: config.snapshots is required");
}

void
CampaignEngine::spawn(Run &run, std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(run.mu);
        ++run.outstanding;
    }
    pool.submit([&run, task = std::move(task)] {
        task();
        std::lock_guard<std::mutex> lock(run.mu);
        --run.outstanding;
        run.cv.notify_all();
    });
}

void
CampaignEngine::start(Run &run, std::size_t i)
{
    // Owned jobs run on the pool and are published before any emit.
    spawn(run, [this, &run, i] {
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
        run.cv.notify_all();
    });
}

bool
CampaignEngine::referenceRun(Run &run, const std::vector<std::size_t> &jobs)
{
    // The point's one fault-free reference run: its golden and
    // snapshots go into config.snapshots before any of its trials
    // starts.
    std::string error;
    if (!run.stopped(config)) {
        try {
            const JobSpec &first = run.jobs[jobs.front()];
            const std::shared_ptr<const FaultOracle> golden =
                makeReferenceRun(first.workloads, first.options,
                                 config.snapshots);
            for (std::size_t i : jobs)
                attachFaultOracle(run.jobs[i], golden.get());
            std::lock_guard<std::mutex> lock(run.mu);
            ++run.goldens;
            return true;
        } catch (const std::exception &e) {
            error = std::string("golden run failed: ") + e.what();
        }
    }
    // Stopped, or the run failed: none of the point's jobs starts.
    for (std::size_t i : jobs)
        store.abandon(run.slots[i].key);
    std::lock_guard<std::mutex> lock(run.mu);
    for (std::size_t i : jobs)
        run.slots[i].state = Run::State::Skipped;
    if (run.failure.empty())
        run.failure = error;
    run.cv.notify_all();
    return false;
}

void
CampaignEngine::release(Run &run, const std::vector<std::size_t> &owned)
{
    // Every owned faulted job is checked here first: a bad point must
    // be one error on this thread, not a fatal() in Simulation.
    for (std::size_t i : owned) {
        if (run.jobs[i].faults.empty())
            continue;
        try {
            validateJobSpec(run.jobs[i]);
        } catch (const std::exception &e) {
            for (std::size_t j : owned)
                store.abandon(run.slots[j].key);
            throw std::runtime_error(std::string("golden run failed: ") +
                                     e.what());
        }
    }
    // One reference run per (mix, options) point with no entry yet;
    // a job whose point has one starts at once.
    std::vector<std::pair<std::size_t, std::string>> order;
    for (std::size_t i : owned) {
        JobSpec &job = run.jobs[i];
        std::string point;
        if (!job.faults.empty()) {
            const std::optional<ReferenceRun> ref =
                config.snapshots->find(job.workloads, job.options);
            if (ref && ref->golden)
                attachFaultOracle(job, ref->golden.get());
            else
                point = pointKey(job.workloads, job.options);
        }
        // Only this thread reads or writes a slot before its job starts.
        run.slots[i].state = Run::State::Pending;
        order.emplace_back(i, std::move(point));
    }
    releaseTrials(
        order,
        [this, &run](const std::string &,
                     const std::vector<std::size_t> &jobs) {
            return referenceRun(run, jobs);
        },
        [this, &run](std::size_t i) { start(run, i); },
        [this, &run](std::function<void()> task) {
            spawn(run, std::move(task));
        });
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
    release(run, owned);

    // Rows leave in job order while the pool finishes jobs out of
    // order ahead of the cursor.
    try {
        for (std::size_t i = 0; i < n; ++i) {
            Run::Slot &slot = run.slots[i];
            // Pool tasks write a slot's state under run.mu; a Waiting
            // slot stays this thread's until it is released.
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
                    release(run, {i});
                }
                // After a Hit the next await returns at once; after
                // InFlight it waits for the new owner.
                lock.lock();
            }
            run.cv.wait(lock, [&] {
                return slot.state != Run::State::Pending;
            });
            if (!run.failure.empty())
                throw std::runtime_error(run.failure);
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
        // Unstarted owned jobs abandon their claims; the running tasks
        // still reference this frame, so wait them out first.
        run.cancel.store(true);
        run.drain();
        throw;
    }
    run.drain();
    tally.goldens = run.goldens;
    tally.simulated = run.simulated;
    tally.rejoined = run.rejoined;
    return tally;
}

} // namespace rmt
