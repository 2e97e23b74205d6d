#include "runner/runner.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/logging.hh"
#include "runner/thread_pool.hh"
#include "workloads/workloads.hh"

namespace rmt
{

namespace
{

bool
knownWorkload(const std::string &name)
{
    const auto &names = spec95Names();
    return std::find(names.begin(), names.end(), name) != names.end();
}

unsigned
maxLogicalThreads(SimMode mode)
{
    switch (mode) {
      case SimMode::Base:
      case SimMode::Lockstep:
      case SimMode::Crt:
        return 4;
      case SimMode::Base2:
      case SimMode::Srt:
        return 2;
    }
    return 1;
}

/**
 * Can a trial of @p faults under @p options rejoin @p ref?  Only when
 * the reference's golden is known and its run completed with no
 * detection (a rejoined trial is finished from it, as masked), no
 * fault is a permanent one (it keeps striking past any barrier), and
 * that run's RunResult renders the trial's row: the point key ignores
 * collect_stats_json.
 */
bool
canRejoin(const std::vector<FaultRecord> &faults, const SimOptions &options,
          const ReferenceRun &ref)
{
    const RunResult *final =
        ref.golden ? ref.golden->referenceRun().get() : nullptr;
    if (!final || final->outcome != Outcome::Completed ||
        final->detections != 0 ||
        final->stats_json.empty() == options.collect_stats_json)
        return false;
    return std::none_of(faults.begin(), faults.end(),
                        [](const FaultRecord &f) {
                            return f.kind == FaultRecord::Kind::PermanentFu;
                        });
}

/**
 * Has @p sim, quiesced at the barrier of @p cycle, rejoined the
 * reference run that took @p set?  Its remaining run is that run's
 * when its state equals the reference's at the same cycle, which an
 * equal image alone does not show:
 *  - every scheduled fault must have been applied: a strike still
 *    waiting for a resident entry is in no image;
 *  - every mapped physical register must hold its committed value: an
 *    image stores committed registers only.
 * Then the images are compared, streamed.  @p next is a cursor into
 * @p set that only moves forward, as barriers do.
 */
bool
rejoinsAt(Simulation &sim, Cycle cycle, const SnapshotSet &set,
          std::size_t &next)
{
    while (next < set.size() && set[next].cycle < cycle)
        ++next;
    if (next == set.size() || set[next].cycle != cycle)
        return false;
    for (const FaultRecord &f : sim.faultInjector().scheduled()) {
        if (!f.applied)
            return false;
    }
    Chip &chip = sim.chip();
    for (unsigned c = 0; c < chip.numCores(); ++c) {
        if (!chip.cpu(c).mappedRegsCommitted())
            return false;
    }
    return sim.matchesSnapshot(*set[next].image);
}

/**
 * Can no instruction of the trial's machine ever read what @p faults
 * strike?  True when each is a register strike on a register outside
 * the read set of its hardware context in the reference run of
 * @p golden (0 for a context with no thread, where the strike applies
 * to nothing).  Such a trial's whole run is the reference run, so it
 * rejoins at the barrier it would restore.  A fault that could never
 * apply throws the error scheduling it would (validateFault against
 * the reference's machine), which fails the row as before.
 */
bool
strikesNothingReads(const std::vector<FaultRecord> &faults,
                    const FaultOracle &golden)
{
    const FaultMachineShape &machine = golden.machine();
    for (const FaultRecord &f : faults) {
        if (f.kind != FaultRecord::Kind::TransientReg)
            return false;
        validateFault(f, machine);
        const std::uint64_t reads =
            golden.readMasks()[f.core * machine.threads + f.tid];
        if ((reads >> f.reg) & 1)
            return false;
    }
    return true;
}

/** What a trial that rejoined @p reference returns: that run's
 *  RunResult with the trial's own @p host timing, in its stats
 *  document too. */
RunResult
rejoinedRun(const RunResult &reference, const HostTiming &host)
{
    RunResult run = reference;
    run.host = host;
    const std::string from = ",\"host\":" + reference.host.json();
    const std::size_t at = run.stats_json.find(from);
    if (at != std::string::npos)
        run.stats_json.replace(at, from.size(), ",\"host\":" + host.json());
    return run;
}

} // namespace

void
finalizeJobResult(const JobSpec &spec, const RunnerConfig &config,
                  Simulation *sim, const RunResult &run,
                  const SnapshotForkInfo &snap, JobResult &result)
{
    result.status = JobStatus::Ok;
    result.run = run;
    if (config.baseline) {
        result.efficiencies = config.baseline->efficiencies(run);
        result.mean_efficiency = meanEfficiency(result.efficiencies);
    }
    if (snap.enabled) {
        result.extra.emplace_back("snapshot_hit",
                                  snap.hit ? 1.0 : 0.0);
        if (snap.hit) {
            result.extra.emplace_back(
                "snapshot_cycle", static_cast<double>(snap.cycle));
            result.extra.emplace_back("snapshot_bytes", snap.bytes);
        }
        if (result.rejoined)
            result.extra.emplace_back(
                "rejoin_cycle", static_cast<double>(result.rejoin_cycle));
    }
    if (spec.post_run)
        spec.post_run(sim, run, result);
}

void
validateJobSpec(const JobSpec &spec)
{
    if (spec.workloads.empty())
        throw std::invalid_argument("job " + std::to_string(spec.id) +
                                    ": no workloads");
    for (const auto &name : spec.workloads) {
        if (!knownWorkload(name))
            throw std::invalid_argument(
                "job " + std::to_string(spec.id) +
                ": unknown workload '" + name + "'");
    }
    const unsigned logical =
        static_cast<unsigned>(spec.workloads.size());
    if (logical > maxLogicalThreads(spec.options.mode))
        throw std::invalid_argument(
            "job " + std::to_string(spec.id) + ": " +
            std::to_string(logical) + " logical threads exceed mode " +
            modeName(spec.options.mode));
    if (spec.options.recovery && spec.options.cosim)
        throw std::invalid_argument(
            "job " + std::to_string(spec.id) +
            ": recovery is incompatible with cosim");
    // Snapshots capture timing state only (Simulation's constructor).
    if (spec.options.snapshot_every &&
        (spec.options.cosim || spec.options.recovery))
        throw std::invalid_argument(
            "job " + std::to_string(spec.id) +
            ": snapshots are incompatible with " +
            (spec.options.cosim ? "cosim" : "recovery"));
}

JobResult
executeJob(const JobSpec &spec, const RunnerConfig &config)
{
    using Clock = std::chrono::steady_clock;

    JobResult result;
    result.id = spec.id;
    result.label = spec.label;

    // One attempt: every error caught here depends only on the spec
    // and the caches, so a second attempt would repeat it.
    result.attempts = 1;
    const auto job_start = Clock::now();
    try {
        validateJobSpec(spec);

        // A fault trial under a cache starts from its point's reference
        // run, made before the trial (makeReferenceRun).  Only barriers
        // put the snapshot bookkeeping in its row.
        SnapshotForkInfo snap;
        snap.enabled = config.snapshots && spec.options.snapshot_every &&
                       !spec.faults.empty();
        ReferenceRun ref;
        const CachedSnapshot *cached = nullptr;
        bool rejoinable = false;
        if (config.snapshots && !spec.faults.empty()) {
            Cycle first_fault = spec.faults.front().when;
            for (const FaultRecord &f : spec.faults)
                first_fault = std::min(first_fault, f.when);
            const std::optional<ReferenceRun> found =
                config.snapshots->find(spec.workloads, spec.options);
            if (!found)
                throw std::runtime_error(
                    "no reference run for " +
                    pointKey(spec.workloads, spec.options));
            ref = *found;
            rejoinable = canRejoin(spec.faults, spec.options, ref);
            cached = SnapshotCache::latestBefore(*ref.snapshots,
                                                 first_fault);
            if (cached) {
                snap.hit = true;
                snap.cycle = cached->cycle;
                snap.bytes = static_cast<double>(cached->image->size());
            }
        }

        std::optional<Simulation> sim;
        RunResult run;
        bool rejoined = false;
        Cycle rejoin_cycle = 0;
        if (rejoinable && strikesNothingReads(spec.faults, *ref.golden)) {
            // Nothing can read the strikes: the trial's state
            // equals the reference's where it would start (the
            // barrier it would restore, or cycle 0), so it rejoins
            // there without a machine.
            rejoined = true;
            rejoin_cycle = snap.cycle;
            run = rejoinedRun(*ref.golden->referenceRun(), HostTiming{});
        } else {
            // Build, restore the image strictly before the first
            // strike if there is one, schedule, run.  The restore
            // comes first so the injector can check that the image
            // pre-dates every strike; an image that fails
            // validation throws its error, which fails the row.
            sim.emplace(spec.workloads, spec.options);
            if (cached)
                sim->restoreSnapshotBuffer(*cached->image);
            for (const FaultRecord &f : spec.faults)
                sim->faultInjector().schedule(f);
            // A trial whose state has rejoined the reference run
            // at a barrier would only simulate that run's rest
            // again: it stops there and takes the reference's end.
            if (rejoinable) {
                sim->setSnapshotHook(
                    [set = ref.snapshots, next = std::size_t{0}](
                        Cycle cycle, Simulation &s) mutable {
                        if (rejoinsAt(s, cycle, *set, next))
                            s.stopAtBarrier();
                    });
            }
            run = sim->run();
            if (sim->stoppedAtBarrier()) {
                rejoined = true;
                rejoin_cycle = run.total_cycles;
                run = rejoinedRun(*ref.golden->referenceRun(),
                                  run.host);
            }
        }

        result.wall_seconds =
            std::chrono::duration<double>(Clock::now() - job_start).count();
        result.rejoined = rejoined;
        result.rejoin_cycle = rejoin_cycle;
        finalizeJobResult(spec, config, sim ? &*sim : nullptr, run, snap,
                          result);
        return result;
    } catch (const std::exception &e) {
        result.status = JobStatus::Failed;
        result.error = e.what();
    } catch (...) {
        result.status = JobStatus::Failed;
        result.error = "unknown exception";
    }
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - job_start).count();
    return result;
}

void
attachFaultOracle(JobSpec &spec, const FaultOracle *oracle)
{
    const FaultRecord fault =
        spec.faults.empty() ? FaultRecord{} : spec.faults.front();
    auto prev = std::move(spec.post_run);
    spec.post_run = [oracle, fault, prev](Simulation *sim,
                                          const RunResult &run,
                                          JobResult &res) {
        if (prev)
            prev(sim, run, res);
        const WallTimer timer;
        const FaultTrialReport report = oracle->classify(sim, run, fault);
        res.run.host.oracle_seconds = timer.elapsed();
        res.has_verdict = true;
        res.verdict = report.verdict;
        res.detection_latency =
            report.latency_valid
                ? static_cast<double>(report.detection_latency)
                : -1;
    };
}

void
releaseTrials(
    const std::vector<std::pair<std::size_t, std::string>> &jobs,
    const std::function<bool(const std::string &point,
                             const std::vector<std::size_t> &jobs)>
        &reference,
    const std::function<void(std::size_t job)> &start,
    const std::function<void(std::function<void()> task)> &submit)
{
    // A point's job list is complete before its task can run.
    using Group = std::shared_ptr<std::vector<std::size_t>>;
    std::map<std::string, Group> waiting;
    for (const auto &[i, point] : jobs) {
        if (point.empty())
            continue;
        Group &group = waiting[point];
        if (!group)
            group = std::make_shared<std::vector<std::size_t>>();
        group->push_back(i);
    }
    for (const auto &[i, point] : jobs) {
        if (point.empty()) {
            start(i);
            continue;
        }
        const Group &group = waiting.at(point);
        if (group->front() != i)
            continue;
        submit([point, group, reference, start] {
            if (reference(point, *group)) {
                for (std::size_t j : *group)
                    start(j);
            }
        });
    }
}

std::vector<JobResult>
runCampaignJobs(const std::vector<JobSpec> &jobs,
                const RunnerConfig &config)
{
    std::vector<JobResult> results(jobs.size());
    const auto stopped = [&config] {
        return config.stop && config.stop->load(std::memory_order_relaxed);
    };

    // A fault trial whose point has no entry yet waits for that
    // point's reference run.  A spec that fails validation gets none:
    // its rows fail the same check.  A run that throws leaves its point
    // without one, so its trials fail as missing it.
    std::vector<std::pair<std::size_t, std::string>> order;
    for (std::size_t at = 0; at < jobs.size(); ++at) {
        const JobSpec &spec = jobs[at];
        std::string point;
        if (config.snapshots && !spec.faults.empty() &&
            !config.snapshots->find(spec.workloads, spec.options)) {
            try {
                validateJobSpec(spec);
                point = pointKey(spec.workloads, spec.options);
            } catch (const std::invalid_argument &) {
            }
        }
        order.emplace_back(at, std::move(point));
    }

    ThreadPool pool(config.jobs);
    releaseTrials(
        order,
        [&](const std::string &point, const std::vector<std::size_t> &group) {
            const JobSpec &spec = jobs[group.front()];
            if (stopped())
                return true;    // its trials will not start either
            try {
                makeReferenceRun(spec.workloads, spec.options,
                                 config.snapshots);
            } catch (const std::exception &e) {
                warn("reference run of %s failed: %s", point.c_str(),
                     e.what());
            }
            return true;
        },
        [&](std::size_t at) {
            pool.submit([&jobs, &config, &results, stopped, at] {
                if (stopped())
                    return; // draining: started jobs finish, no new ones
                const JobSpec &spec = jobs[at];
                JobResult r = executeJob(spec, config);
                if (config.sink)
                    config.sink->record(spec, r);
                // Slots are disjoint per position: no lock needed.
                results[at] = std::move(r);
            });
        },
        [&pool](std::function<void()> task) {
            pool.submit(std::move(task));
        });
    pool.wait();
    return results;
}

std::vector<JobResult>
runCampaign(const Campaign &campaign, const RunnerConfig &config)
{
    if (config.sink)
        config.sink->begin(campaign);
    // Campaign job ids are dense 0..n-1 in build order, so position
    // indexing here doubles as id indexing.
    std::vector<JobResult> results =
        runCampaignJobs(campaign.jobs, config);
    if (config.sink)
        config.sink->end();
    return results;
}

} // namespace rmt
