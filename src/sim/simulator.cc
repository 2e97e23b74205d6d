#include "sim/simulator.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ckpt/serializer.hh"
#include "ckpt/snapshot.hh"
#include "common/fingerprint.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/stats_json.hh"

namespace rmt
{

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Completed:             return "completed";
      case Outcome::Hang:                  return "hang";
      case Outcome::DetectedUnrecoverable: return "detected_unrecoverable";
      case Outcome::CapExceeded:           return "cap_exceeded";
    }
    return "?";
}

namespace
{

SmtParams
coreParams(const SimOptions &opts)
{
    SmtParams p = opts.cpu;
    p.per_thread_store_queues = opts.per_thread_store_queues;
    p.srt_store_comparison = opts.store_comparison;
    p.preferential_space_redundancy = opts.preferential_space_redundancy;
    p.trailing_fetch = opts.trailing_fetch;
    p.slack_fetch = opts.slack_fetch;
    p.lvq_ecc = opts.lvq_ecc;
    p.merge_buffer_ecc = opts.merge_buffer_ecc;
    p.cosim = opts.cosim;
    // The simulation-level watchdog must fire before the core's
    // process-killing deadlock backstop so a hang becomes a structured
    // verdict, not a panic.
    if (opts.hang_cycles) {
        p.deadlock_cycles = std::max<std::uint64_t>(p.deadlock_cycles,
                                                    opts.hang_cycles +
                                                        10000);
    }
    return p;
}

} // namespace

Simulation::Simulation(const std::vector<std::string> &workload_names,
                       const SimOptions &options)
    : opts(options)
{
    WallTimer build_timer;
    if (workload_names.empty())
        fatal("Simulation needs at least one workload");
    if (opts.snapshot_every) {
        // Snapshots capture timing state only; the cosim reference model
        // and the recovery engine's checkpoint log are not serialized.
        if (opts.cosim)
            fatal("snapshots are incompatible with cosim");
        if (opts.recovery)
            fatal("snapshots are incompatible with recovery");
    }

    for (const auto &name : workload_names) {
        workloads.push_back(buildWorkload(name));
        memories.push_back(workloads.back().makeMemory());
    }
    placements.resize(workloads.size());

    switch (opts.mode) {
      case SimMode::Base:
        buildBase(false);
        break;
      case SimMode::Base2:
        buildBase(true);
        break;
      case SimMode::Lockstep:
        // Lockstep timing equals the base processor with the checker
        // penalty applied to every off-core signal: L1-miss service and
        // the store-release path (Section 6.3; Lock0 == Base exactly).
        buildBase(false);
        break;
      case SimMode::Srt:
        buildSrt();
        break;
      case SimMode::Crt:
        buildCrt();
        break;
    }

    FaultMachineShape shape;
    shape.cores = _chip->numCores();
    shape.threads = _chip->cpu(0).numThreads();
    shape.pairs = static_cast<unsigned>(_chip->redundancy().numPairs());
    shape.int_units_per_half = opts.cpu.int_units_per_half;
    shape.logic_units_per_half = opts.cpu.logic_units_per_half;
    shape.mem_units_per_half = opts.cpu.mem_units_per_half;
    shape.fp_units_per_half = opts.cpu.fp_units_per_half;
    injector.configure(shape);

    if (opts.timeline_interval > 0) {
        TimelineConfig tc;
        tc.interval = opts.timeline_interval;
        tc.max_samples = opts.timeline_max_samples;
        probe = std::make_unique<TimelineProbe>(tc);
        _chip->setTimelineProbe(probe.get());
    }
    buildSeconds = build_timer.elapsed();
}

void
Simulation::buildBase(bool base2)
{
    const unsigned copies = base2 ? 2 : 1;
    const unsigned hw_threads =
        static_cast<unsigned>(workloads.size()) * copies;
    if (hw_threads > 4)
        fatal("base mode: at most 4 hardware threads");

    ChipParams cp;
    cp.num_cores = 1;
    cp.cpu = coreParams(opts);
    cp.cpu.num_threads = hw_threads;
    cp.mem = opts.mem;
    if (opts.mode == SimMode::Lockstep) {
        cp.mem.checker_penalty = opts.checker_penalty;
        cp.cpu.store_checker_penalty = opts.checker_penalty;
    }
    _chip = std::make_unique<Chip>(cp);
    _chip->setFaultInjector(&injector);

    ThreadId tid = 0;
    for (unsigned i = 0; i < workloads.size(); ++i) {
        placements[i].lead_core = 0;
        placements[i].lead_tid = tid;
        placements[i].trail_core = 0;
        placements[i].trail_tid = tid;
        _chip->cpu(0).addThread(tid, workloads[i].program, *memories[i],
                                static_cast<LogicalId>(i), Role::Single);
        _chip->cpu(0).setTarget(tid, opts.warmup_insts + opts.measure_insts,
                                opts.warmup_insts);
        ++tid;
        if (base2) {
            // Second uncoupled copy: same program, same logical address
            // space (so it shares cache lines like a redundant copy),
            // but its own functional data image.
            copyMemories.push_back(workloads[i].makeMemory());
            _chip->cpu(0).addThread(tid, workloads[i].program,
                                    *copyMemories.back(),
                                    static_cast<LogicalId>(i),
                                    Role::IndependentCopy);
            _chip->cpu(0).setTarget(tid,
                                    opts.warmup_insts + opts.measure_insts,
                                    opts.warmup_insts);
            ++tid;
        }
    }
}

void
Simulation::buildSrt()
{
    const unsigned hw_threads =
        static_cast<unsigned>(workloads.size()) * 2;
    if (hw_threads > 4)
        fatal("SRT mode: at most 2 logical threads (4 contexts)");

    ChipParams cp;
    cp.num_cores = 1;
    cp.cpu = coreParams(opts);
    cp.cpu.num_threads = hw_threads;
    cp.mem = opts.mem;
    _chip = std::make_unique<Chip>(cp);
    _chip->setFaultInjector(&injector);

    for (unsigned i = 0; i < workloads.size(); ++i) {
        const auto lead_tid = static_cast<ThreadId>(2 * i);
        const auto trail_tid = static_cast<ThreadId>(2 * i + 1);

        RedundantPairParams pp;
        pp.logical = static_cast<LogicalId>(i);
        pp.leading = HwThread{0, lead_tid};
        pp.trailing = HwThread{0, trail_tid};
        pp.lvq_entries = cp.cpu.lvq_entries;
        pp.lpq_entries = cp.cpu.lpq_entries;
        pp.lvq_ecc = cp.cpu.lvq_ecc;
        pp.lpq_ecc = opts.lpq_ecc;
        pp.boq_ecc = opts.boq_ecc;
        pp.forward_latency_lpq = cp.cpu.lpq_forward_latency;
        pp.forward_latency_lvq = cp.cpu.lvq_forward_latency;
        pp.cross_core_latency = 0;
        RedundantPair &pair = _chip->redundancy().addPair(pp);
        pair.memory = memories[i].get();
        if (opts.recovery) {
            if (opts.cosim)
                fatal("recovery is incompatible with cosim");
            pair.recovery = std::make_unique<RecoveryManager>(
                opts.recovery_params, workloads[i].program.entry(),
                "pair" + std::to_string(i) + ".recovery");
        }

        SmtCpu &cpu = _chip->cpu(0);
        cpu.addThread(lead_tid, workloads[i].program, *memories[i],
                      static_cast<LogicalId>(i), Role::Leading, &pair);
        cpu.addThread(trail_tid, workloads[i].program, *memories[i],
                      static_cast<LogicalId>(i), Role::Trailing, &pair);
        const std::uint64_t total =
            opts.warmup_insts + opts.measure_insts;
        cpu.setTarget(lead_tid, total, opts.warmup_insts);
        cpu.setTarget(trail_tid, total, opts.warmup_insts);

        placements[i] = Placement{0, lead_tid, 0, trail_tid, true};
    }
}

void
Simulation::buildCrt()
{
    const unsigned n = static_cast<unsigned>(workloads.size());
    if (n > 4)
        fatal("CRT mode: at most 4 logical threads");

    ChipParams cp;
    cp.num_cores = 2;
    cp.cpu = coreParams(opts);
    // Each core runs ceil(n/2) leading + floor-or-so trailing contexts.
    cp.cpu.num_threads = std::max(2u, ((n + 1) / 2) * 2);
    cp.mem = opts.mem;
    _chip = std::make_unique<Chip>(cp);
    _chip->setFaultInjector(&injector);

    // Cross-coupling (Figure 5): program i leads on core i%2 and trails
    // on the other core, so each core pairs the resource-light trailing
    // thread of one program with the leading thread of another.
    std::array<ThreadId, 2> next_lead{0, 0};
    std::array<ThreadId, 2> next_trail{0, 0};
    // Leading contexts occupy the low tids on each core.
    const unsigned leads_per_core = (n + 1) / 2;

    for (unsigned i = 0; i < n; ++i) {
        const CoreId lead_core = static_cast<CoreId>(i % 2);
        const CoreId trail_core = static_cast<CoreId>(1 - i % 2);
        const ThreadId lead_tid = next_lead[lead_core]++;
        const ThreadId trail_tid = static_cast<ThreadId>(
            leads_per_core + next_trail[trail_core]++);

        RedundantPairParams pp;
        pp.logical = static_cast<LogicalId>(i);
        pp.leading = HwThread{lead_core, lead_tid};
        pp.trailing = HwThread{trail_core, trail_tid};
        pp.lvq_entries = cp.cpu.lvq_entries;
        pp.lpq_entries = cp.cpu.lpq_entries;
        pp.lvq_ecc = cp.cpu.lvq_ecc;
        pp.lpq_ecc = opts.lpq_ecc;
        pp.boq_ecc = opts.boq_ecc;
        pp.forward_latency_lpq = cp.cpu.lpq_forward_latency;
        pp.forward_latency_lvq = cp.cpu.lvq_forward_latency;
        pp.cross_core_latency = cp.cpu.cross_core_latency;
        RedundantPair &pair = _chip->redundancy().addPair(pp);
        pair.memory = memories[i].get();
        if (opts.recovery) {
            if (opts.cosim)
                fatal("recovery is incompatible with cosim");
            pair.recovery = std::make_unique<RecoveryManager>(
                opts.recovery_params, workloads[i].program.entry(),
                "pair" + std::to_string(i) + ".recovery");
        }

        const std::uint64_t total =
            opts.warmup_insts + opts.measure_insts;
        _chip->cpu(lead_core).addThread(lead_tid, workloads[i].program,
                                        *memories[i],
                                        static_cast<LogicalId>(i),
                                        Role::Leading, &pair);
        _chip->cpu(lead_core).setTarget(lead_tid, total, opts.warmup_insts);
        _chip->cpu(trail_core).addThread(trail_tid, workloads[i].program,
                                         *memories[i],
                                         static_cast<LogicalId>(i),
                                         Role::Trailing, &pair);
        _chip->cpu(trail_core).setTarget(trail_tid, total,
                                         opts.warmup_insts);

        placements[i] =
            Placement{lead_core, lead_tid, trail_core, trail_tid, true};
    }
}

RunResult
Simulation::run()
{
    const std::uint64_t per_thread =
        opts.warmup_insts + opts.measure_insts;
    // Generous safety cap: no sane configuration exceeds ~100 CPI.
    const Cycle cap =
        100 * per_thread * std::max<std::uint64_t>(workloads.size(), 1) +
        1'000'000;

    // Same tick sequence as Chip::run(cap), unrolled here so the
    // warmup/measure wall-clock split can be attributed.  The warmup
    // boundary check only moves the timer lap; it never changes which
    // cycles are simulated.
    auto pastWarmup = [&]() {
        for (const Placement &pl : placements) {
            if (_chip->cpu(pl.lead_core).committed(pl.lead_tid) <
                opts.warmup_insts) {
                return false;
            }
            if (pl.redundant &&
                _chip->cpu(pl.trail_core).committed(pl.trail_tid) <
                    opts.warmup_insts) {
                return false;
            }
        }
        return true;
    };

    // Forward-progress watchdog: every live hardware thread (including
    // Base2 copies that have no placement entry) must commit within any
    // hang_cycles window, else the run ends with a structured Hang
    // verdict instead of spinning to the cap.
    struct ProgressWatch
    {
        CoreId core;
        ThreadId tid;
        std::uint64_t committed;
        Cycle last;
    };
    std::vector<ProgressWatch> watch;
    if (opts.hang_cycles) {
        for (unsigned c = 0; c < _chip->numCores(); ++c) {
            SmtCpu &cpu = _chip->cpu(c);
            for (unsigned t = 0; t < cpu.numThreads(); ++t) {
                if (cpu.threadActive(static_cast<ThreadId>(t))) {
                    watch.push_back(ProgressWatch{
                        static_cast<CoreId>(c), static_cast<ThreadId>(t),
                        cpu.committed(static_cast<ThreadId>(t)), 0});
                }
            }
        }
    }

    // A detection-only machine (recovery off) stops at its first
    // detection: its checker signals, and nothing a later cycle does
    // can change the trial's verdict (FaultOracle::classify ranks a
    // detection first).  One flag the pairs raise, read once a cycle.
    const bool stop_at_detection = !opts.recovery;
    const RedundancyManager &pairs = _chip->redundancy();

    WallTimer run_timer;
    double warmup_seconds = 0;
    bool in_warmup = opts.warmup_insts > 0;
    bool halted = false;    // watchdog fired, or stopped at a detection
    Cycle n = 0;

    // One simulated cycle with warmup/watchdog/detection accounting;
    // shared by the main loop, the snapshot-barrier drain and the final
    // drain so a drained cycle is indistinguishable from any other.
    auto tickOnce = [&]() {
        _chip->tick();
        ++n;
        if (stop_at_detection && pairs.anyFaultDetected())
            halted = true;
        if (in_warmup && pastWarmup()) {
            warmup_seconds = run_timer.lap();
            in_warmup = false;
        }
        for (auto &w : watch) {
            SmtCpu &cpu = _chip->cpu(w.core);
            if (cpu.threadDone(w.tid)) {
                w.last = n;
                continue;
            }
            const std::uint64_t done = cpu.committed(w.tid);
            if (done != w.committed) {
                w.committed = done;
                w.last = n;
            } else if (n - w.last >= opts.hang_cycles) {
                halted = true;
                break;
            }
        }
    };

    // Snapshot barriers key off the *absolute* chip cycle so a restored
    // run executes the same freeze-drain schedule as an unbroken one.
    const std::uint64_t snap_every = opts.snapshot_every;
    Cycle next_barrier = 0;
    if (snap_every)
        next_barrier = (_chip->cycle() / snap_every + 1) * snap_every;

    while (n < cap && !_chip->allDone() && !halted) {
        tickOnce();
        if (snap_every && !halted && !_chip->allDone() &&
            _chip->cycle() >= next_barrier) {
            // Freeze-drain: stop non-trailing fetch, let everything in
            // flight commit, then (quiesced) hand control to the hook.
            _chip->setDraining(true);
            const Cycle drain_start = _chip->cycle();
            while (!_chip->quiescedForSnapshot() && n < cap && !halted) {
                tickOnce();
                if (_chip->cycle() - drain_start > maxSnapshotDrainCycles) {
                    fatal("snapshot barrier at cycle %llu did not quiesce "
                          "within %llu cycles",
                          static_cast<unsigned long long>(next_barrier),
                          static_cast<unsigned long long>(
                              maxSnapshotDrainCycles));
                }
            }
            _chip->setDraining(false);
            if (!halted && _chip->quiescedForSnapshot() && snapshotHook) {
                snapshotHook(_chip->cycle(), *this);
                if (stopped)
                    break;
            }
            next_barrier = (_chip->cycle() / snap_every + 1) * snap_every;
        }
    }
    // Drain: forwarded outputs may still be in flight (Chip::run), and a
    // detection among them stops the run as any other does.
    if (_chip->allDone()) {
        for (Cycle d = 0; d < Chip::drainCycles && n < cap && !halted; ++d)
            tickOnce();
    }
    if (in_warmup)
        warmup_seconds = run_timer.lap();
    const double measure_seconds = run_timer.lap();

    RunResult result;
    result.host.build_seconds = buildSeconds;
    result.host.restore_seconds = restoreSeconds;
    result.host.warmup_seconds = warmup_seconds;
    result.host.measure_seconds = measure_seconds;
    result.total_cycles = _chip->cycle();

    for (unsigned i = 0; i < workloads.size(); ++i) {
        const Placement &pl = placements[i];
        SmtCpu &lead_cpu = _chip->cpu(pl.lead_core);
        ThreadResult tr;
        tr.workload = workloads[i].name;
        tr.ipc = lead_cpu.ipc(pl.lead_tid);
        tr.committed = lead_cpu.committed(pl.lead_tid);
        tr.cycles = lead_cpu.threadCycles(pl.lead_tid);
        result.threads.push_back(tr);

        if (pl.redundant) {
            RedundantPair *pair =
                _chip->redundancy().pairFor(pl.lead_core, pl.lead_tid);
            result.detections += pair->detectionCount();
            if (pair->recovery)
                result.recoveries += pair->recovery->recoveries();
            result.fu_pairs += pair->fuPairsCompared();
            result.fu_same_unit += pair->fuPairsSameUnit();
            result.store_comparisons += pair->comparator.comparisons();
            result.store_mismatches += pair->comparator.mismatches();
        }
    }

    double lifetime_sum = 0;
    unsigned lifetime_n = 0;
    for (unsigned c = 0; c < _chip->numCores(); ++c) {
        SmtCpu &cpu = _chip->cpu(c);
        result.commit_width = cpu.commitWidth();
        result.attribution_core_cycles += cpu.cycleCount();
        result.attribution += cpu.attributionSlots();
        result.sq_full_stalls += cpu.sqFullStalls();
        result.lvq_full_stalls += cpu.lvqFullStalls();
        result.branch_mispredicts += cpu.branchMispredicts();
        result.line_mispredicts += cpu.lineMispredicts();
        for (unsigned i = 0; i < workloads.size(); ++i) {
            const Placement &pl = placements[i];
            if (pl.lead_core == c) {
                const double m = cpu.avgStoreLifetime(pl.lead_tid);
                if (m > 0) {
                    lifetime_sum += m;
                    ++lifetime_n;
                }
            }
        }
    }
    if (lifetime_n)
        result.avg_leading_store_lifetime = lifetime_sum / lifetime_n;

    // Structured verdict.  "Reached" asks whether every logical thread
    // hit its instruction target: a chip can be allDone() short of the
    // target when a fault steered a thread into an early Halt, which is
    // not a completed run.
    bool reached = true;
    for (const Placement &pl : placements) {
        if (_chip->cpu(pl.lead_core).committed(pl.lead_tid) < per_thread)
            reached = false;
        if (pl.redundant &&
            _chip->cpu(pl.trail_core).committed(pl.trail_tid) <
                per_thread) {
            reached = false;
        }
    }
    if (halted) {
        result.outcome = result.detections ? Outcome::DetectedUnrecoverable
                                           : Outcome::Hang;
    } else if (!_chip->allDone()) {
        result.outcome = Outcome::CapExceeded;
    } else if (reached) {
        result.outcome = Outcome::Completed;
    } else {
        result.outcome = result.detections ? Outcome::DetectedUnrecoverable
                                           : Outcome::Hang;
    }
    result.completed = result.outcome == Outcome::Completed;

    std::uint64_t committed_total = 0;
    for (unsigned c = 0; c < _chip->numCores(); ++c)
        committed_total += _chip->cpu(c).committedAll();
    const double sim_seconds = warmup_seconds + measure_seconds;
    if (sim_seconds > 0) {
        result.host.sim_kips =
            static_cast<double>(committed_total) / sim_seconds / 1000.0;
    }

    if (opts.collect_stats_json)
        result.stats_json = statsJson(result);
    return result;
}

std::string
Simulation::statsJson(const RunResult &result)
{
    // The schema/mode/workloads keys never change for a Simulation;
    // format them once and reuse across repeated exports.
    if (statsJsonPrefix.empty()) {
        std::ostringstream os;
        os << "{\"schema\":\"rmtsim-stats-v1\""
           << ",\"mode\":\"" << modeName(opts.mode) << "\""
           << ",\"workloads\":[";
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            os << (i ? "," : "") << "\""
               << jsonEscape(workloads[i].name) << "\"";
        }
        os << "],";
        statsJsonPrefix = os.str();
    }
    std::ostringstream os;
    os << statsJsonPrefix
       << "\"total_cycles\":" << result.total_cycles
       << ",\"completed\":" << (result.completed ? "true" : "false")
       << ",\"outcome\":\"" << outcomeName(result.outcome) << "\""
       << ",\"host\":" << result.host.json()
       << ",\"attribution\":";
    // Recompute from the chip rather than trusting the caller's
    // RunResult: a restored run's counters came back through the
    // snapshot walk, and this keeps the export tied to them.
    {
        StallSlots slots;
        std::uint64_t core_cycles = 0;
        unsigned width = 0;
        for (unsigned c = 0; c < _chip->numCores(); ++c) {
            const SmtCpu &cpu = _chip->cpu(c);
            width = cpu.commitWidth();
            core_cycles += cpu.cycleCount();
            slots += cpu.attributionSlots();
        }
        os << "{\"width\":" << width
           << ",\"core_cycles\":" << core_cycles
           << ",\"slots\":";
        slots.json(os);
        os << "}";
    }
    os << ",\"groups\":" << chipStatsJson(*_chip) << "}";
    return os.str();
}

std::uint64_t
optionsFingerprintU64(const SimOptions &options)
{
    return fnv1a64(optionsCanonicalJson(options));
}

namespace
{

/**
 * Data images are huge and almost entirely zero (the workloads touch a
 * small fraction of their address space), so the "memory" section stores
 * only the nonzero 4 KiB pages: total size, page size, page count, then
 * (page index, page bytes) per stored page.  Only touched pages can be
 * nonzero, so saving walks those alone.  Restore clears the image
 * first, which is exact — the saved state fully defines the image.
 */
constexpr std::size_t snapshotPageBytes = DataMemory::pageBytes;

void
saveSparseMemory(Serializer &s, const DataMemory &m)
{
    // Two walks, one to count and one to write, so no list of stored
    // pages is built for a save or a compare (matchesSnapshot).
    std::uint32_t stored = 0;
    m.forEachTouchedPage(
        [&stored](std::size_t, std::span<const std::uint8_t> bytes) {
            stored += !DataMemory::zeroBytes(bytes.data(), bytes.size());
        });

    s.u64(m.size());
    s.u32(static_cast<std::uint32_t>(snapshotPageBytes));
    s.u32(stored);
    m.forEachTouchedPage(
        [&s](std::size_t p, std::span<const std::uint8_t> bytes) {
            if (!s.matches() ||
                DataMemory::zeroBytes(bytes.data(), bytes.size()))
                return;
            s.u32(static_cast<std::uint32_t>(p));
            s.blob(bytes.data(), bytes.size());
        });
}

void
loadSparseMemory(Deserializer &d, DataMemory &m)
{
    if (d.u64() != m.size())
        throw SnapshotError("snapshot: memory image size mismatch");
    if (d.u32() != snapshotPageBytes)
        throw SnapshotError("snapshot: memory page size mismatch");

    m.clear();
    const std::uint32_t stored = d.u32();
    for (std::uint32_t i = 0; i < stored; ++i) {
        const std::uint64_t off =
            std::uint64_t{d.u32()} * snapshotPageBytes;
        const std::span<const std::uint8_t> page = d.blob();
        if (page.size() > m.size() || off > m.size() - page.size())
            throw SnapshotError("snapshot: memory page out of range");
        m.fill(off, page.data(), page.size());
    }
}

} // namespace

std::string
Simulation::saveSnapshotBuffer() const
{
    if (opts.cosim)
        throw SnapshotError("snapshots are incompatible with cosim");
    if (opts.recovery)
        throw SnapshotError("snapshots are incompatible with recovery");
    if (!_chip->quiescedForSnapshot()) {
        throw SnapshotError(
            "snapshot requires a quiesced chip (save from the snapshot "
            "hook or after the run finished)");
    }

    Serializer s;
    writeSnapshot(s);
    return s.finish(optionsFingerprintU64(opts));
}

bool
Simulation::matchesSnapshot(std::string_view image) const
{
    if (!_chip->quiescedForSnapshot()) {
        throw SnapshotError(
            "snapshot compare requires a quiesced chip (compare from the "
            "snapshot hook or after the run finished)");
    }
    Serializer s(image, optionsFingerprintU64(opts));
    writeSnapshot(s);
    return s.matchedWhole();
}

void
Simulation::writeSnapshot(Serializer &s) const
{
    s.beginSection("meta");
    s.u64(_chip->cycle());
    s.u32(static_cast<std::uint32_t>(workloads.size()));
    for (const Workload &w : workloads)
        s.str(w.name);
    s.endSection();
    if (!s.matches())
        return;

    s.beginSection("chip");
    _chip->saveState(s);
    s.endSection();
    if (!s.matches())
        return;

    s.beginSection("memory");
    s.u32(static_cast<std::uint32_t>(memories.size()));
    for (const auto &m : memories)
        saveSparseMemory(s, *m);
    s.u32(static_cast<std::uint32_t>(copyMemories.size()));
    for (const auto &m : copyMemories)
        saveSparseMemory(s, *m);
    s.endSection();
    if (!s.matches())
        return;

    saveChipStats(s, *_chip);
}

void
Simulation::restoreSnapshotBuffer(const std::string &image)
{
    if (opts.cosim)
        throw SnapshotError("snapshots are incompatible with cosim");
    if (opts.recovery)
        throw SnapshotError("snapshots are incompatible with recovery");
    if (_chip->cycle() != 0) {
        throw SnapshotError(
            "restore requires a freshly built simulation");
    }
    const WallTimer timer;

    // The constructor validates the whole image (header, every section
    // frame, name and CRC) before a single byte is applied: a truncated
    // or corrupted image must reject with the machine still pristine,
    // never half-restored.  The image is read in place, not copied.
    static constexpr std::string_view sections[] = {"meta", "chip",
                                                    "memory", "stats"};
    Deserializer d(image, optionsFingerprintU64(opts), sections);

    d.beginSection("meta");
    const Cycle cyc = d.u64();
    if (d.u32() != workloads.size())
        throw SnapshotError("snapshot: workload count mismatch");
    for (const Workload &w : workloads) {
        if (d.str() != w.name)
            throw SnapshotError("snapshot: workload set mismatch");
    }
    d.endSection();

    d.beginSection("chip");
    _chip->loadState(d);
    d.endSection();

    d.beginSection("memory");
    if (d.u32() != memories.size())
        throw SnapshotError("snapshot: memory image count mismatch");
    for (auto &m : memories)
        loadSparseMemory(d, *m);
    if (d.u32() != copyMemories.size())
        throw SnapshotError("snapshot: memory image count mismatch");
    for (auto &m : copyMemories)
        loadSparseMemory(d, *m);
    d.endSection();

    loadChipStats(d, *_chip);

    restoredAt = cyc;
    injector.setRestoredCycle(cyc);
    restoreSeconds = timer.elapsed();
}

void
Simulation::saveSnapshot(const std::string &path) const
{
    const std::string image = saveSnapshotBuffer();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw SnapshotError("cannot open snapshot file: " + path);
    out.write(image.data(),
              static_cast<std::streamsize>(image.size()));
    if (!out)
        throw SnapshotError("cannot write snapshot file: " + path);
}

void
Simulation::restoreSnapshot(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError("cannot open snapshot file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        restoreSnapshotBuffer(buf.str());
    } catch (const SnapshotError &e) {
        // Re-raise with the file named: "section 'chip' truncated" is
        // only actionable if you know which file held it.
        throw SnapshotError("snapshot file '" + path + "': " + e.what());
    }
}

RunResult
runSimulation(const std::vector<std::string> &workloads,
              const SimOptions &options)
{
    Simulation sim(workloads, options);
    return sim.run();
}

double
singleThreadIpc(const std::string &workload, const SimOptions &options)
{
    SimOptions single = options;
    single.mode = SimMode::Base;
    single.checker_penalty = 0;
    Simulation sim({workload}, single);
    const RunResult r = sim.run();
    return r.threads.at(0).ipc;
}

} // namespace rmt
