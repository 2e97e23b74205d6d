/**
 * @file
 * Fault-recovery extension bench (the paper's checker "initiates a ...
 * recovery sequence" — this measures the sequence we built):
 *
 *  1. checkpoint overhead: fault-free SRT IPC with verified
 *     checkpointing enabled, across checkpoint intervals;
 *  2. recovery cost: with a transient strike injected, the re-executed
 *     (discarded) work and the end-to-end slowdown, across intervals —
 *     the classic cadence trade-off (frequent checkpoints cost more
 *     up front but discard less on a fault).
 */

#include <cstdio>

#include "common/logging.hh"
#include "sim/simulator.hh"

using namespace rmt;

namespace
{

RunResult
runWith(std::uint64_t interval, bool inject)
{
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 0;
    o.measure_insts = 40000;
    o.recovery = true;
    o.recovery_params.interval_insts = interval;
    Simulation sim({"compress"}, o);
    if (inject) {
        FaultRecord f;
        f.kind = FaultRecord::Kind::TransientReg;
        f.when = 8000;
        f.core = 0;
        f.tid = 0;
        f.reg = intReg(3);      // hash-table base: propagates instantly
        f.bit = 5;
        sim.faultInjector().schedule(f);
    }
    RunResult r = sim.run();
    if (sim.chip().redundancy().pair(0).recovery) {
        r.recoveries =
            sim.chip().redundancy().pair(0).recovery->recoveries();
    }
    return r;
}

std::uint64_t
discardedWith(std::uint64_t interval)
{
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 0;
    o.measure_insts = 40000;
    o.recovery = true;
    o.recovery_params.interval_insts = interval;
    Simulation sim({"compress"}, o);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 8000;
    f.core = 0;
    f.tid = 0;
    f.reg = intReg(3);
    f.bit = 5;
    sim.faultInjector().schedule(f);
    sim.run();
    return sim.chip().redundancy().pair(0).recovery->discardedInsts();
}

} // namespace

int
main()
{
    setInformEnabled(false);

    // Baseline: SRT without recovery machinery.
    SimOptions base_opts;
    base_opts.mode = SimMode::Srt;
    base_opts.warmup_insts = 0;
    base_opts.measure_insts = 40000;
    const RunResult base = runSimulation({"compress"}, base_opts);

    std::printf("Fault recovery (verified checkpointing), compress/SRT\n");
    std::printf("baseline SRT IPC (no recovery machinery): %.3f\n\n",
                base.threads[0].ipc);
    std::printf("%-10s %12s %12s %14s %12s\n", "interval", "cleanIPC",
                "faultIPC", "discarded", "recoveries");

    for (std::uint64_t interval : {250u, 500u, 1000u, 2000u, 4000u,
                                   8000u}) {
        const RunResult clean = runWith(interval, false);
        const RunResult faulty = runWith(interval, true);
        const std::uint64_t discarded = discardedWith(interval);
        std::printf("%-10llu %12.3f %12.3f %14llu %12llu\n",
                    static_cast<unsigned long long>(interval),
                    clean.threads[0].ipc, faulty.threads[0].ipc,
                    static_cast<unsigned long long>(discarded),
                    static_cast<unsigned long long>(faulty.recoveries));
    }
    std::printf("\nsmaller intervals discard less work per recovery; "
                "checkpointing itself is bookkeeping-only (cleanIPC "
                "tracks the baseline).\n");
    return 0;
}
