#include <gtest/gtest.h>

#include <cstring>

#include "cmp/chip.hh"
#include "rmt/recovery.hh"
#include "sim/simulator.hh"

using namespace rmt;

namespace
{

constexpr RegIndex r1 = intReg(1);
constexpr RegIndex r2 = intReg(2);
constexpr RegIndex r3 = intReg(3);
constexpr RegIndex r4 = intReg(4);

/**
 * A halting, store-dense kernel: walks a table, mixing values and
 * writing every slot, so any unrecovered corruption is visible in the
 * final memory image.
 */
Program
haltingKernel(int iters)
{
    ProgramBuilder b("halting");
    b.li(r1, 0x1000);
    b.li(r2, iters);
    b.li(r3, 0x1234);
    b.label("loop");
    b.andi(r4, r2, 0x3FF);
    b.slli(r4, r4, 3);
    b.add(r4, r1, r4);
    b.xori(r3, r3, 0x55);
    b.add(r3, r3, r2);
    b.stq(r3, r4, 0);
    b.addi(r2, r2, -1);
    b.bne(r2, intReg(0), "loop");
    b.li(r4, 0x9000);
    b.stq(r3, r4, 0);
    b.halt();
    return b.build();
}

struct RecoveryHarness
{
    RecoveryHarness(const Program &prog, bool with_recovery,
                    std::uint64_t interval = 500)
        : program(prog), mem(64 * 1024)
    {
        ChipParams cp;
        cp.num_cores = 1;
        cp.cpu.num_threads = 2;
        chip = std::make_unique<Chip>(cp);

        RedundantPairParams pp;
        pp.leading = HwThread{0, 0};
        pp.trailing = HwThread{0, 1};
        pair = &chip->redundancy().addPair(pp);
        pair->memory = &mem;
        if (with_recovery) {
            RecoveryParams rp;
            rp.interval_insts = interval;
            pair->recovery = std::make_unique<RecoveryManager>(
                rp, program.entry(), "recovery");
        }
        chip->cpu(0).addThread(0, program, mem, 0, Role::Leading, pair);
        chip->cpu(0).addThread(1, program, mem, 0, Role::Trailing, pair);
    }

    bool
    run(Cycle cap = 2000000)
    {
        chip->run(cap);
        return chip->allDone();
    }

    Program program;
    DataMemory mem;
    std::unique_ptr<Chip> chip;
    RedundantPair *pair = nullptr;
    FaultInjector injector;
};

std::vector<std::uint8_t>
goldenImage(const Program &prog)
{
    DataMemory mem(64 * 1024);
    ArchState st(prog, mem);
    st.run(10'000'000);
    EXPECT_TRUE(st.halted());
    return {mem.data(), mem.data() + mem.size()};
}

} // namespace

// ------------------------------------------------ RecoveryManager unit

TEST(RecoveryManager, UndoLogRollsMemoryBack)
{
    DataMemory mem(256);
    mem.write(0x10, 8, 0x1111);
    RecoveryManager rm(RecoveryParams{}, 0x1000, "rm");
    rm.preStore(mem, 0x10, 8);
    mem.write(0x10, 8, 0x2222);
    rm.preStore(mem, 0x10, 8);
    mem.write(0x10, 8, 0x3333);
    rm.rollback(mem, 100);
    EXPECT_EQ(mem.read(0x10, 8), 0x1111u);
    EXPECT_EQ(rm.recoveries(), 1u);
}

TEST(RecoveryManager, CheckpointCadence)
{
    RecoveryManager rm(RecoveryParams{.interval_insts = 100,
                                      .max_recoveries = 8},
                       0x1000, "rm");
    std::array<std::uint64_t, numArchRegs> regs{};
    rm.noteCommit(regs, 0x1004, 50, 0, 0);      // below the interval
    EXPECT_EQ(rm.pendingCandidates(), 0u);
    rm.noteCommit(regs, 0x1008, 100, 3, 2);     // at the interval
    EXPECT_EQ(rm.pendingCandidates(), 1u);
    rm.noteCommit(regs, 0x100c, 150, 4, 3);     // below the next one
    EXPECT_EQ(rm.pendingCandidates(), 1u);
}

TEST(RecoveryManager, CandidatePromotionWaitsForVerification)
{
    RecoveryManager rm(RecoveryParams{.interval_insts = 10,
                                      .max_recoveries = 8},
                       0x1000, "rm");
    std::array<std::uint64_t, numArchRegs> regs{};
    regs[1] = 0xAB;
    // Candidate over 5 stores (indices 0..4).
    rm.noteCommit(regs, 0x2000, 10, 7, 5);
    EXPECT_EQ(rm.active().next_pc, 0x1000u);    // still checkpoint zero
    rm.noteVerified(3);
    EXPECT_EQ(rm.active().next_pc, 0x1000u);    // store 4 unverified
    rm.noteVerified(4);
    EXPECT_EQ(rm.active().next_pc, 0x2000u);    // promoted
    EXPECT_EQ(rm.active().regs[1], 0xABu);
    EXPECT_EQ(rm.active().load_tag, 7u);
}

TEST(RecoveryManager, PromotionDropsUndoPrefix)
{
    DataMemory mem(256);
    RecoveryManager rm(RecoveryParams{.interval_insts = 10,
                                      .max_recoveries = 8},
                       0x1000, "rm");
    mem.write(0x20, 8, 0xAAAA);
    rm.preStore(mem, 0x20, 8);
    mem.write(0x20, 8, 0xBBBB);
    std::array<std::uint64_t, numArchRegs> regs{};
    rm.noteCommit(regs, 0x2000, 10, 0, 1);  // ckpt over store 0
    rm.noteVerified(0);                     // promote
    EXPECT_EQ(rm.undoLogBytes(), 0u);       // prefix discarded
    // Rolling back now lands on the NEW checkpoint state (0xBBBB).
    rm.preStore(mem, 0x20, 8);
    mem.write(0x20, 8, 0xCCCC);
    rm.rollback(mem, 20);
    EXPECT_EQ(mem.read(0x20, 8), 0xBBBBu);
}

TEST(RecoveryManager, AttemptCap)
{
    DataMemory mem(64);
    RecoveryManager rm(RecoveryParams{.interval_insts = 10,
                                      .max_recoveries = 2},
                       0x1000, "rm");
    EXPECT_TRUE(rm.canRecover());
    rm.rollback(mem, 0);
    rm.rollback(mem, 0);
    EXPECT_FALSE(rm.canRecover());
    EXPECT_TRUE(rm.exhausted());
}

// -------------------------------------------------- end-to-end recovery

TEST(Recovery, TransientFaultIsRepairedExactly)
{
    // THE recovery property: inject a strike, detect, roll back, rerun —
    // and the final memory image is bit-identical to a fault-free run.
    const Program prog = haltingKernel(3000);
    const auto golden = goldenImage(prog);

    RecoveryHarness h(prog, true);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 2000;
    f.core = 0;
    f.tid = 0;
    f.reg = r1;         // the table base: long-lived, every store
                        // address derives from it
    f.bit = 3;
    h.injector.schedule(f);
    h.chip->setFaultInjector(&h.injector);

    ASSERT_TRUE(h.run());
    EXPECT_GE(h.pair->recovery->recoveries(), 1u);
    EXPECT_EQ(0, std::memcmp(h.mem.data(), golden.data(), golden.size()))
        << "memory corrupted despite recovery";
}

TEST(Recovery, FaultInTrailingAlsoRepaired)
{
    const Program prog = haltingKernel(3000);
    const auto golden = goldenImage(prog);
    RecoveryHarness h(prog, true);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 2500;
    f.core = 0;
    f.tid = 1;
    f.reg = r1;         // trailing's table base: addresses skew
    f.bit = 3;
    h.injector.schedule(f);
    h.chip->setFaultInjector(&h.injector);
    ASSERT_TRUE(h.run());
    EXPECT_GE(h.pair->recovery->recoveries(), 1u);
    EXPECT_EQ(0, std::memcmp(h.mem.data(), golden.data(), golden.size()));
}

TEST(Recovery, NoFaultMeansNoRecoveryAndNoPerturbation)
{
    const Program prog = haltingKernel(2000);
    const auto golden = goldenImage(prog);
    RecoveryHarness h(prog, true);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.pair->recovery->recoveries(), 0u);
    EXPECT_GT(h.pair->recovery->stats().name().size(), 0u);
    EXPECT_EQ(0, std::memcmp(h.mem.data(), golden.data(), golden.size()));
}

TEST(Recovery, CheckpointOverheadIsModest)
{
    const Program prog = haltingKernel(4000);
    RecoveryHarness plain(prog, false);
    ASSERT_TRUE(plain.run());
    const Cycle base_cycles = plain.chip->cycle();

    RecoveryHarness ck(prog, true, 250);    // aggressive cadence
    ASSERT_TRUE(ck.run());
    // Checkpointing is bookkeeping, not stalling: < 5% slowdown.
    EXPECT_LT(ck.chip->cycle(), base_cycles * 1.05 + Chip::drainCycles);
}

TEST(Recovery, PermanentFaultExhaustsAttemptsGracefully)
{
    const Program prog = haltingKernel(3000);
    RecoveryHarness h(prog, true);
    // Rebuild the pair's recovery with a tight cap.
    RecoveryParams rp;
    rp.interval_insts = 500;
    rp.max_recoveries = 2;
    h.pair->recovery = std::make_unique<RecoveryManager>(
        rp, prog.entry(), "recovery");

    // Break the upper half's integer ALUs: PSR places the trailing
    // copies in the lower half, so corruption is one-sided and every
    // affected store pair mismatches.  (Breaking *all* units would be a
    // common-mode failure: both copies corrupt identically and compare
    // equal — no redundancy scheme catches that.)
    for (unsigned u = 0; u < 4; ++u) {
        FaultRecord f;
        f.kind = FaultRecord::Kind::PermanentFu;
        f.when = 1000;
        f.core = 0;
        f.fuIndex = u;
        f.mask = 1ull << 2;
        h.injector.schedule(f);
    }
    h.chip->setFaultInjector(&h.injector);

    h.run(600000);
    // Attempts exhausted; the pair keeps flagging the (permanent) fault.
    EXPECT_TRUE(h.pair->recovery->exhausted());
    EXPECT_TRUE(h.pair->faultDetected());
}

TEST(Recovery, WorksAcrossCoresUnderCrt)
{
    const Program prog = haltingKernel(2500);
    const auto golden = goldenImage(prog);

    ChipParams cp;
    cp.num_cores = 2;
    cp.cpu.num_threads = 2;
    Chip chip(cp);
    DataMemory mem(64 * 1024);
    RedundantPairParams pp;
    pp.leading = HwThread{0, 0};
    pp.trailing = HwThread{1, 0};
    pp.cross_core_latency = 4;
    RedundantPair &pair = chip.redundancy().addPair(pp);
    pair.memory = &mem;
    RecoveryParams rp;
    rp.interval_insts = 500;
    pair.recovery =
        std::make_unique<RecoveryManager>(rp, prog.entry(), "recovery");
    chip.cpu(0).addThread(0, prog, mem, 0, Role::Leading, &pair);
    chip.cpu(1).addThread(0, prog, mem, 0, Role::Trailing, &pair);

    FaultInjector injector;
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 2200;
    f.core = 0;
    f.tid = 0;
    f.reg = r1;
    f.bit = 3;
    injector.schedule(f);
    chip.setFaultInjector(&injector);

    chip.run(2000000);
    ASSERT_TRUE(chip.allDone());
    EXPECT_GE(pair.recovery->recoveries(), 1u);
    EXPECT_EQ(0, std::memcmp(mem.data(), golden.data(), golden.size()));
}

TEST(Recovery, SimulationLevelOption)
{
    // The strike is detected at cycle 3079; with recovery the pair
    // rolls back and the run goes on to its budget (a detection-only
    // run stops at that cycle): the pinned RunResult is the whole run.
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 0;
    o.measure_insts = 10000;
    o.recovery = true;
    Simulation sim({"compress"}, o);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 3000;
    f.core = 0;
    f.tid = 0;
    f.reg = intReg(3);
    f.bit = 5;
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    const auto &events = sim.chip().redundancy().pair(0).detections();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().cycle, 3079u);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.outcome, Outcome::Completed);
    EXPECT_EQ(r.total_cycles, 6978u);
    ASSERT_EQ(r.threads.size(), 1u);
    EXPECT_EQ(r.threads.front().committed, 10226u);
    EXPECT_EQ(r.threads.front().cycles, 6807u);
    EXPECT_EQ(r.detections, 1u);
    EXPECT_EQ(r.recoveries, 1u);
    EXPECT_EQ(r.store_comparisons, 1324u);
    EXPECT_EQ(r.store_mismatches, 0u);
}
