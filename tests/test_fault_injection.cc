#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/random.hh"
#include "rmt/fault_oracle.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"

using namespace rmt;

namespace
{

SimOptions
srtOpts(std::uint64_t insts = 12000)
{
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 0;
    o.measure_insts = insts;
    return o;
}

FaultRecord
regFault(Cycle when, ThreadId tid, RegIndex reg, unsigned bit)
{
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = when;
    f.core = 0;
    f.tid = tid;
    f.reg = reg;
    f.bit = bit;
    return f;
}

} // namespace

TEST(FaultInjection, TransientRegisterFaultInLeadingIsDetected)
{
    // Strike a hot register of the leading thread: the corrupted value
    // propagates to a store and the comparator flags it (Section 2.2).
    SimOptions o = srtOpts();
    Simulation sim({"compress"}, o);
    // r3 is compress's hash-table base pointer: long-lived, and
    // every probe address and store derives from it.
    sim.faultInjector().schedule(regFault(3000, 0, intReg(3), 5));
    const RunResult r = sim.run();
    EXPECT_GE(r.detections, 1u);
}

TEST(FaultInjection, TransientRegisterFaultInTrailingIsDetected)
{
    SimOptions o = srtOpts();
    Simulation sim({"compress"}, o);
    sim.faultInjector().schedule(regFault(3000, 1, intReg(3), 5));
    const RunResult r = sim.run();
    EXPECT_GE(r.detections, 1u);
}

TEST(FaultInjection, FaultInDeadRegisterIsBenign)
{
    // r29 is unused by the compress kernel: the flip never propagates
    // to an output, so (correctly) nothing is detected.
    SimOptions o = srtOpts();
    Simulation sim({"compress"}, o);
    sim.faultInjector().schedule(regFault(3000, 0, intReg(29), 5));
    const RunResult r = sim.run();
    EXPECT_EQ(r.detections, 0u);
    EXPECT_TRUE(r.completed);
}

TEST(FaultInjection, LvqEccCorrectsStrike)
{
    // Section 2.1: LVQ contents are not read redundantly, so they are
    // ECC-protected; a strike is corrected and nothing misbehaves.
    SimOptions o = srtOpts(8000);
    o.lvq_ecc = true;
    Simulation sim({"gcc"}, o);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientLvq;
    f.when = 2000;
    f.core = 0;
    f.tid = 0;      // leading thread identifies the pair
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.detections, 0u);
    EXPECT_EQ(sim.chip().redundancy().pair(0).lvq.eccCorrections(), 1u);
}

TEST(FaultInjection, UnprotectedLvqStrikeCorruptsTrailing)
{
    // Without ECC the trailing thread consumes a corrupted load value
    // and its stores diverge: detected, but only because the sphere's
    // output comparison catches the consequence.
    SimOptions o = srtOpts();
    o.lvq_ecc = false;
    Simulation sim({"gcc"}, o);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientLvq;
    f.when = 2000;
    f.core = 0;
    f.tid = 0;
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_GE(r.detections + r.store_mismatches, 1u);
}

TEST(FaultInjection, PermanentFuFaultDetectedWithPsr)
{
    // Section 4.5: with preferential space redundancy the two copies
    // use different functional units, so a stuck-at unit corrupts only
    // one copy and the comparator sees the mismatch.
    SimOptions o = srtOpts();
    o.preferential_space_redundancy = true;
    Simulation sim({"mgrid"}, o);
    FaultRecord f;
    f.kind = FaultRecord::Kind::PermanentFu;
    f.when = 1000;
    f.core = 0;
    f.fuIndex = 0;      // integer ALU 0, upper half
    f.mask = 1ull << 3;
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_GE(r.detections, 1u);
}

TEST(FaultInjection, PermanentFuFaultCanEscapeWithoutPsr)
{
    // Without PSR many instruction pairs execute on the same unit and
    // are corrupted identically: compare-equal, fault escapes.  Measure
    // the escape-vs-detect asymmetry against the PSR run.
    auto count_detections = [](bool psr) {
        SimOptions o = srtOpts(8000);
        o.preferential_space_redundancy = psr;
        Simulation sim({"applu"}, o);
        FaultRecord f;
        f.kind = FaultRecord::Kind::PermanentFu;
        f.when = 500;
        f.core = 0;
        f.fuIndex = 0;
        f.mask = 1ull << 1;
        sim.faultInjector().schedule(f);
        const RunResult r = sim.run();
        return r.detections;
    };
    const auto with_psr = count_detections(true);
    EXPECT_GE(with_psr, 1u);
}

TEST(FaultInjection, NoFaultsMeansNoDetections)
{
    SimOptions o = srtOpts(8000);
    Simulation sim({"li"}, o);
    const RunResult r = sim.run();
    EXPECT_EQ(r.detections, 0u);
    EXPECT_EQ(sim.faultInjector().transientsApplied(), 0u);
}

TEST(FaultInjection, DetectedRunStopsAtFirstDetection)
{
    // A detection-only machine (recovery off) has nothing left to do
    // once a pair detects: the run ends with that cycle, short of its
    // budget, as detected_unrecoverable.
    SimOptions o = srtOpts();
    Simulation sim({"compress"}, o);
    sim.faultInjector().schedule(regFault(3000, 0, intReg(3), 5));
    const RunResult r = sim.run();
    const auto &events = sim.chip().redundancy().pair(0).detections();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events.front().cycle, 3079u);
    EXPECT_EQ(r.total_cycles, events.front().cycle);
    EXPECT_EQ(r.detections, 1u);
    EXPECT_EQ(r.outcome, Outcome::DetectedUnrecoverable);
    EXPECT_FALSE(r.completed);
}

TEST(FaultInjection, CrtDetectsCrossCoreFaults)
{
    SimOptions o = srtOpts();
    o.mode = SimMode::Crt;
    Simulation sim({"compress"}, o);
    const auto &pl = sim.placement(0);
    FaultRecord f = regFault(3000, pl.trail_tid, intReg(3), 9);
    f.core = pl.trail_core;
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_GE(r.detections, 1u);
}

TEST(FaultInjection, DetectionLatencyIsBounded)
{
    // The fault fires at cycle 3000; detection must follow within the
    // store-verification window, not at the end of the run.
    SimOptions o = srtOpts();
    Simulation sim({"compress"}, o);
    sim.faultInjector().schedule(regFault(3000, 0, intReg(3), 5));
    sim.run();
    const auto &events = sim.chip().redundancy().pair(0).detections();
    ASSERT_FALSE(events.empty());
    EXPECT_GE(events.front().cycle, 3000u);
    EXPECT_LT(events.front().cycle, 3000u + 5000u);
}

TEST(FaultInjection, CleanRunReportsCompletedOutcome)
{
    SimOptions o = srtOpts(8000);
    Simulation sim({"compress"}, o);
    const RunResult r = sim.run();
    EXPECT_EQ(r.outcome, Outcome::Completed);
    EXPECT_TRUE(r.completed);
}

TEST(FaultInjection, SqDataStrikeDetectedUnderSrtButSilentUnderBase)
{
    // The store queue holds data the comparator has not yet verified:
    // under SRT the corrupted store mismatches the trailing copy;
    // under the base machine the same strike reaches memory unnoticed.
    const FaultRecord f = parseFaultSpec("sqd:2000:0:0:3");

    SimOptions base = srtOpts();
    base.mode = SimMode::Base;
    const FaultOracle base_oracle(
        FaultOracle::goldenImage({"compress"}, base));
    {
        Simulation sim({"compress"}, base);
        sim.faultInjector().schedule(f);
        const RunResult r = sim.run();
        const FaultTrialReport rep = base_oracle.classify(sim, r, f);
        EXPECT_EQ(r.detections, 0u);
        EXPECT_EQ(rep.verdict, FaultVerdict::Sdc);
    }

    const SimOptions srt = srtOpts();
    const FaultOracle srt_oracle(
        FaultOracle::goldenImage({"compress"}, srt));
    {
        Simulation sim({"compress"}, srt);
        sim.faultInjector().schedule(f);
        const RunResult r = sim.run();
        const FaultTrialReport rep = srt_oracle.classify(sim, r, f);
        EXPECT_GE(r.detections, 1u);
        EXPECT_EQ(rep.verdict, FaultVerdict::Detected);
        EXPECT_TRUE(rep.latency_valid);
    }
}

TEST(FaultInjection, SqAddressStrikeIsDetected)
{
    SimOptions o = srtOpts();
    Simulation sim({"compress"}, o);
    sim.faultInjector().schedule(parseFaultSpec("sqa:2000:0:0:4"));
    const RunResult r = sim.run();
    EXPECT_GE(r.detections, 1u);
}

TEST(FaultInjection, LpqStrikeIsDetected)
{
    // A corrupted line-prediction chunk start steers the trailing
    // fetch to the wrong line; the divergence surfaces at output
    // comparison, not as wrong memory.
    SimOptions o = srtOpts();
    const FaultOracle oracle(FaultOracle::goldenImage({"gcc"}, o));
    Simulation sim({"gcc"}, o);
    const FaultRecord f = parseFaultSpec("lpq:2000:0:0:2");
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    const FaultTrialReport rep = oracle.classify(sim, r, f);
    EXPECT_GE(r.detections, 1u);
    EXPECT_EQ(rep.verdict, FaultVerdict::Detected);
}

TEST(FaultInjection, BoqStrikeIsDetectedUnderBoqFrontend)
{
    // The strike flips the taken-target of the queue's front entry; a
    // taken branch must be at the front for it to matter, hence the
    // probed strike cycle.
    SimOptions o = srtOpts();
    o.trailing_fetch = TrailingFetchMode::BranchOutcomeQueue;
    const FaultOracle oracle(FaultOracle::goldenImage({"gcc"}, o));
    Simulation sim({"gcc"}, o);
    const FaultRecord f = parseFaultSpec("boq:2500:0:0:5");
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    const FaultTrialReport rep = oracle.classify(sim, r, f);
    EXPECT_GE(r.detections, 1u);
    EXPECT_EQ(rep.verdict, FaultVerdict::Detected);
}

TEST(FaultInjection, PcStrikeHangIsTerminatedByWatchdog)
{
    // A high-bit PC flip sends the leading thread into unmapped space
    // where it fetches a synthetic Halt; the trailing thread starves
    // at its next branch with an empty BOQ.  Nothing detects, nothing
    // commits — only the watchdog ends the run, in bounded time.
    // compress's well-predicted loop matters here: on a workload with
    // frequent mispredicts the flip is overwritten by the next branch
    // redirect before the stray Halt can commit.
    SimOptions o = srtOpts();
    o.trailing_fetch = TrailingFetchMode::BranchOutcomeQueue;
    Simulation sim({"compress"}, o);
    sim.faultInjector().schedule(parseFaultSpec("pc:2500:0:0:40"));
    const RunResult r = sim.run();
    EXPECT_EQ(r.outcome, Outcome::Hang);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.detections, 0u);
    // when + hang_cycles + drain, with slack for the commit that
    // refreshes the watchdog just before the strike lands.
    EXPECT_LT(r.total_cycles, 2500u + o.hang_cycles + 10000u);
}

TEST(FaultInjection, DecodeOpcodeStrikeIsDetected)
{
    // Bit >= 48 swaps the opcode for its decode-table sibling in one
    // copy only; the corrupted result diverges at output comparison.
    // Strike the trailing thread: its fetch follows resolved outcomes,
    // so the corrupted instruction is on the committed path (a leading
    // strike usually lands on a wrong-path instruction and squashes).
    SimOptions o = srtOpts();
    Simulation sim({"gcc"}, o);
    sim.faultInjector().schedule(parseFaultSpec("dec:2000:0:1:50"));
    const RunResult r = sim.run();
    EXPECT_GE(r.detections, 1u);
}

TEST(FaultInjection, MergeBufferEccCorrectsStrike)
{
    // The merge buffer sits outside the sphere: comparison cannot see
    // a strike there, so the paper gives it ECC.
    SimOptions o = srtOpts();
    const FaultOracle oracle(FaultOracle::goldenImage({"gcc"}, o));
    Simulation sim({"gcc"}, o);
    const FaultRecord f = parseFaultSpec("mb:2000:0:0:3");
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_EQ(r.detections, 0u);
    EXPECT_EQ(sim.chip().cpu(0).mergeEccCorrections(), 1u);
    EXPECT_EQ(oracle.classify(sim, r, f).verdict, FaultVerdict::Masked);
}

TEST(FaultInjection, MergeBufferStrikeEscapesWithoutEcc)
{
    // Disabling the ECC measures the exposure: the strike lands after
    // output comparison, so even SRT ends in silent data corruption.
    SimOptions o = srtOpts();
    o.merge_buffer_ecc = false;
    const FaultOracle oracle(FaultOracle::goldenImage({"gcc"}, o));
    Simulation sim({"gcc"}, o);
    const FaultRecord f = parseFaultSpec("mb:9000:0:0:3");
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_EQ(r.detections, 0u);
    EXPECT_EQ(oracle.classify(sim, r, f).verdict, FaultVerdict::Sdc);
}

TEST(FaultInjection, ScheduleRejectsMalformedRecords)
{
    SimOptions o = srtOpts();
    Simulation sim({"compress"}, o);
    FaultInjector &inj = sim.faultInjector();

    EXPECT_NO_THROW(inj.schedule(regFault(1000, 0, intReg(3), 5)));
    // Register 0 is hardwired and indices stop at numArchRegs.
    EXPECT_THROW(inj.schedule(regFault(1000, 0, 0, 5)),
                 std::invalid_argument);
    EXPECT_THROW(inj.schedule(regFault(1000, 0, numArchRegs, 5)),
                 std::invalid_argument);
    // Bit positions are 0..63.
    EXPECT_THROW(inj.schedule(regFault(1000, 0, intReg(3), 64)),
                 std::invalid_argument);
    // Nonexistent core / thread context.
    FaultRecord bad_core = regFault(1000, 0, intReg(3), 5);
    bad_core.core = 7;
    EXPECT_THROW(inj.schedule(bad_core), std::invalid_argument);
    EXPECT_THROW(inj.schedule(regFault(1000, 9, intReg(3), 5)),
                 std::invalid_argument);
    // FU ids name a unit within a class pool (int pool: units 0..7).
    FaultRecord fu;
    fu.kind = FaultRecord::Kind::PermanentFu;
    fu.when = 1000;
    fu.fuIndex = 9;
    EXPECT_THROW(inj.schedule(fu), std::invalid_argument);
    fu.fuIndex = 70;
    EXPECT_THROW(inj.schedule(fu), std::invalid_argument);
    fu.fuIndex = 0;
    fu.mask = 0;
    EXPECT_THROW(inj.schedule(fu), std::invalid_argument);
}

TEST(FaultInjection, ScheduleRejectsPairKindsWithoutPairs)
{
    SimOptions o = srtOpts();
    o.mode = SimMode::Base;
    Simulation sim({"compress"}, o);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientLvq;
    f.when = 1000;
    EXPECT_THROW(sim.faultInjector().schedule(f),
                 std::invalid_argument);
}

TEST(FaultInjection, ParseFaultSpecRejectsGarbage)
{
    EXPECT_THROW(parseFaultSpec("bogus:1:0:0:3"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultSpec("sqd:1:0"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpec("reg:1:0:three:5"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultSpec(""), std::invalid_argument);

    const FaultRecord f = parseFaultSpec("pc:2500:0:1:40");
    EXPECT_EQ(f.kind, FaultRecord::Kind::TransientPc);
    EXPECT_EQ(f.when, 2500u);
    EXPECT_EQ(f.core, 0);
    EXPECT_EQ(f.tid, 1);
    EXPECT_EQ(f.bit, 40u);
}

TEST(FaultInjection, LatencyAttributionFollowsTheFaultedPair)
{
    // Regression for the old bench classifier, which read
    // pair(0).detections().front() whatever pair the fault hit: with
    // the strike on pair 1, pair 0 has no events at all, so any
    // pair(0)-based latency would be fabricated.
    SimOptions o = srtOpts();
    Simulation sim({"gcc", "compress"}, o);
    const auto &pl = sim.placement(1);
    FaultRecord f = regFault(3000, pl.lead_tid, intReg(3), 5);
    f.core = pl.lead_core;
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_GE(r.detections, 1u);
    EXPECT_TRUE(sim.chip().redundancy().pair(0).detections().empty());

    const FaultOracle oracle(
        FaultOracle::goldenImage({"gcc", "compress"}, o, 1), 1);
    const FaultTrialReport rep = oracle.classify(sim, r, f);
    EXPECT_EQ(rep.faulted_pair, 1);
    EXPECT_EQ(rep.verdict, FaultVerdict::Detected);
    ASSERT_TRUE(rep.latency_valid);
    EXPECT_LT(rep.detection_latency, 5000u);
}

TEST(FaultInjection, StuckUnitBelongsToThePairThatDetectsItFirst)
{
    // A stuck-at unit corrupts every pair with a copy on its core.  The
    // run ends at the first pair's detection, here pair 1's, before
    // pair 0 saw anything, so the trial is attributed to pair 1 and
    // measured there: detected, not a hang on pair 0.
    SimOptions o = srtOpts(4000);
    o.warmup_insts = 500;
    const std::vector<std::string> mix = {"gcc", "compress"};
    Simulation sim(mix, o);
    const FaultRecord f = parseFaultSpec("fu:1461:0:0:0");
    sim.faultInjector().schedule(f);
    const RunResult r = sim.run();
    EXPECT_EQ(r.outcome, Outcome::DetectedUnrecoverable);
    EXPECT_TRUE(sim.chip().redundancy().pair(0).detections().empty());
    const auto &events = sim.chip().redundancy().pair(1).detections();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(r.total_cycles, events.front().cycle);

    const FaultOracle oracle(FaultOracle::goldenImage(mix, o));
    const FaultTrialReport rep = oracle.classify(sim, r, f);
    EXPECT_EQ(rep.faulted_pair, 1);
    EXPECT_EQ(rep.verdict, FaultVerdict::Detected);
    ASSERT_TRUE(rep.latency_valid);
    EXPECT_EQ(rep.detection_latency, r.total_cycles - f.when);
}

TEST(FaultInjection, ClassifiedCampaignIsDeterministicAcrossJobLevels)
{
    // The whole classified-artifact chain — runner, oracle post_run,
    // JSONL serialisation — must be byte-identical however many
    // workers execute it.
    const SimOptions o = srtOpts(6000);
    const FaultOracle oracle(FaultOracle::goldenImage({"compress"}, o));
    auto campaignJson = [&](unsigned jobs) {
        const char *specs[] = {"reg:2000:0:0:3:5", "sqd:2500:0:0:3",
                               "lpq:2200:0:0:2", "pc:2600:0:0:2"};
        Campaign campaign;
        campaign.name = "determinism";
        for (const char *spec : specs) {
            JobSpec js;
            js.id = campaign.jobs.size();
            js.label = spec;
            js.workloads = {"compress"};
            js.options = o;
            js.faults.push_back(parseFaultSpec(spec));
            attachFaultOracle(js, &oracle);
            campaign.jobs.push_back(std::move(js));
        }
        std::ostringstream os;
        JsonlSink::Options sopts;
        sopts.progress = false;
        sopts.include_timing = false;
        JsonlSink sink(os, sopts);
        RunnerConfig cfg;
        cfg.jobs = jobs;
        cfg.sink = &sink;
        runCampaign(campaign, cfg);
        return os.str();
    };
    const std::string serial = campaignJson(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("\"verdict\""), std::string::npos);
    EXPECT_EQ(serial, campaignJson(4));
}

TEST(FaultOracle, SparseGoldenComparesEveryPageExactly)
{
    const SimOptions o = srtOpts(3000);
    const std::vector<std::uint8_t> golden =
        FaultOracle::goldenImage({"compress"}, o);
    const FaultOracle oracle(golden);

    // A nonzero byte (its page is stored) and an all-zero page (dropped).
    const auto nonzero = std::find_if(golden.begin(), golden.end(),
                                      [](std::uint8_t b) { return b; });
    ASSERT_NE(nonzero, golden.end());
    const Addr stored = static_cast<Addr>(nonzero - golden.begin());
    Addr zero_page = 0;
    while (!DataMemory::zeroBytes(golden.data() + zero_page,
                                  DataMemory::pageBytes))
        zero_page += DataMemory::pageBytes;
    const Addr last = golden.size() - 1;

    const auto verdictAfter = [&](Addr flip, std::uint8_t mask) {
        Simulation sim({"compress"}, o);
        const RunResult run = sim.run();
        DataMemory &m = sim.memory(0);
        m.write(flip, 1, m.read(flip, 1) ^ mask);
        return oracle.classify(sim, run, FaultRecord{}).verdict;
    };
    EXPECT_EQ(verdictAfter(stored, 0), FaultVerdict::Masked);
    EXPECT_EQ(verdictAfter(stored, 0x10), FaultVerdict::Sdc);
    EXPECT_EQ(verdictAfter(zero_page + 100, 0x01), FaultVerdict::Sdc);
    EXPECT_EQ(verdictAfter(last, 0x80), FaultVerdict::Sdc);
}

TEST(FaultOracle, TouchedPageCompareEqualsWholeImageCompare)
{
    const SimOptions o = srtOpts(3000);
    const std::vector<std::uint8_t> golden =
        FaultOracle::goldenImage({"compress"}, o);
    // Both goldens: one kept from the whole image, one from the
    // reference run's touched pages.
    const FaultOracle from_image(golden);
    const FaultOracle from_run = FaultOracle::reference({"compress"}, o);

    Simulation sim({"compress"}, o);
    const RunResult run = sim.run();
    DataMemory &m = sim.memory(0);
    ASSERT_EQ(m.size(), golden.size());
    std::vector<Addr> set_bytes;
    for (std::size_t i = 0; i < golden.size(); ++i) {
        if (golden[i])
            set_bytes.push_back(i);
    }
    ASSERT_FALSE(set_bytes.empty());

    // Random trial images: a few bytes rewritten each time (in golden
    // pages, next to them, or anywhere) with random, golden or zero
    // values, then put back.  Putting back leaves the pages touched, so
    // later images also cover touched pages equal to the golden's.
    Random rng(41);
    constexpr std::size_t page = DataMemory::pageBytes;
    for (int trial = 0; trial < 80; ++trial) {
        std::vector<std::pair<Addr, std::uint64_t>> undo;
        const int writes = 1 + static_cast<int>(rng.range(3));
        for (int w = 0; w < writes; ++w) {
            Addr addr = 0;
            switch (rng.range(3)) {
              case 0:
                addr = set_bytes[rng.range(set_bytes.size())];
                break;
              case 1:
                addr = (set_bytes[rng.range(set_bytes.size())] / page +
                        1) * page + rng.range(page);
                break;
              default:
                addr = rng.range(golden.size());
                break;
            }
            if (addr >= m.size())
                continue;
            std::uint64_t value = 0;
            switch (rng.range(3)) {
              case 0: value = rng.next() & 0xff; break;
              case 1: value = golden[addr]; break;
              default: value = 0; break;
            }
            undo.emplace_back(addr, m.read(addr, 1));
            m.write(addr, 1, value);
        }
        const bool brute =
            std::memcmp(m.data(), golden.data(), golden.size()) != 0;
        EXPECT_EQ(from_image.classify(sim, run, FaultRecord{})
                      .memory_corrupted,
                  brute)
            << "trial " << trial;
        EXPECT_EQ(from_run.classify(sim, run, FaultRecord{})
                      .memory_corrupted,
                  brute)
            << "trial " << trial;
        for (auto it = undo.rbegin(); it != undo.rend(); ++it)
            m.write(it->first, 1, it->second);
    }
}

TEST(FaultOracle, PagesOutsideTheGoldenCountOnlyWhenNonzero)
{
    const SimOptions o = srtOpts(3000);
    const FaultOracle oracle = FaultOracle::reference({"compress"}, o);
    Simulation sim({"compress"}, o);
    const RunResult run = sim.run();
    DataMemory &m = sim.memory(0);
    const auto verdict = [&] {
        return oracle.classify(sim, run, FaultRecord{}).verdict;
    };
    ASSERT_EQ(verdict(), FaultVerdict::Masked);

    // A page neither the golden run nor this one ever wrote.
    std::size_t fresh = 0;
    while (m.touched(fresh))
        ++fresh;
    const Addr addr = fresh * DataMemory::pageBytes + 40;
    m.write(addr, 1, 0x5a);
    EXPECT_EQ(verdict(), FaultVerdict::Sdc);
    // Written back to zero: touched, yet equal to the golden.
    m.write(addr, 1, 0);
    EXPECT_TRUE(m.touched(fresh));
    EXPECT_EQ(verdict(), FaultVerdict::Masked);

    // Every golden page gone (untouched, so zero): corrupted.
    m.clear();
    EXPECT_EQ(verdict(), FaultVerdict::Sdc);
}
