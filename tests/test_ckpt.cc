/**
 * @file
 * Checkpoint/restore subsystem (src/ckpt/) end-to-end properties:
 *
 *  - save -> restore -> run-to-end is byte-identical to an unbroken
 *    run with the same barrier schedule, for all five modes (compared
 *    on the full campaign JSON record with timing suppressed, which
 *    includes cycle counts, IPCs, and the embedded stats tree);
 *  - a flipped payload byte is rejected by the per-section CRC;
 *  - a truncated image (header or mid-section) is rejected with an
 *    offset-bearing error and no partial state application, and
 *    file-level restores name the damaged file;
 *  - a bumped format version and a mismatched options fingerprint are
 *    both rejected before any state is touched;
 *  - a fault scheduled at or before the restored cycle is rejected
 *    (it would fire immediately instead of at its nominal cycle);
 *  - snapshot-forked fault campaigns are -j invariant and verdict-
 *    identical to from-scratch campaigns.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"

using namespace rmt;

namespace
{

std::vector<std::string>
modeWorkloads(SimMode mode)
{
    if (mode == SimMode::Crt)
        return {"gcc", "swim"};
    return {"gcc"};
}

SimOptions
snapshotOptions(SimMode mode)
{
    SimOptions o;
    o.mode = mode;
    o.warmup_insts = 500;
    o.measure_insts = 4000;
    o.snapshot_every = 1500;
    o.collect_stats_json = true;
    return o;
}

/** The campaign record for a finished run with timing suppressed:
 *  everything observable, nothing wall-clock. */
std::string
recordJson(const std::vector<std::string> &workloads,
           const SimOptions &options, const RunResult &run)
{
    JobSpec spec;
    spec.workloads = workloads;
    spec.options = options;
    JobResult result;
    result.status = JobStatus::Ok;
    result.attempts = 1;
    result.run = run;
    return resultJson(spec, result, /*include_timing=*/false);
}

/** Run once, also capturing the first barrier's snapshot image. */
RunResult
runCapturing(const std::vector<std::string> &workloads,
             const SimOptions &options, std::string &image,
             Cycle &snap_cycle)
{
    Simulation sim(workloads, options);
    sim.setSnapshotHook([&image, &snap_cycle](Cycle cycle,
                                              Simulation &s) {
        if (image.empty()) {
            image = s.saveSnapshotBuffer();
            snap_cycle = cycle;
        }
    });
    return sim.run();
}

/** The wall-clock "host" member is the one legitimately nondeterministic
 *  part of a stats document; strip it the same way the sinks do. */
std::string
stripHost(std::string stats)
{
    const auto pos = stats.find(",\"host\":{");
    if (pos == std::string::npos)
        return stats;
    const auto end = stats.find('}', pos);
    if (end == std::string::npos)
        return stats;
    stats.erase(pos, end - pos + 1);
    return stats;
}

} // namespace

TEST(Checkpoint, RoundTripIsByteIdenticalInEveryMode)
{
    const SimMode all[] = {SimMode::Base, SimMode::Base2, SimMode::Srt,
                           SimMode::Lockstep, SimMode::Crt};
    for (const SimMode mode : all) {
        const auto workloads = modeWorkloads(mode);
        const SimOptions o = snapshotOptions(mode);

        Simulation straight(workloads, o);
        const std::string expect =
            recordJson(workloads, o, straight.run());

        std::string image;
        Cycle snap_cycle = 0;
        const RunResult saver_run =
            runCapturing(workloads, o, image, snap_cycle);
        // The save hook must not perturb the run.
        EXPECT_EQ(expect, recordJson(workloads, o, saver_run))
            << modeName(mode);
        ASSERT_FALSE(image.empty()) << modeName(mode);
        ASSERT_GT(snap_cycle, 0u) << modeName(mode);

        Simulation restored(workloads, o);
        restored.restoreSnapshotBuffer(image);
        EXPECT_EQ(restored.restoredCycle(), snap_cycle);
        EXPECT_EQ(expect, recordJson(workloads, o, restored.run()))
            << modeName(mode);
    }
}

// The --stats-json / --restore-snapshot composition: a restored run's
// exported stats document — counters, groups, and the commit-slot
// attribution object included — must be byte-identical (modulo host
// wall-clock) to an unbroken run's, because the stat walk carries every
// counter through the snapshot.
TEST(Checkpoint, StatsJsonAfterRestoreMatchesUnbrokenRun)
{
    const SimMode all[] = {SimMode::Base, SimMode::Base2, SimMode::Srt,
                           SimMode::Lockstep, SimMode::Crt};
    for (const SimMode mode : all) {
        const auto workloads = modeWorkloads(mode);
        const SimOptions o = snapshotOptions(mode);

        std::string image;
        Cycle snap_cycle = 0;
        Simulation straight(workloads, o);
        straight.setSnapshotHook(
            [&image, &snap_cycle](Cycle cycle, Simulation &s) {
                if (image.empty()) {
                    image = s.saveSnapshotBuffer();
                    snap_cycle = cycle;
                }
            });
        const RunResult sr = straight.run();
        ASSERT_FALSE(image.empty()) << modeName(mode);
        const std::string expect = stripHost(straight.statsJson(sr));

        Simulation restored(workloads, o);
        restored.restoreSnapshotBuffer(image);
        const RunResult rr = restored.run();
        EXPECT_EQ(expect, stripHost(restored.statsJson(rr)))
            << modeName(mode);

        // In particular the restored attribution still conserves.
        EXPECT_EQ(rr.attribution.total(),
                  rr.attribution_core_cycles * rr.commit_width)
            << modeName(mode);
    }
}

TEST(Checkpoint, CorruptedSectionFailsItsCrc)
{
    const auto workloads = modeWorkloads(SimMode::Srt);
    const SimOptions o = snapshotOptions(SimMode::Srt);
    std::string image;
    Cycle snap_cycle = 0;
    runCapturing(workloads, o, image, snap_cycle);
    ASSERT_FALSE(image.empty());

    // Flip a byte deep inside a section payload (past the header).
    std::string corrupt = image;
    corrupt[corrupt.size() / 2] ^= 0x40;

    Simulation sim(workloads, o);
    try {
        sim.restoreSnapshotBuffer(corrupt);
        FAIL() << "corrupted image was accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, TruncatedImageIsRejectedWithoutPartialApplication)
{
    const auto workloads = modeWorkloads(SimMode::Srt);
    const SimOptions o = snapshotOptions(SimMode::Srt);
    std::string image;
    Cycle snap_cycle = 0;
    runCapturing(workloads, o, image, snap_cycle);
    ASSERT_FALSE(image.empty());

    Simulation straight(workloads, o);
    const std::string expect = recordJson(workloads, o, straight.run());

    // Cut inside the header, one third in (mid-section), and just
    // before the final CRC: every prefix must be rejected up front
    // with a structured, offset-bearing error.
    const std::size_t cuts[] = {6, image.size() / 3, image.size() - 3};
    for (const std::size_t cut : cuts) {
        Simulation sim(workloads, o);
        try {
            sim.restoreSnapshotBuffer(image.substr(0, cut));
            FAIL() << "accepted an image cut at " << cut;
        } catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("truncated"),
                      std::string::npos)
                << "cut " << cut << ": " << e.what();
        }
        // Validation walks the whole image before any state is
        // applied, so the rejecting simulation is still pristine and
        // runs exactly like an untouched one.
        EXPECT_EQ(expect, recordJson(workloads, o, sim.run()))
            << "cut " << cut;
    }
}

TEST(Checkpoint, SnapshotFileErrorsNameTheFile)
{
    const auto workloads = modeWorkloads(SimMode::Srt);
    const SimOptions o = snapshotOptions(SimMode::Srt);
    std::string image;
    Cycle snap_cycle = 0;
    runCapturing(workloads, o, image, snap_cycle);
    ASSERT_FALSE(image.empty());

    const std::string path = std::string(::testing::TempDir()) +
                             "rmtsim_truncated.snap";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(image.data(),
                  static_cast<std::streamsize>(image.size() / 2));
    }
    Simulation sim(workloads, o);
    try {
        sim.restoreSnapshot(path);
        FAIL() << "accepted a truncated snapshot file";
    } catch (const SnapshotError &e) {
        // The file-level wrapper prefixes the path so a campaign log
        // points straight at the damaged artifact.
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, VersionAndFingerprintMismatchesAreRejected)
{
    const auto workloads = modeWorkloads(SimMode::Srt);
    const SimOptions o = snapshotOptions(SimMode::Srt);
    std::string image;
    Cycle snap_cycle = 0;
    runCapturing(workloads, o, image, snap_cycle);
    ASSERT_FALSE(image.empty());

    // Header layout: 8-byte magic, u32 format version (little-endian).
    std::string wrong_version = image;
    wrong_version[8] = static_cast<char>(0x7f);
    {
        Simulation sim(workloads, o);
        try {
            sim.restoreSnapshotBuffer(wrong_version);
            FAIL() << "future format version was accepted";
        } catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos)
                << e.what();
        }
    }

    // Same image, differently configured simulation: the options
    // fingerprint in the header no longer matches.
    SimOptions other = o;
    other.slack_fetch = 32;
    {
        Simulation sim(workloads, other);
        try {
            sim.restoreSnapshotBuffer(image);
            FAIL() << "fingerprint mismatch was accepted";
        } catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Checkpoint, FaultAtOrBeforeRestoredCycleIsRejected)
{
    const auto workloads = modeWorkloads(SimMode::Srt);
    const SimOptions o = snapshotOptions(SimMode::Srt);
    std::string image;
    Cycle snap_cycle = 0;
    runCapturing(workloads, o, image, snap_cycle);
    ASSERT_GT(snap_cycle, 0u);

    Simulation sim(workloads, o);
    sim.restoreSnapshotBuffer(image);

    FaultRecord fault;
    fault.kind = FaultRecord::Kind::TransientReg;
    fault.when = snap_cycle;        // not strictly after: must throw
    fault.reg = 3;
    fault.bit = 5;
    EXPECT_THROW(sim.faultInjector().schedule(fault),
                 std::invalid_argument);

    fault.when = snap_cycle + 1;    // strictly after: fine
    EXPECT_NO_THROW(sim.faultInjector().schedule(fault));
}

namespace
{

/** A small SRT fault campaign over two workloads with barriers on. */
Campaign
faultCampaign()
{
    SimOptions base;
    base.mode = SimMode::Srt;
    base.warmup_insts = 500;
    base.measure_insts = 5000;
    base.snapshot_every = 1500;
    CampaignBuilder builder("ckpt-fork", 7);
    builder.base(base)
        .modes({SimMode::Srt})
        .workloads({"gcc", "compress"})
        .transientRegTrials(3, 15);
    return builder.build();
}

void
attachOracles(Campaign &campaign,
              std::map<std::string, std::unique_ptr<FaultOracle>> &oracles)
{
    for (JobSpec &job : campaign.jobs) {
        if (job.faults.empty())
            continue;
        auto &oracle = oracles[job.workloads.front()];
        if (!oracle) {
            oracle = std::make_unique<FaultOracle>(
                FaultOracle::goldenImage(job.workloads, job.options));
        }
        attachFaultOracle(job, oracle.get());
    }
}

std::string
runToJsonl(const Campaign &campaign, unsigned jobs,
           SnapshotCache *snapshots, std::vector<JobResult> &results)
{
    std::ostringstream out;
    JsonlSink::Options sink_opts;
    sink_opts.include_timing = false;
    sink_opts.progress = false;
    JsonlSink sink(out, sink_opts);
    RunnerConfig cfg;
    cfg.jobs = jobs;
    cfg.sink = &sink;
    cfg.snapshots = snapshots;
    results = runCampaign(campaign, cfg);
    return out.str();
}

} // namespace

TEST(Checkpoint, ForkedCampaignIsWorkerCountInvariant)
{
    Campaign campaign = faultCampaign();
    std::map<std::string, std::unique_ptr<FaultOracle>> oracles;
    attachOracles(campaign, oracles);

    std::vector<JobResult> serial_results, parallel_results;
    SnapshotCache serial_cache, parallel_cache;
    const std::string serial =
        runToJsonl(campaign, 1, &serial_cache, serial_results);
    const std::string parallel =
        runToJsonl(campaign, 4, &parallel_cache, parallel_results);
    EXPECT_EQ(serial, parallel);
    // One producer per point (gcc, compress), however many workers
    // asked for it at once.
    EXPECT_EQ(serial_cache.producerRuns(), 2u);
    EXPECT_EQ(parallel_cache.producerRuns(), 2u);

    // Forking actually engaged: some trial restored a snapshot.
    bool any_hit = false;
    for (const JobResult &r : serial_results) {
        for (const auto &[key, value] : r.extra)
            any_hit = any_hit || (key == "snapshot_hit" && value > 0);
    }
    EXPECT_TRUE(any_hit);
}

TEST(Checkpoint, ForkedVerdictsMatchFromScratch)
{
    Campaign campaign = faultCampaign();
    std::map<std::string, std::unique_ptr<FaultOracle>> oracles;
    attachOracles(campaign, oracles);

    std::vector<JobResult> forked, scratch;
    SnapshotCache cache;
    runToJsonl(campaign, 2, &cache, forked);
    runToJsonl(campaign, 2, nullptr, scratch);

    ASSERT_EQ(forked.size(), scratch.size());
    for (std::size_t i = 0; i < forked.size(); ++i) {
        ASSERT_TRUE(forked[i].ok()) << forked[i].error;
        ASSERT_TRUE(scratch[i].ok()) << scratch[i].error;
        EXPECT_EQ(forked[i].has_verdict, scratch[i].has_verdict);
        EXPECT_EQ(forked[i].verdict, scratch[i].verdict) << i;
        EXPECT_EQ(forked[i].detection_latency,
                  scratch[i].detection_latency)
            << i;
        EXPECT_EQ(forked[i].run.total_cycles, scratch[i].run.total_cycles)
            << i;
    }
}
