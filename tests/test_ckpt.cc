/**
 * @file
 * Checkpoint/restore subsystem (src/ckpt/) end-to-end properties:
 *
 *  - save -> restore -> run-to-end is byte-identical to an unbroken
 *    run with the same barrier schedule, for all five modes (compared
 *    on the full campaign JSON record with timing suppressed, which
 *    includes cycle counts, IPCs, and the embedded stats tree);
 *  - crc32 is the IEEE CRC: the standard check value, and equal to a
 *    bitwise reference at every start alignment and length up to 4 KiB;
 *  - a flipped payload byte is rejected by the per-section CRC, and a
 *    flipped bit in the header, in any byte of any section frame or at
 *    a stride through every payload is rejected before any state is
 *    touched;
 *  - a truncated image (header or mid-section) is rejected with an
 *    offset-bearing error and no partial state application, and
 *    file-level restores name the damaged file;
 *  - a bumped or previous format version and a mismatched options
 *    fingerprint are both rejected before any state is touched;
 *  - the sparse predictor sections (valid line-predictor entries,
 *    counters off their reset value, nonzero indirect targets) restore
 *    predictors that predict identically at every index and re-save
 *    byte-identically, and an out-of-range index or count is rejected;
 *  - a Serializer in compare mode matches an image only when every
 *    section and byte matches, and stops at the first difference;
 *  - a fault scheduled at or before the restored cycle is rejected
 *    (it would fire immediately instead of at its nominal cycle);
 *  - snapshot-forked fault campaigns are -j invariant, their records
 *    are byte-identical to from-scratch ones outside the snapshot
 *    bookkeeping, and the trials they restore and the tail cycles they
 *    still simulate are pinned;
 *  - trials that rejoin their reference run at a barrier, or whose
 *    strikes nothing reads, leave their rows unchanged (fault and
 *    stratified campaigns, every fault kind, SRT and CRT, barrier-less
 *    points and one with recovery, through CampaignEngine and
 *    runCampaignJobs, one and four workers), and neither a struck
 *    register still mapped nor a strike still pending at a barrier
 *    rejoins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "avf/sampler.hh"
#include "ckpt/serializer.hh"
#include "common/fingerprint.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/line_predictor.hh"
#include "predictor/ras.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "serve/campaign_engine.hh"
#include "serve/result_store.hh"
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

TEST(Checkpoint, Crc32KnownAnswers)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Checkpoint, Crc32MatchesABitwiseReferenceAtEveryAlignment)
{
    constexpr std::size_t maxLen = 4096;
    std::vector<std::uint8_t> buf(maxLen + 8);
    Random rng(0xC2C32);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());

    for (std::size_t align = 0; align < 8; ++align) {
        const std::uint8_t *p = buf.data() + align;
        // The bitwise CRC register after len bytes gives the reference
        // for every prefix length in one pass.
        std::uint32_t c = 0xffffffffu;
        for (std::size_t len = 0;; ++len) {
            ASSERT_EQ(crc32(p, len), c ^ 0xffffffffu)
                << "align " << align << " len " << len;
            if (len == maxLen)
                break;
            c ^= p[len];
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
    }
}

TEST(Checkpoint, EveryFrameBitFlipIsRejectedBeforeAnyStateIsTouched)
{
    const auto workloads = modeWorkloads(SimMode::Srt);
    const SimOptions o = snapshotOptions(SimMode::Srt);
    std::string image;
    Cycle snap_cycle = 0;
    runCapturing(workloads, o, image, snap_cycle);
    ASSERT_FALSE(image.empty());

    Simulation straight(workloads, o);
    const std::string expect = recordJson(workloads, o, straight.run());

    // Offsets to flip: every header byte (magic, version, fingerprint,
    // section count), every byte of each section frame (name length,
    // name, payload length, stored CRC), and a stride through each
    // payload, its first and last bytes included.
    std::vector<std::size_t> offsets;
    for (std::size_t at = 0; at < 24; ++at)
        offsets.push_back(at);
    const auto sections = getLe<std::uint32_t>(image, 20);
    std::size_t at = 24;
    for (std::uint32_t i = 0; i < sections; ++i) {
        const std::size_t name_len = getLe<std::uint32_t>(image, at);
        const std::size_t payload = at + 4 + name_len + 8;
        const std::size_t payload_len = static_cast<std::size_t>(
            getLe<std::uint64_t>(image, payload - 8));
        ASSERT_LE(payload + payload_len + 4, image.size());
        for (std::size_t b = at; b < payload; ++b)
            offsets.push_back(b);
        const std::size_t stride = std::max<std::size_t>(
            1, payload_len / 61);
        for (std::size_t b = 0; b < payload_len; b += stride)
            offsets.push_back(payload + b);
        if (payload_len)
            offsets.push_back(payload + payload_len - 1);
        for (std::size_t b = 0; b < 4; ++b)
            offsets.push_back(payload + payload_len + b);
        at = payload + payload_len + 4;
    }
    ASSERT_EQ(at, image.size());

    // One simulation rejects every flipped image: restore needs a
    // freshly built machine, so a single half-applied image would make
    // the later restores, or the final run, disagree.
    Simulation sim(workloads, o);
    for (const std::size_t off : offsets) {
        std::string bytes = image;
        bytes[off] = static_cast<char>(bytes[off] ^ (1 << (off % 8)));
        EXPECT_THROW(sim.restoreSnapshotBuffer(bytes), SnapshotError)
            << "bit " << off % 8 << " of byte " << off << " flipped";
    }
    EXPECT_EQ(sim.restoredCycle(), 0u);
    EXPECT_EQ(expect, recordJson(workloads, o, sim.run()));
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
    // Version 3 is the last format with a dense indirect-predictor
    // table.
    for (const char version : {char{3}, char{0x7f}}) {
        std::string wrong_version = image;
        wrong_version[8] = version;
        Simulation sim(workloads, o);
        try {
            sim.restoreSnapshotBuffer(wrong_version);
            FAIL() << "format version " << int(version) << " was accepted";
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

    // Not strictly after: a plain std::invalid_argument naming the
    // fault's cycle and the restored one, so it fails a row.
    FaultRecord fault;
    fault.kind = FaultRecord::Kind::TransientReg;
    fault.reg = 3;
    fault.bit = 5;
    for (const Cycle when : {snap_cycle, snap_cycle - 1}) {
        fault.when = when;
        try {
            sim.faultInjector().schedule(fault);
            ADD_FAILURE() << "a fault at " << when << " was accepted";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("fault reg@" + std::to_string(when) + ":"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("(cycle " + std::to_string(snap_cycle) + ")"),
                      std::string::npos)
                << what;
        }
    }
    EXPECT_TRUE(sim.faultInjector().scheduled().empty());

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

/** @p jsonl with every row's snapshot bookkeeping ("extra") removed. */
std::string
stripExtra(std::string jsonl)
{
    const std::string key = ",\"extra\":{";
    for (std::size_t at; (at = jsonl.find(key)) != std::string::npos;)
        jsonl.erase(at, jsonl.find('}', at) + 1 - at);
    return jsonl;
}

/** Value of the snapshot metric @p key in @p r, or 0 when absent. */
double
extraValue(const JobResult &r, const std::string &key)
{
    for (const auto &[name, value] : r.extra) {
        if (name == key)
            return value;
    }
    return 0;
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
    // One reference run per point (gcc, compress), made before its
    // trials, however many workers run them.
    EXPECT_EQ(serial_cache.size(), 2u);
    EXPECT_EQ(parallel_cache.size(), 2u);

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
    const std::string forked_rows =
        runToJsonl(campaign, 2, &cache, forked);
    const std::string scratch_rows =
        runToJsonl(campaign, 2, nullptr, scratch);

    // Outside the snapshot bookkeeping a forked record (verdict,
    // detection latency, cycle counts, IPCs) is byte-identical to its
    // scratch one, and at least one trial really forked.
    for (const JobResult &r : forked)
        ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(stripExtra(forked_rows), scratch_rows);
    EXPECT_NE(forked_rows.find("\"snapshot_hit\":1"), std::string::npos);
}

TEST(Checkpoint, ForkedCampaignWorkIsPinned)
{
    // The work a forked campaign saves, as exact counters: how many
    // trials restored a snapshot, how many cycles the rows count past
    // it (every cycle for a trial that ran from scratch), how many
    // trials rejoined their reference run, how many of those were
    // finished without a machine, and how many tail cycles were really
    // simulated (a rejoined trial stops at its barrier; one whose
    // strike nothing reads stops at the barrier it restores).  A
    // campaign that stops restoring or rejoining, or restores from an
    // earlier barrier, simulates more tail cycles, and so would a
    // detected trial that ran on past its first detection (the one
    // detected trial here stops 3457 cycles short of its budget).  The
    // row-derived counters do not move when trials rejoin; the verdicts
    // must not move either.
    Campaign campaign = faultCampaign();
    std::map<std::string, std::unique_ptr<FaultOracle>> oracles;
    attachOracles(campaign, oracles);

    std::vector<JobResult> results;
    SnapshotCache cache;
    const std::string rows = runToJsonl(campaign, 2, &cache, results);

    unsigned restored = 0, rejoined = 0, machineless = 0;
    std::uint64_t tail_cycles = 0, simulated_cycles = 0;
    std::map<FaultVerdict, unsigned> verdicts;
    for (const JobResult &r : results) {
        ASSERT_TRUE(r.ok()) << r.error;
        if (!r.has_verdict)
            continue;
        const auto from = static_cast<Cycle>(extraValue(r, "snapshot_cycle"));
        restored += extraValue(r, "snapshot_hit") > 0;
        tail_cycles += r.run.total_cycles - from;
        rejoined += r.rejoined;
        simulated_cycles +=
            (r.rejoined ? r.rejoin_cycle : r.run.total_cycles) - from;
        if (r.rejoined && r.rejoin_cycle == from) {
            ++machineless;
            EXPECT_EQ(r.run.host.build_seconds, 0.0) << r.label;
        }
        ++verdicts[r.verdict];
    }
    EXPECT_EQ(restored, 4u);
    EXPECT_EQ(tail_cycles, 28128u);
    EXPECT_EQ(rejoined, 5u);
    EXPECT_EQ(machineless, 2u);
    EXPECT_EQ(simulated_cycles, 5126u);
    EXPECT_EQ(verdicts[FaultVerdict::Detected], 1u);
    EXPECT_EQ(verdicts[FaultVerdict::Masked], 5u);
    EXPECT_EQ(verdicts[FaultVerdict::Sdc], 0u);
    EXPECT_EQ(verdicts[FaultVerdict::Hang], 0u);

    // The records say the same: a row rejoined iff its "extra" carries
    // rejoin_cycle, and the cycles it really simulated are
    // (rejoined ? rejoin_cycle : total_cycles)
    //   - (snapshot_hit ? snapshot_cycle : 0).
    std::istringstream lines(rows);
    unsigned row_rejoined = 0;
    std::uint64_t row_simulated = 0;
    for (std::string line; std::getline(lines, line);) {
        JsonValue row;
        ASSERT_TRUE(parseJson(line, row)) << line;
        const JsonValue *extra = row.find("extra");
        if (!extra)
            continue;
        const double from = extra->numberOr("snapshot_hit", 0) > 0
                                ? extra->numberOr("snapshot_cycle", -1)
                                : 0;
        const JsonValue *rejoin = extra->find("rejoin_cycle");
        row_rejoined += rejoin != nullptr;
        const double to =
            rejoin ? rejoin->number() : row.numberOr("total_cycles", -1);
        ASSERT_GE(to, from) << line;
        row_simulated += static_cast<std::uint64_t>(to - from);
    }
    EXPECT_EQ(row_rejoined, rejoined);
    EXPECT_EQ(row_simulated, simulated_cycles);
}

namespace
{

/**
 * Rows (timing off) of @p jobs run as the tools run them, through a
 * CampaignEngine on @p workers threads whose reference runs go into
 * @p snapshots.  @p rejoined receives the engine's count of rejoined
 * trials.
 */
std::string
engineRows(const std::vector<JobSpec> &jobs, unsigned workers,
           SnapshotCache &snapshots, std::uint64_t &rejoined)
{
    RunnerConfig cfg;
    cfg.jobs = workers;
    cfg.snapshots = &snapshots;
    ThreadPool pool(workers);
    ResultStore store;
    CampaignEngine engine(pool, store, cfg);
    std::string rows;
    const EngineTally t =
        engine.run(jobs, [&rows](const JobSpec &spec, const JobResult &r) {
            EXPECT_TRUE(r.ok()) << r.error;
            rows += resultJson(spec, r, false) + "\n";
            return true;
        });
    rejoined = t.rejoined;
    return rows;
}

/**
 * Rows (timing off) of @p jobs through runCampaignJobs on @p workers
 * threads, each fault trial classified against its point's golden:
 * starting from its point's reference run in @p snapshots when set
 * (@p results receives the JobResults), from scratch otherwise.
 */
std::string
runnerRows(const std::vector<JobSpec> &jobs, unsigned workers,
           SnapshotCache *snapshots, std::vector<JobResult> &results)
{
    std::map<std::string, std::unique_ptr<FaultOracle>> goldens;
    std::vector<JobSpec> oracled = jobs;
    for (JobSpec &job : oracled) {
        if (job.faults.empty())
            continue;
        auto &golden = goldens[pointKey(job.workloads, job.options)];
        if (!golden) {
            golden = std::make_unique<FaultOracle>(
                FaultOracle::reference(job.workloads, job.options));
        }
        attachFaultOracle(job, golden.get());
    }
    RunnerConfig cfg;
    cfg.jobs = workers;
    cfg.snapshots = snapshots;
    results = runCampaignJobs(oracled, cfg);
    std::string rows;
    for (std::size_t i = 0; i < oracled.size(); ++i) {
        EXPECT_TRUE(results[i].ok()) << results[i].error;
        rows += resultJson(oracled[i], results[i], false) + "\n";
    }
    return rows;
}

/** Budgets of the identity campaigns: barriers every 1500 cycles. */
SimOptions
identityOptions()
{
    SimOptions base;
    base.warmup_insts = 500;
    base.measure_insts = 5000;
    base.snapshot_every = 1500;
    return base;
}

/** One stratified round over every fault kind in SRT and CRT. */
std::vector<JobSpec>
stratifiedRound()
{
    std::vector<StratifiedSampler::Cell> cells;
    for (const SimMode mode : {SimMode::Srt, SimMode::Crt}) {
        SimOptions o = identityOptions();
        o.mode = mode;
        cells.push_back({std::string(modeName(mode)) + ":gcc", {"gcc"}, o});
    }
    SamplerConfig cfg;
    cfg.kinds = parseFaultKinds("reg,pc,dec,sqd,sqa,lpq,boq,lvq,mb,fu");
    cfg.windows = 1;
    cfg.batch = 3;
    cfg.max_trials = 3;
    cfg.max_reg = 15;
    StratifiedSampler sampler(cells, cfg, 11);
    return sampler.nextRound();
}

/**
 * Register strikes forced on contexts whose program never reads the
 * register, before and after the first barrier: SRT gcc's leading
 * (r20) and trailing (r8) copies and CRT's empty tid 1, plus r10 on
 * every context of a gcc+swim mix in SRT and CRT, which only gcc's
 * copies read.  7 of the 12 strikes at each cycle are unread.
 */
std::vector<JobSpec>
unreadStrikes()
{
    std::vector<JobSpec> jobs;
    const auto add = [&jobs](SimMode mode,
                             std::vector<std::string> workloads,
                             const std::string &fault) {
        JobSpec job;
        job.id = jobs.size();
        job.label = std::string(modeName(mode)) + " " + fault;
        job.workloads = std::move(workloads);
        job.options = identityOptions();
        job.options.mode = mode;
        job.faults = {parseFaultSpec(fault)};
        jobs.push_back(std::move(job));
    };
    for (const std::string when : {"800", "2500"}) {
        add(SimMode::Srt, {"gcc"}, "reg:" + when + ":0:0:20:7");
        add(SimMode::Srt, {"gcc"}, "reg:" + when + ":0:1:8:3");
        add(SimMode::Crt, {"gcc"}, "reg:" + when + ":0:1:3:5");
        for (const char *context : {"0:0", "0:1", "0:2", "0:3"}) {
            add(SimMode::Srt, {"gcc", "swim"},
                "reg:" + when + ":" + context + ":10:9");
        }
        for (const char *context : {"0:0", "0:1", "1:0", "1:1"}) {
            add(SimMode::Crt, {"gcc", "swim"},
                "reg:" + when + ":" + context + ":10:9");
        }
    }
    return jobs;
}

/** Rows of @p jsonl that rejoined at the barrier they start from, so
 *  simulated nothing: rejoin_cycle equals snapshot_cycle, or 0 for a
 *  row that restored nothing. */
unsigned
machinelessRows(const std::string &jsonl)
{
    unsigned n = 0;
    std::istringstream lines(jsonl);
    for (std::string line; std::getline(lines, line);) {
        JsonValue row;
        EXPECT_TRUE(parseJson(line, row)) << line;
        const JsonValue *extra = row.find("extra");
        if (!extra || !extra->find("rejoin_cycle"))
            continue;
        const double from = extra->numberOr("snapshot_hit", 0) > 0
                                ? extra->numberOr("snapshot_cycle", -1)
                                : 0;
        n += extra->numberOr("rejoin_cycle", -1) == from;
    }
    return n;
}

/**
 * Trials of points that place no barriers: SRT and CRT over the whole
 * register file (gcc and swim read few of the 32 FP registers, so many
 * strikes there are finished without a machine), then an SRT point
 * with recovery, ids dense in that order.
 */
std::vector<JobSpec>
barrierlessTrials()
{
    SimOptions flat = identityOptions();
    flat.snapshot_every = 0;
    CampaignBuilder plain("flat", 5);
    plain.base(flat)
        .modes({SimMode::Srt, SimMode::Crt})
        .workloads({"gcc", "swim"})
        .transientRegTrials(6, numArchRegs);
    std::vector<JobSpec> jobs = plain.build().jobs;
    flat.recovery = true;
    CampaignBuilder recovery("flat-recovery", 5);
    recovery.base(flat)
        .modes({SimMode::Srt})
        .workloads({"gcc"})
        .transientRegTrials(6, numArchRegs);
    for (JobSpec job : recovery.build().jobs) {
        job.id = jobs.size();
        job.label = "recovery " + job.label;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

TEST(Checkpoint, RejoinedTrialsMatchFromScratch)
{
    // A trial that rejoins its reference run at a barrier ends there
    // and takes the reference's end, and one whose strikes no
    // instruction reads is finished from it without a machine; its row
    // must still equal the from-scratch row outside the snapshot
    // bookkeeping, for a fault campaign, for a stratified round over
    // all ten fault kinds, in SRT and CRT, and for strikes forced on
    // unread registers and empty contexts, through CampaignEngine and
    // runCampaignJobs alike, at one and at four workers.  Trials of
    // points without barriers start from their reference run the same
    // way, and their rows, which carry no snapshot bookkeeping, equal
    // the from-scratch rows byte for byte.
    CampaignBuilder builder("rejoin", 5);
    builder.base(identityOptions())
        .modes({SimMode::Srt, SimMode::Crt})
        .workloads({"gcc", "swim"})
        .transientRegTrials(6, 15);
    const std::vector<JobSpec> faults = builder.build().jobs;
    const std::vector<JobSpec> strata = stratifiedRound();
    std::set<FaultRecord::Kind> kinds;
    for (const JobSpec &job : strata)
        kinds.insert(job.faults.front().kind);
    ASSERT_EQ(kinds.size(), 10u);
    const std::vector<JobSpec> unread = unreadStrikes();
    const std::vector<JobSpec> flat = barrierlessTrials();

    for (const auto *jobs : {&faults, &strata, &unread, &flat}) {
        std::vector<JobResult> results;
        const std::string scratch = runnerRows(*jobs, 4, nullptr, results);
        for (const JobResult &r : results)
            EXPECT_FALSE(r.rejoined) << r.label;
        for (const unsigned workers : {1u, 4u}) {
            SnapshotCache engine_cache, runner_cache;
            std::uint64_t rejoined = 0;
            const std::string engine =
                engineRows(*jobs, workers, engine_cache, rejoined);
            const std::string runner =
                runnerRows(*jobs, workers, &runner_cache, results);
            EXPECT_EQ(runner, engine) << workers << " workers";
            EXPECT_GT(rejoined, 0u) << workers << " workers";
            std::uint64_t runner_rejoined = 0, recovery_rejoined = 0;
            for (const JobResult &r : results) {
                runner_rejoined += r.rejoined;
                recovery_rejoined +=
                    r.rejoined && r.label.starts_with("recovery ");
            }
            EXPECT_EQ(runner_rejoined, rejoined) << workers << " workers";
            if (jobs == &flat) {
                EXPECT_EQ(engine, scratch) << workers << " workers";
                EXPECT_EQ(engine.find("\"extra\""), std::string::npos);
                EXPECT_GT(recovery_rejoined, 0u) << workers << " workers";
                continue;
            }
            EXPECT_EQ(stripExtra(engine), scratch) << workers << " workers";
            EXPECT_NE(engine.find("\"snapshot_hit\":1"), std::string::npos);
            if (jobs == &unread) {
                EXPECT_EQ(machinelessRows(engine), 14u)
                    << workers << " workers";
            }
        }
    }
}

TEST(Checkpoint, DetectedTrialsStopAtTheirFirstDetection)
{
    // tools/check.sh's fault campaign (rmtsim_batch --modes srt,crt
    // --workloads gcc,compress --fault-trials 8 --warmup 500 --insts
    // 4000 --snapshot-every 1500), run as the tools run it.  Without
    // recovery a detected trial ends with the cycle of its first
    // detection: its row reads detected_unrecoverable at
    // faults[0].when + detection_latency.  Its verdict and latency are
    // pinned from runs that went on to the end of their budget, and
    // every other row is byte-identical to those runs' (pinned as the
    // FNV-1a of those rows).  Each point runs one workload, so its one
    // pair is the faulted pair and the latency is measured on it.
    SimOptions base;
    base.warmup_insts = 500;
    base.measure_insts = 4000;
    base.snapshot_every = 1500;
    CampaignBuilder builder("batch", 1);
    builder.base(base)
        .modes({SimMode::Srt, SimMode::Crt})
        .workloads({"gcc", "compress"})
        .transientRegTrials(8, 31);
    const std::vector<JobSpec> jobs = builder.build().jobs;
    const std::map<std::uint64_t, double> pinned = {
        {1, 71}, {8, 294}, {11, 17}, {12, 135}, {14, 76}, {24, 178}};

    for (const unsigned workers : {1u, 4u}) {
        SnapshotCache cache;
        std::uint64_t rejoined = 0;
        std::istringstream rows(engineRows(jobs, workers, cache, rejoined));
        std::map<std::uint64_t, double> detected;
        std::string others;
        for (std::string line; std::getline(rows, line);) {
            JsonValue row;
            ASSERT_TRUE(parseJson(line, row)) << line;
            const JsonValue *verdict = row.find("verdict");
            ASSERT_NE(verdict, nullptr) << line;
            if (verdict->str() != "detected") {
                others += line + "\n";
                continue;
            }
            const auto id = static_cast<std::uint64_t>(row.numberOr("id", -1));
            ASSERT_LT(id, jobs.size()) << line;
            const double latency = row.numberOr("detection_latency", -1);
            detected[id] = latency;
            EXPECT_EQ(row.find("outcome")->str(), "detected_unrecoverable")
                << line;
            EXPECT_EQ(row.numberOr("total_cycles", -1),
                      double(jobs[id].faults.front().when) + latency)
                << line;
        }
        EXPECT_EQ(detected, pinned) << workers << " workers";
        EXPECT_EQ(fnv1a64(others), 0x5709ddfd29b62f29ull)
            << workers << " workers";
    }
}

namespace
{

/** A fault trial of @p workloads under @p options, with the point's
 *  reference run in @p cache and its golden, which that entry keeps
 *  alive, attached. */
JobSpec
trapTrial(const std::vector<std::string> &workloads,
          const SimOptions &options, const std::string &fault,
          SnapshotCache &cache)
{
    JobSpec job;
    job.label = fault;
    job.workloads = workloads;
    job.options = options;
    job.faults = {parseFaultSpec(fault)};
    attachFaultOracle(job,
                      makeReferenceRun(workloads, options, &cache).get());
    return job;
}

/** Run @p job from scratch with a hook that calls @p at_barrier with
 *  the reference image of each barrier the trial shares with it. */
template <typename AtBarrier>
void
scanBarriers(const JobSpec &job, SnapshotCache &cache,
             AtBarrier &&at_barrier)
{
    const auto set = cache.find(job.workloads, job.options)->snapshots;
    Simulation sim(job.workloads, job.options);
    for (const FaultRecord &f : job.faults)
        sim.faultInjector().schedule(f);
    sim.setSnapshotHook([&](Cycle cycle, Simulation &s) {
        for (const CachedSnapshot &snap : *set) {
            if (snap.cycle == cycle)
                at_barrier(s, *snap.image);
        }
    });
    sim.run();
}

} // namespace

TEST(Checkpoint, StruckMappedRegisterBlocksRejoin)
{
    // The image stores committed registers, and a restore rebuilds the
    // mapped physical registers from them, so a struck register still
    // mapped and not yet overwritten is in no image.  This CRT trial
    // matches a reference image after its strike, yet is detected 1133
    // cycles after it.
    SimOptions o;
    o.mode = SimMode::Crt;
    o.warmup_insts = 500;
    o.measure_insts = 6000;
    o.snapshot_every = 1000;
    SnapshotCache cache;
    const JobSpec job =
        trapTrial({"gcc", "swim"}, o, "reg:4188:0:0:14:52", cache);

    bool hidden = false;
    scanBarriers(job, cache, [&](Simulation &s, const std::string &image) {
        bool regs = true;
        for (unsigned c = 0; c < s.chip().numCores(); ++c)
            regs = regs && s.chip().cpu(c).mappedRegsCommitted();
        hidden = hidden || (s.faultInjector().scheduled()[0].applied &&
                            !regs && s.matchesSnapshot(image));
    });
    EXPECT_TRUE(hidden) << "the trial no longer shows the hole";

    RunnerConfig cfg;
    cfg.snapshots = &cache;
    const JobResult r = executeJob(job, cfg);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.verdict, FaultVerdict::Detected);
    EXPECT_EQ(r.detection_latency, 1133);
    EXPECT_FALSE(r.rejoined);
}

TEST(Checkpoint, UnreadStrikeThatCannotApplyStillFailsItsRow)
{
    // A trial whose strikes nothing reads is finished without a
    // machine, but each strike is validated against the reference
    // run's machine first, exactly as scheduling it would be: one that
    // could never apply fails its row with the from-scratch error.
    // r20 and r70 name no register gcc reads.
    struct Case
    {
        SimMode mode;
        const char *fault;
        const char *error;
    };
    for (const Case &c : {
             Case{SimMode::Base, "reg:2500:0:1:20:7",
                  "fault reg@2500: thread context does not exist"},
             Case{SimMode::Srt, "reg:2500:0:0:0:7",
                  "fault reg@2500: register 0 is hardwired to zero"},
             Case{SimMode::Srt, "reg:2500:0:0:20:64",
                  "fault reg@2500: bit must be < 64"},
             Case{SimMode::Srt, "reg:2500:0:0:70:7",
                  "fault reg@2500: register index out of range"},
             Case{SimMode::Srt, "reg:2500:2:0:20:7",
                  "fault reg@2500: core does not exist"},
         }) {
        SimOptions o = identityOptions();
        o.mode = c.mode;
        SnapshotCache cache;
        const JobSpec job = trapTrial({"gcc"}, o, c.fault, cache);

        RunnerConfig cfg;
        cfg.snapshots = &cache;
        const JobResult forked = executeJob(job, cfg);
        const JobResult scratch = executeJob(job, RunnerConfig{});
        EXPECT_FALSE(forked.ok()) << c.fault;
        EXPECT_FALSE(forked.rejoined) << c.fault;
        EXPECT_EQ(forked.error, c.error);
        EXPECT_EQ(scratch.error, c.error);
    }
}

TEST(Checkpoint, PendingStrikeBlocksRejoin)
{
    // A store-queue strike retries until an entry is resident; the SQ
    // is empty at a quiesced barrier, so this one waits across the
    // barrier at 2226 while the trial's image equals the reference's.
    // It strikes after the barrier and is detected.
    SimOptions o = identityOptions();
    o.mode = SimMode::Srt;
    SnapshotCache cache;
    const JobSpec job = trapTrial({"gcc"}, o, "sqd:2200:0:0:5", cache);

    bool hidden = false;
    scanBarriers(job, cache, [&](Simulation &s, const std::string &image) {
        hidden = hidden || (!s.faultInjector().scheduled()[0].applied &&
                            s.matchesSnapshot(image));
    });
    EXPECT_TRUE(hidden) << "the strike is no longer pending at a barrier";

    RunnerConfig cfg;
    cfg.snapshots = &cache;
    const JobResult r = executeJob(job, cfg);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.verdict, FaultVerdict::Detected);
    EXPECT_EQ(r.detection_latency, 65);
    EXPECT_FALSE(r.rejoined);
}

TEST(Checkpoint, RejoinedStatsCarryTheTrialsHostTiming)
{
    // The trailing copy's store-data strike is masked and the trial
    // rejoins at the barrier at 3134.  Its row is the from-scratch
    // row, and the host block of its stats document is the trial's.
    SimOptions o = identityOptions();
    o.mode = SimMode::Srt;
    o.collect_stats_json = true;
    SnapshotCache cache;
    const JobSpec job = trapTrial({"gcc"}, o, "sqd:2200:0:1:5", cache);

    RunnerConfig cfg;
    cfg.snapshots = &cache;
    const JobResult r = executeJob(job, cfg);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.rejoined);
    EXPECT_EQ(r.rejoin_cycle, 3134u);
    EXPECT_EQ(r.verdict, FaultVerdict::Masked);
    HostTiming at_run_end = r.run.host;
    at_run_end.oracle_seconds = 0;      // the document predates classify
    EXPECT_NE(r.run.stats_json.find(",\"host\":" + at_run_end.json()),
              std::string::npos);
    const JobResult scratch = executeJob(job, RunnerConfig{});
    EXPECT_EQ(stripExtra(resultJson(job, r, false)),
              resultJson(job, scratch, false));

    // A reference without a stats document cannot finish a trial that
    // wants one (the cache key ignores collect_stats_json): no rejoin.
    SimOptions bare = o;
    bare.collect_stats_json = false;
    SnapshotCache bare_cache;
    makeReferenceRun(job.workloads, bare, &bare_cache);
    RunnerConfig bare_cfg;
    bare_cfg.snapshots = &bare_cache;
    const JobResult b = executeJob(job, bare_cfg);
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_FALSE(b.rejoined);
    EXPECT_EQ(stripExtra(resultJson(job, b, false)),
              resultJson(job, scratch, false));
}

TEST(Checkpoint, CompareModeStopsAtTheFirstDifference)
{
    const auto write = [](Serializer &s, std::uint32_t value,
                          bool second) {
        s.beginSection("one");
        s.u32(7);
        s.u32(value);
        s.endSection();
        if (!second || !s.matches())
            return;
        s.beginSection("two");
        s.str("payload");
        s.endSection();
    };
    Serializer build;
    write(build, 9, true);
    const std::string image = build.finish(42);

    Serializer same(image, 42);
    write(same, 9, true);
    EXPECT_TRUE(same.matchedWhole());

    Serializer differs(image, 42);
    write(differs, 8, true);
    EXPECT_FALSE(differs.matches());
    EXPECT_FALSE(differs.matchedWhole());

    Serializer shorter(image, 42);
    write(shorter, 9, false);
    EXPECT_TRUE(shorter.matches());
    EXPECT_FALSE(shorter.matchedWhole());

    Serializer other_options(image, 43);
    write(other_options, 9, true);
    EXPECT_FALSE(other_options.matchedWhole());

    Serializer truncated(std::string_view(image).substr(0, image.size() - 3),
                         42);
    write(truncated, 9, true);
    EXPECT_FALSE(truncated.matchedWhole());
    EXPECT_THROW(same.finish(42), SnapshotError);
}

namespace
{

constexpr std::string_view partSection[] = {"part"};

/** A one-section image written by @p write. */
template <typename Write>
std::string
partImage(Write &&write)
{
    Serializer s;
    s.beginSection("part");
    write(s);
    s.endSection();
    return s.finish(0);
}

template <typename Component>
std::string
savedImage(const Component &c)
{
    return partImage([&c](Serializer &s) { c.saveState(s); });
}

template <typename Component>
void
loadImage(Component &c, const std::string &image)
{
    Deserializer d(image, 0, partSection);
    d.beginSection("part");
    c.loadState(d);
    d.endSection();
}

} // namespace

TEST(Checkpoint, SparseLinePredictorRestoresEveryEntry)
{
    const LinePredictorParams params;
    LinePredictor trained(params);
    Random rng(3);
    // Repeat chunks so some entries flip targets and some sit with
    // hysteresis set.
    for (int i = 0; i < 20000; ++i) {
        const ThreadId tid = static_cast<ThreadId>(rng.range(4));
        const Addr chunk = Program::textBase + rng.range(1024) * instBytes;
        trained.train(tid, chunk, Program::textBase +
                                      rng.range(8) * chunkSize * instBytes);
    }
    const std::string image = savedImage(trained);
    // Dense, the table alone is 28K * 10 bytes.
    EXPECT_LT(image.size(), std::size_t{params.entries} * 10 / 2);

    LinePredictor restored(params);
    loadImage(restored, image);
    EXPECT_EQ(savedImage(restored), image);
    for (ThreadId tid = 0; tid < 4; ++tid) {
        for (Addr i = 0; i < params.entries; ++i) {
            ASSERT_EQ(trained.predict(tid, i * instBytes),
                      restored.predict(tid, i * instBytes))
                << "tid " << unsigned(tid) << " chunk " << i;
        }
    }
}

TEST(Checkpoint, SparseBranchPredictorRestoresEveryCounter)
{
    const BranchPredictorParams params;
    BranchPredictor trained(params);
    Random rng(5);
    for (int i = 0; i < 2000; ++i) {
        const ThreadId tid = static_cast<ThreadId>(rng.range(4));
        const Addr pc = Program::textBase + rng.range(8192) * instBytes;
        trained.update(tid, pc, rng.range(3) != 0, rng.range(1u << 16));
    }
    trained.restoreHistory(1, 0x1234);
    const std::string image = savedImage(trained);
    // Dense, the three counter tables alone are one byte per counter.
    EXPECT_LT(image.size(), std::size_t{params.gshare_entries +
                                        params.bimodal_entries +
                                        params.chooser_entries} / 2);

    BranchPredictor restored(params);
    loadImage(restored, image);
    EXPECT_EQ(savedImage(restored), image);
    EXPECT_EQ(restored.history(1), 0x1234u);
    // Every pc under a fixed history reaches every gshare, bimodal and
    // chooser entry of thread 0.
    for (const std::uint64_t hist : {0x0ull, 0x5a5aull, 0xffffull}) {
        for (Addr i = 0; i < params.gshare_entries; ++i) {
            trained.restoreHistory(0, hist);
            restored.restoreHistory(0, hist);
            ASSERT_EQ(trained.predict(0, i * instBytes),
                      restored.predict(0, i * instBytes))
                << "history " << hist << " pc index " << i;
        }
    }
}

TEST(Checkpoint, SparseIndirectPredictorRestoresEveryTarget)
{
    IndirectPredictor trained;
    Random rng(9);
    for (int i = 0; i < 300; ++i) {
        const ThreadId tid = static_cast<ThreadId>(rng.range(4));
        trained.update(tid, Program::textBase + rng.range(4096) * instBytes,
                       Program::textBase + rng.range(1u << 16) * instBytes);
    }
    const std::string image = savedImage(trained);
    // Dense, the 1024 targets alone are 8 KiB.
    EXPECT_LT(image.size(), std::size_t{1024} * 8 / 2);

    IndirectPredictor restored;
    restored.update(0, 0x40, 0x1234);   // stale: the load must clear it
    loadImage(restored, image);
    EXPECT_EQ(savedImage(restored), image);
    for (ThreadId tid = 0; tid < 4; ++tid) {
        for (Addr i = 0; i < 1024; ++i) {
            ASSERT_EQ(trained.predict(tid, i * instBytes),
                      restored.predict(tid, i * instBytes))
                << "tid " << unsigned(tid) << " pc index " << i;
        }
    }
}

TEST(Checkpoint, SparsePredictorIndexAndCountAreRangeChecked)
{
    // Each image is CRC-valid; only its contents are out of range.
    const auto rejects = [](auto &component, const std::string &image,
                            const char *why) {
        try {
            loadImage(component, image);
            ADD_FAILURE() << why << " was accepted";
        } catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("out of range"),
                      std::string::npos)
                << why << ": " << e.what();
        }
    };

    const LinePredictorParams lp;
    LinePredictor line(lp);
    rejects(line, partImage([&](Serializer &s) {
                s.u32(lp.entries);
                s.u32(1);
                s.u32(lp.entries);      // one past the end
                s.u64(Program::textBase);
                s.boolean(false);
            }),
            "line-predictor index");
    rejects(line, partImage([&](Serializer &s) {
                s.u32(lp.entries);
                s.u32(lp.entries + 1);
            }),
            "line-predictor count");

    IndirectPredictor indirect;
    rejects(indirect, partImage([&](Serializer &s) {
                s.u32(1024);
                s.u32(1);
                s.u32(1024);            // one past the end
                s.u64(Program::textBase);
            }),
            "indirect-predictor index");
    rejects(indirect, partImage([&](Serializer &s) {
                s.u32(1024);
                s.u32(1025);
            }),
            "indirect-predictor count");

    const BranchPredictorParams bp;
    const unsigned sizes[3] = {bp.gshare_entries, bp.bimodal_entries,
                               bp.chooser_entries};
    BranchPredictor branch(bp);
    for (int bad = 0; bad < 3; ++bad) {
        // Tables before the bad one are well-formed and empty.
        const auto upTo = [&](Serializer &s) {
            for (int t = 0; t < bad; ++t) {
                s.u32(sizes[t]);
                s.u32(0);
            }
            s.u32(sizes[bad]);
        };
        rejects(branch, partImage([&](Serializer &s) {
                    upTo(s);
                    s.u32(1);
                    s.u32(sizes[bad]);
                    s.u8(3);
                }),
                "counter index");
        rejects(branch, partImage([&](Serializer &s) {
                    upTo(s);
                    s.u32(sizes[bad] + 1);
                }),
                "counter count");
        rejects(branch, partImage([&](Serializer &s) {
                    upTo(s);
                    s.u32(1);
                    s.u32(0);
                    s.u8(4);
                }),
                "counter value");
    }
}
