/**
 * @file
 * Content-addressed result store (src/serve/result_store.*):
 *
 *  - the content key hashes what is simulated (options, workloads,
 *    faults, seed, stats flag) and ignores grid position (id, label);
 *    keyed with a RunnerConfig it also covers the efficiency baseline
 *    and, for a fault trial under barriers, snapshot restore;
 *  - tryClaim/await/publish implement single-flight: N concurrent
 *    claimers of one key produce exactly one owner, everyone else is
 *    served the published result;
 *  - an abandoned claim wakes the waiters and one of them re-claims
 *    ownership — a dead owner never wedges the key;
 *  - a persisted store reloads every ok row byte-identically (wire
 *    codec round-trip, wall-clock double included), while failed
 *    results are never written to disk;
 *  - a torn tail or a CRC-corrupt frame degrades to the valid prefix
 *    (exhaustively in memory through scanStore: every truncation
 *    offset and every bit of the first and last frame, key bytes
 *    included; through the file, a cut at and inside each frame and
 *    a bit flip per frame) — and a non-store file or another format
 *    version is a hard StoreError that leaves the file as it was;
 *  - a store has one writer: a second open of the same directory
 *    throws until the first store is closed;
 *  - the CampaignEngine on top of the store, which requires a
 *    SnapshotCache (the home of its reference runs): a rerun over a complete
 *    store simulates nothing and builds no golden, duplicate keys in
 *    one run simulate once and keep their own id and label, runs on a
 *    shared pool return when their own jobs finish, a stop abandons
 *    unstarted keys, and a failing golden is one error that releases
 *    every claim;
 *  - a point's trials start when its own reference run ends, before
 *    a longer point's reference run is done;
 *  - a forked fault campaign through the engine runs exactly one
 *    fault-free reference run per point at one and at four workers,
 *    restores every trial that strikes after a barrier, and emits rows
 *    identical to the same jobs through runCampaignJobs;
 *  - snapshots with recovery fail a plain job's row and a fault
 *    campaign's golden, instead of exiting the process.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/runner.hh"
#include "runner/wire.hh"
#include "runner/campaign.hh"
#include "runner/thread_pool.hh"
#include "serve/campaign_engine.hh"
#include "serve/result_store.hh"

using namespace rmt;

namespace
{

/** Self-deleting temp store directory. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

std::string
storeFile(const TempDir &dir)
{
    return dir.path + "/store.rmtrs";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

JobSpec
sampleSpec(std::uint64_t id)
{
    JobSpec s;
    s.id = id;
    s.label = "job" + std::to_string(id);
    s.workloads = {"gcc"};
    s.options.warmup_insts = 100;
    s.options.measure_insts = 1000;
    s.seed = 42;
    return s;
}

JobResult
sampleResult(std::uint64_t id, bool ok = true)
{
    JobResult r;
    r.id = id;
    r.label = "job" + std::to_string(id);
    r.status = ok ? JobStatus::Ok : JobStatus::Failed;
    r.error = ok ? "" : "synthetic";
    r.attempts = 1;
    r.wall_seconds = 0.125 + 0.625 * double(id);   // exact doubles
    r.run.total_cycles = 5000 + id;
    r.run.completed = ok;
    return r;
}

/** Three transient-register trials on each of two points. */
std::vector<JobSpec>
faultJobs()
{
    SimOptions base;
    base.warmup_insts = 100;
    base.measure_insts = 1000;
    CampaignBuilder builder("engine", 3);
    builder.base(base).modes({SimMode::Srt}).mixes({{"gcc"}, {"compress"}});
    builder.transientRegTrials(3, 31);
    return builder.build().jobs;
}

/** What the tools give a CampaignEngine: a RunnerConfig with a
 *  snapshot cache of its own, the home of its reference runs. */
struct EngineConfig
{
    EngineConfig() { config.snapshots = &snapshots; }
    EngineConfig(const EngineConfig &) = delete;
    SnapshotCache snapshots;
    RunnerConfig config;
};

/** Every row a CampaignEngine emits, rendered without timing. */
struct Rows
{
    std::vector<std::string> lines;
    CampaignEngine::Emit emit()
    {
        return [this](const JobSpec &spec, const JobResult &r) {
            lines.push_back(resultJson(spec, r, false));
            return true;
        };
    }
};

} // namespace

TEST(ResultKey, HashesContentNotGridPosition)
{
    const JobSpec a = sampleSpec(3);
    JobSpec b = sampleSpec(3);
    b.id = 99;
    b.label = "somewhere else entirely";
    EXPECT_EQ(resultKeyU64(a), resultKeyU64(b));

    JobSpec seed = a;
    seed.seed = 43;
    EXPECT_NE(resultKeyU64(a), resultKeyU64(seed));

    JobSpec mix = a;
    mix.workloads = {"swim"};
    EXPECT_NE(resultKeyU64(a), resultKeyU64(mix));

    JobSpec opts = a;
    opts.options.slack_fetch = 32;
    EXPECT_NE(resultKeyU64(a), resultKeyU64(opts));

    JobSpec stats = a;
    stats.options.collect_stats_json = true;
    EXPECT_NE(resultKeyU64(a), resultKeyU64(stats));

    JobSpec fault = a;
    FaultRecord f{};
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 1234;
    f.reg = 7;
    f.bit = 3;
    fault.faults.push_back(f);
    EXPECT_NE(resultKeyU64(a), resultKeyU64(fault));

    JobSpec bit = fault;
    bit.faults[0].bit = 4;
    EXPECT_NE(resultKeyU64(fault), resultKeyU64(bit));
}

TEST(ResultKey, CoversWhatTheRunnerSimulatesAndRenders)
{
    JobSpec spec = sampleSpec(0);
    spec.options.snapshot_every = 500;
    FaultRecord f{};
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 900;
    spec.faults.push_back(f);
    const RunnerConfig plain;
    EXPECT_EQ(resultKeyU64(spec, plain), resultKeyU64(spec));

    // Efficiency columns depend on the baseline's options too.
    BaselineCache base_a(spec.options), base_b(sampleSpec(1).options);
    RunnerConfig eff_a, eff_b;
    eff_a.baseline = &base_a;
    eff_b.baseline = &base_b;
    EXPECT_NE(resultKeyU64(spec, eff_a), resultKeyU64(spec));
    EXPECT_NE(resultKeyU64(spec, eff_a), resultKeyU64(spec, eff_b));

    // Snapshot restore adds the "extra" block to fault trials under
    // barriers only: a barrier-less trial starts from its point's
    // reference run too, and its row is the plain one.
    SnapshotCache snapshots;
    RunnerConfig restore;
    restore.snapshots = &snapshots;
    EXPECT_NE(resultKeyU64(spec, restore), resultKeyU64(spec));
    JobSpec faultless = spec;
    faultless.faults.clear();
    EXPECT_EQ(resultKeyU64(faultless, restore), resultKeyU64(faultless));
    JobSpec flat = spec;
    flat.options.snapshot_every = 0;
    EXPECT_EQ(resultKeyU64(flat, restore), resultKeyU64(flat));

    // A faulted run without recovery stops at its first detection, so
    // its key is not the one rows of the longer run were stored under
    // (pinned below as the key before the rule).  Plain jobs and
    // recovery trials run as before and keep their keys, so their
    // stored rows are still served.
    EXPECT_EQ(resultKeyU64(sampleSpec(0)), 0x74da6e18a6cd4ac3ull);
    flat.options.recovery = true;
    EXPECT_EQ(resultKeyU64(flat), 0xb71ebd3331873e6dull);
    flat.options.recovery = false;
    EXPECT_NE(resultKeyU64(flat), 0x2ec6fc4bc3a8d808ull);
}

TEST(ResultStore, ClaimPublishHitCounters)
{
    ResultStore store;      // memory-only: no open()
    const std::uint64_t key = resultKeyU64(sampleSpec(0));

    JobResult out;
    ASSERT_EQ(store.tryClaim(key, out), ResultStore::Claim::Owner);
    EXPECT_EQ(store.tryClaim(key, out), ResultStore::Claim::InFlight);

    store.publish(key, "srt", sampleResult(0));
    ASSERT_EQ(store.tryClaim(key, out), ResultStore::Claim::Hit);
    EXPECT_EQ(wire::encodeJobResult(out),
              wire::encodeJobResult(sampleResult(0)));

    const ResultStoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.rows, 1u);
    EXPECT_EQ(s.disk_rows, 0u);
    ASSERT_EQ(s.mode_rows.count("srt"), 1u);
    EXPECT_EQ(s.mode_rows.at("srt"), 1u);
}

TEST(ResultStore, AbandonWakesWaiterWhoReclaims)
{
    ResultStore store;
    const std::uint64_t key = 0xdeadbeefull;

    JobResult out;
    ASSERT_EQ(store.tryClaim(key, out), ResultStore::Claim::Owner);

    std::thread waiter([&] {
        JobResult mine;
        // The owner abandons: await must return false, and the waiter
        // must then win ownership.
        EXPECT_FALSE(store.await(key, mine));
        EXPECT_EQ(store.tryClaim(key, mine),
                  ResultStore::Claim::Owner);
        store.publish(key, "srt", sampleResult(1));
    });

    // Give the waiter time to block, then walk away.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    store.abandon(key);
    waiter.join();

    ASSERT_EQ(store.tryClaim(key, out), ResultStore::Claim::Hit);
    EXPECT_EQ(out.run.total_cycles, sampleResult(1).run.total_cycles);
}

TEST(ResultStore, SingleFlightManyThreads)
{
    ResultStore store;
    const std::uint64_t key = 7;
    std::atomic<int> owners{0}, served{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            JobResult r;
            for (;;) {
                switch (store.tryClaim(key, r)) {
                  case ResultStore::Claim::Owner:
                    ++owners;
                    store.publish(key, "crt", sampleResult(2));
                    return;
                  case ResultStore::Claim::Hit:
                    ++served;
                    EXPECT_EQ(r.run.total_cycles,
                              sampleResult(2).run.total_cycles);
                    return;
                  case ResultStore::Claim::InFlight:
                    if (store.await(key, r)) {
                        ++served;
                        EXPECT_EQ(r.run.total_cycles,
                                  sampleResult(2).run.total_cycles);
                        return;
                    }
                    break;    // owner abandoned; loop and re-claim
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(owners.load(), 1);
    EXPECT_EQ(served.load(), 7);
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(ResultStore, PersistsOkRowsAndReloadsThemByteIdentically)
{
    TempDir dir("serve_store_roundtrip");
    {
        ResultStore store;
        store.setSyncEvery(1);
        store.open(dir.path);
        for (std::uint64_t k = 0; k < 4; ++k) {
            JobResult dummy;
            ASSERT_EQ(store.tryClaim(k, dummy),
                      ResultStore::Claim::Owner);
            store.publish(k, k % 2 ? "crt" : "srt", sampleResult(k));
        }
        // A failure unblocks waiters but must never reach the disk.
        JobResult dummy;
        ASSERT_EQ(store.tryClaim(99, dummy),
                  ResultStore::Claim::Owner);
        store.publish(99, "srt", sampleResult(99, /*ok=*/false));
    }

    ResultStore reloaded;
    reloaded.open(dir.path);
    const ResultStoreStats s = reloaded.stats();
    EXPECT_EQ(s.disk_rows, 4u);
    EXPECT_EQ(s.rows, 4u);
    EXPECT_EQ(s.mode_rows.at("srt"), 2u);
    EXPECT_EQ(s.mode_rows.at("crt"), 2u);

    for (std::uint64_t k = 0; k < 4; ++k) {
        JobResult out;
        ASSERT_EQ(reloaded.tryClaim(k, out), ResultStore::Claim::Hit);
        EXPECT_EQ(wire::encodeJobResult(out),
                  wire::encodeJobResult(sampleResult(k)));
    }
    // The failed row was memory-only: this process owns it afresh.
    JobResult out;
    EXPECT_EQ(reloaded.tryClaim(99, out), ResultStore::Claim::Owner);
}

TEST(ResultStore, TornTailDegradesToValidPrefix)
{
    TempDir dir("serve_store_torn");
    {
        ResultStore store;
        store.setSyncEvery(1);
        store.open(dir.path);
        for (std::uint64_t k = 0; k < 3; ++k) {
            JobResult dummy;
            store.tryClaim(k, dummy);
            store.publish(k, "srt", sampleResult(k));
        }
    }
    // Simulate a crash mid-append: half a frame header of junk.
    std::string bytes = slurp(storeFile(dir));
    const std::string intact = bytes;
    bytes += std::string("RMTS\x40", 5);
    spit(storeFile(dir), bytes);

    ResultStore reloaded;
    reloaded.open(dir.path);
    EXPECT_EQ(reloaded.stats().disk_rows, 3u);

    // The reopen truncated the tear away before appending.
    EXPECT_EQ(slurp(storeFile(dir)), intact);
}

TEST(ResultStore, CorruptFrameDropsItAndEverythingAfter)
{
    TempDir dir("serve_store_corrupt");
    std::string before_last;
    {
        ResultStore store;
        store.setSyncEvery(1);
        store.open(dir.path);
        for (std::uint64_t k = 0; k < 3; ++k) {
            JobResult dummy;
            store.tryClaim(k, dummy);
            store.publish(k, "srt", sampleResult(k));
            if (k == 1)
                before_last = slurp(storeFile(dir));
        }
    }
    // Flip one payload byte inside the last frame.
    std::string bytes = slurp(storeFile(dir));
    ASSERT_GT(bytes.size(), before_last.size() + 20);
    bytes[before_last.size() + 17] ^= 0x01;
    spit(storeFile(dir), bytes);

    ResultStore reloaded;
    reloaded.open(dir.path);
    EXPECT_EQ(reloaded.stats().disk_rows, 2u);
    JobResult out;
    EXPECT_EQ(reloaded.tryClaim(1, out), ResultStore::Claim::Hit);
    EXPECT_EQ(reloaded.tryClaim(2, out), ResultStore::Claim::Owner);
}

TEST(ResultStore, EveryTruncationAndBitFlipKeepsExactlyTheValidPrefix)
{
    TempDir dir("serve_store_exhaustive");
    const std::uint64_t keys[3] = {0x0123456789abcdefull,
                                   0x1111111111111111ull,
                                   0xfedcba9876543210ull};
    std::size_t ends[4];    // file size after the header and each frame
    {
        ResultStore store;
        store.setSyncEvery(1);
        store.open(dir.path);
        ends[0] = slurp(storeFile(dir)).size();
        for (std::size_t k = 0; k < 3; ++k) {
            JobResult dummy;
            ASSERT_EQ(store.tryClaim(keys[k], dummy),
                      ResultStore::Claim::Owner);
            store.publish(keys[k], "srt", sampleResult(k));
            ends[k + 1] = slurp(storeFile(dir)).size();
        }
    }
    const std::string pristine = slurp(storeFile(dir));
    ASSERT_EQ(pristine.size(), ends[3]);

    // Scan @p bytes in memory: exactly the first @p rows frames are
    // the valid prefix, each under the key it was published with.
    const auto expectScan = [&](const std::string &bytes, std::size_t rows,
                                const std::string &what) {
        StoreScan scan;
        ASSERT_NO_THROW(scan = scanStore(bytes, dir.path)) << what;
        ASSERT_EQ(scan.rows.size(), rows) << what;
        EXPECT_EQ(scan.valid_bytes, bytes.size() < ends[0] ? 0 : ends[rows])
            << what;
        for (std::size_t k = 0; k < rows; ++k) {
            ASSERT_EQ(scan.rows[k].key, keys[k]) << what;
            ASSERT_EQ(scan.rows[k].mode, "srt") << what;
            ASSERT_EQ(wire::encodeJobResult(scan.rows[k].result),
                      wire::encodeJobResult(sampleResult(k)))
                << what;
        }
    };
    // Open @p bytes as the store: the same prefix is served, nothing
    // else is loaded, and the file is cut back to that prefix.
    const auto expectOpen = [&](const std::string &bytes, std::size_t rows,
                                const std::string &what) {
        spit(storeFile(dir), bytes);
        {
            ResultStore store;
            ASSERT_NO_THROW(store.open(dir.path)) << what;
            ASSERT_EQ(store.stats().rows, rows) << what;
            for (std::size_t k = 0; k < 3; ++k) {
                JobResult out;
                const ResultStore::Claim claim =
                    store.tryClaim(keys[k], out);
                if (k < rows) {
                    ASSERT_EQ(claim, ResultStore::Claim::Hit) << what;
                    ASSERT_EQ(wire::encodeJobResult(out),
                              wire::encodeJobResult(sampleResult(k)))
                        << what;
                } else {
                    ASSERT_EQ(claim, ResultStore::Claim::Owner) << what;
                }
            }
        }
        EXPECT_EQ(slurp(storeFile(dir)), pristine.substr(0, ends[rows]))
            << what;
    };
    const auto rowsBefore = [&](std::size_t cut) {
        std::size_t rows = 0;
        while (rows < 3 && ends[rows + 1] <= cut)
            ++rows;
        return rows;
    };
    const auto flipped = [&](std::size_t at, int bit) {
        std::string bytes = pristine;
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
        return bytes;
    };
    const auto flipName = [](std::size_t at, int bit) {
        return "bit " + std::to_string(bit) + " of byte " +
               std::to_string(at) + " flipped";
    };

    // Exhaustive, in memory: every cut, and every bit of the first and
    // the last frame.
    for (std::size_t cut = 0; cut <= pristine.size(); ++cut)
        expectScan(pristine.substr(0, cut), rowsBefore(cut),
                   "truncated to " + std::to_string(cut) + " bytes");
    for (const std::size_t frame : {std::size_t{0}, std::size_t{2}}) {
        for (std::size_t at = ends[frame]; at < ends[frame + 1]; ++at) {
            for (int bit = 0; bit < 8; ++bit)
                expectScan(flipped(at, bit), frame, flipName(at, bit));
        }
    }

    // Through the file: a cut at each frame boundary and inside each
    // frame, and one bit flip per frame.
    for (std::size_t k = 0; k < 4; ++k) {
        expectOpen(pristine.substr(0, ends[k]), k,
                   "truncated to frame boundary " + std::to_string(k));
        if (k < 3) {
            const std::size_t mid = (ends[k] + ends[k + 1]) / 2;
            expectOpen(pristine.substr(0, mid), k,
                       "truncated inside frame " + std::to_string(k));
            expectOpen(flipped(mid, 3), k, flipName(mid, 3));
        }
    }
}

TEST(ResultStore, RejectsForeignFilesAndFutureVersions)
{
    TempDir dir("serve_store_reject");
    std::filesystem::create_directories(dir.path);

    spit(storeFile(dir), "this is not a result store at all");
    {
        ResultStore store;
        EXPECT_THROW(store.open(dir.path), StoreError);
    }

    // Correct magic, version from the future.
    std::string bytes("RMTRES\0\0", 8);
    bytes += std::string("\xff\x00\x00\x00", 4);
    spit(storeFile(dir), bytes);
    {
        ResultStore store;
        EXPECT_THROW(store.open(dir.path), StoreError);
    }

    // Version 1 frames had a CRC that skipped the key, and versions 2
    // and 3 frames hold rows of older wire codecs: all refused, the
    // message says how to start over, and the file is left as it was.
    for (const char version : {'\x01', '\x02', '\x03'}) {
        bytes = std::string("RMTRES\0\0", 8);
        bytes += version;
        bytes += std::string("\x00\x00\x00", 3);
        bytes += "rows of an older build";
        spit(storeFile(dir), bytes);
        {
            ResultStore store;
            try {
                store.open(dir.path);
                ADD_FAILURE()
                    << "a version-" << int(version) << " store opened";
            } catch (const StoreError &e) {
                EXPECT_NE(std::string(e.what()).find("delete"),
                          std::string::npos)
                    << e.what();
            }
        }
        EXPECT_EQ(slurp(storeFile(dir)), bytes)
            << "version " << int(version);
    }
}

TEST(ResultStore, SecondWriterIsRefusedUntilTheFirstCloses)
{
    TempDir dir("serve_store_lock");
    auto first = std::make_unique<ResultStore>();
    first->open(dir.path);
    {
        ResultStore second;
        try {
            second.open(dir.path);
            ADD_FAILURE() << "a second writer opened a held store";
        } catch (const StoreError &e) {
            EXPECT_NE(std::string(e.what()).find("in use by another "
                                                 "process"),
                      std::string::npos)
                << e.what();
        }
    }
    first.reset();
    ResultStore again;
    EXPECT_NO_THROW(again.open(dir.path));
}

TEST(CampaignEngine, RerunOverACompleteStoreSimulatesNothing)
{
    TempDir dir("serve_engine_rerun");
    const std::vector<JobSpec> jobs = faultJobs();
    ThreadPool pool(2);
    Rows first, second;
    {
        ResultStore store;
        store.open(dir.path);
        EngineConfig ec;
        CampaignEngine engine(pool, store, ec.config);
        const EngineTally t = engine.run(jobs, first.emit());
        EXPECT_EQ(t.simulated, jobs.size());
        EXPECT_EQ(t.goldens, 2u);
        EXPECT_EQ(t.hits, 0u);
        EXPECT_EQ(t.skipped, 0u);
        EXPECT_EQ(t.failed, 0u);
    }
    ResultStore store;
    store.open(dir.path);
    EngineConfig ec;
    CampaignEngine engine(pool, store, ec.config);
    const EngineTally t = engine.run(jobs, second.emit());
    EXPECT_EQ(t.hits, jobs.size());
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_EQ(t.goldens, 0u);
    ASSERT_EQ(first.lines.size(), jobs.size());
    EXPECT_EQ(first.lines, second.lines);
    EXPECT_NE(first.lines[0].find("\"verdict\""), std::string::npos);
}

TEST(CampaignEngine, DuplicateKeysSimulateOnceAndKeepTheirOwnRows)
{
    std::vector<JobSpec> jobs = {sampleSpec(0), sampleSpec(1),
                                 sampleSpec(2)};
    jobs[2].label = "twin";
    jobs[1].seed = 43;      // job 2 repeats job 0's content
    ThreadPool pool(2);
    ResultStore store;
    EngineConfig ec;
    CampaignEngine engine(pool, store, ec.config);
    std::vector<std::pair<std::uint64_t, std::string>> seen;
    const EngineTally t = engine.run(
        jobs, [&](const JobSpec &spec, const JobResult &r) {
            EXPECT_EQ(r.id, spec.id);
            EXPECT_EQ(r.label, spec.label);
            seen.emplace_back(spec.id, resultJson(spec, r, false));
            return true;
        });
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.awaited, 1u);
    EXPECT_EQ(t.hits, 0u);
    ASSERT_EQ(seen.size(), 3u);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i].first, i);
    EXPECT_NE(seen[2].second.find("\"label\":\"twin\""),
              std::string::npos);
}

TEST(CampaignEngine, RunsOnASharedPoolReturnWithTheirOwnJobs)
{
    // One worker is held by a task that is not the engine's: a run
    // that waited for the whole pool would never return.
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    pool.submit([&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });

    // Three distinct keys over five jobs: a's two are also b's first.
    std::vector<JobSpec> b = {sampleSpec(0), sampleSpec(1),
                              sampleSpec(2)};
    for (JobSpec &job : b)
        job.seed = 42 + job.id;
    const std::vector<JobSpec> a = {b[0], b[1]};
    ResultStore store;
    EngineTally ta, tb;
    Rows ra, rb;
    std::thread other([&] {
        EngineConfig ec;
        CampaignEngine engine(pool, store, ec.config);
        tb = engine.run(b, rb.emit());
    });
    {
        EngineConfig ec;
        CampaignEngine engine(pool, store, ec.config);
        ta = engine.run(a, ra.emit());
    }
    other.join();
    EXPECT_FALSE(release.load());
    release.store(true);
    pool.wait();

    // Each key is simulated once across both runs.
    EXPECT_EQ(ta.simulated + tb.simulated, 3u);
    EXPECT_EQ(ta.hits + ta.awaited + tb.hits + tb.awaited, 2u);
    EXPECT_EQ(ra.lines.size(), 2u);
    EXPECT_EQ(rb.lines.size(), 3u);
    EXPECT_EQ(ra.lines[0], rb.lines[0]);
    EXPECT_EQ(ra.lines[1], rb.lines[1]);
}

TEST(CampaignEngine, StopAbandonsUnstartedKeys)
{
    std::vector<JobSpec> jobs;
    for (std::uint64_t i = 0; i < 4; ++i) {
        jobs.push_back(sampleSpec(i));
        jobs.back().seed = 100 + i;
    }
    // The first job sets the drain flag from its post_run; the single
    // worker then starts nothing else.
    std::atomic<bool> stop{false};
    jobs[0].post_run = [&stop](Simulation *, const RunResult &,
                               JobResult &) { stop.store(true); };
    EngineConfig ec;
    RunnerConfig &cfg = ec.config;
    cfg.stop = &stop;
    ThreadPool pool(1);
    ResultStore store;
    CampaignEngine engine(pool, store, cfg);
    Rows rows;
    const EngineTally t = engine.run(jobs, rows.emit());
    EXPECT_EQ(t.simulated, 1u);
    EXPECT_EQ(t.skipped, 3u);
    EXPECT_EQ(rows.lines.size(), 1u);
    JobResult ignored;
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        EXPECT_EQ(store.tryClaim(resultKeyU64(jobs[i], cfg), ignored),
                  ResultStore::Claim::Owner)
            << "job " << i;
    }
}

TEST(CampaignEngine, FailingGoldenIsOneErrorAndReleasesEveryClaim)
{
    std::vector<JobSpec> jobs = faultJobs();
    for (JobSpec &job : jobs) {
        if (job.workloads[0] == "compress")
            job.workloads = {"no-such-workload"};
    }
    ThreadPool pool(2);
    ResultStore store;
    EngineConfig ec;
    CampaignEngine engine(pool, store, ec.config);
    Rows rows;
    try {
        engine.run(jobs, rows.emit());
        ADD_FAILURE() << "the run did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("golden run failed"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(rows.lines.empty());
    JobResult ignored;
    for (const JobSpec &job : jobs) {
        EXPECT_EQ(store.tryClaim(resultKeyU64(job), ignored),
                  ResultStore::Claim::Owner)
            << job.label;
    }
}

TEST(CampaignEngine, RequiresASnapshotCache)
{
    ThreadPool pool(1);
    ResultStore store;
    try {
        CampaignEngine engine(pool, store, RunnerConfig{});
        ADD_FAILURE() << "an engine without a cache was built";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()),
                  "CampaignEngine: config.snapshots is required");
    }
}

TEST(CampaignEngine, SnapshotOptionConflictIsAnErrorNotAnExit)
{
    // Simulation's constructor exits the process on snapshots with
    // recovery; through the engine (the daemon runs it in-process) a
    // plain job over such a point fails its row, and a fault campaign
    // over it is the engine's one golden error.
    SimOptions o;
    o.warmup_insts = 100;
    o.measure_insts = 1000;
    o.snapshot_every = 500;
    o.recovery = true;
    JobSpec plain;
    plain.workloads = {"gcc"};
    plain.options = o;
    ThreadPool pool(2);
    ResultStore store;
    SnapshotCache cache;
    RunnerConfig cfg;
    cfg.snapshots = &cache;
    CampaignEngine engine(pool, store, cfg);
    std::vector<JobResult> results;
    const EngineTally t =
        engine.run({plain}, [&](const JobSpec &, const JobResult &r) {
            results.push_back(r);
            return true;
        });
    EXPECT_EQ(t.failed, 1u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].error,
              "job 0: snapshots are incompatible with recovery");

    JobSpec trial = plain;
    trial.faults = {parseFaultSpec("reg:700:0:0:3:5")};
    Rows rows;
    try {
        engine.run({trial}, rows.emit());
        ADD_FAILURE() << "the run did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "golden run failed: job 0: snapshots are incompatible "
                  "with recovery");
    }
    EXPECT_TRUE(rows.lines.empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(CampaignEngine, TrialsStartWhenTheirOwnReferenceRunEnds)
{
    // Two points whose budgets differ 300x, on two workers: the short
    // point's trials run while the long point's reference run does, so
    // row 0 leaves before that run's snapshots are in the cache.
    SimOptions quick;
    quick.warmup_insts = 100;
    quick.measure_insts = 400;
    quick.snapshot_every = 300;
    SimOptions slow = quick;
    slow.measure_insts = 150000 - slow.warmup_insts;
    std::vector<JobSpec> jobs;
    for (const auto &[options, fault] :
         {std::pair{quick, "reg:200:0:0:3:5"}, {quick, "reg:400:0:0:9:1"},
          {quick, "reg:500:0:0:12:7"}, {slow, "reg:900:0:0:3:5"}}) {
        JobSpec job;
        job.id = jobs.size();
        job.workloads = {"gcc"};
        job.options = options;
        job.faults = {parseFaultSpec(fault)};
        jobs.push_back(job);
    }

    SnapshotCache cache;
    RunnerConfig cfg;
    cfg.snapshots = &cache;
    ThreadPool pool(2);
    ResultStore store;
    CampaignEngine engine(pool, store, cfg);
    std::vector<bool> slow_ready;
    const EngineTally t = engine.run(
        jobs, [&](const JobSpec &, const JobResult &r) {
            EXPECT_TRUE(r.ok()) << r.error;
            slow_ready.push_back(cache.find({"gcc"}, slow).has_value());
            return true;
        });
    EXPECT_EQ(t.goldens, 2u);
    EXPECT_EQ(t.simulated, jobs.size());
    ASSERT_EQ(slow_ready.size(), jobs.size());
    EXPECT_FALSE(slow_ready.front())
        << "row 0 waited for the other point's reference run";
    EXPECT_TRUE(slow_ready.back());
}

TEST(CampaignEngine, ForkedCampaignRunsOneReferenceRunPerPoint)
{
    // Two points (gcc, compress) with barriers every 1500 cycles.
    SimOptions base;
    base.warmup_insts = 500;
    base.measure_insts = 5000;
    base.snapshot_every = 1500;
    CampaignBuilder builder("engine-fork", 7);
    builder.base(base).modes({SimMode::Srt}).mixes({{"gcc"}, {"compress"}});
    builder.transientRegTrials(4, 15);
    const std::vector<JobSpec> jobs = builder.build().jobs;
    constexpr std::uint64_t points = 2;

    // The same jobs through runCampaignJobs, which releases each
    // point's trials when that point's reference run ends by the same
    // rule (releaseTrials), must produce the engine's rows.
    std::map<std::string, std::unique_ptr<FaultOracle>> oracles;
    std::vector<JobSpec> plain_jobs = jobs;
    for (JobSpec &job : plain_jobs) {
        auto &oracle = oracles[job.workloads.front()];
        if (!oracle) {
            oracle = std::make_unique<FaultOracle>(
                FaultOracle::goldenImage(job.workloads, job.options));
        }
        attachFaultOracle(job, oracle.get());
    }

    for (const unsigned workers : {1u, 4u}) {
        SnapshotCache cache;
        RunnerConfig cfg;
        cfg.snapshots = &cache;
        ThreadPool pool(workers);
        ResultStore store;
        CampaignEngine engine(pool, store, cfg);
        std::vector<std::string> rows;
        std::vector<bool> restored;
        const EngineTally t = engine.run(
            jobs, [&](const JobSpec &spec, const JobResult &r) {
                rows.push_back(resultJson(spec, r, false));
                bool hit = false;
                for (const auto &[key, value] : r.extra)
                    hit = hit || (key == "snapshot_hit" && value > 0);
                restored.push_back(hit);
                return true;
            });
        EXPECT_EQ(t.goldens, points);
        EXPECT_EQ(t.simulated, jobs.size());
        EXPECT_EQ(cache.size(), points);
        ASSERT_EQ(rows.size(), jobs.size());

        // Every trial whose strike falls after a barrier was restored.
        std::size_t after_barrier = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobSpec &job = jobs[i];
            const auto set = cache.find(job.workloads, job.options)->snapshots;
            const bool forkable =
                SnapshotCache::latestBefore(*set, job.faults.front().when);
            after_barrier += forkable;
            EXPECT_EQ(restored[i], forkable) << job.label;
        }
        EXPECT_GT(after_barrier, 0u);

        SnapshotCache plain_cache;
        RunnerConfig plain_cfg;
        plain_cfg.jobs = workers;
        plain_cfg.snapshots = &plain_cache;
        const std::vector<JobResult> plain =
            runCampaignJobs(plain_jobs, plain_cfg);
        EXPECT_EQ(plain_cache.size(), points);
        ASSERT_EQ(plain.size(), rows.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(resultJson(plain_jobs[i], plain[i], false), rows[i])
                << i << " at " << workers << " workers";
        }
    }
}
