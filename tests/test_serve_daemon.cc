/**
 * @file
 * End-to-end daemon tests (src/serve/daemon.*, client.*):
 *
 *  - a campaign submitted twice returns byte-identical JSONL — timing
 *    fields included, because the store replays the recorded
 *    wall-clock — with the second pass served entirely from the store;
 *  - the daemon's no-timing stream is byte-identical to running the
 *    same specs in-process (the JsonlSink contract, now over a socket);
 *  - two concurrent clients with overlapping campaigns trigger exactly
 *    one simulation per unique content key (single-flight dedup),
 *    verified through the status verb's store counters;
 *  - a client that disconnects mid-stream and resubmits receives every
 *    row from index 0 in original order;
 *  - fault jobs get their oracle verdicts server-side, identical to a
 *    locally-oracled run, and a snapshot-barrier fault campaign
 *    restores its trials from snapshots exactly as a local batch does
 *    (same "extra" block);
 *  - SIGKILLing the daemon mid-campaign leaves an uncorrupted store,
 *    and a fresh daemon on the same store completes the campaign
 *    byte-identically;
 *  - a daemon under `--max-insts` refuses a submit with a job over
 *    the cap with an error naming it, claims nothing for it, and runs
 *    the next in-cap submit on the same connection;
 *  - RemoteEngine, the remote twin of CampaignEngine: the rounds of a
 *    stratified campaign on one connection emit the rows of a local
 *    engine run and build each golden once; an efficiency submit's
 *    rows and store keys equal a local BaselineCache run; a daemon
 *    that drains mid-run leaves jobs skipped; a stop set during a
 *    long job returns on the engine's poll tick, before that job's
 *    row, and a rerun matches the control; and a "done" whose row
 *    count disagrees with the rows received throws.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "avf/sampler.hh"
#include "rmt/fault_oracle.hh"
#include "runner/runner.hh"
#include "runner/wire.hh"
#include "serve/campaign_engine.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"

using namespace rmt;
using namespace rmt::serve;

namespace
{

struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/** In-process daemon on its own thread; always drained on teardown. */
struct DaemonFixture
{
    explicit DaemonFixture(const std::string &dir, unsigned jobs = 2,
                           unsigned sync_every = 1,
                           std::uint64_t max_insts = 0)
    {
        std::signal(SIGPIPE, SIG_IGN);
        cfg.socket_path = dir + "/d.sock";
        cfg.store_dir = dir + "/store";
        cfg.jobs = jobs;
        cfg.store_sync_every = sync_every;
        cfg.max_insts = max_insts;
        daemon = std::make_unique<Daemon>(cfg);
        daemon->open();
        runner = std::thread([this] { daemon->run(); });
    }

    ~DaemonFixture() { stop(); }

    void stop()
    {
        if (runner.joinable()) {
            daemon->requestStop();
            runner.join();
        }
    }

    DaemonConfig cfg;
    std::unique_ptr<Daemon> daemon;
    std::thread runner;
};

JobSpec
makeSpec(std::uint64_t id, const std::string &workload, unsigned slack)
{
    JobSpec s;
    s.id = id;
    s.label = workload + "/slack" + std::to_string(slack);
    s.workloads = {workload};
    s.options.mode = SimMode::Srt;
    s.options.warmup_insts = 200;
    s.options.measure_insts = 1500;
    s.options.slack_fetch = slack;
    s.seed = 7;
    return s;
}

Campaign
makeCampaign(const std::vector<std::pair<std::string, unsigned>> &jobs)
{
    Campaign c;
    c.name = "serve-test";
    c.seed = 7;
    std::uint64_t id = 0;
    for (const auto &[workload, slack] : jobs)
        c.jobs.push_back(makeSpec(id++, workload, slack));
    return c;
}

/** What rmtsim_batch would emit locally for the same specs. */
std::string
localJsonl(const Campaign &campaign, bool include_timing = false)
{
    RunnerConfig rcfg;
    rcfg.jobs = 1;
    std::ostringstream os;
    for (const JobSpec &spec : campaign.jobs) {
        const JobResult r = executeJob(spec, rcfg);
        os << resultJson(spec, r, include_timing) << "\n";
    }
    return os.str();
}

double
statusStoreCounter(const std::string &sock, const char *key)
{
    const std::string reply =
        controlRequest(sock, "{\"type\":\"status\"}");
    JsonValue status;
    EXPECT_TRUE(parseJson(reply, status));
    const JsonValue *store = status.find("store");
    EXPECT_NE(store, nullptr);
    return store ? store->numberOr(key, -1) : -1;
}

/**
 * Run a small stratified campaign through @p engine round by round,
 * as rmtsim_batch --stratify does; returns each round's tally and
 * appends every no-timing row, then the summary, to @p rows.
 */
template <typename Engine>
std::vector<EngineTally>
runStratifiedRounds(Engine &engine, std::string &rows)
{
    SimOptions options;
    options.mode = SimMode::Srt;
    options.warmup_insts = 200;
    options.measure_insts = 1500;
    SamplerConfig scfg;
    scfg.kinds = {FaultRecord::Kind::TransientReg};
    scfg.windows = 1;
    scfg.batch = 2;
    scfg.max_trials = 4;    // two fixed-budget rounds
    scfg.max_reg = 31;
    StratifiedSampler strat({{"srt:compress", {"compress"}, options}},
                            scfg, 5);
    std::vector<EngineTally> tallies;
    for (;;) {
        std::vector<JobSpec> jobs = strat.nextRound();
        if (jobs.empty())
            break;
        tallies.push_back(engine.run(
            std::move(jobs), [&](const JobSpec &spec, const JobResult &r) {
                rows += resultJson(spec, r, false) + "\n";
                strat.record(spec, r);
                return true;
            }));
    }
    rows += strat.summaryJson();
    return tallies;
}

} // namespace

TEST(ServeDaemon, ResubmissionIsByteIdenticalAndAllHits)
{
    TempDir dir("serve_daemon_resubmit");
    DaemonFixture fx(dir.path);
    const Campaign campaign = makeCampaign(
        {{"gcc", 0}, {"gcc", 32}, {"compress", 0}, {"compress", 32}});

    // Timing stays ON: the store replays the recorded wall-clock, so
    // even wall_ms must match byte-for-byte on the second pass.
    std::ostringstream first, second;
    const RemoteCampaignResult r1 = runRemoteCampaign(
        fx.cfg.socket_path, campaign, /*include_timing=*/true, first);
    EXPECT_EQ(r1.rows, campaign.jobs.size());
    EXPECT_EQ(r1.misses, campaign.jobs.size());
    EXPECT_EQ(r1.hits, 0u);
    EXPECT_EQ(r1.failed, 0u);

    const RemoteCampaignResult r2 = runRemoteCampaign(
        fx.cfg.socket_path, campaign, /*include_timing=*/true, second);
    EXPECT_EQ(r2.rows, campaign.jobs.size());
    EXPECT_EQ(r2.hits, campaign.jobs.size());
    EXPECT_EQ(r2.misses, 0u);

    EXPECT_FALSE(first.str().empty());
    EXPECT_EQ(first.str(), second.str());
}

TEST(ServeDaemon, StreamMatchesInProcessRun)
{
    TempDir dir("serve_daemon_local_equiv");
    DaemonFixture fx(dir.path);
    const Campaign campaign =
        makeCampaign({{"swim", 0}, {"gcc", 16}});

    std::ostringstream remote;
    const RemoteCampaignResult r = runRemoteCampaign(
        fx.cfg.socket_path, campaign, /*include_timing=*/false, remote);
    EXPECT_EQ(r.rows, campaign.jobs.size());
    EXPECT_EQ(remote.str(), localJsonl(campaign));
}

TEST(ServeDaemon, ConcurrentOverlappingClientsDedup)
{
    TempDir dir("serve_daemon_dedup");
    DaemonFixture fx(dir.path, /*jobs=*/2);

    // 3 unique content keys across 4 submitted jobs: the compress/0
    // point appears in both campaigns (under different ids — the key
    // ignores grid position).
    const Campaign a =
        makeCampaign({{"gcc", 0}, {"compress", 0}});
    const Campaign b =
        makeCampaign({{"compress", 0}, {"swim", 0}});

    std::ostringstream out_a, out_b;
    RemoteCampaignResult ra, rb;
    std::thread ta([&] {
        ra = runRemoteCampaign(fx.cfg.socket_path, a, false, out_a);
    });
    std::thread tb([&] {
        rb = runRemoteCampaign(fx.cfg.socket_path, b, false, out_b);
    });
    ta.join();
    tb.join();

    EXPECT_EQ(ra.rows, 2u);
    EXPECT_EQ(rb.rows, 2u);
    // Exactly one simulation per unique key, however the two
    // campaigns raced.
    EXPECT_EQ(ra.misses + rb.misses, 3u);
    EXPECT_EQ(ra.hits + rb.hits, 1u);
    EXPECT_EQ(statusStoreCounter(fx.cfg.socket_path, "misses"), 3);
    EXPECT_EQ(statusStoreCounter(fx.cfg.socket_path, "rows"), 3);

    // Each client's stream is still its own campaign, in its order.
    EXPECT_EQ(out_a.str(), localJsonl(a));
    EXPECT_EQ(out_b.str(), localJsonl(b));
}

TEST(ServeDaemon, ReconnectAfterMidStreamDisconnectRestartsAtRowZero)
{
    TempDir dir("serve_daemon_reconnect");
    DaemonFixture fx(dir.path);
    const Campaign campaign = makeCampaign(
        {{"gcc", 0}, {"compress", 0}, {"swim", 0}, {"gcc", 48}});

    // First client: submit, see the accept, hang up without reading a
    // single row.
    {
        std::string error;
        const int fd = connectUnix(fx.cfg.socket_path, error);
        ASSERT_GE(fd, 0) << error;
        ASSERT_TRUE(sendFrame(fd, tagControl,
                              submitJson(campaign)));
        FrameReader reader(fd);
        std::string payload;
        ASSERT_TRUE(reader.next(payload));
        ASSERT_EQ(payload[0], tagControl);
        EXPECT_NE(payload.find("\"accepted\""), std::string::npos);
        ::close(fd);
    }

    // Second client: the full campaign again.  Whatever the daemon
    // managed to finish for the dead client comes from the store;
    // everything else is computed now — and the stream still starts at
    // row 0 in campaign order.
    std::ostringstream out;
    const RemoteCampaignResult r = runRemoteCampaign(
        fx.cfg.socket_path, campaign, /*include_timing=*/false, out);
    EXPECT_EQ(r.rows, campaign.jobs.size());
    EXPECT_EQ(out.str(), localJsonl(campaign));
}

TEST(ServeDaemon, FaultJobsGetVerdictsServerSide)
{
    TempDir dir("serve_daemon_faults");
    DaemonFixture fx(dir.path);

    Campaign campaign = makeCampaign({{"compress", 0}});
    FaultRecord f{};
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 400;
    f.reg = 5;
    f.bit = 12;
    campaign.jobs[0].faults.push_back(f);

    std::ostringstream remote;
    const RemoteCampaignResult r = runRemoteCampaign(
        fx.cfg.socket_path, campaign, /*include_timing=*/false, remote);
    EXPECT_EQ(r.rows, 1u);
    EXPECT_NE(remote.str().find("\"verdict\""), std::string::npos);

    // Control: the same spec with a locally-built oracle.
    RunnerConfig rcfg;
    rcfg.jobs = 1;
    JobSpec spec = campaign.jobs[0];
    const FaultOracle oracle(
        FaultOracle::goldenImage(spec.workloads, spec.options));
    attachFaultOracle(spec, &oracle);
    const JobResult local = executeJob(spec, rcfg);
    EXPECT_EQ(remote.str(),
              resultJson(spec, local, /*include_timing=*/false) + "\n");
}

TEST(ServeDaemon, SnapshotFaultRowsMatchLocalBatch)
{
    TempDir dir("serve_daemon_snapshots");
    DaemonFixture fx(dir.path);

    SimOptions base;
    base.warmup_insts = 300;
    base.measure_insts = 3000;
    base.snapshot_every = 600;
    CampaignBuilder builder("serve-snap", 5);
    builder.base(base).modes({SimMode::Srt}).mixes({{"compress"}});
    builder.transientRegTrials(4, 31);
    const Campaign campaign = builder.build();

    std::ostringstream remote;
    const RemoteCampaignResult r = runRemoteCampaign(
        fx.cfg.socket_path, campaign, /*include_timing=*/false, remote);
    EXPECT_EQ(r.rows, campaign.jobs.size());

    // Control: what rmtsim_batch --snapshot-every writes locally — one
    // golden for the point, trials restored from a SnapshotCache.
    SnapshotCache snapshots;
    RunnerConfig rcfg;
    rcfg.snapshots = &snapshots;
    const JobSpec &point = campaign.jobs[0];
    const FaultOracle oracle(
        FaultOracle::goldenImage(point.workloads, point.options));
    std::vector<JobSpec> jobs = campaign.jobs;
    for (JobSpec &spec : jobs)
        attachFaultOracle(spec, &oracle);
    const std::vector<JobResult> local = runCampaignJobs(jobs, rcfg);
    std::ostringstream expect;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expect << resultJson(jobs[i], local[i], false) << "\n";

    EXPECT_EQ(remote.str(), expect.str());
    EXPECT_NE(remote.str().find("\"snapshot_hit\":1"), std::string::npos);
}

TEST(ServeDaemon, SigkillMidCampaignLeavesStoreUsable)
{
    TempDir dir("serve_daemon_sigkill");
    const std::string sock = dir.path + "/d.sock";
    const std::string store_dir = dir.path + "/store";
    const Campaign campaign = makeCampaign({{"gcc", 0},
                                            {"compress", 0},
                                            {"swim", 0},
                                            {"gcc", 24},
                                            {"compress", 24},
                                            {"swim", 24}});

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: a real daemon process, fsyncing every row so each
        // published result survives the upcoming SIGKILL.
        DaemonConfig cfg;
        cfg.socket_path = sock;
        cfg.store_dir = store_dir;
        cfg.jobs = 1;
        cfg.store_sync_every = 1;
        Daemon d(cfg);
        try {
            d.open();
        } catch (...) {
            std::_Exit(1);
        }
        std::signal(SIGPIPE, SIG_IGN);
        d.run();
        std::_Exit(0);
    }

    // Parent: wait for the socket, submit, take one row, then kill the
    // daemon mid-campaign.
    std::signal(SIGPIPE, SIG_IGN);
    int fd = -1;
    std::string error;
    for (int tries = 0; tries < 200 && fd < 0; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        fd = connectUnix(sock, error);
    }
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(sendFrame(fd, tagControl, submitJson(campaign)));
    {
        FrameReader reader(fd);
        std::string payload;
        ASSERT_TRUE(reader.next(payload));      // accepted
        ASSERT_TRUE(reader.next(payload));      // first row
        EXPECT_EQ(payload[0], tagRow);
    }
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ::close(fd);

    // The store must reopen cleanly with at least the row we saw.
    {
        ResultStore check;
        ASSERT_NO_THROW(check.open(store_dir));
        EXPECT_GE(check.stats().disk_rows, 1u);
    }

    // A fresh daemon on the same store completes the campaign — and
    // the combined cached+fresh stream is byte-identical to an
    // uninterrupted in-process run.
    DaemonFixture fx2(dir.path);
    std::ostringstream out;
    const RemoteCampaignResult r = runRemoteCampaign(
        sock, campaign, /*include_timing=*/false, out);
    EXPECT_EQ(r.rows, campaign.jobs.size());
    EXPECT_GE(r.hits, 1u);
    EXPECT_EQ(out.str(), localJsonl(campaign));
}

TEST(ServeDaemon, OverCapSubmitIsRefusedBeforeAnythingIsClaimed)
{
    TempDir dir("serve_daemon_capped");
    // Every job runs 200 warmup + 1500 measured instructions.
    DaemonFixture fx(dir.path, 2, 1, /*max_insts=*/1700);
    const Campaign fits = makeCampaign({{"gcc", 0}, {"compress", 0}});
    Campaign over = fits;
    over.jobs[1].options.measure_insts = 1501;
    const auto render = [](std::string &rows) {
        return [&rows](const JobSpec &spec, const JobResult &r) {
            rows += resultJson(spec, r, false) + "\n";
            return true;
        };
    };

    RemoteEngine remote(fx.cfg.socket_path, RunnerConfig{});
    std::string rows;
    try {
        remote.run(over.jobs, render(rows));
        ADD_FAILURE() << "the over-cap submit ran";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "rmtsimd: job 1 (compress/slack0): warmup+measure "
                  "200+1501 exceeds --max-insts 1700");
    }
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(statusStoreCounter(fx.cfg.socket_path, "misses"), 0);
    EXPECT_EQ(statusStoreCounter(fx.cfg.socket_path, "hits"), 0);

    // So is one whose efficiency baseline runs over the cap.
    SimOptions long_base;
    long_base.warmup_insts = 200;
    long_base.measure_insts = 2000;
    BaselineCache baseline(long_base);
    RunnerConfig eff_cfg;
    eff_cfg.baseline = &baseline;
    try {
        RemoteEngine(fx.cfg.socket_path, eff_cfg).run(fits.jobs,
                                                      render(rows));
        ADD_FAILURE() << "the over-cap baseline ran";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "rmtsimd: efficiency baseline: warmup+measure 200+2000 "
                  "exceeds --max-insts 1700");
    }
    EXPECT_EQ(statusStoreCounter(fx.cfg.socket_path, "misses"), 0);

    // The refusing connection still runs an in-cap submit, with the
    // rows a local run writes.
    const EngineTally t = remote.run(fits.jobs, render(rows));
    EXPECT_EQ(t.simulated, fits.jobs.size());
    EXPECT_EQ(statusStoreCounter(fx.cfg.socket_path, "misses"),
              static_cast<double>(fits.jobs.size()));
    EXPECT_EQ(rows, localJsonl(fits));
}

TEST(ServeDaemon, RemoteStratifiedRoundsMatchLocalAndShareGoldens)
{
    TempDir dir("serve_daemon_stratified");
    DaemonFixture fx(dir.path);

    ThreadPool pool(2);
    ResultStore store;
    SnapshotCache snapshots;
    RunnerConfig lcfg;
    lcfg.snapshots = &snapshots;
    CampaignEngine local(pool, store, lcfg);
    std::string local_rows;
    const std::vector<EngineTally> local_tallies =
        runStratifiedRounds(local, local_rows);

    RemoteEngine remote(fx.cfg.socket_path, RunnerConfig{});
    std::string remote_rows;
    const std::vector<EngineTally> remote_tallies =
        runStratifiedRounds(remote, remote_rows);

    EXPECT_EQ(remote_rows, local_rows);
    ASSERT_EQ(remote_tallies.size(), 2u);
    ASSERT_EQ(local_tallies.size(), 2u);
    // One connection, one engine: the second round reuses the golden.
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(remote_tallies[i].goldens, local_tallies[i].goldens);
        EXPECT_EQ(remote_tallies[i].simulated, 2u);
        EXPECT_EQ(remote_tallies[i].skipped, 0u);
    }
    EXPECT_EQ(remote_tallies[0].goldens, 1u);
    EXPECT_EQ(remote_tallies[1].goldens, 0u);
}

TEST(ServeDaemon, EfficiencySubmitMatchesLocalBaselineRun)
{
    TempDir dir("serve_daemon_efficiency");
    DaemonFixture fx(dir.path);
    Campaign campaign = makeCampaign({{"gcc", 0}, {"compress", 32}});
    JobSpec mix = makeSpec(2, "gcc", 0);
    mix.label = "gcc+swim";
    mix.workloads = {"gcc", "swim"};
    campaign.jobs.push_back(mix);

    SimOptions base;
    base.warmup_insts = 200;
    base.measure_insts = 1500;
    const auto render = [](std::string &rows) {
        return [&rows](const JobSpec &spec, const JobResult &r) {
            rows += resultJson(spec, r, false) + "\n";
            return true;
        };
    };

    ResultStore store;
    BaselineCache local_baseline(base, &store);
    SnapshotCache snapshots;
    RunnerConfig lcfg;
    lcfg.baseline = &local_baseline;
    lcfg.snapshots = &snapshots;
    ThreadPool pool(2);
    std::string local_rows;
    CampaignEngine(pool, store, lcfg).run(campaign.jobs, render(local_rows));

    // Only the options of the client's cache travel; the daemon
    // simulates the baselines against its own store.
    BaselineCache remote_baseline(base);
    RunnerConfig rcfg;
    rcfg.baseline = &remote_baseline;
    std::string remote_rows;
    {
        RemoteEngine remote(fx.cfg.socket_path, rcfg);
        const EngineTally t =
            remote.run(campaign.jobs, render(remote_rows));
        EXPECT_EQ(t.simulated, campaign.jobs.size());
    }
    EXPECT_EQ(remote_rows, local_rows);
    EXPECT_NE(remote_rows.find("\"mean_efficiency\""), std::string::npos);
    EXPECT_EQ(remote_baseline.simulations(), 0u);

    // The daemon stored every row under the key a local run computes.
    fx.stop();
    fx.daemon.reset();      // releases the store's lock
    ResultStore stored;
    stored.open(fx.cfg.store_dir);
    for (const JobSpec &job : campaign.jobs) {
        JobResult row;
        EXPECT_EQ(stored.tryClaim(resultKeyU64(job, lcfg), row),
                  ResultStore::Claim::Hit)
            << job.label;
    }
}

TEST(ServeDaemon, DrainMidRunLeavesJobsSkipped)
{
    TempDir dir("serve_daemon_drain");
    DaemonFixture fx(dir.path, /*jobs=*/1);
    Campaign campaign;
    for (std::uint64_t id = 0; id < 8; ++id) {
        JobSpec spec = makeSpec(id, id % 2 ? "gcc" : "compress",
                                static_cast<unsigned>(8 * id));
        spec.options.measure_insts = 100000;
        campaign.jobs.push_back(spec);
    }

    RemoteEngine remote(fx.cfg.socket_path, RunnerConfig{});
    std::uint64_t rows = 0;
    const EngineTally t =
        remote.run(campaign.jobs, [&](const JobSpec &, const JobResult &) {
            if (rows++ == 0)
                fx.daemon->requestStop();
            return true;
        });
    EXPECT_GT(t.skipped, 0u);
    EXPECT_EQ(rows + t.skipped, campaign.jobs.size());
    EXPECT_TRUE(remote.draining());

    // The next round on the connection is refused the same way.
    const EngineTally next = remote.run(
        campaign.jobs, [](const JobSpec &, const JobResult &) {
            return true;
        });
    EXPECT_EQ(next.skipped, campaign.jobs.size());
    EXPECT_TRUE(remote.draining());
}

TEST(ServeDaemon, StopDuringALongJobReturnsPromptly)
{
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    TempDir dir("serve_daemon_prompt_stop");
    DaemonFixture fx(dir.path, /*jobs=*/1);
    // Each job must last well past the engine's 100 ms poll tick, or the
    // bound below measures the tick on a fast host, not the stop.
    Campaign campaign = makeCampaign({{"compress", 0}, {"gcc", 0}});
    for (JobSpec &job : campaign.jobs)
        job.options.measure_insts = 1000000;

    // The control run, and how long one of its jobs takes on this host.
    const auto t0 = Clock::now();
    const std::string control = localJsonl(campaign);
    const double per_job =
        seconds(Clock::now() - t0) / static_cast<double>(campaign.jobs.size());

    // Stop a tenth of the way into the first job: the engine must see
    // it on its poll tick, not when that job's row arrives.
    std::atomic<bool> stop{false};
    RunnerConfig cfg;
    cfg.stop = &stop;
    std::uint64_t rows = 0;
    EngineTally t;
    double took = 0;
    {
        RemoteEngine remote(fx.cfg.socket_path, cfg);
        std::thread stopper([&] {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(per_job / 10));
            stop.store(true);
        });
        const auto start = Clock::now();
        t = remote.run(campaign.jobs,
                       [&](const JobSpec &, const JobResult &) {
                           ++rows;
                           return true;
                       });
        took = seconds(Clock::now() - start);
        stopper.join();
    }
    EXPECT_EQ(rows, 0u);
    EXPECT_EQ(t.skipped, campaign.jobs.size());
    EXPECT_LT(took, per_job * 0.8)
        << "returned after " << took << " s; one job takes " << per_job;

    // A rerun on a new connection finishes what was abandoned and
    // matches the control.
    RemoteEngine again(fx.cfg.socket_path, RunnerConfig{});
    std::string out;
    const EngineTally rerun = again.run(
        campaign.jobs, [&](const JobSpec &spec, const JobResult &r) {
            out += resultJson(spec, r, false) + "\n";
            return true;
        });
    EXPECT_EQ(rerun.skipped, 0u);
    EXPECT_EQ(out, control);
}

TEST(ServeDaemon, DoneWithWrongRowCountThrows)
{
    TempDir dir("serve_daemon_bad_done");
    const std::string sock = dir.path + "/fake.sock";
    std::string error;
    const int listen_fd = listenUnix(sock, error);
    ASSERT_GE(listen_fd, 0) << error;

    // A fake daemon: accept the submit, send one row, claim two.
    std::thread fake([listen_fd] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        FrameReader reader(fd);
        std::string submit;
        reader.next(submit);
        sendFrame(fd, tagControl,
                  "{\"type\":\"accepted\",\"campaign\":\"0\",\"jobs\":2}");
        JobResult r;
        r.status = JobStatus::Ok;
        sendFrame(fd, tagRow, wire::encodeJobResult(r));
        sendFrame(fd, tagControl, "{\"type\":\"done\",\"rows\":2}");
        ::close(fd);
    });

    const Campaign campaign = makeCampaign({{"gcc", 0}, {"gcc", 32}});
    RemoteEngine remote(sock, RunnerConfig{});
    EXPECT_THROW(remote.run(campaign.jobs,
                            [](const JobSpec &, const JobResult &) {
                                return true;
                            }),
                 std::runtime_error);
    fake.join();
    ::close(listen_fd);
}
