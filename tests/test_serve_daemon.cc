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
 *  - rows computed under `--max-insts` are keyed on the capped
 *    options, so an uncapped daemon on the same store never serves
 *    them.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "rmt/fault_oracle.hh"
#include "runner/runner.hh"
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
                              submitJson(campaign, false)));
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
    ASSERT_TRUE(sendFrame(fd, tagControl, submitJson(campaign, false)));
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

TEST(ServeDaemon, CappedRowsAreNeverServedToAnUncappedDaemon)
{
    TempDir dir("serve_daemon_capped");
    const Campaign campaign =
        makeCampaign({{"gcc", 0}, {"compress", 0}});

    // 200 warmup + 1500 measured instructions, capped to 800 in all.
    {
        DaemonFixture capped(dir.path, 2, 1, /*max_insts=*/800);
        std::ostringstream out;
        const RemoteCampaignResult r = runRemoteCampaign(
            capped.cfg.socket_path, campaign, false, out);
        EXPECT_EQ(r.misses, campaign.jobs.size());
    }

    // Same store, no cap: every job must run again at full length.
    DaemonFixture uncapped(dir.path);
    std::ostringstream out;
    const RemoteCampaignResult r = runRemoteCampaign(
        uncapped.cfg.socket_path, campaign, false, out);
    EXPECT_EQ(r.rows, campaign.jobs.size());
    EXPECT_EQ(r.misses, campaign.jobs.size());
    EXPECT_EQ(r.hits, 0u);
    EXPECT_EQ(out.str(), localJsonl(campaign));
}
