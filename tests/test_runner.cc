/**
 * @file
 * Campaign runner: parallel execution must be a pure optimisation.
 * The load-bearing properties:
 *
 *  - determinism: a campaign run at -j 4 yields per-job results
 *    identical to -j 1 (jobs share nothing mutable, so worker count
 *    and completion order cannot leak into the results);
 *  - isolation: one throwing job is retried once, recorded as failed,
 *    and the rest of the campaign completes;
 *  - single-flight: N workers asking for the same single-thread
 *    baseline trigger exactly one simulation per distinct workload;
 *  - fault campaigns: the stop drain returns only finished trials, a
 *    corrupt cached snapshot falls back to scratch, and the ordered
 *    sink sees every record, an invalid spec's failure included, in id
 *    order (snapshot-vs-scratch identity at -j 1/-j 4 is in
 *    test_ckpt.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rmt/fault_oracle.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "sim/metrics.hh"

using namespace rmt;

namespace
{

SimOptions
tinyOptions()
{
    SimOptions o;
    o.warmup_insts = 500;
    o.measure_insts = 3000;
    return o;
}

/** 2 modes x 3 workloads x 2 slack values = 12 jobs. */
Campaign
twelveJobCampaign()
{
    CampaignBuilder b("twelve", 7);
    b.base(tinyOptions())
        .modes({SimMode::Base, SimMode::Srt})
        .workloads({"gcc", "compress", "swim"})
        .sweep("slack", {"0", "16"});
    return b.build();
}

void
expectIdenticalRuns(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.completed, b.completed);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t i = 0; i < a.threads.size(); ++i) {
        EXPECT_EQ(a.threads[i].workload, b.threads[i].workload);
        EXPECT_EQ(a.threads[i].cycles, b.threads[i].cycles);
        EXPECT_EQ(a.threads[i].committed, b.threads[i].committed);
        EXPECT_DOUBLE_EQ(a.threads[i].ipc, b.threads[i].ipc);
    }
    EXPECT_EQ(a.detections, b.detections);
    EXPECT_EQ(a.store_comparisons, b.store_comparisons);
    EXPECT_EQ(a.store_mismatches, b.store_mismatches);
    EXPECT_EQ(a.fu_pairs, b.fu_pairs);
    EXPECT_EQ(a.fu_same_unit, b.fu_same_unit);
    EXPECT_EQ(a.sq_full_stalls, b.sq_full_stalls);
    EXPECT_EQ(a.lvq_full_stalls, b.lvq_full_stalls);
    EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
    EXPECT_EQ(a.line_mispredicts, b.line_mispredicts);
}

TEST(CampaignBuilder, ExpandsCartesianGrid)
{
    const Campaign c = twelveJobCampaign();
    ASSERT_EQ(c.jobs.size(), 12u);
    for (std::size_t i = 0; i < c.jobs.size(); ++i)
        EXPECT_EQ(c.jobs[i].id, i);
    // Same grid built twice -> same specs (seeds included).
    const Campaign d = twelveJobCampaign();
    for (std::size_t i = 0; i < c.jobs.size(); ++i) {
        EXPECT_EQ(c.jobs[i].label, d.jobs[i].label);
        EXPECT_EQ(c.jobs[i].seed, d.jobs[i].seed);
    }
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 200);
    // Reusable after a wait().
    pool.submit([&counter] { counter += 1000; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1200);
}

TEST(CampaignRunner, ParallelMatchesSerial)
{
    const Campaign campaign = twelveJobCampaign();

    RunnerConfig serial;
    serial.jobs = 1;
    const auto one = runCampaign(campaign, serial);

    RunnerConfig parallel;
    parallel.jobs = 4;
    const auto four = runCampaign(campaign, parallel);

    ASSERT_EQ(one.size(), campaign.jobs.size());
    ASSERT_EQ(four.size(), campaign.jobs.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        ASSERT_TRUE(one[i].ok()) << one[i].error;
        ASSERT_TRUE(four[i].ok()) << four[i].error;
        EXPECT_EQ(one[i].id, i);
        EXPECT_EQ(four[i].id, i);
        expectIdenticalRuns(one[i].run, four[i].run);
    }
}

TEST(CampaignRunner, SerializedResultsAreOrderIndependent)
{
    const Campaign campaign = twelveJobCampaign();

    JsonlSink::Options opts;
    opts.include_timing = false;    // wall time legitimately varies
    opts.progress = false;

    std::ostringstream one_out, four_out;
    {
        JsonlSink sink(one_out, opts);
        RunnerConfig cfg;
        cfg.jobs = 1;
        cfg.sink = &sink;
        runCampaign(campaign, cfg);
    }
    {
        JsonlSink sink(four_out, opts);
        RunnerConfig cfg;
        cfg.jobs = 4;
        cfg.sink = &sink;
        runCampaign(campaign, cfg);
    }
    EXPECT_EQ(one_out.str(), four_out.str());
    EXPECT_NE(one_out.str().find("\"status\":\"ok\""),
              std::string::npos);
}

TEST(CampaignRunner, ThrowingJobIsRecordedNotFatal)
{
    Campaign campaign = twelveJobCampaign();
    // Poison one mid-campaign job: unknown workloads fail validation
    // with an exception before the Simulation constructor can abort.
    campaign.jobs[5].workloads = {"no-such-benchmark"};

    RunnerConfig cfg;
    cfg.jobs = 4;
    const auto results = runCampaign(campaign, cfg);

    ASSERT_EQ(results.size(), campaign.jobs.size());
    EXPECT_FALSE(results[5].ok());
    EXPECT_NE(results[5].error.find("no-such-benchmark"),
              std::string::npos);
    // Retry-once semantics: default is two attempts, then record.
    EXPECT_EQ(results[5].attempts, 2u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i != 5)
            EXPECT_TRUE(results[i].ok()) << results[i].error;
    }
}

TEST(BaselineCache, SingleFlightSimulatesEachWorkloadOnce)
{
    BaselineCache baseline(tinyOptions());

    // 8 concurrent requesters over 2 distinct workloads.
    ThreadPool pool(8);
    std::atomic<int> mismatches{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&baseline, &mismatches, i] {
            const char *wl = i % 2 ? "gcc" : "compress";
            const double a = baseline.ipc(wl);
            const double b = baseline.ipc(wl);
            if (a != b || a <= 0)
                ++mismatches;
        });
    }
    pool.wait();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(baseline.simulations(), 2u);
}

TEST(CampaignRunner, EfficiencySharesOneBaselinePerWorkload)
{
    CampaignBuilder b("eff", 3);
    b.base(tinyOptions())
        .modes({SimMode::Srt})
        .workloads({"gcc", "compress"})
        .sweep("slack", {"0", "8", "16"});
    const Campaign campaign = b.build();    // 6 jobs, 2 workloads

    BaselineCache baseline(tinyOptions());
    RunnerConfig cfg;
    cfg.jobs = 4;
    cfg.baseline = &baseline;
    const auto results = runCampaign(campaign, cfg);

    EXPECT_EQ(baseline.simulations(), 2u);
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_GT(r.mean_efficiency, 0.0);
        EXPECT_LE(r.mean_efficiency, 1.5);
    }
}

TEST(CampaignRunner, InstructionCapClampsBudgets)
{
    CampaignBuilder b("cap", 1);
    b.base(tinyOptions()).modes({SimMode::Base}).workloads({"gcc"});
    const Campaign campaign = b.build();

    RunnerConfig cfg;
    cfg.jobs = 1;
    cfg.max_insts = 1000;   // < warmup+measure of tinyOptions()
    const auto results = runCampaign(campaign, cfg);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    // warmup is clamped to 500 (its own value), measure to the rest.
    EXPECT_LE(results[0].run.threads[0].committed, 1100u);
}

TEST(CampaignRunner, FaultTrialsAreSeededDeterministically)
{
    CampaignBuilder b("faults", 11);
    SimOptions o = tinyOptions();
    o.warmup_insts = 0;
    b.base(o).modes({SimMode::Srt}).workloads({"compress"});
    b.transientRegTrials(4, 14);
    const Campaign c1 = b.build();
    const Campaign c2 = b.build();
    ASSERT_EQ(c1.jobs.size(), 4u);
    for (std::size_t i = 0; i < c1.jobs.size(); ++i) {
        ASSERT_EQ(c1.jobs[i].faults.size(), 1u);
        const FaultRecord &f1 = c1.jobs[i].faults[0];
        const FaultRecord &f2 = c2.jobs[i].faults[0];
        EXPECT_EQ(f1.when, f2.when);
        EXPECT_EQ(f1.reg, f2.reg);
        EXPECT_EQ(f1.bit, f2.bit);
        EXPECT_LT(f1.reg, 14);
        EXPECT_GE(f1.reg, 1);
    }
    // Different trials draw different strikes (overwhelmingly likely).
    bool any_difference = false;
    for (std::size_t i = 1; i < c1.jobs.size(); ++i) {
        if (c1.jobs[i].faults[0].when != c1.jobs[0].faults[0].when)
            any_difference = true;
    }
    EXPECT_TRUE(any_difference);
}

SimOptions
trialOptions()
{
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 200;
    o.measure_insts = 1500;
    return o;
}

/** Barriers every quarter of the run; returns the barriered length. */
Cycle
addQuarterBarriers(SimOptions &options)
{
    // Quiesce drains stretch the barriered run, so strikes are placed
    // against the barriered total.
    Cycle total = Simulation({"compress"}, options).run().total_cycles;
    options.snapshot_every = std::max<Cycle>(1, total / 4);
    return Simulation({"compress"}, options).run().total_cycles;
}

double
extraOr(const JobResult &r, const std::string &key, double fallback)
{
    for (const auto &[k, v] : r.extra) {
        if (k == key)
            return v;
    }
    return fallback;
}

class CollectingSink : public ResultSink
{
  public:
    void record(const JobSpec &spec, const JobResult &) override
    {
        std::lock_guard<std::mutex> lock(mu);
        ids.push_back(spec.id);
    }

    std::mutex mu;
    std::vector<std::uint64_t> ids;
};

TEST(FaultCampaign, StopFlagDrainReturnsOnlyFinishedTrials)
{
    std::vector<JobSpec> jobs;
    for (unsigned i = 0; i < 3; ++i) {
        JobSpec spec;
        spec.id = i;
        spec.label = "drain" + std::to_string(i);
        spec.workloads = {"compress"};
        spec.options = trialOptions();
        jobs.push_back(std::move(spec));
    }

    // Pre-set stop: nothing starts at all.
    {
        std::atomic<bool> stop{true};
        CollectingSink sink;
        RunnerConfig cfg;
        cfg.jobs = 4;
        cfg.stop = &stop;
        cfg.sink = &sink;
        for (const JobResult &r : runCampaignJobs(jobs, cfg)) {
            EXPECT_EQ(r.attempts, 0u);
            EXPECT_FALSE(r.ok());
            EXPECT_TRUE(r.error.empty());
        }
        EXPECT_TRUE(sink.ids.empty());
    }

    // Stop raised by the first trial's own hook: that trial completes
    // and is recorded, the rest never start.
    {
        std::atomic<bool> stop{false};
        std::vector<JobSpec> hooked = jobs;
        hooked[0].post_run = [&stop](Simulation &, const RunResult &,
                                     JobResult &) { stop.store(true); };
        CollectingSink sink;
        RunnerConfig cfg;
        cfg.jobs = 1;
        cfg.stop = &stop;
        cfg.sink = &sink;
        const auto results = runCampaignJobs(hooked, cfg);
        ASSERT_EQ(results.size(), 3u);
        EXPECT_TRUE(results[0].ok()) << results[0].error;
        EXPECT_EQ(results[1].attempts, 0u);
        EXPECT_EQ(results[2].attempts, 0u);
        EXPECT_EQ(sink.ids, std::vector<std::uint64_t>{0});
    }
}

TEST(FaultCampaign, CorruptCachedSnapshotFallsBackToScratch)
{
    SimOptions options = trialOptions();
    const Cycle total = addQuarterBarriers(options);

    JobSpec spec;
    spec.id = 0;
    spec.label = "corrupt-cache";
    spec.workloads = {"compress"};
    spec.options = options;
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = total / 2;
    f.reg = 2;
    f.bit = 5;
    spec.faults.push_back(f);

    // Pre-seed the cache with garbage where a snapshot should be:
    // restore-time validation must reject it without touching machine
    // state, and the trial must fall back to a from-scratch run.
    SnapshotCache cache;
    {
        SnapshotSet set;
        CachedSnapshot bad;
        bad.cycle = 1;
        bad.image = std::make_shared<const std::string>(
            "this is not a snapshot image");
        set.push_back(std::move(bad));
        cache.insert({"compress"}, options,
                     std::make_shared<const SnapshotSet>(std::move(set)));
    }

    RunnerConfig cached_cfg;
    cached_cfg.snapshots = &cache;
    const JobResult degraded = runCampaignJobs({spec}, cached_cfg)[0];
    ASSERT_TRUE(degraded.ok()) << degraded.error;
    EXPECT_EQ(extraOr(degraded, "snapshot_hit", -1), 0.0);
    EXPECT_EQ(extraOr(degraded, "snapshot_scratch_fallback", 0), 1.0);

    // Bit-identical to a run that never saw a snapshot cache.
    const JobResult plain = runCampaignJobs({spec}, RunnerConfig())[0];
    ASSERT_TRUE(plain.ok()) << plain.error;
    EXPECT_EQ(degraded.run.total_cycles, plain.run.total_cycles);
    EXPECT_EQ(degraded.run.outcome, plain.run.outcome);
    EXPECT_EQ(degraded.run.detections, plain.run.detections);

    // The rejected set was evicted: the next trial re-produces clean
    // snapshots (one producer run) and restores one for real.
    const JobResult again = runCampaignJobs({spec}, cached_cfg)[0];
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_EQ(extraOr(again, "snapshot_hit", -1), 1.0);
    EXPECT_EQ(cache.producerRuns(), 1u);
    EXPECT_EQ(again.run.total_cycles, plain.run.total_cycles);
    EXPECT_EQ(again.run.outcome, plain.run.outcome);
}

TEST(FaultCampaign, SinkGetsEveryRecordInIdOrderIncludingFailures)
{
    const FaultOracle oracle(
        FaultOracle::goldenImage({"compress"}, trialOptions()));
    CampaignBuilder b("sink", 5);
    b.base(trialOptions()).workloads({"compress"}).transientRegTrials(8, 15);
    std::vector<JobSpec> jobs = b.build().jobs;
    for (JobSpec &job : jobs)
        attachFaultOracle(job, &oracle);
    // An invalid spec becomes a recorded failure, not a fatal().
    jobs[2].workloads = {"no-such-workload"};

    std::ostringstream out;
    JsonlSink::Options opts;
    opts.include_timing = false;
    opts.progress = false;
    JsonlSink sink(out, opts);
    RunnerConfig cfg;
    cfg.jobs = 4;
    cfg.sink = &sink;
    const auto results = runCampaignJobs(jobs, cfg);
    // Every row was released as its predecessors landed, before end().
    const std::string before_end = out.str();
    sink.end();
    EXPECT_EQ(out.str(), before_end);

    EXPECT_FALSE(results[2].ok());
    std::istringstream lines(out.str());
    std::string line;
    std::uint64_t id = 0;
    while (std::getline(lines, line)) {
        const std::string prefix = "{\"id\":" + std::to_string(id) + ",";
        EXPECT_EQ(line.compare(0, prefix.size(), prefix), 0) << line;
        if (id == 2) {
            EXPECT_NE(line.find("\"status\":\"failed\""), std::string::npos);
            EXPECT_NE(line.find("no-such-workload"), std::string::npos);
        } else {
            EXPECT_NE(line.find("\"verdict\""), std::string::npos) << line;
        }
        ++id;
    }
    EXPECT_EQ(id, jobs.size());
}

} // namespace
