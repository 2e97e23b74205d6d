/**
 * @file
 * Campaign runner: parallel execution must be a pure optimisation.
 * The load-bearing properties:
 *
 *  - determinism: a campaign run at -j 4 yields per-job results
 *    identical to -j 1 (jobs share nothing mutable, so worker count
 *    and completion order cannot leak into the results);
 *  - isolation: one throwing job runs once, is recorded as failed,
 *    and the rest of the campaign completes;
 *  - single-flight: N workers asking for the same single-thread
 *    baseline trigger exactly one simulation per distinct workload;
 *  - fault campaigns: the stop drain returns only finished trials, a
 *    corrupt cached snapshot or a missing reference run fails its row
 *    (nothing runs from scratch instead), and the ordered
 *    sink sees every record, an invalid spec's failure included, in id
 *    order (snapshot-vs-scratch identity at -j 1/-j 4 is in
 *    test_ckpt.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "avf/sampler.hh"
#include "ckpt/serializer.hh"
#include "common/fingerprint.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "rmt/fault_oracle.hh"
#include "runner/figures.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "sim/metrics.hh"
#include "workloads/workloads.hh"

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
    // One attempt: the error depends only on the spec, so it is recorded.
    EXPECT_EQ(results[5].attempts, 1u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i != 5) {
            EXPECT_TRUE(results[i].ok()) << results[i].error;
        }
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
        hooked[0].post_run = [&stop](Simulation *, const RunResult &,
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

TEST(FaultCampaign, CorruptCachedSnapshotFailsTheRow)
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
    // restore-time validation must reject it, and the row fails with
    // the validation error instead of running from scratch.
    SnapshotCache cache;
    const std::string garbage = "this is not a snapshot image";
    {
        SnapshotSet set;
        CachedSnapshot bad;
        bad.cycle = 1;
        bad.image = std::make_shared<const std::string>(garbage);
        set.push_back(std::move(bad));
        cache.insert({"compress"}, options,
                     std::make_shared<const SnapshotSet>(std::move(set)));
    }
    std::string rejected;
    try {
        Simulation({"compress"}, options).restoreSnapshotBuffer(garbage);
    } catch (const SnapshotError &e) {
        rejected = e.what();
    }
    ASSERT_FALSE(rejected.empty());

    RunnerConfig cached_cfg;
    cached_cfg.snapshots = &cache;
    const JobResult r = runCampaignJobs({spec}, cached_cfg)[0];
    EXPECT_EQ(r.status, JobStatus::Failed);
    EXPECT_EQ(r.error, rejected);
    EXPECT_EQ(r.run.total_cycles, 0u);     // nothing ran from scratch
    EXPECT_TRUE(r.extra.empty());

    // The entry stays: the next trial fails the same way.
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(runCampaignJobs({spec}, cached_cfg)[0].error, rejected);
}

TEST(FaultCampaign, SnapshotTrialWithoutReferenceRunFailsItsRow)
{
    // executeJob never makes a reference run: a snapshot fault trial
    // whose point has no entry fails with the point's key, while
    // runCampaignJobs makes the point's run first.
    SimOptions options = trialOptions();
    const Cycle total = addQuarterBarriers(options);
    JobSpec spec;
    spec.workloads = {"compress"};
    spec.options = options;
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = total / 2;
    f.reg = 2;
    f.bit = 5;
    spec.faults.push_back(f);

    SnapshotCache cache;
    RunnerConfig cfg;
    cfg.snapshots = &cache;
    const JobResult missing = executeJob(spec, cfg);
    EXPECT_EQ(missing.status, JobStatus::Failed);
    EXPECT_EQ(missing.error,
              "no reference run for " + pointKey({"compress"}, options));
    EXPECT_EQ(cache.size(), 0u);

    const JobResult made = runCampaignJobs({spec}, cfg)[0];
    ASSERT_TRUE(made.ok()) << made.error;
    EXPECT_EQ(extraOr(made, "snapshot_hit", -1), 1.0);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CampaignRunner, SnapshotOptionConflictsFailTheRow)
{
    // Simulation's constructor exits the process on these; a job that
    // asks for them must fail its row first.
    struct Case
    {
        bool recovery;
        bool cosim;
        const char *error;
    };
    for (const Case &c : {
             Case{true, false,
                  "job 3: snapshots are incompatible with recovery"},
             Case{false, true,
                  "job 3: snapshots are incompatible with cosim"},
         }) {
        JobSpec spec;
        spec.id = 3;
        spec.workloads = {"compress"};
        spec.options = trialOptions();
        spec.options.snapshot_every = 500;
        spec.options.recovery = c.recovery;
        spec.options.cosim = c.cosim;
        const JobResult r = executeJob(spec, RunnerConfig{});
        EXPECT_EQ(r.status, JobStatus::Failed);
        EXPECT_EQ(r.error, c.error);
    }
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

TEST(CampaignBuilder, OutsideValuesAreStrict)
{
    SimOptions o;
    applySetting(o, "recovery", "1");
    EXPECT_TRUE(o.recovery);
    applySetting(o, "storeq", "0x20");
    EXPECT_EQ(o.cpu.store_queue_entries, 32u);
    applySetting(o, "physregs", "384");
    EXPECT_EQ(o.cpu.phys_regs, 384u);
    applySetting(o, "dynlsq", "1");
    EXPECT_TRUE(o.cpu.dynamic_lsq_partition);
    applySetting(o, "measure_insts", "18446744073709551615");
    EXPECT_EQ(o.measure_insts, ~std::uint64_t{0});

    for (const char *bad :
         {"-1", "2x", "", " 1", "1 ", "+1", "0x", "0x-1", "4294967296"})
        EXPECT_THROW(applySetting(o, "storeq", bad), std::invalid_argument)
            << "'" << bad << "'";
    EXPECT_THROW(applySetting(o, "measure_insts", "18446744073709551616"),
                 std::invalid_argument);
    EXPECT_THROW(applySetting(o, "dynlsq", "2"), std::invalid_argument);
    EXPECT_THROW(applySetting(o, "frontend", "warp"), std::invalid_argument);
    EXPECT_THROW(applySetting(o, "nosc", "1"), std::invalid_argument);
    try {
        applySetting(o, "storeq", "-1");
        FAIL() << "storeq=-1 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "bad value for storeq: '-1'");
    }
    // A refused value leaves the options as they were.
    EXPECT_EQ(o.cpu.store_queue_entries, 32u);
    EXPECT_TRUE(o.cpu.dynamic_lsq_partition);

    // Real-valued flags: finite decimals inside the flag's range.
    EXPECT_EQ(parseReal("0.25", "--ci-width", 0, 1, false, true), 0.25);
    EXPECT_EQ(parseReal("0", "--ci-width", 0, 1, false, true), 0.0);
    EXPECT_EQ(parseReal("1e-3", "--ci-width", 0, 1, false, true), 0.001);
    EXPECT_EQ(parseReal("0.95", "--confidence", 0, 1, true, true), 0.95);
    EXPECT_EQ(parseReal("-2.5", "x", -3, 0), -2.5);
    EXPECT_EQ(parseReal("250", "x", 0), 250.0);

    // Malformed text fails whatever the range.
    for (const char *bad : {"abc", "-5", "", " 1", "1 ", "+1", "1ms", "nan",
                            "inf", "-inf", "0x10", "1e999"}) {
        EXPECT_THROW(parseReal(bad, "--ci-width", 0, 1, false, true),
                     std::invalid_argument)
            << "'" << bad << "'";
        EXPECT_THROW(parseReal(bad, "x", 0), std::invalid_argument)
            << "'" << bad << "'";
    }
    // --ci-width: [0, 1); --confidence: (0, 1).
    for (const char *bad : {"1", "1.5", "-0.1", "nan"})
        EXPECT_THROW(parseReal(bad, "--ci-width", 0, 1, false, true),
                     std::invalid_argument)
            << "'" << bad << "'";
    for (const char *bad : {"0", "1", "1.5", "-0.5", "nan"})
        EXPECT_THROW(parseReal(bad, "--confidence", 0, 1, true, true),
                     std::invalid_argument)
            << "'" << bad << "'";
    try {
        parseReal("1.5", "--confidence", 0, 1, true, true);
        FAIL() << "--confidence 1.5 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "bad value for --confidence: '1.5'");
    }
}

TEST(CampaignBuilder, IllegalMachineSizesAreRejectedAtBuild)
{
    // A machine with no room in a queue or window hangs at the
    // watchdog (the IQ and ROB past the slices reserved for the other
    // three contexts, a store queue of one entry per context), one with
    // too few physical registers panics the whole process, and one past
    // PhysRegIndex runs a smaller file than its row records: each is
    // refused before any job exists.
    const std::pair<const char *, const char *> illegal[] = {
        {"physregs", "8"},     {"physregs", "256"},  {"physregs", "65536"},
        {"physregs", "70000"}, {"rob", "0"},         {"rob", "48"},
        {"iq", "0"},           {"iq", "24"},         {"storeq", "0"},
        {"storeq", "3"},       {"lvq", "0"},         {"lpq", "0"}};
    for (const auto &[key, value] : illegal) {
        CampaignBuilder b;
        b.modes({SimMode::Srt}).workloads({"gcc"}).sweep(key, {value});
        EXPECT_THROW(b.build(), std::invalid_argument)
            << key << "=" << value;
    }
    for (const auto &[key, value] :
         {std::pair{"physregs", "257"}, std::pair{"physregs", "65535"},
          std::pair{"rob", "49"}, std::pair{"iq", "25"},
          std::pair{"storeq", "4"}, std::pair{"lpq", "1"}}) {
        CampaignBuilder b;
        b.modes({SimMode::Srt}).workloads({"gcc"}).sweep(key, {value});
        EXPECT_EQ(b.build().jobs.size(), 1u) << key << "=" << value;
    }
    // The mode axis is modes(), not a sweep.
    EXPECT_THROW(CampaignBuilder().sweep("mode", {"srt"}),
                 std::invalid_argument);
}

TEST(CampaignBuilder, MaxRegIsBoundedByTheRegisterFile)
{
    // Victims are drawn from [1, max_reg), and numArchRegs (64) is the
    // size of the rename map: 32 integer then 32 FP registers.  A bound
    // outside [2, 64] is refused by the grid and by the sampler alike.
    for (const unsigned max_reg : {0u, 1u, 65u, 70u}) {
        CampaignBuilder b;
        EXPECT_THROW(b.transientRegTrials(4, max_reg), std::invalid_argument)
            << max_reg;
        SamplerConfig cfg;
        cfg.max_reg = max_reg;
        EXPECT_THROW(StratifiedSampler({{"gcc", {"gcc"}, SimOptions{}}}, cfg,
                                       1),
                     std::invalid_argument)
            << max_reg;
    }
    try {
        CampaignBuilder().transientRegTrials(4, 70);
        FAIL() << "max_reg 70 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "transientRegTrials: max_reg 70 is outside [2, 64]");
    }
    for (const unsigned max_reg : {2u, 64u}) {
        CampaignBuilder b;
        b.modes({SimMode::Srt}).workloads({"gcc"});
        const Campaign c = b.transientRegTrials(16, max_reg).build();
        for (const JobSpec &job : c.jobs)
            EXPECT_LT(job.faults.front().reg, max_reg);
        SamplerConfig cfg;
        cfg.max_reg = max_reg;
        EXPECT_NO_THROW(StratifiedSampler({{"gcc", {"gcc"}, SimOptions{}}},
                                          cfg, 1));
    }
}

TEST(Figures, EveryFigureMachineIsPinned)
{
    // The canonical options of every figure job, hashed in job order:
    // respelling a configuration's settings must not move its machine.
    const Campaign c = figureCampaign(selectFigures("all"));
    ASSERT_EQ(c.jobs.size(), 822u);
    std::uint64_t h = fnv1a64Seed;
    for (const JobSpec &job : c.jobs)
        fnv1a64Field(h, optionsCanonicalJson(job.options));
    EXPECT_EQ(fingerprintHex(h), "ae92ee208f0ac0d0");
}

TEST(Figures, Fig6IsTheGridOfTheFigure6Main)
{
    // The grid the retired Figure 6 main built: every SPEC95 workload
    // x {Base2, SRT, SRT+ptsq, SRT+nosc}, row-major, at 20k + 40k.
    struct Variant
    {
        const char *name;
        void (*apply)(SimOptions &);
    };
    const Variant variants[] = {
        {"Base2", [](SimOptions &o) { o.mode = SimMode::Base2; }},
        {"SRT", [](SimOptions &o) { o.mode = SimMode::Srt; }},
        {"SRT+ptsq",
         [](SimOptions &o) {
             o.mode = SimMode::Srt;
             o.per_thread_store_queues = true;
         }},
        {"SRT+nosc",
         [](SimOptions &o) {
             o.mode = SimMode::Srt;
             o.store_comparison = false;
         }},
    };
    const Campaign c = figureCampaign(selectFigures("fig6"));
    ASSERT_EQ(c.jobs.size(), spec95Names().size() * 4);
    EXPECT_EQ(spec95Names().size(), 18u);
    std::size_t i = 0;
    for (const std::string &name : spec95Names()) {
        for (const Variant &v : variants) {
            SimOptions o;
            o.warmup_insts = 20000;
            o.measure_insts = 40000;
            v.apply(o);
            const JobSpec &job = c.jobs[i];
            EXPECT_EQ(job.id, i);
            EXPECT_EQ(job.label, std::string(v.name) + ":" + name);
            EXPECT_EQ(job.workloads, std::vector<std::string>{name});
            EXPECT_EQ(optionsCanonicalJson(job.options),
                      optionsCanonicalJson(o))
                << job.label;
            ++i;
        }
    }

    EXPECT_THROW(selectFigures("fig6,nosuch"), std::invalid_argument);
    EXPECT_THROW(selectFigures("fig6,fig6"), std::invalid_argument);
    EXPECT_EQ(selectFigures("all").size(), 17u);
}

void
expectSameFault(const FaultRecord &a, const FaultRecord &b,
                const std::string &label)
{
    EXPECT_EQ(a.kind, b.kind) << label;
    EXPECT_EQ(a.when, b.when) << label;
    EXPECT_EQ(a.core, b.core) << label;
    EXPECT_EQ(a.tid, b.tid) << label;
    EXPECT_EQ(a.reg, b.reg) << label;
    EXPECT_EQ(a.bit, b.bit) << label;
    EXPECT_EQ(a.fuIndex, b.fuIndex) << label;
    EXPECT_EQ(a.mask, b.mask) << label;
    EXPECT_EQ(a.pairLogical, b.pairLogical) << label;
}

/** Check @p figure's grid: one single-fault job per trial of each
 *  (row, config) cell, cells row-major, against the retired tool's
 *  options and strikes. */
void
expectFaultGrid(
    const std::string &figure, const std::vector<std::string> &rows,
    const std::vector<std::string> &configs, unsigned trials,
    const std::function<SimOptions(const std::string &)> &options,
    const std::function<FaultRecord(const std::string &, unsigned)> &fault)
{
    const Campaign c = figureCampaign(selectFigures(figure));
    ASSERT_EQ(c.jobs.size(), rows.size() * configs.size() * trials);
    std::size_t i = 0;
    for (const std::string &row : rows) {
        for (const std::string &config : configs) {
            for (unsigned t = 0; t < trials; ++t) {
                const JobSpec &job = c.jobs[i];
                EXPECT_EQ(job.id, i);
                EXPECT_EQ(job.label,
                          config + ":" + row + " trial=" + std::to_string(t));
                EXPECT_EQ(job.workloads, std::vector<std::string>{row});
                EXPECT_EQ(optionsCanonicalJson(job.options),
                          optionsCanonicalJson(options(config)))
                    << job.label;
                EXPECT_EQ(job.faults.size(), 1u) << job.label;
                if (!job.faults.empty())
                    expectSameFault(job.faults[0], fault(config, t),
                                    job.label);
                ++i;
            }
        }
    }
}

TEST(Figures, FaultFiguresAreTheGridsOfTheRetiredFaultTools)
{
    // bench_fault_coverage: SRT, no warm-up, 12k measured instructions.
    const auto srt12k = [](const std::string &config) {
        SimOptions o;
        o.mode = SimMode::Srt;
        o.warmup_insts = 0;
        o.measure_insts = 12000;
        o.lvq_ecc = config != "noECC";
        o.preferential_space_redundancy = config != "noPSR";
        return o;
    };

    // Register strikes: trial t of the cell seeded 0xFA117 + max_reg
    // draws from Random(SplitMix64(seed, t)).
    expectFaultGrid(
        "faults_reg", {"compress", "gcc"}, {"all", "live"}, 40, srt12k,
        [](const std::string &config, unsigned t) {
            const unsigned max_reg = config == "live" ? 14 : numArchRegs;
            std::uint64_t z = 0xFA117 + max_reg +
                              0x9E3779B97F4A7C15ull * (t + 1);
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            Random rng(z ^ (z >> 31));
            FaultRecord f;
            f.kind = FaultRecord::Kind::TransientReg;
            f.when = 12000 / 12 + rng.range(12000 * 2 / 3);
            f.core = 0;
            f.tid = static_cast<ThreadId>(rng.range(2));
            f.reg = static_cast<RegIndex>(1 + rng.range(max_reg - 1));
            f.bit = static_cast<unsigned>(rng.range(64));
            return f;
        });

    expectFaultGrid("faults_lvq", {"gcc"}, {"ECC", "noECC"}, 10, srt12k,
                    [](const std::string &, unsigned t) {
                        FaultRecord f;
                        f.kind = FaultRecord::Kind::TransientLvq;
                        f.when = 1500 + 700 * t;
                        return f;
                    });

    // One Random(0xFE11) sequence per config: an integer unit (0-7) on
    // even trials, a logic unit (16-23) on odd ones, then the mask.
    std::vector<FaultRecord> fu;
    Random rng(0xFE11);
    for (unsigned t = 0; t < 20; ++t) {
        FaultRecord f;
        f.kind = FaultRecord::Kind::PermanentFu;
        f.when = 500;
        f.fuIndex = static_cast<unsigned>(t % 2 ? 16 + rng.range(8)
                                                : rng.range(8));
        f.mask = std::uint64_t{1} << rng.range(16);
        fu.push_back(f);
    }
    expectFaultGrid("faults_fu", {"applu"}, {"PSR", "noPSR"}, 20, srt12k,
                    [&](const std::string &, unsigned t) { return fu[t]; });

    // rmtsim_faultsmoke: SRT with recovery, 0 + 10k, one config per kind.
    const std::vector<std::string> kinds = {"reg", "lvq", "fu",  "sqd",
                                            "sqa", "lpq", "boq", "pc",
                                            "dec", "mb"};
    expectFaultGrid(
        "faults_sphere", {"gcc"}, kinds, 4,
        [](const std::string &kind) {
            SimOptions o;
            o.mode = SimMode::Srt;
            o.recovery = true;
            o.warmup_insts = 0;
            o.measure_insts = 10000;
            if (kind == "boq")
                o.trailing_fetch = TrailingFetchMode::BranchOutcomeQueue;
            return o;
        },
        [](const std::string &kind, unsigned i) {
            FaultRecord f;
            f.kind = parseFaultKind(kind);
            f.when = 1200 + 713 * i;
            const unsigned bits[] = {2, 5, 9, 13};
            f.bit = bits[i % 4];
            if (kind == "reg") {
                f.tid = static_cast<ThreadId>(i % 2);
                f.reg = static_cast<RegIndex>(4 + i);
            } else if (kind == "fu") {
                f.fuIndex = i % 8;
                f.mask = std::uint64_t{1} << (i % 16);
            } else if (kind == "dec") {
                f.tid = static_cast<ThreadId>(i % 2);
            }
            return f;
        });

    // Appended after the 562 jobs of Figures 6-12 and the ablations.
    const Campaign all = figureCampaign(selectFigures("all"));
    const Campaign paper = figureCampaign(selectFigures(
        "fig6,fig7,fig8,fig9,fig10,fig11,fig12,abl_frontend,abl_slack,"
        "abl_storeq,abl_checker,abl_window,abl_partition"));
    ASSERT_EQ(paper.jobs.size(), 562u);
    ASSERT_EQ(all.jobs.size(), 562u + 160 + 20 + 40 + 40);
    for (std::size_t i = 0; i < paper.jobs.size(); ++i)
        EXPECT_EQ(all.jobs[i].label, paper.jobs[i].label);
    EXPECT_EQ(all.jobs[562].label, "all:compress trial=0");
}

/** The record rmtsim_batch writes for @p spec, every figure metric
 *  reading @p v. */
JsonValue
syntheticRecord(const JobSpec &spec, double v)
{
    JobResult r;
    r.id = spec.id;
    r.status = JobStatus::Ok;
    r.attempts = 1;
    r.mean_efficiency = v;
    r.efficiencies = {v};
    ThreadResult t;
    t.workload = spec.workloads[0];
    t.ipc = v;
    r.run.threads = {t};
    r.run.fu_pairs = 1000;
    r.run.fu_same_unit = static_cast<std::uint64_t>(v * 1000);
    r.run.sq_full_stalls = static_cast<std::uint64_t>(v * 1000);
    r.run.avg_leading_store_lifetime = v;
    r.has_verdict = !spec.faults.empty();
    JsonValue out;
    EXPECT_TRUE(parseJson(resultJson(spec, r, false), out));
    return out;
}

/** A fault trial's record: @p verdict, a detection latency when
 *  @p latency >= 0, and @p outcome. */
JsonValue
verdictRecord(const JobSpec &spec, FaultVerdict verdict, double latency,
              Outcome outcome = Outcome::Completed)
{
    JobResult r;
    r.id = spec.id;
    r.status = JobStatus::Ok;
    r.attempts = 1;
    ThreadResult t;
    t.workload = spec.workloads[0];
    r.run.threads = {t};
    r.run.outcome = outcome;
    r.has_verdict = true;
    r.verdict = verdict;
    r.detection_latency = latency;
    JsonValue out;
    EXPECT_TRUE(parseJson(resultJson(spec, r, false), out));
    return out;
}

/** Two three-row figures: A and B per row, A/B as a mean of ratios and
 *  as a ratio of means, A-B; "tiny2" claims against "tiny". */
std::vector<Figure>
tinyFigures()
{
    Figure f;
    f.name = "tiny";
    f.rows = {{"gcc"}, {"swim"}, {"gcc", "swim"}};
    f.configs = {{"A", "mode=srt"}, {"B", "mode=srt,ptsq=1"}};
    FigureColumn ratio_of_means{
        .header = "A/B(m)", .config = "A", .op = '/', .other = "B"};
    ratio_of_means.ratio_of_means = true;
    f.tables = {
        {"Tiny",
         {{.header = "A", .config = "A"},
          {.header = "B", .config = "B"},
          {.header = "A/B", .config = "A", .op = '/', .other = "B"},
          ratio_of_means,
          {.header = "A-B", .config = "A", .op = '-', .other = "B"}}}};
    f.claims = {"mean: A > B", "rows: A > B", "mean: B < A-B < A",
                "swim: A/B > 1"};
    Figure g = f;
    g.name = "tiny2";
    g.claims = {"mean: tiny:A < A"};
    return {f, g};
}

/** tiny: A = .5 .6 .4, B = .25 .3 .1; tiny2 doubles every value. */
std::vector<JsonValue>
tinyRecords(const Campaign &c, std::size_t doctored = ~std::size_t{0},
            double doctored_value = 0)
{
    const double a[] = {0.5, 0.6, 0.4}, b[] = {0.25, 0.3, 0.1};
    std::vector<JsonValue> records;
    for (const JobSpec &job : c.jobs) {
        const std::size_t k = job.id % 6;   // row-major, 2 configs
        double v = (k % 2 ? b : a)[k / 2] * (job.id >= 6 ? 2 : 1);
        if (job.id == doctored)
            v = doctored_value;
        records.push_back(syntheticRecord(job, v));
    }
    return records;
}

std::vector<std::string>
lineTokens(const std::string &text, const std::string &first)
{
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        std::istringstream words(line);
        std::vector<std::string> toks;
        for (std::string w; words >> w;)
            toks.push_back(w);
        if (!toks.empty() && toks[0] == first)
            return {toks.begin() + 1, toks.end()};
    }
    return {};
}

TEST(Figures, ReducerPlacesCellsMeansAndRatios)
{
    const std::vector<Figure> figs = tinyFigures();
    const std::vector<const Figure *> sel = {&figs[0], &figs[1]};
    const Campaign c = figureCampaign(sel);
    ASSERT_EQ(c.jobs.size(), 12u);
    EXPECT_EQ(c.jobs[5].label, "B:gcc+swim");

    const FigureReport r = reportFigures(sel, tinyRecords(c));
    EXPECT_EQ(r.claims, 5u);
    EXPECT_EQ(r.failed, 0u) << r.text;
    EXPECT_EQ(lineTokens(r.text, "benchmark"),
              (std::vector<std::string>{"A", "B", "A/B", "A/B(m)", "A-B"}));
    EXPECT_EQ(lineTokens(r.text, "swim"),
              (std::vector<std::string>{"0.600", "0.300", "2.000", "2.000",
                                        "0.300"}));
    EXPECT_EQ(lineTokens(r.text, "gcc+swim"),
              (std::vector<std::string>{"0.400", "0.100", "4.000", "4.000",
                                        "0.300"}));
    // Mean of the per-row ratios (2, 2, 4) vs ratio of the means
    // (0.5 / 0.2167).
    EXPECT_EQ(lineTokens(r.text, "MEAN"),
              (std::vector<std::string>{"0.500", "0.217", "2.667", "2.308",
                                        "0.283"}));
    EXPECT_NE(r.text.find("claim tiny2 mean: tiny:A < A  [0.500 < 1.000]"
                          "  OK"),
              std::string::npos)
        << r.text;
}

TEST(Figures, EachClaimKindFailsOnADoctoredRecord)
{
    const std::vector<Figure> figs = tinyFigures();
    const std::vector<const Figure *> sel = {&figs[0], &figs[1]};
    const Campaign c = figureCampaign(sel);
    const struct
    {
        std::size_t job;
        double value;
        const char *claim;
    } cases[] = {
        {1, 2.0, "claim tiny mean: A > B "},            // mean ordering
        {3, 0.7, "claim tiny rows: A > B "},            // per-row
        {1, 0.9, "claim tiny mean: B < A-B < A "},      // monotone chain
        {3, 0.6, "claim tiny swim: A/B > 1 "},          // named row
        {0, 5.0, "claim tiny2 mean: tiny:A < A "},      // cross-figure
    };
    for (const auto &k : cases) {
        const FigureReport r =
            reportFigures(sel, tinyRecords(c, k.job, k.value));
        EXPECT_GE(r.failed, 1u) << k.claim;
        const std::size_t at = r.text.find(k.claim);
        ASSERT_NE(at, std::string::npos) << k.claim << "\n" << r.text;
        const std::size_t eol = r.text.find('\n', at);
        EXPECT_EQ(r.text.substr(eol - 4, 4), "FAIL") << r.text;
    }
    // A row claim names the rows it fails on.
    const FigureReport r = reportFigures(sel, tinyRecords(c, 3, 0.7));
    EXPECT_NE(r.text.find("[2/3 rows; fails on swim]  FAIL"),
              std::string::npos)
        << r.text;
}

TEST(Figures, StreamOfOtherJobsIsRefused)
{
    const std::vector<Figure> figs = tinyFigures();
    const std::vector<const Figure *> sel = {&figs[0]};
    const Campaign c = figureCampaign(sel);

    std::vector<JsonValue> records = tinyRecords(c);
    JobSpec other = c.jobs[2];
    other.options.slack_fetch = 32;     // another fingerprint, same id
    records[2] = syntheticRecord(other, 0.5);
    EXPECT_THROW(reportFigures(sel, records), FigureStreamError);

    records = tinyRecords(c);
    records.pop_back();
    EXPECT_THROW(reportFigures(sel, records), FigureStreamError);

    // A claim that reads a figure outside the selection is skipped.
    const std::vector<const Figure *> only2 = {&figs[1]};
    const FigureReport r =
        reportFigures(only2, tinyRecords(figureCampaign(only2)));
    EXPECT_EQ(r.failed, 0u);
    EXPECT_NE(r.text.find("SKIP (needs tiny)"), std::string::npos);

    // A failed job has no cells.
    records = tinyRecords(c);
    JobResult failed;
    failed.id = c.jobs[1].id;
    failed.error = "boom";
    JsonValue failed_row;
    ASSERT_TRUE(parseJson(resultJson(c.jobs[1], failed, false), failed_row));
    records[1] = failed_row;
    EXPECT_THROW(reportFigures(sel, records), std::runtime_error);
}

TEST(Figures, FaultCellsFoldTheirTrials)
{
    Figure f{.name = "tinyfault",
             .rows = {{"gcc"}, {"swim"}},
             .configs = {{"A", "mode=srt"}},
             .mean_row = false,
             .decimals = 1,
             .trials = 4,
             .fault = [](const FigureConfig &, const SimOptions &,
                         unsigned t) {
                 FaultRecord r;
                 r.kind = FaultRecord::Kind::TransientPc;
                 r.when = 100 * t;
                 return r;
             }};
    FigureTable table{"Trials"};
    for (const auto &[header, metric] :
         std::vector<std::pair<std::string, FigureMetric>>{
             {"det", FigureMetric::Detected},
             {"masked", FigureMetric::Masked},
             {"sdc", FigureMetric::Sdc},
             {"hang", FigureMetric::Hang},
             {"cap", FigureMetric::CapExceeded},
             {"lat", FigureMetric::Latency}})
        table.columns.push_back(
            {.header = header, .metric = metric, .config = "A"});
    f.tables = {table};
    f.claims = {"rows: sdc <= 0", "gcc: lat < 25"};
    const std::vector<const Figure *> sel = {&f};
    const Campaign c = figureCampaign(sel);
    ASSERT_EQ(c.jobs.size(), 8u);
    EXPECT_EQ(c.jobs[6].label, "A:swim trial=2");
    EXPECT_EQ(c.jobs[6].faults.at(0).when, 200u);

    // gcc: three detections, one without a latency, and a mask; swim:
    // an sdc and a hang that ran into the cap, a detection, a mask.
    const FaultVerdict D = FaultVerdict::Detected, M = FaultVerdict::Masked;
    std::vector<JsonValue> records = {
        verdictRecord(c.jobs[0], D, 10),
        verdictRecord(c.jobs[1], D, -1),
        verdictRecord(c.jobs[2], D, 30),
        verdictRecord(c.jobs[3], M, -1),
        verdictRecord(c.jobs[4], FaultVerdict::Sdc, -1,
                      Outcome::CapExceeded),
        verdictRecord(c.jobs[5], FaultVerdict::Hang, -1,
                      Outcome::CapExceeded),
        verdictRecord(c.jobs[6], D, 7),
        verdictRecord(c.jobs[7], M, -1, Outcome::Hang),
    };
    const FigureReport r = reportFigures(sel, records);
    EXPECT_EQ(lineTokens(r.text, "gcc"),
              (std::vector<std::string>{"3.0", "1.0", "0.0", "0.0", "0.0",
                                        "20.0"}))
        << r.text;
    EXPECT_EQ(lineTokens(r.text, "swim"),
              (std::vector<std::string>{"1.0", "1.0", "1.0", "1.0", "2.0",
                                        "7.0"}))
        << r.text;
    EXPECT_EQ(r.failed, 1u) << r.text;
    EXPECT_NE(r.text.find("claim tinyfault rows: sdc <= 0  [1/2 rows; "
                          "fails on swim]  FAIL"),
              std::string::npos)
        << r.text;
    EXPECT_NE(r.text.find("claim tinyfault gcc: lat < 25  [20.0 < 25.0]  OK"),
              std::string::npos)
        << r.text;

    // A trial without a verdict has no cell.
    JobSpec unfaulted = c.jobs[3];
    unfaulted.faults.clear();
    records[3] = syntheticRecord(unfaulted, 0.5);
    EXPECT_THROW(reportFigures(sel, records), FigureStreamError);
}

/** The fault figures' records with every claim holding: the first
 *  trial of a cell detects (latency 100, 200 without PSR), as does a
 *  live cell's second and every noECC trial; the rest are masked.
 *  @p doctor then edits the result of the job labelled @p label. */
std::vector<JsonValue>
faultRecords(const Campaign &c, const std::string &label = "",
             const std::function<void(JobResult &)> &doctor = {})
{
    std::vector<JsonValue> records;
    for (const JobSpec &job : c.jobs) {
        const std::string config = job.label.substr(0, job.label.find(':'));
        const unsigned t = static_cast<unsigned>(
            std::stoul(job.label.substr(job.label.find("trial=") + 6)));
        JobResult r;
        r.id = job.id;
        r.status = JobStatus::Ok;
        r.attempts = 1;
        ThreadResult thread;
        thread.workload = job.workloads[0];
        r.run.threads = {thread};
        r.run.outcome = Outcome::Completed;
        r.has_verdict = true;
        const bool detected =
            config == "noECC" ||
            (config != "ECC" && (t == 0 || (config == "live" && t == 1)));
        r.verdict = detected ? FaultVerdict::Detected : FaultVerdict::Masked;
        r.detection_latency = !detected ? -1 : config == "noPSR" ? 200 : 100;
        if (job.label == label)
            doctor(r);
        records.emplace_back();
        EXPECT_TRUE(parseJson(resultJson(job, r, false), records.back()));
    }
    return records;
}

TEST(Figures, EachFaultClaimKindFailsOnADoctoredRecord)
{
    const std::vector<const Figure *> sel =
        selectFigures("faults_reg,faults_lvq,faults_fu,faults_sphere");
    const Campaign c = figureCampaign(sel);
    const FigureReport healthy = reportFigures(sel, faultRecords(c));
    EXPECT_EQ(healthy.failed, 0u) << healthy.text;
    EXPECT_EQ(healthy.claims, 4u + 5 + 5 + 20);

    const auto verdict = [](FaultVerdict v) {
        return [v](JobResult &r) {
            r.verdict = v;
            r.detection_latency = v == FaultVerdict::Detected ? 100 : -1;
        };
    };
    const struct
    {
        const char *label;
        std::function<void(JobResult &)> doctor;
        const char *claim;
    } cases[] = {
        // zero sdc per row and config
        {"all:gcc trial=5", verdict(FaultVerdict::Sdc),
         "claim faults_reg rows: all sdc <= 0 "},
        // a count ordering across configs
        {"all:compress trial=3", verdict(FaultVerdict::Detected),
         "claim faults_reg rows: live det > all det "},
        // a count bound within one config
        {"ECC:gcc trial=2", verdict(FaultVerdict::Detected),
         "claim faults_lvq gcc: ECC det <= 0 "},
        {"noECC:gcc trial=9", verdict(FaultVerdict::Masked),
         "claim faults_lvq gcc: noECC masked <= 0 "},
        {"noPSR:applu trial=0", verdict(FaultVerdict::Masked),
         "claim faults_fu applu: noPSR det > 0 "},
        // a mean-latency ordering
        {"PSR:applu trial=0", [](JobResult &r) { r.detection_latency = 900; },
         "claim faults_fu applu: PSR lat < noPSR lat "},
        // one sdc row, and one run out through the cap, per kind
        {"sqd:gcc trial=1", verdict(FaultVerdict::Sdc),
         "claim faults_sphere gcc: sqd sdc <= 0 "},
        {"pc:gcc trial=3",
         [](JobResult &r) { r.run.outcome = Outcome::CapExceeded; },
         "claim faults_sphere gcc: pc cap <= 0 "},
    };
    for (const auto &k : cases) {
        const FigureReport r =
            reportFigures(sel, faultRecords(c, k.label, k.doctor));
        EXPECT_GE(r.failed, 1u) << k.claim << "\n" << r.text;
        const std::size_t at = r.text.find(k.claim);
        ASSERT_NE(at, std::string::npos) << k.claim << "\n" << r.text;
        const std::size_t eol = r.text.find('\n', at);
        EXPECT_EQ(r.text.substr(eol - 4, 4), "FAIL") << r.text;
    }
}

TEST(Figures, EveryPaperClaimEvaluates)
{
    // Constant records: every table renders and every claim parses
    // and names real columns and rows (the verdicts do not matter).
    const std::vector<const Figure *> all = selectFigures("all");
    const Campaign c = figureCampaign(all);
    std::vector<JsonValue> records;
    for (const JobSpec &job : c.jobs)
        records.push_back(syntheticRecord(job, 0.5));
    const FigureReport r = reportFigures(all, records);
    std::size_t claims = 0;
    for (const Figure *f : all) {
        claims += f->claims.size();
        for (const FigureTable &t : f->tables)
            EXPECT_NE(r.text.find(t.title + "\n"), std::string::npos);
    }
    EXPECT_EQ(r.claims, claims);
    EXPECT_EQ(r.text.find("SKIP"), std::string::npos);
}

} // namespace
