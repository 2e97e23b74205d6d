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
    // Retry-once semantics: default is two attempts, then record.
    EXPECT_EQ(results[5].attempts, 2u);
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

TEST(CampaignBuilder, SweepValuesAreStrictUnsigned)
{
    SimOptions o;
    applySweepSetting(o, "storeq", "0x20");
    EXPECT_EQ(o.cpu.store_queue_entries, 32u);
    applySweepSetting(o, "physregs", "384");
    EXPECT_EQ(o.cpu.phys_regs, 384u);
    applySweepSetting(o, "dynlsq", "1");
    EXPECT_TRUE(o.cpu.dynamic_lsq_partition);
    applySweepSetting(o, "insts", "18446744073709551615");
    EXPECT_EQ(o.measure_insts, ~std::uint64_t{0});

    for (const char *bad :
         {"-1", "2x", "", " 1", "1 ", "+1", "0x", "0x-1", "4294967296"})
        EXPECT_THROW(applySweepSetting(o, "storeq", bad),
                     std::invalid_argument)
            << "'" << bad << "'";
    EXPECT_THROW(applySweepSetting(o, "insts", "18446744073709551616"),
                 std::invalid_argument);
    EXPECT_THROW(applySweepSetting(o, "dynlsq", "2"),
                 std::invalid_argument);
    try {
        applySweepSetting(o, "storeq", "-1");
        FAIL() << "storeq=-1 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "bad value for sweep storeq: '-1'");
    }
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
    EXPECT_EQ(selectFigures("all").size(), 13u);
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
