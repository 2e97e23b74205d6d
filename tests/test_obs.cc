/**
 * Observability subsystem tests: the JSON parser round-trip, the
 * whole-chip stats serialization, the cycle-sampled timeline probe,
 * host profiling, the campaign, snapshot and failures report
 * aggregations, and concurrent stats collection under the campaign
 * runner (the sanitize target).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/report.hh"
#include "obs/stats_json.hh"
#include "obs/timeline.hh"
#include "rmt/fault_oracle.hh"
#include "runner/runner.hh"
#include "runner/snapshot_cache.hh"
#include "sim/simulator.hh"

using namespace rmt;

namespace
{

SimOptions
tinyOptions(SimMode mode)
{
    SimOptions opts;
    opts.mode = mode;
    opts.warmup_insts = 500;
    opts.measure_insts = 3000;
    return opts;
}

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error))
        << error << "\n" << text.substr(0, 400);
    return v;
}

} // namespace

TEST(Json, ParsesScalarsAndNesting)
{
    const JsonValue v = parsed(
        "{\"a\":1.5,\"b\":[1,-2,3e2],\"c\":{\"d\":\"x\\ny\","
        "\"e\":true,\"f\":null}}");
    EXPECT_EQ(v.numberOr("a", 0), 1.5);
    const JsonValue *b = v.find("b");
    ASSERT_TRUE(b && b->isArray());
    EXPECT_EQ(b->array()[1].number(), -2.0);
    EXPECT_EQ(b->array()[2].number(), 300.0);
    const JsonValue *c = v.find("c");
    ASSERT_TRUE(c);
    EXPECT_EQ(c->strOr("d", ""), "x\ny");
    EXPECT_TRUE(c->find("e")->boolean());
    EXPECT_TRUE(c->find("f")->isNull());
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue v;
    EXPECT_FALSE(parseJson("", v));
    EXPECT_FALSE(parseJson("{", v));
    EXPECT_FALSE(parseJson("{\"a\":}", v));
    EXPECT_FALSE(parseJson("[1,2,]", v));
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", v));
    EXPECT_FALSE(parseJson("\"unterminated", v));
}

TEST(Json, EscapeRoundTrips)
{
    const std::string nasty = "q\"b\\s\nn\tt\x01z";
    const JsonValue v = parsed("{\"k\":\"" + jsonEscape(nasty) + "\"}");
    EXPECT_EQ(v.strOr("k", ""), nasty);
}

TEST(Json, NumFormatsCleanly)
{
    EXPECT_EQ(jsonNum(1.75), "1.75");
    EXPECT_EQ(jsonNum(3), "3");
    // Non-finite values must not leak into JSON documents.
    EXPECT_EQ(jsonNum(0.0 / 0.0), "0");
    EXPECT_EQ(jsonNum(1.0 / 0.0), "0");
}

TEST(Obs, StatsJsonCoversTheWholeChip)
{
    Simulation sim({"gcc", "swim"}, tinyOptions(SimMode::Srt));
    const RunResult r = sim.run();
    ASSERT_TRUE(r.completed);

    const JsonValue doc = parsed(sim.statsJson(r));
    EXPECT_EQ(doc.strOr("schema", ""), "rmtsim-stats-v1");
    EXPECT_EQ(doc.strOr("mode", ""), "srt");
    ASSERT_TRUE(doc.find("workloads")->isArray());
    EXPECT_EQ(doc.find("workloads")->array().size(), 2u);
    EXPECT_GT(doc.numberOr("total_cycles", 0), 0.0);

    const JsonValue *groups = doc.find("groups");
    ASSERT_TRUE(groups && groups->isArray());
    std::set<std::string> paths;
    for (const JsonValue &g : groups->array()) {
        paths.insert(g.strOr("path", "?"));
        EXPECT_TRUE(g.find("stats")->isArray());
    }
    // One group per chip component, hierarchical paths.
    EXPECT_TRUE(paths.count("core0"));
    EXPECT_TRUE(paths.count("core0/l1d"));
    EXPECT_TRUE(paths.count("core0/mergebuf"));
    EXPECT_TRUE(paths.count("mem/l2"));
    EXPECT_TRUE(paths.count("mem/main"));
    EXPECT_TRUE(paths.count("pair0"));
    EXPECT_TRUE(paths.count("pair0/lvq"));
    EXPECT_TRUE(paths.count("pair1/cmp"));

    // The Figure 8 store-lifetime histogram is live and carries its
    // full bucket contents.
    bool saw_hist = false;
    for (const JsonValue &g : groups->array()) {
        if (g.strOr("path", "") != "core0")
            continue;
        for (const JsonValue &s : g.find("stats")->array()) {
            if (s.strOr("name", "") != "store_lifetime_hist_t0")
                continue;
            saw_hist = true;
            EXPECT_EQ(s.strOr("kind", ""), "histogram");
            EXPECT_GT(s.numberOr("count", 0), 0.0);
            EXPECT_EQ(s.find("buckets")->array().size(), 16u);
        }
    }
    EXPECT_TRUE(saw_hist);

    // Host profiling rides along and is internally consistent.
    const JsonValue *host = doc.find("host");
    ASSERT_TRUE(host);
    EXPECT_GE(host->numberOr("measure_ms", -1), 0.0);
    EXPECT_GT(host->numberOr("kips", 0), 0.0);
    EXPECT_GE(r.host.totalSeconds(), 0.0);
}

TEST(Obs, ChipWalkMatchesRegistryForSingleSim)
{
    Simulation sim({"compress"}, tinyOptions(SimMode::Base));
    // Every group the chip walk visits is also live in the registry.
    std::vector<const StatGroup *> live;
    StatRegistry::instance().forEach(
        [&](const StatGroup &g) { live.push_back(&g); });
    unsigned visited = 0;
    sim.chip().forEachStatGroup(
        [&](const std::string &path, StatGroup &g) {
            EXPECT_FALSE(path.empty());
            ++visited;
            bool found = false;
            for (const StatGroup *lg : live)
                found = found || lg == &g;
            EXPECT_TRUE(found) << path;
        });
    EXPECT_GT(visited, 5u);
    // And the registry dump is valid JSON covering at least those.
    const JsonValue reg = parsed(registryStatsJson());
    ASSERT_TRUE(reg.isArray());
    EXPECT_GE(reg.array().size(), static_cast<std::size_t>(visited));
}

TEST(Obs, TimelineSamplesEveryActiveCore)
{
    SimOptions opts = tinyOptions(SimMode::Crt);
    opts.timeline_interval = 64;
    Simulation sim({"gcc", "swim"}, opts);
    const RunResult r = sim.run();
    ASSERT_TRUE(r.completed);

    TimelineProbe *probe = sim.timeline();
    ASSERT_NE(probe, nullptr);
    ASSERT_GE(probe->samples().size(), 2u);
    EXPECT_EQ(probe->dropped(), 0u);

    for (const TimelineSample &s : probe->samples()) {
        ASSERT_EQ(s.cores.size(), 2u);      // CRT: both cores sampled
        ASSERT_EQ(s.pairs.size(), 2u);
    }
    // Trailing threads fetch from the LPQ at some point.
    std::uint64_t lpq_fetched = 0;
    for (const TimelineSample &s : probe->samples())
        for (const TimelineCoreSample &cs : s.cores)
            lpq_fetched += cs.fetch_lpq;
    EXPECT_GT(lpq_fetched, 0u);

    // JSONL form: one valid object per line, cycle strictly rising.
    std::ostringstream os;
    probe->writeJsonl(os);
    std::istringstream is(os.str());
    double prev_cycle = -1;
    unsigned lines = 0;
    for (std::string line; std::getline(is, line); ++lines) {
        const JsonValue v = parsed(line);
        const double cycle = v.numberOr("cycle", -1);
        EXPECT_GT(cycle, prev_cycle);
        prev_cycle = cycle;
        EXPECT_EQ(v.find("cores")->array().size(), 2u);
    }
    EXPECT_EQ(lines, probe->samples().size());
}

TEST(Obs, TimelineRingStaysBounded)
{
    SimOptions opts = tinyOptions(SimMode::Base);
    opts.timeline_interval = 16;
    opts.timeline_max_samples = 8;
    Simulation sim({"gcc"}, opts);
    sim.run();

    TimelineProbe *probe = sim.timeline();
    ASSERT_NE(probe, nullptr);
    EXPECT_LE(probe->samples().size(), 8u);
    EXPECT_GT(probe->dropped(), 0u);
    EXPECT_EQ(probe->recorded(),
              probe->dropped() + probe->samples().size());
    // The ring keeps the newest samples.
    EXPECT_GT(probe->samples().back().cycle,
              probe->samples().front().cycle);
}

TEST(Obs, ReportAggregatesDegradationAgainstBase)
{
    // Synthetic two-mix campaign: srt is 30% down on gcc, 10% on swim;
    // one failed job must be counted but not averaged.
    const std::vector<std::string> lines = {
        "{\"options\":{\"mode\":\"base\",\"warmup_insts\":0,"
        "\"measure_insts\":100},\"workloads\":[\"gcc\"],"
        "\"status\":\"ok\",\"threads\":[{\"ipc\":2.0}]}",
        "{\"options\":{\"mode\":\"base\",\"warmup_insts\":0,"
        "\"measure_insts\":100},\"workloads\":[\"swim\"],"
        "\"status\":\"ok\",\"threads\":[{\"ipc\":1.0}]}",
        "{\"options\":{\"mode\":\"srt\",\"warmup_insts\":0,"
        "\"measure_insts\":100},\"workloads\":[\"gcc\"],"
        "\"status\":\"ok\",\"threads\":[{\"ipc\":1.4}]}",
        "{\"options\":{\"mode\":\"srt\",\"warmup_insts\":0,"
        "\"measure_insts\":100},\"workloads\":[\"swim\"],"
        "\"status\":\"ok\",\"threads\":[{\"ipc\":0.9}]}",
        "{\"options\":{\"mode\":\"srt\",\"warmup_insts\":0,"
        "\"measure_insts\":100},\"workloads\":[\"gcc\"],"
        "\"status\":\"failed\",\"error\":\"boom\"}",
        "   ",
        "not json at all",
    };

    unsigned bad = 0;
    const std::vector<JsonValue> records = parseJsonlLines(lines, bad);
    EXPECT_EQ(bad, 1u);
    ASSERT_EQ(records.size(), 5u);

    ReportOptions opts;
    opts.per_mix = true;
    const CampaignReport report = buildReport(records, opts);
    EXPECT_EQ(report.total_jobs, 5u);
    EXPECT_EQ(report.failed_jobs, 1u);
    ASSERT_EQ(report.modes.size(), 2u);

    const ReportModeRow &base = report.modes[0];
    EXPECT_EQ(base.mode, "base");
    EXPECT_DOUBLE_EQ(base.mean_ipc, 1.5);

    const ReportModeRow &srt = report.modes[1];
    EXPECT_EQ(srt.mode, "srt");
    EXPECT_EQ(srt.jobs, 3u);
    EXPECT_EQ(srt.failed, 1u);
    EXPECT_EQ(srt.with_base, 2u);
    // mean of (1 - 1.4/2.0) = 0.30 and (1 - 0.9/1.0) = 0.10
    EXPECT_NEAR(srt.mean_degradation, 0.20, 1e-9);

    const std::string text = formatReport(report, opts);
    EXPECT_NE(text.find("srt"), std::string::npos);
    EXPECT_NE(text.find("-20.0%"), std::string::npos);
    EXPECT_NE(text.find("gcc"), std::string::npos);

    // A budget mismatch must not match the base cell.
    ReportOptions strict;
    std::vector<std::string> mismatched = lines;
    mismatched[2] =
        "{\"options\":{\"mode\":\"srt\",\"warmup_insts\":0,"
        "\"measure_insts\":999},\"workloads\":[\"gcc\"],"
        "\"status\":\"ok\",\"threads\":[{\"ipc\":1.4}]}";
    const auto records2 = parseJsonlLines(mismatched, bad);
    const CampaignReport r2 = buildReport(records2, strict);
    EXPECT_EQ(r2.modes[1].with_base, 1u);
}

TEST(Obs, SnapshotReportCountsRejoinsAndUnsimulatedCycles)
{
    // A fork-eligible row simulates from (snapshot_hit ? snapshot_cycle
    // : 0) to (rejoined ? rejoin_cycle : total_cycles): a restored
    // trial that rejoined later, one that ran from scratch to the end,
    // one that rejoined where it restored (simulating nothing), and a
    // plain job that is only counted.
    const std::vector<std::string> lines = {
        "{\"status\":\"ok\",\"total_cycles\":5000,\"extra\":"
        "{\"snapshot_hit\":1,\"snapshot_cycle\":1500,"
        "\"snapshot_bytes\":100,\"rejoin_cycle\":3000}}",
        "{\"status\":\"ok\",\"total_cycles\":4000,\"extra\":"
        "{\"snapshot_hit\":0}}",
        "{\"status\":\"ok\",\"total_cycles\":5000,\"extra\":"
        "{\"snapshot_hit\":1,\"snapshot_cycle\":3000,"
        "\"snapshot_bytes\":300,\"rejoin_cycle\":3000}}",
        "{\"status\":\"ok\",\"total_cycles\":7000}",
    };
    unsigned bad = 0;
    const SnapshotReport report =
        buildSnapshotReport(parseJsonlLines(lines, bad));
    EXPECT_EQ(bad, 0u);
    EXPECT_EQ(report.total_jobs, 4u);
    EXPECT_EQ(report.fork_eligible, 3u);
    EXPECT_EQ(report.hits, 2u);
    EXPECT_EQ(report.rejoined, 2u);
    EXPECT_DOUBLE_EQ(report.total_cycles, 14000);
    EXPECT_DOUBLE_EQ(report.restored_cycles, 4500);
    // 1500 + 2000 of the first row, all 5000 of the third.
    EXPECT_DOUBLE_EQ(report.unsimulated_cycles, 8500);
    EXPECT_DOUBLE_EQ(report.mean_restored_cycles, 2250);
    EXPECT_DOUBLE_EQ(report.mean_bytes, 200);
    EXPECT_NE(formatSnapshotReport(report).find(
                  "8500 of 14000 cycles not simulated (4500 restored, "
                  "4000 skipped after a rejoin)"),
              std::string::npos)
        << formatSnapshotReport(report);
}

TEST(Obs, FailuresReportIsBuiltFromTheFailedRows)
{
    // Ok rows, three failed rows out of id order (two share an error),
    // a stratified campaign's summary and the failures digest older
    // builds appended: neither summary is a job.
    const std::vector<std::string> lines = {
        "{\"id\":0,\"label\":\"srt:gcc\",\"status\":\"ok\","
        "\"attempts\":1}",
        "{\"id\":4,\"label\":\"crt:nosuch\",\"status\":\"failed\","
        "\"attempts\":1,\"error\":\"job 4: unknown workload\"}",
        "{\"id\":1,\"label\":\"crt:gcc\",\"status\":\"ok\","
        "\"attempts\":1}",
        "{\"id\":3,\"label\":\"srt:gcc recovery=1\","
        "\"status\":\"failed\",\"attempts\":1,"
        "\"error\":\"snapshots are incompatible with recovery\"}",
        "{\"id\":2,\"label\":\"crt:gcc recovery=1\","
        "\"status\":\"failed\",\"attempts\":2,\"timed_out\":false,"
        "\"error\":\"snapshots are incompatible with recovery\"}",
        "{\"avf_summary\":{\"cells\":[]}}",
        "{\"schema\":\"rmtsim-failures-v1\",\"failed\":3,"
        "\"quarantined\":0,\"jobs\":[{\"id\":2,\"error\":\"x\"}]}",
    };
    unsigned bad = 0;
    const FailuresReport report =
        buildFailuresReport(parseJsonlLines(lines, bad));
    EXPECT_EQ(bad, 0u);
    EXPECT_EQ(report.total_jobs, 5u);
    EXPECT_EQ(report.failed, 3u);
    ASSERT_EQ(report.rows.size(), 3u);
    EXPECT_EQ(report.rows[0].id, 2u);
    EXPECT_EQ(report.rows[0].label, "crt:gcc recovery=1");
    EXPECT_EQ(report.rows[0].attempts, 2u);
    EXPECT_EQ(report.rows[1].id, 3u);
    EXPECT_EQ(report.rows[2].id, 4u);
    EXPECT_EQ(report.rows[2].error, "job 4: unknown workload");
    EXPECT_EQ(report.rows[2].attempts, 1u);
    // Errors in the order the id-ordered rows first show them.
    const std::vector<std::pair<std::string, unsigned>> by_error = {
        {"snapshots are incompatible with recovery", 2},
        {"job 4: unknown workload", 1}};
    EXPECT_EQ(report.by_error, by_error);

    const std::string text = formatFailuresReport(report);
    EXPECT_EQ(text,
              "3 of 5 jobs failed\n"
              "\n"
              " count  error\n"
              "     2  snapshots are incompatible with recovery\n"
              "     1  job 4: unknown workload\n"
              "\n"
              "      id attempts  label\n"
              "       2        2  crt:gcc recovery=1\n"
              "       3        1  srt:gcc recovery=1\n"
              "       4        1  crt:nosuch\n");

    unsigned none_bad = 0;
    EXPECT_EQ(formatFailuresReport(buildFailuresReport(parseJsonlLines(
                  {lines[0], lines[2], lines[5]}, none_bad))),
              "no failures in 2 jobs\n");
}

// Campaign workers build and tear down whole Simulations concurrently
// while collecting embedded stats; this is the TSan target for the
// registry's add/remove paths and the per-run chip walks.
TEST(Obs, ConcurrentCampaignWithEmbeddedStats)
{
    SimOptions base = tinyOptions(SimMode::Srt);
    base.collect_stats_json = true;

    CampaignBuilder builder("obs", 7);
    builder.base(base)
        .modes({SimMode::Base, SimMode::Srt})
        .mixes({{"gcc"}, {"swim"}, {"compress"}});
    const Campaign campaign = builder.build();

    std::ostringstream out;
    JsonlSink::Options sink_opts;
    sink_opts.progress = false;
    sink_opts.include_timing = false;
    JsonlSink sink(out, sink_opts);

    RunnerConfig cfg;
    cfg.jobs = 4;
    cfg.sink = &sink;
    const auto results = runCampaign(campaign, cfg);

    ASSERT_EQ(results.size(), 6u);
    for (const JobResult &r : results) {
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_FALSE(r.run.stats_json.empty());
    }
    // Every emitted line embeds a parseable stats document.
    std::istringstream is(out.str());
    unsigned lines = 0;
    for (std::string line; std::getline(is, line); ++lines) {
        const JsonValue v = parsed(line);
        const JsonValue *stats = v.find("stats");
        ASSERT_TRUE(stats) << line.substr(0, 200);
        EXPECT_EQ(stats->strOr("schema", ""), "rmtsim-stats-v1");
        EXPECT_TRUE(stats->find("groups")->isArray());
    }
    EXPECT_EQ(lines, 6u);
}

TEST(Obs, RowHostBlockTimesRestoreAndOracle)
{
    SimOptions o = tinyOptions(SimMode::Srt);
    o.snapshot_every = 1000;
    JobSpec spec;
    spec.workloads = {"gcc"};
    spec.options = o;
    spec.faults.push_back(parseFaultSpec("reg:3000:0:3:5"));
    SnapshotCache cache;
    const auto oracle = makeReferenceRun(spec.workloads, o, &cache);
    attachFaultOracle(spec, oracle.get());

    RunnerConfig cfg;
    cfg.snapshots = &cache;
    const JobResult r = executeJob(spec, cfg);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.has_verdict);

    const JsonValue row = parsed(resultJson(spec, r, true));
    const JsonValue *extra = row.find("extra");
    ASSERT_TRUE(extra);
    ASSERT_EQ(extra->numberOr("snapshot_hit", 0), 1.0);
    const JsonValue *host = row.find("host");
    ASSERT_TRUE(host);
    ASSERT_TRUE(host->find("restore_ms"));
    ASSERT_TRUE(host->find("oracle_ms"));
    EXPECT_GT(host->numberOr("restore_ms", 0), 0.0);
    EXPECT_GE(host->numberOr("oracle_ms", -1), 0.0);
    // --no-timing drops the whole block, the new keys with it.
    EXPECT_EQ(resultJson(spec, r, false).find("restore_ms"),
              std::string::npos);

    // A plain run carries both keys too, at zero.
    JobSpec plain;
    plain.workloads = {"gcc"};
    plain.options = tinyOptions(SimMode::Srt);
    const JobResult p = executeJob(plain, RunnerConfig{});
    ASSERT_TRUE(p.ok()) << p.error;
    const JsonValue prow = parsed(resultJson(plain, p, true));
    const JsonValue *phost = prow.find("host");
    ASSERT_TRUE(phost);
    EXPECT_EQ(phost->numberOr("restore_ms", -1), 0.0);
    EXPECT_EQ(phost->numberOr("oracle_ms", -1), 0.0);
}
