/**
 * @file
 * Workload `fault-campaign`: the user-facing rmtsim_batch binary,
 * spawned with its default trial executor, running an SRT+CRT
 * transient-register fault campaign with snapshot barriers at -j nproc.
 * Rows stream back over a pipe and are timed as they arrive.  Per-trial
 * overhead dominates (build, restore, tail, oracle, encode, sink, and
 * dispatch across workers) plus the serial golden runs before the first
 * row.  Because only the tool is called, the workload keeps working
 * whatever executor the tool uses inside.
 *
 * Both runs then build the goldens and snapshot producers in-process:
 * they give the instructions the tool really simulated (each trial only
 * from its restored barrier on) behind sim_kips.
 *
 * Untraced: whole campaigns back to back until the window closes (the
 * metrics take the best campaign), then one in-process -j 1 reference
 * of the same campaign through runCampaignJobs; every row's verdict and
 * total_cycles must match it.
 *
 * Traced: one timed campaign (row gaps, worker utilisation, snapshot
 * hits), the same campaign without barriers (the cycles barriers add),
 * then a serial sample of trials rebuilt from public calls, phase by
 * phase, alternated with the same sample through executeJob for the
 * tracing overhead.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/json.hh"
#include "runner/campaign.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/snapshot_cache.hh"

namespace rmtbench
{

namespace
{

const std::vector<std::string> kPrograms = {"gcc", "swim", "compress"};
constexpr unsigned kTrials = 16;            ///< per (mode, program)
constexpr unsigned kMaxReg = 31;            ///< rmtsim_batch default
constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kMeasure = 8000;
constexpr std::uint64_t kSnapshotEvery = 2000;
constexpr std::size_t kSampleTrials = 24;   ///< traced serial sample

struct Row
{
    std::uint64_t id = 0;
    bool ok = false;
    std::string verdict;
    std::uint64_t total_cycles = 0;
    std::uint64_t committed = 0;
    double wall_ms = 0;
    bool snapshot_eligible = false;
    bool snapshot_hit = false;
    std::uint64_t snapshot_cycle = 0;   ///< barrier restored (hits only)
    Clock::time_point arrived;
};

/** Verdict and total_cycles of each trial, by job id. */
using Verdicts =
    std::map<std::uint64_t, std::pair<std::string, std::uint64_t>>;

struct CampaignRun
{
    double wall_s = 0;          ///< spawn to exit
    double first_row_s = 0;     ///< spawn to first row
    double peak_rss_mb = 0;
    std::vector<Row> rows;
};

std::string
programList()
{
    std::string s;
    for (const std::string &p : kPrograms)
        s += (s.empty() ? "" : ",") + p;
    return s;
}

/** Parse one JSONL row; false (with @p why) when it is not a trial. */
bool
parseRow(const std::string &line, Row &row, std::string &why)
{
    rmt::JsonValue v;
    if (!rmt::parseJson(line, v, why) || !v.isObject()) {
        why = "unparsable row: " + why;
        return false;
    }
    if (!v.find("id")) {
        why = "non-trial record: " + line.substr(0, 120);
        return false;
    }
    row.id = static_cast<std::uint64_t>(v.numberOr("id", 0));
    row.ok = v.strOr("status", "") == "ok";
    row.verdict = v.strOr("verdict", "");
    row.total_cycles =
        static_cast<std::uint64_t>(v.numberOr("total_cycles", 0));
    row.wall_ms = v.numberOr("wall_ms", 0);
    if (const rmt::JsonValue *threads = v.find("threads")) {
        for (const rmt::JsonValue &t : threads->array())
            row.committed +=
                static_cast<std::uint64_t>(t.numberOr("committed", 0));
    }
    if (const rmt::JsonValue *extra = v.find("extra")) {
        if (const rmt::JsonValue *hit = extra->find("snapshot_hit")) {
            row.snapshot_eligible = true;
            row.snapshot_hit = hit->number() != 0;
        }
        row.snapshot_cycle =
            static_cast<std::uint64_t>(extra->numberOr("snapshot_cycle", 0));
    }
    return true;
}

CampaignRun
spawnCampaign(const Args &args, bool barriers, bool timing, Report &report)
{
    std::vector<std::string> argv = {
        args.batch_bin,   "--modes",  "srt,crt",
        "--workloads",    programList(),
        "--fault-trials", std::to_string(kTrials),
        "--warmup",       std::to_string(kWarmup),
        "--insts",        std::to_string(kMeasure),
        "-j",             std::to_string(args.jobs),
        "--seed",         std::to_string(args.seed),
        "--quiet",        "--out", "-"};
    if (barriers) {
        argv.push_back("--snapshot-every");
        argv.push_back(std::to_string(kSnapshotEvery));
    }
    if (!timing)
        argv.push_back("--no-timing");

    CampaignRun run;
    Child child(argv, false);
    std::vector<std::pair<std::string, Clock::time_point>> lines;
    std::string line;
    Clock::time_point arrived;
    while (child.readLine(line, arrived, 120))
        lines.emplace_back(std::move(line), arrived);
    const int code = child.wait(run.peak_rss_mb);
    run.wall_s = secondsSince(child.started());
    report.check(code == 0, "rmtsim_batch exited with code " +
                                std::to_string(code));

    for (auto &[text, when] : lines) {
        Row row;
        std::string why;
        ++report.attempted;
        if (!report.check(parseRow(text, row, why), why))
            continue;
        row.arrived = when;
        report.check(row.ok && !row.verdict.empty(),
                     "trial " + std::to_string(row.id) +
                         " failed or has no verdict");
        run.rows.push_back(row);
    }
    if (!lines.empty())
        run.first_row_s = secondsBetween(child.started(), lines[0].second);
    return run;
}

rmt::Campaign
buildCampaign(std::uint64_t seed, bool barriers)
{
    rmt::SimOptions base;
    base.warmup_insts = kWarmup;
    base.measure_insts = kMeasure;
    if (barriers)
        base.snapshot_every = kSnapshotEvery;
    std::vector<std::vector<std::string>> mixes;
    for (const std::string &p : kPrograms)
        mixes.push_back({p});
    rmt::CampaignBuilder builder("batch", seed);
    builder.base(base)
        .modes({rmt::SimMode::Srt, rmt::SimMode::Crt})
        .mixes(mixes)
        .transientRegTrials(kTrials, kMaxReg);
    return builder.build();
}

/** One grid point: its golden oracle and its snapshot set. */
struct Point
{
    std::vector<std::string> workloads;
    rmt::SimOptions options;
    std::unique_ptr<rmt::FaultOracle> oracle;
    std::shared_ptr<const rmt::SnapshotSet> snapshots;
    /** Logical instructions committed at each barrier. */
    std::map<rmt::Cycle, std::uint64_t> committed_at;
    /** Instructions of one fault-free run (the golden, the producer). */
    std::uint64_t run_committed = 0;
};

std::string
pointKey(const rmt::JobSpec &spec)
{
    std::string key;
    for (const std::string &w : spec.workloads)
        key += w + "+";
    return key + rmt::optionsFingerprint(spec.options);
}

/** Goldens for every grid point, timed (the serial set-up of a
 *  campaign); @p golden_s receives their total. */
std::map<std::string, Point>
makeGoldens(const rmt::Campaign &campaign, double &golden_s)
{
    std::map<std::string, Point> points;
    golden_s = 0;
    for (const rmt::JobSpec &spec : campaign.jobs) {
        Point &p = points[pointKey(spec)];
        if (p.oracle)
            continue;
        p.workloads = spec.workloads;
        p.options = spec.options;
        const Clock::time_point t0 = Clock::now();
        p.oracle = std::make_unique<rmt::FaultOracle>(
            rmt::FaultOracle::goldenImage(spec.workloads, spec.options));
        golden_s += secondsSince(t0);
    }
    return points;
}

/** What the snapshot producers cost. */
struct Producers
{
    double save_s = 0;
    double image_bytes = 0;
    unsigned saves = 0;
};

/** The snapshot producer of every point, run in-process as the tool's
 *  SnapshotCache runs it: fills each point's snapshot set, its
 *  committed counts and @p cache. */
Producers
makeSnapshots(std::map<std::string, Point> &points, rmt::SnapshotCache &cache)
{
    Producers pr;
    for (auto &[key, point] : points) {
        auto set = std::make_shared<rmt::SnapshotSet>();
        rmt::Simulation sim(point.workloads, point.options);
        sim.setSnapshotHook([&](rmt::Cycle cycle, rmt::Simulation &s) {
            point.committed_at[cycle] = logicalCommitted(s);
            const Clock::time_point t0 = Clock::now();
            auto image = std::make_shared<const std::string>(
                s.saveSnapshotBuffer());
            pr.save_s += secondsSince(t0);
            pr.image_bytes += static_cast<double>(image->size());
            ++pr.saves;
            set->push_back({cycle, std::move(image)});
        });
        const rmt::RunResult run = sim.run();
        for (const rmt::ThreadResult &t : run.threads)
            point.run_committed += t.committed;
        point.snapshots = set;
        cache.insert(point.workloads, point.options, set);
    }
    return pr;
}

/**
 * Instructions the tool simulates for one campaign: every trial from
 * the barrier it restored on (what comes before is read from a
 * snapshot), plus one golden and one snapshot-producer run per point.
 */
std::uint64_t
simulatedInsts(const CampaignRun &run, const rmt::Campaign &campaign,
               const std::map<std::string, Point> &points, Report &report)
{
    std::map<std::uint64_t, const Point *> by_id;
    for (const rmt::JobSpec &spec : campaign.jobs)
        by_id[spec.id] = &points.at(pointKey(spec));
    std::uint64_t insts = 0;
    for (const auto &[key, point] : points)
        insts += 2 * point.run_committed;
    for (const Row &row : run.rows) {
        const auto it = by_id.find(row.id);
        if (it == by_id.end())
            continue;       // reported by checkRows
        std::uint64_t restored = 0;
        if (row.snapshot_hit) {
            const auto at = it->second->committed_at.find(row.snapshot_cycle);
            if (!report.check(at != it->second->committed_at.end() &&
                                  at->second <= row.committed,
                              "trial " + std::to_string(row.id) +
                                  " restored from an unknown barrier"))
                continue;
            restored = at->second;
        }
        insts += row.committed - restored;
    }
    return insts;
}

std::vector<rmt::JobSpec>
withOracles(const rmt::Campaign &campaign,
            const std::map<std::string, Point> &points)
{
    std::vector<rmt::JobSpec> jobs = campaign.jobs;
    for (rmt::JobSpec &spec : jobs)
        rmt::attachFaultOracle(spec, points.at(pointKey(spec)).oracle.get());
    return jobs;
}

/** Every row must agree with @p ref on verdict and simulated cycles. */
void
checkRows(const CampaignRun &run, const Verdicts &ref,
          const std::string &what, Report &report)
{
    report.check(run.rows.size() == ref.size(),
                 what + ": " + std::to_string(run.rows.size()) +
                     " rows, expected " + std::to_string(ref.size()));
    for (const Row &row : run.rows) {
        const auto it = ref.find(row.id);
        if (it == ref.end()) {
            report.fail(what + ": unexpected row id " +
                        std::to_string(row.id));
            continue;
        }
        report.check(row.verdict == it->second.first &&
                         row.total_cycles == it->second.second,
                     what + ": trial " + std::to_string(row.id) + " gave " +
                         row.verdict + "/" +
                         std::to_string(row.total_cycles) + ", reference " +
                         it->second.first + "/" +
                         std::to_string(it->second.second));
    }
}

Verdicts
rowIndex(const CampaignRun &run)
{
    Verdicts idx;
    for (const Row &row : run.rows)
        idx[row.id] = {row.verdict, row.total_cycles};
    return idx;
}

void
countRows(const CampaignRun &run, Report &report)
{
    auto &c = report.counters;
    for (const char *v : {"masked", "detected", "sdc", "hang"})
        c[std::string("verdict.") + v] = 0;
    std::uint64_t cycles = 0, committed = 0, eligible = 0, hits = 0;
    for (const Row &row : run.rows) {
        ++c["verdict." + row.verdict];
        cycles += row.total_cycles;
        committed += row.committed;
        eligible += row.snapshot_eligible;
        hits += row.snapshot_hit;
    }
    c["fault.trials"] = run.rows.size();
    c["sim.cycles"] = cycles;
    c["sim.committed"] = committed;
    c["ckpt.eligible_trials"] = eligible;
    c["ckpt.restored_trials"] = hits;
}

/** Phase times of one pass over the traced sample, in seconds. */
struct SamplePass
{
    double build = 0, restore = 0, tail = 0, oracle = 0, encode = 0,
           sink = 0;
    double total = 0;
    rmt::Cycle tail_cycles = 0;
    unsigned restores = 0;
};

SamplePass
tracedSample(const std::vector<rmt::JobSpec> &sample,
             const std::map<std::string, Point> &points,
             const Verdicts &rows, Report &report)
{
    SamplePass p;
    rmt::RunnerConfig cfg;
    std::ostringstream sink_out;
    rmt::JsonlSinkOptions sink_opts;
    sink_opts.ordered = false;
    sink_opts.progress = false;
    rmt::JsonlSink sink(sink_out, sink_opts);
    auto lap = [](Clock::time_point &t) {
        const Clock::time_point now = Clock::now();
        const double s = secondsBetween(t, now);
        t = now;
        return s;
    };

    const Clock::time_point start = Clock::now();
    for (const rmt::JobSpec &spec : sample) {
        const Point &point = points.at(pointKey(spec));
        Clock::time_point t = Clock::now();
        rmt::Simulation sim(spec.workloads, spec.options);
        p.build += lap(t);

        rmt::SnapshotForkInfo snap;
        snap.enabled = true;
        rmt::Cycle first_fault = spec.faults.front().when;
        for (const rmt::FaultRecord &f : spec.faults)
            first_fault = std::min(first_fault, f.when);
        if (const rmt::CachedSnapshot *cs =
                rmt::SnapshotCache::latestBefore(*point.snapshots,
                                                 first_fault)) {
            sim.restoreSnapshotBuffer(*cs->image);
            snap.hit = true;
            snap.cycle = cs->cycle;
            snap.bytes = static_cast<double>(cs->image->size());
            ++p.restores;
        }
        p.restore += lap(t);

        for (const rmt::FaultRecord &f : spec.faults)
            sim.faultInjector().schedule(f);
        const rmt::RunResult run = sim.run();
        p.tail += lap(t);
        p.tail_cycles += run.total_cycles - snap.cycle;

        const rmt::FaultTrialReport verdict =
            point.oracle->classify(sim, run, spec.faults.front());
        p.oracle += lap(t);

        rmt::JobResult result;
        result.id = spec.id;
        result.label = spec.label;
        result.attempts = 1;
        rmt::finalizeJobResult(spec, cfg, sim, run, snap, result);
        result.has_verdict = true;
        result.verdict = verdict.verdict;
        result.detection_latency =
            verdict.latency_valid
                ? static_cast<double>(verdict.detection_latency)
                : -1;
        const std::string line = rmt::resultJson(spec, result, true);
        p.encode += lap(t);

        sink.record(spec, result);
        p.sink += lap(t);

        ++report.attempted;
        const auto it = rows.find(spec.id);
        const std::string name = rmt::verdictName(verdict.verdict);
        report.check(!line.empty() && it != rows.end() &&
                         it->second.first == name &&
                         it->second.second == run.total_cycles,
                     "traced trial " + std::to_string(spec.id) +
                         " disagrees with the campaign row");
    }
    p.total = secondsSince(start);
    return p;
}

} // namespace

void
runFaultCampaign(const Args &args, Report &report)
{
    const Clock::time_point start = Clock::now();
    std::vector<CampaignRun> runs;
    do {
        runs.push_back(spawnCampaign(args, true, true, report));
    } while (!args.trace && secondsSince(start) < args.seconds);
    report.repeats = runs.size();

    const CampaignRun &first = runs.front();
    countRows(first, report);
    const auto first_rows = rowIndex(first);
    for (const CampaignRun &run : runs)
        checkRows(run, first_rows, "repeated campaign", report);

    // Best of the run's campaigns; every campaign does the same work.
    std::vector<double> wall, setup;
    double rss = 0;
    for (const CampaignRun &run : runs) {
        wall.push_back(run.wall_s);
        setup.push_back(run.first_row_s);
        rss = std::max(rss, run.peak_rss_mb);
    }
    const double trials_per_s =
        static_cast<double>(first.rows.size()) / best(wall);
    report.breakdown["trials_per_s"] = trials_per_s;

    // Goldens and snapshot producers, timed in-process.
    const rmt::Campaign campaign = buildCampaign(args.seed, true);
    double golden_s = 0;
    std::map<std::string, Point> points = makeGoldens(campaign, golden_s);
    rmt::SnapshotCache cache;
    const Producers producers = makeSnapshots(points, cache);
    const std::uint64_t simulated =
        simulatedInsts(first, campaign, points, report);
    report.counters["fault.simulated_insts"] = simulated;

    if (!args.trace) {
        report.metrics["setup_s"] = best(setup);
        report.metrics["units_per_s"] = trials_per_s;
        report.metrics["sim_kips"] =
            static_cast<double>(simulated) / best(wall) / 1000.0;
        report.metrics["peak_rss_mb"] = rss;

        // In-process -j 1 reference of the same campaign.
        rmt::RunnerConfig cfg;
        cfg.jobs = 1;
        cfg.snapshots = &cache;
        const std::vector<rmt::JobResult> ref =
            rmt::runCampaignJobs(withOracles(campaign, points), cfg);
        Verdicts idx;
        for (const rmt::JobResult &r : ref)
            idx[r.id] = {r.ok() ? rmt::verdictName(r.verdict) : "failed",
                         r.run.total_cycles};
        checkRows(first, idx, "in-process -j 1 reference", report);
        return;
    }

    // ---- traced run
    auto &pm = report.metrics;
    std::vector<double> gaps;
    double busy_s = 0;
    for (std::size_t i = 0; i < first.rows.size(); ++i) {
        busy_s += first.rows[i].wall_ms / 1e3;
        if (i)
            gaps.push_back(1e3 * secondsBetween(first.rows[i - 1].arrived,
                                                first.rows[i].arrived));
    }
    pm["runner.worker_util"] = busy_s / (first.wall_s * args.jobs);
    pm["runner.row_gap_ms_p50"] = quantile(gaps, 0.5);
    pm["runner.row_gap_ms_p99"] = quantile(gaps, 0.99);
    const auto &c = report.counters;
    pm["ckpt.hit_frac"] =
        static_cast<double>(c.at("ckpt.restored_trials")) /
        static_cast<double>(std::max<std::uint64_t>(
            1, c.at("ckpt.eligible_trials")));
    pm["sim.cycles"] = static_cast<double>(c.at("sim.cycles"));
    pm["sim.committed"] = static_cast<double>(c.at("sim.committed"));

    // Cycles the barriers add: the same campaign without them.
    const CampaignRun flat = spawnCampaign(args, false, false, report);
    std::uint64_t flat_cycles = 0;
    for (const Row &row : flat.rows)
        flat_cycles += row.total_cycles;
    const std::uint64_t drain =
        c.at("sim.cycles") > flat_cycles ? c.at("sim.cycles") - flat_cycles
                                         : 0;
    report.counters["ckpt.barrier_drain_cycles"] = drain;
    pm["ckpt.barrier_drain_cycles"] = static_cast<double>(drain);

    pm["rmt.golden_ms"] = 1e3 * golden_s;
    const unsigned saves = producers.saves;
    pm["ckpt.save_ms"] = saves ? 1e3 * producers.save_s / saves : 0;
    pm["ckpt.image_kb"] = saves ? producers.image_bytes / saves / 1024.0 : 0;

    // The serial sample: every k-th trial of the campaign, bare for the
    // traced phases and with its oracle attached for executeJob.
    const std::vector<rmt::JobSpec> oracled = withOracles(campaign, points);
    std::vector<rmt::JobSpec> sample, sample_oracled;
    const std::size_t stride =
        std::max<std::size_t>(1, campaign.jobs.size() / kSampleTrials);
    for (std::size_t i = 0; i < campaign.jobs.size(); i += stride) {
        sample.push_back(campaign.jobs[i]);
        sample_oracled.push_back(oracled[i]);
    }

    std::vector<double> ph[6], restore_ms, run_ns, overhead;
    const double n = static_cast<double>(sample.size());
    do {
        rmt::RunnerConfig cfg;
        cfg.snapshots = &cache;
        const Clock::time_point u0 = Clock::now();
        for (const rmt::JobSpec &spec : sample_oracled)
            rmt::executeJob(spec, cfg);
        const double untraced = secondsSince(u0);

        const SamplePass p = tracedSample(sample, points, first_rows, report);
        overhead.push_back(p.total / untraced - 1.0);
        ph[0].push_back(1e3 * p.build / n);
        ph[1].push_back(1e3 * p.restore / n);
        ph[2].push_back(1e3 * p.tail / n);
        ph[3].push_back(1e3 * p.oracle / n);
        ph[4].push_back(1e3 * p.encode / n);
        ph[5].push_back(1e3 * p.sink / n);
        restore_ms.push_back(p.restores ? 1e3 * p.restore / p.restores : 0);
        run_ns.push_back(1e9 * p.tail / static_cast<double>(p.tail_cycles));
    } while (secondsSince(start) < args.seconds);

    const char *phases[6] = {"build", "restore", "tail",
                             "oracle", "encode", "sink"};
    for (int i = 0; i < 6; ++i)
        pm[std::string("runner.trial_ms.") + phases[i]] = median(ph[i]);
    pm["ckpt.restore_ms"] = median(restore_ms);
    pm["rmt.classify_us"] = 1e3 * median(ph[3]);
    pm["sim.build_ms"] = median(ph[0]);
    pm["sim.run_ns_per_cycle"] = median(run_ns);
    pm["bench.trace_overhead_frac"] = median(overhead);
}

} // namespace rmtbench
