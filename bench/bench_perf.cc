/**
 * @file
 * Host-throughput benchmark: committed KIPS (kilo simulated
 * instructions committed per host second, from obs/host_profile) for a
 * short fixed-seed campaign across all five SimModes.
 *
 * Two uses:
 *
 *  - emit: `bench_perf --json BENCH_perf.json` records the per-mode
 *    KIPS of this build on this machine (the committed baseline is
 *    regenerated with tools/bench_perf.sh);
 *  - gate: `bench_perf --baseline BENCH_perf.json --max-regress 10`
 *    re-measures and exits non-zero when any mode regressed by more
 *    than the threshold (tools/check.sh runs this as its perf smoke).
 *
 * Jobs execute serially (never through the thread pool) and each grid
 * point keeps the best of N repeats, so a loaded host biases the
 * numbers down less than a mean would.  KIPS aggregates across
 * workloads are committed-instruction weighted.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"
#include "runner/runner.hh"

using namespace rmt;
using namespace rmtbench;

namespace
{

struct WorkloadPerf
{
    std::string workload;
    double kips = 0;                ///< best of N repeats
    std::uint64_t committed = 0;    ///< per run (identical across repeats)
};

struct ModePerf
{
    SimMode mode;
    double kips = 0;                ///< committed-weighted aggregate
    std::uint64_t committed = 0;    ///< sum over workloads, one run each
    std::vector<WorkloadPerf> workloads;
};

/** Snapshot-forked vs from-scratch fault-campaign wall time. */
struct FaultCampaignPerf
{
    std::vector<std::string> workloads;
    unsigned trials = 0;            ///< per workload
    double from_scratch_seconds = 0;
    double forked_seconds = 0;
    double speedup = 0;
    bool verdicts_match = false;
};

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_perf [--json FILE] [--baseline FILE]\n"
        "                  [--max-regress PCT] [--repeat N]\n"
        "                  [--insts N] [--warmup N] [--workloads a,b,c]\n"
        "                  [--fault-trials N] [--min-fork-speedup X]\n");
}

/**
 * Time one SRT fault campaign (transient-reg trials over the given
 * workloads, oracle-classified) twice — from scratch and forked from
 * cached snapshots — and check the two produce identical per-trial
 * verdicts.  Serial execution, so the wall-clock ratio is the honest
 * per-trial saving including the producer runs.
 */
FaultCampaignPerf
benchFaultCampaign(const std::vector<std::string> &workloads,
                   unsigned trials, std::uint64_t warmup,
                   std::uint64_t measure)
{
    using Clock = std::chrono::steady_clock;

    FaultCampaignPerf perf;
    perf.workloads = workloads;
    perf.trials = trials;

    SimOptions base;
    base.mode = SimMode::Srt;
    base.warmup_insts = warmup;
    base.measure_insts = measure;
    // Dense barriers: trial faults land at (warmup+measure)/12 cycles
    // or later, so a cadence below that means every trial can fork.
    base.snapshot_every =
        std::max<std::uint64_t>(1, (warmup + measure) / 16);

    CampaignBuilder builder("perf-faults", 0x52'4d'54ull);
    builder.base(base)
        .modes({SimMode::Srt})
        .workloads(workloads)
        .transientRegTrials(trials, 15);
    Campaign campaign = builder.build();

    std::map<std::string, std::unique_ptr<FaultOracle>> oracles;
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

    auto timeCampaign = [&campaign](SnapshotCache *snapshots, double &s) {
        RunnerConfig cfg;
        cfg.jobs = 1;
        cfg.max_attempts = 1;
        cfg.snapshots = snapshots;
        const auto t0 = Clock::now();
        auto results = runCampaign(campaign, cfg);
        s = std::chrono::duration<double>(Clock::now() - t0).count();
        return results;
    };

    double scratch_s = 0, forked_s = 0;
    const auto scratch = timeCampaign(nullptr, scratch_s);
    SnapshotCache cache;
    const auto forked = timeCampaign(&cache, forked_s);

    perf.from_scratch_seconds = scratch_s;
    perf.forked_seconds = forked_s;
    perf.speedup = forked_s > 0 ? scratch_s / forked_s : 0;

    perf.verdicts_match = scratch.size() == forked.size();
    for (std::size_t i = 0;
         perf.verdicts_match && i < scratch.size(); ++i) {
        perf.verdicts_match =
            scratch[i].ok() && forked[i].ok() &&
            scratch[i].has_verdict == forked[i].has_verdict &&
            scratch[i].verdict == forked[i].verdict &&
            scratch[i].detection_latency == forked[i].detection_latency &&
            scratch[i].run.total_cycles == forked[i].run.total_cycles;
    }
    return perf;
}

std::string
perfJson(const std::vector<ModePerf> &modes, std::uint64_t warmup,
         std::uint64_t measure, unsigned repeats,
         const std::vector<std::string> &workloads,
         const FaultCampaignPerf &faults)
{
    std::ostringstream os;
    os << "{\"schema\":\"rmtsim-bench-perf-v1\""
       << ",\"warmup_insts\":" << warmup
       << ",\"measure_insts\":" << measure
       << ",\"repeats\":" << repeats
       << ",\"workloads\":[";
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        os << (i ? "," : "") << "\"" << jsonEscape(workloads[i])
           << "\"";
    }
    os << "],\"modes\":[";
    for (std::size_t m = 0; m < modes.size(); ++m) {
        const ModePerf &mp = modes[m];
        os << (m ? "," : "") << "{\"mode\":\"" << modeName(mp.mode)
           << "\",\"kips\":" << jsonNum(mp.kips)
           << ",\"committed\":" << mp.committed << ",\"per_workload\":[";
        for (std::size_t w = 0; w < mp.workloads.size(); ++w) {
            const WorkloadPerf &wp = mp.workloads[w];
            os << (w ? "," : "") << "{\"workload\":\""
               << jsonEscape(wp.workload)
               << "\",\"kips\":" << jsonNum(wp.kips)
               << ",\"committed\":" << wp.committed << "}";
        }
        os << "]}";
    }
    os << "],\"fault_campaign\":{\"workloads\":[";
    for (std::size_t i = 0; i < faults.workloads.size(); ++i) {
        os << (i ? "," : "") << "\"" << jsonEscape(faults.workloads[i])
           << "\"";
    }
    os << "],\"trials\":" << faults.trials
       << ",\"from_scratch_seconds\":"
       << jsonNum(faults.from_scratch_seconds)
       << ",\"forked_seconds\":" << jsonNum(faults.forked_seconds)
       << ",\"speedup\":" << jsonNum(faults.speedup)
       << ",\"verdicts_match\":"
       << (faults.verdicts_match ? "true" : "false") << "}}\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);

    std::string json_path;
    std::string baseline_path;
    double max_regress = 10.0;
    unsigned repeats = 3;
    std::uint64_t measure = 20000;
    std::uint64_t warmup = 2000;
    std::vector<std::string> workloads = {"gcc", "swim", "compress"};
    unsigned fault_trials = 16;
    double min_fork_speedup = 1.5;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--json") {
            json_path = next();
        } else if (arg == "--baseline") {
            baseline_path = next();
        } else if (arg == "--max-regress") {
            max_regress = std::atof(next());
        } else if (arg == "--repeat") {
            repeats = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--insts") {
            measure = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--warmup") {
            warmup = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--workloads") {
            workloads = splitList(next());
        } else if (arg == "--fault-trials") {
            fault_trials = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--min-fork-speedup") {
            min_fork_speedup = std::atof(next());
        } else {
            usage();
            return 2;
        }
    }
    if (repeats == 0)
        repeats = 1;
    if (workloads.empty()) {
        usage();
        return 2;
    }

    const SimMode all_modes[] = {SimMode::Base, SimMode::Base2,
                                 SimMode::Srt, SimMode::Lockstep,
                                 SimMode::Crt};

    RunnerConfig cfg;   // executeJob runs inline; no pool, no retries
    cfg.max_attempts = 1;

    std::vector<ModePerf> modes;
    for (const SimMode mode : all_modes) {
        ModePerf mp;
        mp.mode = mode;
        double seconds_total = 0;
        for (const std::string &workload : workloads) {
            JobSpec spec;
            spec.id = 0;
            spec.label = std::string(modeName(mode)) + ":" + workload;
            spec.workloads = {workload};
            spec.options.mode = mode;
            spec.options.warmup_insts = warmup;
            spec.options.measure_insts = measure;
            spec.seed = 0x52'4d'54'53'49'4dull;     // fixed ("RMTSIM")

            WorkloadPerf wp;
            wp.workload = workload;
            for (unsigned r = 0; r < repeats; ++r) {
                const JobResult res = executeJob(spec, cfg);
                if (!res.ok())
                    fatal("bench_perf job '%s' failed: %s",
                          spec.label.c_str(), res.error.c_str());
                std::uint64_t committed = 0;
                for (const ThreadResult &t : res.run.threads)
                    committed += t.committed;
                wp.committed = committed;
                if (res.run.host.sim_kips > wp.kips)
                    wp.kips = res.run.host.sim_kips;
            }
            if (wp.kips <= 0)
                fatal("bench_perf: zero KIPS for '%s'",
                      spec.label.c_str());
            mp.committed += wp.committed;
            seconds_total +=
                static_cast<double>(wp.committed) / (wp.kips * 1e3);
            mp.workloads.push_back(std::move(wp));
        }
        mp.kips = static_cast<double>(mp.committed) /
                  (seconds_total * 1e3);
        modes.push_back(std::move(mp));
    }

    std::printf("%-10s %12s %12s\n", "mode", "kips", "committed");
    for (const ModePerf &mp : modes) {
        std::printf("%-10s %12.1f %12llu\n", modeName(mp.mode),
                    mp.kips,
                    static_cast<unsigned long long>(mp.committed));
    }

    // Snapshot-forked fault campaign vs from-scratch (two workloads,
    // serial).  Verdict identity is a hard correctness gate; the
    // speedup gate can be relaxed with --min-fork-speedup 0.  The
    // campaign runs a larger budget than the KIPS sweep: forking saves
    // the pre-fault prefix, which the short KIPS budget would hide
    // behind per-trial constants (build + oracle classification).
    const FaultCampaignPerf faults = benchFaultCampaign(
        {"gcc", "compress"}, fault_trials, warmup, 4 * measure);
    std::printf("fault campaign (%u trials x %zu workloads): "
                "%.2fs scratch, %.2fs forked, %.2fx, verdicts %s\n",
                faults.trials, faults.workloads.size(),
                faults.from_scratch_seconds, faults.forked_seconds,
                faults.speedup,
                faults.verdicts_match ? "match" : "DIFFER");
    if (!faults.verdicts_match)
        fatal("bench_perf: snapshot-forked fault campaign verdicts "
              "differ from the from-scratch run");
    if (faults.speedup < min_fork_speedup) {
        std::fprintf(stderr,
                     "bench_perf: forked fault campaign speedup %.2fx "
                     "below the %.2fx gate\n",
                     faults.speedup, min_fork_speedup);
        return 1;
    }

    const std::string doc = perfJson(modes, warmup, measure, repeats,
                                     workloads, faults);
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            fatal("bench_perf: cannot write %s", json_path.c_str());
        out << doc;
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (baseline_path.empty())
        return 0;

    // ------------------------------------------ regression gate
    std::ifstream in(baseline_path);
    if (!in)
        fatal("bench_perf: cannot read baseline %s",
              baseline_path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue base;
    std::string err;
    if (!parseJson(buf.str(), base, err))
        fatal("bench_perf: baseline %s: %s", baseline_path.c_str(),
              err.c_str());
    const JsonValue *base_modes = base.find("modes");
    if (!base_modes || !base_modes->isArray())
        fatal("bench_perf: baseline %s has no \"modes\" array",
              baseline_path.c_str());

    int failures = 0;
    std::printf("\nvs %s (max regression %.0f%%):\n",
                baseline_path.c_str(), max_regress);
    for (const ModePerf &mp : modes) {
        const JsonValue *ref = nullptr;
        for (const JsonValue &entry : base_modes->array()) {
            if (entry.strOr("mode", "") == modeName(mp.mode)) {
                ref = &entry;
                break;
            }
        }
        if (!ref) {
            std::printf("  %-10s (no baseline entry, skipped)\n",
                        modeName(mp.mode));
            continue;
        }
        const double base_kips = ref->numberOr("kips", 0);
        if (base_kips <= 0)
            continue;
        const double delta = 100.0 * (mp.kips - base_kips) / base_kips;
        const bool bad = delta < -max_regress;
        std::printf("  %-10s %12.1f -> %12.1f  %+6.1f%%%s\n",
                    modeName(mp.mode), base_kips, mp.kips, delta,
                    bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    if (failures) {
        std::fprintf(stderr,
                     "bench_perf: %d mode(s) regressed more than "
                     "%.0f%%\n",
                     failures, max_regress);
        return 1;
    }
    std::printf("perf gate: OK\n");
    return 0;
}
