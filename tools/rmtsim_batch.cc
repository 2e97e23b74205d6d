/**
 * @file
 * Batch campaign driver: expand a configuration grid, run it over the
 * work-stealing pool, stream one JSON object per job to a .jsonl file.
 *
 *   rmtsim_batch --modes srt,crt --workloads gcc,swim \
 *                --sweep slack=0,32,64 -j 8 --out results.jsonl
 *   rmtsim_batch --modes srt --workloads compress --fault-trials 100 \
 *                --insts 12000 --warmup 0 -j 8 --out faults.jsonl
 *   rmtsim_batch --figure all -j 8 --out paper.jsonl
 *
 * Job ids are assigned in grid order and results are emitted in id
 * order, so the output file is deterministic and independent of -j
 * (use --no-timing to drop the wall-clock field and make runs
 * byte-for-byte diffable).
 */

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "avf/sampler.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "runner/figures.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "runner/wire.hh"
#include "serve/campaign_engine.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "sim/metrics.hh"
#include "workloads/workloads.hh"

using namespace rmt;

namespace
{

/** SIGINT/SIGTERM drain flag: workers stop picking up new jobs, the
 *  in-flight ones finish and are stored, and main exits 4 with the
 *  result store kept on disk for the rerun. */
std::atomic<bool> g_stop{false};

extern "C" void
handleStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

void
usage()
{
    std::printf(
        "rmtsim_batch — parallel experiment campaigns over the rmtsim "
        "grid\n"
        "\n"
        "grid:\n"
        "  --modes M,M,...   base | base2 | srt | lockstep | crt "
        "(default srt)\n"
        "  --workloads W,... single-thread mixes, one job per name; "
        "'all' = SPEC95 set\n"
        "  --mix A+B[+C...]  add one multiprogrammed mix "
        "(repeatable)\n"
        "  --sweep K=V,V,... cartesian axis (repeatable) over a setting "
        "other than mode (--modes is that axis): %s\n"
        "  --fault-trials N  N seeded transient-reg strikes per grid "
        "point, each judged against its point's fault-free reference "
        "run (a strike on a register its program never reads is "
        "finished from that run without simulating); with --stratify, "
        "the budget per stratum\n"
        "  --max-reg N       victim register bound for fault trials, "
        "in [2, 64] (default 31)\n"
        "  --seed S          campaign seed (default 1)\n"
        "  --figure F,F,...  the paper's figures (fig6..fig12, abl_*, "
        "faults_*) or 'all'\n"
        "                    with their budgets, fault trials and "
        "--efficiency; not with\n"
        "                    the grid, budget, fault, sampler or "
        "--embed-stats flags.\n"
        "                    rmtsim_report --figure prints them\n"
        "\n"
        "statistical campaigns (src/avf/):\n"
        "  --stratify        stratified sampling over fault kinds x "
        "strike windows with per-stratum AVF estimates\n"
        "  --ci-width W      stop sampling a stratum once its Wilson "
        "interval is narrower than W (0 = fixed budget)\n"
        "  --confidence C    interval confidence (default 0.95)\n"
        "  --windows N       strike windows per kind (default 2)\n"
        "  --batch N         trials per stratum per round (default "
        "16)\n"
        "  --kinds K,K,...   fault kinds to stratify (default: every "
        "kind the machine supports, minus permanent fu)\n"
        "\n"
        "checkpointing:\n"
        "  --snapshot-every N  place a snapshot barrier every N cycles; "
        "fault trials restore the latest snapshot before their "
        "strike (a strike before the first barrier runs from scratch) "
        "and stop at the first later barrier where they have rejoined "
        "the fault-free reference run\n"
        "\n"
        "budgets:\n"
        "  --insts N         measured instructions/thread (default "
        "40000)\n"
        "  --warmup N        warm-up instructions/thread (default "
        "20000)\n"
        "\n"
        "execution:\n"
        "  -j, --jobs N      worker threads for jobs, fault trials and "
        "fault-free\n"
        "                    reference runs (default 1; 0 = all cores)\n"
        "  --out FILE        .jsonl output (default '-' = stdout)\n"
        "  --fsync           fsync the output file on close (no torn "
        "records after a crash)\n"
        "  --efficiency      add SMT-efficiency vs shared baseline "
        "cache\n"
        "  --embed-stats     embed the full stats tree in each job "
        "record\n"
        "  --no-timing       omit wall_ms/host (byte-diffable "
        "output)\n"
        "  --server SOCK     run the campaign on the rmtsimd at SOCK "
        "instead of in-process;\n"
        "                    rows, summary and exit code are those of "
        "a local run, and\n"
        "                    jobs already in the daemon's store are "
        "not run again.  Not\n"
        "                    with --store (the daemon's store is the "
        "store)\n"
        "  --quiet           no stderr progress\n"
        "  --progress        force the stderr heartbeat (done/total, "
        "elapsed, ETA)\n"
        "                    even under --stratify or a non-tty "
        "stderr\n"
        "  --list            print the expanded job grid and exit\n"
        "\n"
        "resilience (see DESIGN.md):\n"
        "  --store DIR       keep every result in the content-addressed "
        "store DIR;\n"
        "                    jobs already stored there are not run "
        "again.  Default\n"
        "                    <out>.store when --out is a file, removed "
        "once the\n"
        "                    campaign finishes; an explicit DIR is "
        "always kept\n"
        "\n"
        "exit codes: 0 clean; 1 hard failure; 2 usage error; 3 "
        "degraded (failed jobs\n"
        "recorded); 4 interrupted (store kept — rerun the same "
        "command)\n",
        settingsHelp().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);

    SimOptions base;
    base.warmup_insts = 20000;
    base.measure_insts = 40000;

    std::vector<SimMode> modes;
    std::vector<std::vector<std::string>> mixes;
    std::vector<std::pair<std::string, std::vector<std::string>>> sweeps;
    unsigned fault_trials = 0;
    SamplerConfig scfg;     // --stratify
    scfg.max_reg = 31;
    std::uint64_t seed = 1;

    RunnerConfig cfg;
    std::string out_path = "-";
    std::string server_sock;
    std::string store_dir;
    bool want_efficiency = false;
    bool list_only = false;
    bool want_fsync = false;
    bool quiet = false;
    bool force_progress = false;
    bool stratify = false;
    long long test_crash = -1;
    JsonlSink::Options sink_opts;
    std::vector<const Figure *> figures;    // --figure
    // What --figure fixes itself: the grid, the budgets, the rows, the
    // fault draws; and the sampler's flags, which it never reads.
    const std::set<std::string> grid_flags = {
        "--modes", "--workloads", "--mix", "--sweep", "--warmup", "--insts",
        "--fault-trials", "--max-reg", "--seed", "--stratify",
        "--ci-width", "--confidence", "--windows", "--batch", "--kinds",
        "--snapshot-every", "--embed-stats"};
    std::string grid_flag;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for " +
                                                arg);
                return argv[++i];
            };
            const auto u64 = [&] { return parseUnsigned(next(), arg); };
            const auto u32 = [&] { return parseUnsigned32(next(), arg); };
            if (grid_flags.count(arg))
                grid_flag = arg;
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--modes") {
                for (const auto &m : splitList(next(), ',')) {
                    SimOptions o;
                    applySetting(o, "mode", m);
                    modes.push_back(o.mode);
                }
            } else if (arg == "--workloads") {
                const auto names = splitList(next(), ',');
                if (names.size() == 1 && names[0] == "all") {
                    for (const auto &n : spec95Names())
                        mixes.push_back({n});
                } else {
                    for (const auto &n : names)
                        mixes.push_back({n});
                }
            } else if (arg == "--mix") {
                mixes.push_back(splitList(next(), '+'));
            } else if (arg == "--sweep") {
                const std::string spec = next();
                const auto eq = spec.find('=');
                if (eq == std::string::npos)
                    throw std::invalid_argument("bad --sweep '" + spec +
                                                "' (want key=v1,v2)");
                sweeps.emplace_back(spec.substr(0, eq),
                                    splitList(spec.substr(eq + 1), ','));
            } else if (arg == "--fault-trials") {
                fault_trials = u32();
            } else if (arg == "--max-reg") {
                scfg.max_reg = u32();
            } else if (arg == "--seed") {
                seed = u64();
            } else if (arg == "--insts" || arg == "--warmup" ||
                       arg == "--snapshot-every") {
                applySetting(base, flagSetting(arg), next());
            } else if (arg == "-j" || arg == "--jobs") {
                cfg.jobs = u32();
            } else if (arg == "--figure") {
                figures = selectFigures(next());
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "--server") {
                server_sock = next();
            } else if (arg == "--efficiency") {
                want_efficiency = true;
            } else if (arg == "--embed-stats") {
                base.collect_stats_json = true;
            } else if (arg == "--fsync") {
                want_fsync = true;
            } else if (arg == "--stratify") {
                stratify = true;
            } else if (arg == "--ci-width") {
                scfg.ci_width = parseReal(next(), arg, 0, 1, false, true);
            } else if (arg == "--confidence") {
                scfg.confidence = parseReal(next(), arg, 0, 1, true, true);
            } else if (arg == "--windows") {
                scfg.windows = u32();
            } else if (arg == "--batch") {
                scfg.batch = u32();
            } else if (arg == "--kinds") {
                scfg.kinds = parseFaultKinds(next());
            } else if (arg == "--store") {
                store_dir = next();
            } else if (arg == "--no-timing") {
                sink_opts.include_timing = false;
            } else if (arg == "--quiet") {
                quiet = true;
                sink_opts.progress = false;
            } else if (arg == "--progress" || arg == "--progress=force") {
                force_progress = true;
            } else if (arg == "--test-crash-trial") {
                // Undocumented test hook: _Exit(9) right after the
                // named job's (or sampler trial's) post_run, before
                // its record is stored — a deterministic mid-campaign
                // crash for the resilience gates (tools/check.sh).
                test_crash = static_cast<long long>(u32());
            } else if (arg == "--list") {
                list_only = true;
            } else {
                throw std::invalid_argument("unknown argument '" + arg +
                                            "'");
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
        return 2;
    }
    if (!figures.empty() && !grid_flag.empty()) {
        std::fprintf(stderr,
                     "rmtsim_batch: %s cannot be combined with --figure\n",
                     grid_flag.c_str());
        return 2;
    }

    const bool remote = !server_sock.empty();
    if (remote) {
        // The daemon owns the store; the crash hook is local
        // machinery.
        const char *clash = !store_dir.empty() ? "--store"
                            : test_crash >= 0  ? "--test-crash-trial"
                                               : nullptr;
        if (clash) {
            std::fprintf(stderr,
                         "rmtsim_batch: %s cannot be combined with "
                         "--server\n",
                         clash);
            return 2;
        }
#if !defined(__unix__) && !defined(__APPLE__)
        std::fprintf(stderr,
                     "rmtsim_batch: --server needs Unix-domain "
                     "sockets (POSIX only)\n");
        return 2;
#endif
    }

    if (modes.empty())
        modes.push_back(SimMode::Srt);

    Campaign campaign;
    std::vector<StratifiedSampler::Cell> cells;     // --stratify
    std::optional<StratifiedSampler> strat;
    try {
        if (!figures.empty()) {
            campaign = figureCampaign(figures);
            base = figureOptions();
            want_efficiency = true;
        } else {
            CampaignBuilder builder("batch", seed);
            builder.base(base).modes(modes);
            if (!mixes.empty())
                builder.mixes(mixes);
            for (const auto &[key, values] : sweeps)
                builder.sweep(key, values);
            // Stratified campaigns draw their own faults per stratum;
            // the grid expansion then only provides the cells (one job
            // per grid point, faultless).
            if (fault_trials && !stratify)
                builder.transientRegTrials(fault_trials, scfg.max_reg);
            campaign = builder.build();
        }
        if (stratify) {
            if (fault_trials)
                scfg.max_trials = fault_trials;
            // Pair-resident kinds (lvq/lpq/boq) only exist on machines
            // with redundant pairs; drop them from the default kind set
            // as soon as one sampled mode lacks pairs.
            for (const SimMode m : modes)
                scfg.has_pairs &= m == SimMode::Srt || m == SimMode::Crt;
            for (const JobSpec &j : campaign.jobs)
                cells.push_back({j.label, j.workloads, j.options});
            strat.emplace(cells, scfg, seed);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
        return 2;
    }

    if (list_only) {
        for (const JobSpec &j : campaign.jobs)
            std::printf("%6llu  %s\n",
                        static_cast<unsigned long long>(j.id),
                        j.label.c_str());
        std::printf("%zu jobs\n", campaign.jobs.size());
        return 0;
    }

    // Every local result goes through the content-addressed store: a
    // crashed or interrupted campaign resumes by rerunning the same
    // command.  A file --out gets its own store, removed once the
    // campaign finishes; an explicit --store is always kept; --out -
    // runs against a memory-only store.  A --server run resumes from
    // the daemon's store.
    const bool auto_store = !remote && store_dir.empty() && out_path != "-";
    if (auto_store)
        store_dir = out_path + ".store";
    auto store = std::make_unique<ResultStore>();
    // A campaign that ran to its end, degraded or refused, leaves
    // nothing to resume in its own store.
    const auto removeAutoStore = [&] {
        if (!auto_store)
            return;
        store.reset();
        std::error_code ec;
        std::filesystem::remove(store_dir + "/store.rmtrs", ec);
        std::filesystem::remove(store_dir, ec);
    };
    if (!store_dir.empty()) {
        // Opened before the output file is truncated, so a store this
        // build cannot read (or another process holds) leaves
        // everything on disk untouched.
        try {
            store->open(store_dir);
        } catch (const StoreError &e) {
            std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
            return 2;
        }
    }

    std::ofstream file;
    if (out_path != "-") {
        file.open(out_path);
        if (!file) {
            std::fprintf(stderr, "rmtsim_batch: cannot open '%s'\n",
                         out_path.c_str());
            return 2;
        }
    }
    std::ostream &out = out_path == "-" ? std::cout : file;

    if (want_fsync && out_path != "-")
        sink_opts.fsync_path = out_path;
#if defined(__unix__) || defined(__APPLE__)
    // The heartbeat uses \r redraws; on a redirected stderr that turns
    // into one unreadable megaline, so clamp it to interactive runs.
    if (!::isatty(::fileno(stderr)))
        sink_opts.progress = false;
#endif
    if (stratify)
        sink_opts.progress = false;     // per-round reporting instead
    if (force_progress)
        sink_opts.progress = true;      // --progress beats every clamp
    JsonlSink sink(out, sink_opts);

    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    cfg.stop = &g_stop;

    // The baseline cache is shared across workers (single-flight);
    // baselines use the campaign's budgets but the base machine, and
    // are rows of the campaign's store.
    BaselineCache baseline(base, store.get());
    if (want_efficiency)
        cfg.baseline = &baseline;

    // The home of every fault point's reference run, as in rmtsimd.
    SnapshotCache snapshots;
    cfg.snapshots = &snapshots;

    const auto emit = [&](const JobSpec &spec, const JobResult &r) {
        sink.record(spec, r);
        if (strat)
            strat->record(spec, r);
        return true;
    };

    // The one place a local and a --server run differ: which engine
    // turns job lists into rows.  Both have the run(jobs, emit) ->
    // EngineTally shape.  Locally one pool serves the whole process:
    // goldens, jobs and every stratified round run on it.
    std::unique_ptr<ThreadPool> pool;
    std::function<EngineTally(std::vector<JobSpec>)> runEngine;
    const auto use = [&](auto engine) {
        runEngine = [engine, &emit](std::vector<JobSpec> jobs) {
            return engine->run(std::move(jobs), emit);
        };
    };
    try {
        if (!remote) {
            pool = std::make_unique<ThreadPool>(cfg.jobs);
            use(std::make_shared<CampaignEngine>(*pool, *store, cfg));
        }
#if defined(__unix__) || defined(__APPLE__)
        else {
            std::signal(SIGPIPE, SIG_IGN);
            use(std::make_shared<serve::RemoteEngine>(server_sock, cfg));
        }
#endif
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
        return 1;
    }

    std::uint64_t total_jobs = 0, resumed = 0, goldens = 0, skipped = 0,
                  rejoined = 0, failed = 0;
    const auto runJobs = [&](std::vector<JobSpec> jobs) {
        // Test hook: die after the named job's work but before its row
        // is stored.  A stored job never runs, so a rerun gets past it.
        for (JobSpec &job : jobs) {
            if (job.id == static_cast<std::uint64_t>(test_crash))
                job.post_run = [](Simulation *, const RunResult &,
                                  JobResult &) { std::_Exit(9); };
        }
        const std::size_t n = jobs.size();
        const EngineTally t = runEngine(std::move(jobs));
        resumed += t.hits;
        goldens += t.goldens;
        rejoined += t.rejoined;
        failed += t.failed;
        skipped += t.skipped;
        total_jobs += n - t.skipped;
    };

    try {
        if (strat) {
            // Rounds are a pure function of the seed and the recorded
            // verdicts, so a rerun regenerates the same trials and the
            // store serves every one that finished before.  A round
            // with skipped jobs (an interrupt, a draining daemon) ends
            // the loop.
            while (!g_stop.load(std::memory_order_relaxed) && !skipped) {
                const auto jobs = strat->nextRound();
                if (jobs.empty())
                    break;
                runJobs(jobs);
                if (!quiet) {
                    std::fprintf(
                        stderr, "round %u: %zu trials (%llu total)\n",
                        strat->rounds(), jobs.size(),
                        static_cast<unsigned long long>(total_jobs));
                }
            }
            sink.end();
            // The summary rides in the same .jsonl: one object with
            // per-stratum estimates, intervals and trial counts.
            out << strat->summaryJson() << "\n";
            out.flush();
            if (!quiet) {
                for (std::size_t c = 0; c < cells.size(); ++c) {
                    const RollupEstimate r = strat->cellRollup(c);
                    std::fprintf(
                        stderr,
                        "%s: AVF %.4f [%.4f,%.4f]  SDC %.4f "
                        "[%.4f,%.4f]  (%llu trials)\n",
                        cells[c].label.c_str(), r.avf, r.avf_ci.low,
                        r.avf_ci.high, r.sdc_rate, r.sdc_ci.low,
                        r.sdc_ci.high,
                        static_cast<unsigned long long>(r.trials));
                }
            }
        } else {
            sink.begin(campaign);
            runJobs(campaign.jobs);
            sink.end();
        }
    } catch (const wire::WireError &e) {
        // The connection to rmtsimd broke: a hard failure.
        std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        // The engine's error (a golden run that cannot be made) is the
        // same on every rerun, so its store holds nothing to resume.
        std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
        removeAutoStore();
        return 2;
    }
    const bool interrupted =
        g_stop.load(std::memory_order_relaxed) || skipped;

    store->flush();
    // A finished campaign (even a degraded one: its failures are
    // recorded) leaves nothing to resume; only an interrupted run keeps
    // its own store.
    if (!interrupted)
        removeAutoStore();

    if (!quiet) {
        const std::string kept_in =
            remote ? "rmtsimd at " + server_sock : store_dir;
        std::string note;
        if (resumed)
            note = " (" + std::to_string(resumed) + " resumed from " +
                   kept_in + ")";
        if (goldens || fault_trials || stratify)
            note += " (" + std::to_string(goldens) +
                    " fault-free reference runs)";
        if (rejoined || fault_trials || stratify)
            note += " (" + std::to_string(rejoined) +
                    " trials rejoined their reference run)";
        if (want_efficiency && !remote)
            note += " (" + std::to_string(baseline.simulations()) +
                    " baseline sims)";
        std::fprintf(stderr, "%llu jobs, %llu failed%s\n",
                     static_cast<unsigned long long>(total_jobs),
                     static_cast<unsigned long long>(failed), note.c_str());
        if (interrupted && !kept_in.empty()) {
            std::fprintf(stderr,
                         "interrupted — results kept in %s; rerun the "
                         "same command to resume\n",
                         kept_in.c_str());
        }
    }
    if (interrupted)
        return 4;
    return failed ? 3 : 0;
}
