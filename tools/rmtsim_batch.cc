/**
 * @file
 * Batch campaign driver: expand a configuration grid, run it over the
 * work-stealing pool, stream one JSON object per job to a .jsonl file.
 *
 *   rmtsim_batch --modes srt,crt --workloads gcc,swim \
 *                --sweep slack=0,32,64 -j 8 --out results.jsonl
 *   rmtsim_batch --modes srt --workloads compress --fault-trials 100 \
 *                --insts 12000 --warmup 0 -j 8 --out faults.jsonl
 *
 * Job ids are assigned in grid order and results are emitted in id
 * order, so the output file is deterministic and independent of -j
 * (use --no-timing to drop the wall-clock field and make runs
 * byte-for-byte diffable).
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "avf/sampler.hh"
#include "common/logging.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "serve/client.hh"
#include "sim/metrics.hh"
#include "workloads/workloads.hh"

using namespace rmt;

namespace
{

/** SIGINT/SIGTERM drain flag: workers stop picking up new jobs, the
 *  in-flight ones finish and are journaled, and main exits 4 with a
 *  resumable journal on disk. */
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
        "  --sweep K=V,V,... cartesian axis (repeatable); keys: slack "
        "checker storeq lvq lpq rob iq insts warmup ptsq nosc psr ecc "
        "frontend\n"
        "  --fault-trials N  N seeded transient-reg strikes per grid "
        "point (each trial gets an oracle verdict vs a golden run); "
        "with --stratify, the trial budget per stratum\n"
        "  --max-reg N       victim register bound for fault trials "
        "(default 31)\n"
        "  --seed S          campaign seed (default 1)\n"
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
        "strike\n"
        "  --no-snapshot-fork  keep the barriers but run every trial "
        "from scratch (timing-identical control for the restored run)\n"
        "  --baseline-cache DIR  persist --efficiency baselines to DIR "
        "keyed by options fingerprint\n"
        "\n"
        "budgets:\n"
        "  --insts N         measured instructions/thread (default "
        "40000)\n"
        "  --warmup N        warm-up instructions/thread (default "
        "20000)\n"
        "  --max-insts N     hard per-job cap on warmup+measure\n"
        "  --timeout-ms N    record jobs slower than this as failed\n"
        "\n"
        "execution:\n"
        "  -j, --jobs N      worker threads for jobs, fault trials and "
        "golden runs\n"
        "                    (default 1; 0 = all cores)\n"
        "  --retries N       attempts per job (default 2 = retry "
        "once)\n"
        "  --out FILE        .jsonl output (default '-' = stdout)\n"
        "  --fsync           fsync the output file on close (no torn "
        "records after a crash)\n"
        "  --efficiency      add SMT-efficiency vs shared baseline "
        "cache\n"
        "  --embed-stats     embed the full stats tree in each job "
        "record\n"
        "  --no-timing       omit wall_ms/host (byte-diffable "
        "output)\n"
        "  --server SOCK     submit the campaign to the rmtsimd at "
        "SOCK instead of\n"
        "                    simulating in-process; rows stream back "
        "in the same\n"
        "                    order (previously-computed jobs come "
        "from the daemon's\n"
        "                    result store).  Incompatible with "
        "--stratify, --resume,\n"
        "                    --efficiency and --baseline-cache\n"
        "  --quiet           no stderr progress\n"
        "  --progress        force the stderr heartbeat (done/total, "
        "elapsed, ETA)\n"
        "                    even under --stratify or a non-tty "
        "stderr\n"
        "  --list            print the expanded job grid and exit\n"
        "\n"
        "resilience (see DESIGN.md):\n"
        "  --resume          replay <out>.journal, skip every job whose "
        "result is\n"
        "                    already recorded, run the rest; the final "
        ".jsonl is\n"
        "                    byte-identical to an uninterrupted run\n"
        "  --no-journal      disable the write-ahead result journal "
        "(on by default\n"
        "                    whenever --out is a file and --stratify "
        "is off)\n"
        "  --journal-sync N  fsync the journal every N records "
        "(default 32)\n"
        "\n"
        "exit codes: 0 clean; 1 hard failure; 2 usage error; 3 "
        "degraded (failed or\n"
        "quarantined jobs recorded); 4 interrupted (journal kept — "
        "rerun with --resume)\n");
}

/** A job runCampaignJobs skipped because the stop drain began. */
bool
neverRan(const JobResult &r)
{
    return r.attempts == 0 && !r.ok() && r.error.empty();
}

std::vector<std::string>
split(const std::string &arg, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, sep))
        out.push_back(item);
    return out;
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
    unsigned max_reg = 31;
    std::uint64_t seed = 1;

    RunnerConfig cfg;
    std::string out_path = "-";
    std::string server_sock;
    std::string baseline_dir;
    bool want_efficiency = false;
    bool list_only = false;
    bool snapshot_fork = true;
    bool want_fsync = false;
    bool quiet = false;
    bool force_progress = false;
    bool stratify = false;
    bool resume = false;
    bool want_journal = true;
    unsigned journal_sync = 32;
    long long test_crash = -1;
    double ci_width = 0;
    double confidence = 0.95;
    unsigned windows = 2;
    unsigned batch = 16;
    std::string kinds_csv;
    JsonlSink::Options sink_opts;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for " +
                                                arg);
                return argv[++i];
            };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--modes") {
                for (const auto &m : split(next(), ','))
                    modes.push_back(parseMode(m));
            } else if (arg == "--workloads") {
                const auto names = split(next(), ',');
                if (names.size() == 1 && names[0] == "all") {
                    for (const auto &n : spec95Names())
                        mixes.push_back({n});
                } else {
                    for (const auto &n : names)
                        mixes.push_back({n});
                }
            } else if (arg == "--mix") {
                mixes.push_back(split(next(), '+'));
            } else if (arg == "--sweep") {
                const std::string spec = next();
                const auto eq = spec.find('=');
                if (eq == std::string::npos)
                    throw std::invalid_argument("bad --sweep '" + spec +
                                                "' (want key=v1,v2)");
                sweeps.emplace_back(spec.substr(0, eq),
                                    split(spec.substr(eq + 1), ','));
            } else if (arg == "--fault-trials") {
                fault_trials =
                    static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--max-reg") {
                max_reg = static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--seed") {
                seed = std::stoull(next());
            } else if (arg == "--insts") {
                base.measure_insts = std::stoull(next());
            } else if (arg == "--warmup") {
                base.warmup_insts = std::stoull(next());
            } else if (arg == "--max-insts") {
                cfg.max_insts = std::stoull(next());
            } else if (arg == "--timeout-ms") {
                cfg.timeout_seconds = std::stod(next()) / 1e3;
            } else if (arg == "-j" || arg == "--jobs") {
                cfg.jobs = static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--retries") {
                cfg.max_attempts =
                    static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "--server") {
                server_sock = next();
            } else if (arg == "--efficiency") {
                want_efficiency = true;
            } else if (arg == "--embed-stats") {
                base.collect_stats_json = true;
            } else if (arg == "--snapshot-every") {
                base.snapshot_every = std::stoull(next());
            } else if (arg == "--no-snapshot-fork") {
                snapshot_fork = false;
            } else if (arg == "--fsync") {
                want_fsync = true;
            } else if (arg == "--stratify") {
                stratify = true;
            } else if (arg == "--ci-width") {
                ci_width = std::stod(next());
            } else if (arg == "--confidence") {
                confidence = std::stod(next());
            } else if (arg == "--windows") {
                windows = static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--batch") {
                batch = static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--kinds") {
                kinds_csv = next();
            } else if (arg == "--baseline-cache") {
                baseline_dir = next();
            } else if (arg == "--no-timing") {
                sink_opts.include_timing = false;
            } else if (arg == "--quiet") {
                quiet = true;
                sink_opts.progress = false;
            } else if (arg == "--progress" || arg == "--progress=force") {
                force_progress = true;
            } else if (arg == "--resume") {
                resume = true;
            } else if (arg == "--no-journal") {
                want_journal = false;
            } else if (arg == "--journal-sync") {
                journal_sync =
                    static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--test-crash-trial") {
                // Undocumented test hook: _Exit(9) right after the
                // named job's post_run, before its record is written —
                // a deterministic mid-campaign crash for the
                // resilience gates (tools/check.sh).
                test_crash = std::stoll(next());
            } else if (arg == "--list") {
                list_only = true;
            } else {
                usage();
                throw std::invalid_argument("unknown argument '" + arg +
                                            "'");
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
        return 2;
    }

    if (!server_sock.empty()) {
        // Server mode ships JobSpecs, not local machinery: adaptive
        // sampling, journal resume and the shared baseline cache all
        // live on this side of the socket and cannot ride along.
        const char *clash = nullptr;
        if (stratify)
            clash = "--stratify";
        else if (resume)
            clash = "--resume";
        else if (want_efficiency)
            clash = "--efficiency";
        else if (!baseline_dir.empty())
            clash = "--baseline-cache";
        else if (test_crash >= 0)
            clash = "--test-crash-trial";
        if (clash) {
            std::fprintf(stderr,
                         "rmtsim_batch: %s cannot be combined with "
                         "--server\n",
                         clash);
            return 2;
        }
        want_journal = false;   // the daemon's store is the journal
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
    try {
        CampaignBuilder builder("batch", seed);
        builder.base(base).modes(modes);
        if (!mixes.empty())
            builder.mixes(mixes);
        for (const auto &[key, values] : sweeps)
            builder.sweep(key, values);
        // Stratified campaigns draw their own faults per stratum; the
        // grid expansion then only provides the cells (one job per
        // grid point, faultless).
        if (fault_trials && !stratify)
            builder.transientRegTrials(fault_trials, max_reg);
        campaign = builder.build();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
        return 2;
    }

    // Every fault trial gets an oracle verdict: one golden (fault-free)
    // run per distinct (mix, effective options) point, shared by all of
    // that point's trials.  The golden uses the same capped budgets the
    // trials will actually run under, or the memory comparison would
    // flag the budget difference as corruption.
    std::map<std::string, std::unique_ptr<FaultOracle>> oracles;
    std::vector<const FaultOracle *> cell_oracles(campaign.jobs.size(),
                                                  nullptr);
    // In server mode the daemon runs the goldens itself (once per
    // distinct point, cached with everything else in its store).
    if ((fault_trials || stratify) && server_sock.empty()) {
        // Map nodes are stable: each job keeps a pointer to its slot.
        using Slot = std::unique_ptr<FaultOracle>;
        std::vector<Slot *> job_slot(campaign.jobs.size(), nullptr);
        std::vector<std::pair<const JobSpec *, Slot *>> points;
        for (const JobSpec &job : campaign.jobs) {
            if (job.faults.empty() && !stratify)
                continue;
            std::string key;
            for (const auto &w : job.workloads)
                key += w + "+";
            key += optionsFingerprint(cappedOptions(job, cfg));
            const auto [it, fresh] = oracles.emplace(key, nullptr);
            if (fresh)
                points.emplace_back(&job, &it->second);
            job_slot[job.id] = &it->second;
        }
        // The goldens are independent runs: spread them over the pool.
        // Each task fills only its own, already inserted, slot.
        std::vector<std::string> errors(points.size());
        {
            ThreadPool pool(cfg.jobs);
            for (std::size_t i = 0; i < points.size(); ++i) {
                pool.submit([&, i] {
                    const JobSpec &job = *points[i].first;
                    try {
                        *points[i].second = std::make_unique<FaultOracle>(
                            FaultOracle::goldenImage(
                                job.workloads, cappedOptions(job, cfg)));
                    } catch (const std::exception &e) {
                        errors[i] = e.what();
                    } catch (...) {
                        errors[i] = "unknown exception";
                    }
                });
            }
            pool.wait();
        }
        for (const std::string &e : errors) {
            if (!e.empty()) {
                std::fprintf(stderr,
                             "rmtsim_batch: golden run failed: %s\n",
                             e.c_str());
                return 2;
            }
        }
        for (JobSpec &job : campaign.jobs) {
            if (!job_slot[job.id])
                continue;
            const FaultOracle *oracle = job_slot[job.id]->get();
            if (stratify) {
                // The sampler attaches the oracle to each trial it
                // generates; remember which oracle serves this cell.
                cell_oracles[job.id] = oracle;
            } else {
                attachFaultOracle(job, oracle);
            }
        }
    }

    if (test_crash >= 0) {
        for (JobSpec &job : campaign.jobs) {
            if (job.id != static_cast<std::uint64_t>(test_crash))
                continue;
            auto prev = std::move(job.post_run);
            job.post_run = [prev](Simulation &sim, const RunResult &run,
                                  JobResult &res) {
                if (prev)
                    prev(sim, run, res);
                // Die after the work but before the record reaches the
                // journal: the whole batch dies mid-campaign (the
                // --resume test vehicle).
                std::_Exit(9);
            };
        }
    }

    if (list_only) {
        for (const JobSpec &j : campaign.jobs)
            std::printf("%6llu  %s\n",
                        static_cast<unsigned long long>(j.id),
                        j.label.c_str());
        std::printf("%zu jobs\n", campaign.jobs.size());
        return 0;
    }

#if defined(__unix__) || defined(__APPLE__)
    if (!server_sock.empty()) {
        std::signal(SIGPIPE, SIG_IGN);
        std::ofstream sfile;
        if (out_path != "-") {
            sfile.open(out_path);
            if (!sfile) {
                std::fprintf(stderr, "rmtsim_batch: cannot open '%s'\n",
                             out_path.c_str());
                return 2;
            }
        }
        std::ostream &sout = out_path == "-" ? std::cout : sfile;
        try {
            const serve::RemoteCampaignResult r =
                serve::runRemoteCampaign(server_sock, campaign,
                                         sink_opts.include_timing,
                                         sout);
            if (!quiet) {
                std::fprintf(
                    stderr,
                    "%llu rows from rmtsimd (%llu store hits, %llu "
                    "simulated, %llu failed)%s\n",
                    static_cast<unsigned long long>(r.rows),
                    static_cast<unsigned long long>(r.hits),
                    static_cast<unsigned long long>(r.misses),
                    static_cast<unsigned long long>(r.failed),
                    r.draining ? " [daemon draining]" : "");
            }
            if (r.draining || r.rows < campaign.jobs.size())
                return 4;
            return r.failed ? 3 : 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
            return 1;
        }
    }
#endif

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

    // Write-ahead result journal: on by default whenever the output is
    // a real file.  --stratify draws its grid adaptively, so it has no
    // stable job list to fingerprint or resume against.
    const bool journal_enabled =
        want_journal && out_path != "-" && !stratify;
    const std::string journal_path = out_path + ".journal";
    std::uint64_t campaign_fp = 0;
    JournalReplay replay;
    if (resume && !journal_enabled) {
        std::fprintf(stderr,
                     "rmtsim_batch: --resume needs the journal (a file "
                     "--out, no --stratify, no --no-journal)\n");
        return 2;
    }
    if (journal_enabled) {
        campaign_fp = campaignFingerprintU64(campaign.jobs);
        if (resume) {
            // Replay before the output file is opened (and truncated):
            // a journal that does not match this invocation must leave
            // everything on disk untouched.
            try {
                replay = replayJournal(journal_path, campaign_fp);
            } catch (const JournalError &e) {
                std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
                return 2;
            }
            if (!replay.note.empty()) {
                warn("journal '%s': %s; the affected trials will "
                     "re-run",
                     journal_path.c_str(), replay.note.c_str());
            }
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

    std::unique_ptr<JournalWriter> journal;
    if (journal_enabled) {
        JournalWriter::Options jopts;
        jopts.sync_every = journal_sync;
        try {
            if (resume) {
                journal = std::make_unique<JournalWriter>(
                    journal_path, replay, jopts);
            } else {
                journal = std::make_unique<JournalWriter>(
                    journal_path, campaign_fp, jopts);
            }
        } catch (const JournalError &e) {
            std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
            return 1;
        }
    }

    JsonlSink sink(out, sink_opts);
    // Write-ahead order: every fresh record hits the journal before
    // the ordered JSONL sink sees it.  With no journal the decorator
    // is a pass-through.
    JournalingSink jsink(journal.get(), &sink);
    cfg.sink = &jsink;

    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    cfg.stop = &g_stop;

    // The baseline cache is shared across workers (single-flight);
    // baselines use the campaign's budgets but the base machine.
    BaselineCache baseline(base);
    if (!baseline_dir.empty()) {
        baseline.setStore(baseline_dir);
        want_efficiency = true;     // a store implies --efficiency
    }
    if (want_efficiency)
        cfg.baseline = &baseline;

    // Snapshot store for fault trials, shared across workers.
    SnapshotCache snapshots;
    if (base.snapshot_every && snapshot_fork)
        cfg.snapshots = &snapshots;

    std::uint64_t total_jobs = 0;
    std::uint64_t failed = 0;
    std::uint64_t quarantined = 0;
    bool interrupted = false;

    if (stratify) {
        SamplerConfig scfg;
        try {
            scfg.kinds = parseFaultKinds(kinds_csv);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
            return 2;
        }
        scfg.windows = windows;
        scfg.batch = batch;
        scfg.max_trials = fault_trials ? fault_trials : 256;
        scfg.ci_width = ci_width;
        scfg.confidence = confidence;
        scfg.max_reg = max_reg;
        // Pair-resident kinds (lvq/lpq/boq) only exist on machines
        // with redundant pairs; drop them from the default kind set
        // as soon as one sampled mode lacks pairs.
        scfg.has_pairs = true;
        for (const SimMode m : modes) {
            if (m != SimMode::Srt && m != SimMode::Crt)
                scfg.has_pairs = false;
        }

        std::vector<StratifiedSampler::Cell> cells;
        for (const JobSpec &j : campaign.jobs) {
            cells.push_back({j.label, j.workloads, j.options,
                             cell_oracles[j.id]});
        }

        try {
            StratifiedSampler sampler(cells, scfg, seed);
            for (;;) {
                if (g_stop.load(std::memory_order_relaxed)) {
                    interrupted = true;
                    break;
                }
                const auto jobs = sampler.nextRound();
                if (jobs.empty())
                    break;
                const auto results = runCampaignJobs(jobs, cfg);
                for (std::size_t i = 0; i < results.size(); ++i) {
                    if (neverRan(results[i]))
                        continue;       // skipped by the stop drain
                    sampler.record(jobs[i], results[i]);
                    failed += !results[i].ok();
                    quarantined += results[i].quarantined;
                    ++total_jobs;
                }
                if (!quiet) {
                    std::fprintf(
                        stderr, "round %u: %zu trials (%llu total)\n",
                        sampler.rounds(), jobs.size(),
                        static_cast<unsigned long long>(total_jobs));
                }
            }
            if (g_stop.load(std::memory_order_relaxed))
                interrupted = true;
            sink.end();
            // The summary rides in the same .jsonl: one object with
            // per-stratum estimates, intervals and trial counts.
            out << sampler.summaryJson() << "\n";
            out.flush();
            if (!quiet) {
                for (std::size_t c = 0; c < cells.size(); ++c) {
                    const RollupEstimate r = sampler.cellRollup(c);
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
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rmtsim_batch: %s\n", e.what());
            return 2;
        }
    } else {
        // Plain and fault campaigns share one resumable flow: replay
        // already-journaled results into the ordered sink, run only
        // the remainder, and journal every fresh record write-ahead.
        sink.begin(campaign);

        std::vector<JobSpec> todo;
        std::vector<std::pair<const JobSpec *, JobResult>> failures;
        std::uint64_t replayed = 0;
        for (const JobSpec &spec : campaign.jobs) {
            const auto it = replay.results.find(spec.id);
            if (it == replay.results.end()) {
                todo.push_back(spec);
                continue;
            }
            // Straight to the JSONL sink, not the journaling
            // decorator: a replayed record must not be re-journaled.
            sink.record(spec, it->second);
            if (!it->second.ok())
                failures.emplace_back(&spec, it->second);
            ++replayed;
        }
        if (resume && !quiet) {
            std::fprintf(
                stderr, "resumed: %llu of %zu jobs replayed from %s\n",
                static_cast<unsigned long long>(replayed),
                campaign.jobs.size(), journal_path.c_str());
        }

        const std::vector<JobResult> results = runCampaignJobs(todo, cfg);
        // Journal first (write-ahead order holds through the flush),
        // then the ordered sink drains and fsyncs.
        jsink.end();

        std::uint64_t completed = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const JobResult &r = results[i];
            if (neverRan(r))
                continue;       // skipped by the stop drain
            ++completed;
            if (!r.ok())
                failures.emplace_back(&todo[i], r);
        }
        total_jobs = replayed + completed;
        interrupted = g_stop.load(std::memory_order_relaxed) ||
                      total_jobs < campaign.jobs.size();

        failed = failures.size();
        for (const auto &[spec, r] : failures)
            quarantined += r.quarantined;

        if (!interrupted && !failures.empty()) {
            // Structured failure digest, same .jsonl-resident idiom as
            // the stratified summary: what failed, why, and whether it
            // was quarantined, without grepping a million ok records.
            std::sort(failures.begin(), failures.end(),
                      [](const auto &a, const auto &b) {
                          return a.first->id < b.first->id;
                      });
            out << "{\"schema\":\"rmtsim-failures-v1\""
                << ",\"failed\":" << failures.size()
                << ",\"quarantined\":" << quarantined << ",\"jobs\":[";
            for (std::size_t i = 0; i < failures.size(); ++i) {
                const auto &[spec, r] = failures[i];
                if (i)
                    out << ",";
                out << "{\"id\":" << spec->id << ",\"label\":\""
                    << jsonEscape(spec->label) << "\",\"error\":\""
                    << jsonEscape(r.error)
                    << "\",\"attempts\":" << r.attempts
                    << ",\"timed_out\":"
                    << (r.timed_out ? "true" : "false")
                    << ",\"quarantined\":"
                    << (r.quarantined ? "true" : "false") << "}";
            }
            out << "]}\n";
            out.flush();
        }

        if (journal) {
            journal->close();
            // A completed campaign (even a degraded one — its failures
            // are recorded) leaves nothing to resume; only an
            // interrupted run keeps its journal.
            if (!interrupted)
                std::remove(journal_path.c_str());
        }
    }

    if (!quiet) {
        std::string note;
        if (want_efficiency)
            note = " (" + std::to_string(baseline.simulations()) +
                   " baseline sims)";
        if (cfg.snapshots)
            note += " (" + std::to_string(snapshots.producerRuns()) +
                    " snapshot producers)";
        std::fprintf(stderr, "%llu jobs, %llu failed (%llu "
                     "quarantined)%s\n",
                     static_cast<unsigned long long>(total_jobs),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(quarantined),
                     note.c_str());
        if (interrupted && journal_enabled) {
            std::fprintf(stderr,
                         "interrupted — journal kept at %s; rerun the "
                         "same command with --resume\n",
                         journal_path.c_str());
        }
    }
    if (interrupted)
        return 4;
    return failed ? 3 : 0;
}
