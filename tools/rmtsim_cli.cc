/**
 * @file
 * Command-line driver: run any workload mix under any of the paper's
 * configurations without writing C++.
 *
 *   rmtsim --mode srt --workloads gcc,swim --insts 40000 --stats
 *   rmtsim --mode lockstep --workloads gcc,go --set checker_penalty=4
 *   rmtsim --mode srt --workloads compress --fault reg:3000:0:3:5
 *
 * `--set KEY=VALUE` takes the keys of the options fingerprint, the
 * same as rmtsim_batch --sweep (sim/settings.cc); --cosim and
 * --timeline-interval only observe the run and are not settings.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/pipetrace.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace rmt;

namespace
{

/** A missing or bad value or an unknown flag: one line on stderr and
 *  exit 2, as in the other tools. */
[[noreturn]] void
usageError(const std::string &what)
{
    std::fprintf(stderr, "rmtsim: %s\n", what.c_str());
    std::exit(2);
}

void
usage()
{
    std::printf(
        "rmtsim — redundant multithreading simulator (ISCA 2002 repro)\n"
        "\n"
        "  --mode M          base | base2 | srt | lockstep | crt "
        "(default base)\n"
        "  --workloads W     comma-separated kernels (default gcc); "
        "'all' lists\n"
        "  --insts N         measured instructions/thread (default "
        "40000)\n"
        "  --warmup N        warm-up instructions/thread (default "
        "20000)\n"
        "  --set KEY=VALUE   one machine setting (repeatable): %s\n"
        "  --fault SPEC      reg:<cycle>:<core>:<tid>:<reg>:<bit> | "
        "lvq:<cycle>:<core>:<tid> |\n"
        "                    fu:<cycle>:<core>:<unit>:<maskbit> | "
        "KIND:<cycle>:<core>:<tid>:<bit>\n"
        "                    with KIND one of sqd sqa lpq boq pc dec "
        "mb\n"
        "  --trace FILE      write the commit trace to FILE ('-' = "
        "stdout)\n"
        "  --trace-max N     trace line cap per core (default 10000)\n"
        "  --pipetrace FILE  per-instruction pipeline trace as Chrome\n"
        "                    trace-event JSON for Perfetto ('-' = "
        "stdout)\n"
        "  --pipetrace-max N cap on emitted stage events (0 = "
        "unbounded)\n"
        "  --efficiency      also report SMT-Efficiency vs single-"
        "thread base\n"
        "  --cosim           enable architectural co-simulation "
        "checking\n"
        "  --stats           dump per-core statistics\n"
        "  --stats-json FILE full stats tree as JSON ('-' = stdout)\n"
        "  --timeline FILE   cycle-sampled queue/slack timeline as "
        "JSONL ('-' = stdout)\n"
        "  --timeline-interval N  cycles between samples (default "
        "1000)\n"
        "  --snapshot-every N     place a snapshot barrier every N "
        "cycles\n"
        "  --save-snapshot FILE   save a snapshot at each barrier "
        "(FILE holds the last one; needs --snapshot-every)\n"
        "  --restore-snapshot FILE  restore FILE, then run to the "
        "budget\n",
        settingsHelp().c_str());
}

/**
 * Resolve an output spec: "-" means stdout, anything else opens a
 * file (kept alive by @p owned).
 */
std::ostream *
openOut(const std::string &path, std::vector<std::unique_ptr<std::ofstream>> &owned)
{
    if (path == "-")
        return &std::cout;
    owned.push_back(std::make_unique<std::ofstream>(path));
    if (!*owned.back())
        fatal("cannot open '%s' for writing", path.c_str());
    return owned.back().get();
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts;
    opts.warmup_insts = 20000;
    opts.measure_insts = 40000;
    std::vector<std::string> workloads{"gcc"};
    std::vector<std::string> fault_specs;
    bool want_stats = false;
    bool want_efficiency = false;
    std::string trace_file;
    std::uint64_t trace_max = 10000;
    std::string pipetrace_file;
    std::uint64_t pipetrace_max = 0;
    std::string stats_json_file;
    std::string timeline_file;
    std::string save_snapshot_file;
    std::string restore_snapshot_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for " + arg);
            return argv[++i];
        };
        const auto valid = [&](auto parse) {
            try {
                return parse(next());
            } catch (const std::invalid_argument &e) {
                usageError(e.what());
            }
        };
        const auto u64 = [&] {
            return valid([&](const auto &v) { return parseUnsigned(v, arg); });
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (const char *key = flagSetting(arg)) {
            valid([&](const std::string &v) { applySetting(opts, key, v); });
        } else if (arg == "--set") {
            valid([&](const std::string &kv) {
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    throw std::invalid_argument("bad --set '" + kv +
                                                "' (want KEY=VALUE)");
                applySetting(opts, kv.substr(0, eq), kv.substr(eq + 1));
            });
        } else if (arg == "--workloads") {
            workloads = splitList(next(), ',');
        } else if (arg == "--fault") {
            fault_specs.push_back(next());
        } else if (arg == "--cosim") {
            opts.cosim = true;
        } else if (arg == "--efficiency") {
            want_efficiency = true;
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--trace-max") {
            trace_max = u64();
        } else if (arg == "--pipetrace") {
            pipetrace_file = next();
        } else if (arg == "--pipetrace-max") {
            pipetrace_max = u64();
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--stats-json") {
            stats_json_file = next();
        } else if (arg == "--timeline") {
            timeline_file = next();
        } else if (arg == "--timeline-interval") {
            opts.timeline_interval = u64();
        } else if (arg == "--save-snapshot") {
            save_snapshot_file = next();
        } else if (arg == "--restore-snapshot") {
            restore_snapshot_file = next();
        } else {
            usageError("unknown argument '" + arg + "'");
        }
    }

    if (workloads.size() == 1 && workloads[0] == "all") {
        for (const auto &name : spec95Names())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    // Sampling on with a default cadence when only --timeline given.
    if (!timeline_file.empty() && opts.timeline_interval == 0)
        opts.timeline_interval = 1000;

    if (!save_snapshot_file.empty() && opts.snapshot_every == 0)
        fatal("--save-snapshot needs --snapshot-every to place the "
              "barriers it saves at");

    std::vector<std::unique_ptr<std::ofstream>> owned_streams;
    Simulation sim(workloads, opts);
    if (!restore_snapshot_file.empty()) {
        try {
            sim.restoreSnapshot(restore_snapshot_file);
        } catch (const std::exception &e) {
            fatal("cannot restore '%s': %s",
                  restore_snapshot_file.c_str(), e.what());
        }
    }
    if (!save_snapshot_file.empty()) {
        // Overwrite at every barrier: the file ends up holding the
        // last snapshot of the run.
        sim.setSnapshotHook([&save_snapshot_file](Cycle, Simulation &s) {
            s.saveSnapshot(save_snapshot_file);
        });
    }
    if (!trace_file.empty()) {
        std::ostream *os = openOut(trace_file, owned_streams);
        for (unsigned c = 0; c < sim.chip().numCores(); ++c)
            sim.chip().cpu(c).setCommitTrace(os, trace_max);
    }
    std::unique_ptr<PipeTracer> pipetracer;
    if (!pipetrace_file.empty()) {
        std::ostream *os = openOut(pipetrace_file, owned_streams);
        pipetracer = std::make_unique<PipeTracer>(*os, pipetrace_max);
        for (unsigned c = 0; c < sim.chip().numCores(); ++c)
            sim.chip().cpu(c).setPipeTracer(pipetracer.get());
    }
    for (const auto &spec : fault_specs) {
        try {
            sim.faultInjector().schedule(parseFaultSpec(spec));
        } catch (const std::invalid_argument &e) {
            fatal("bad --fault spec '%s': %s", spec.c_str(), e.what());
        }
    }

    const RunResult r = sim.run();
    if (pipetracer) {
        pipetracer->finish();
        if (pipetracer->dropped()) {
            std::fprintf(stderr,
                         "pipetrace: event cap dropped %llu "
                         "instructions (raise --pipetrace-max)\n",
                         static_cast<unsigned long long>(
                             pipetracer->dropped()));
        }
    }

    std::printf("%-10s %8s %12s %12s\n", "thread", "ipc", "committed",
                "cycles");
    for (const auto &t : r.threads) {
        std::printf("%-10s %8.3f %12llu %12llu\n", t.workload.c_str(),
                    t.ipc, static_cast<unsigned long long>(t.committed),
                    static_cast<unsigned long long>(t.cycles));
    }
    std::printf("total cycles %llu, completed %s, outcome %s\n",
                static_cast<unsigned long long>(r.total_cycles),
                r.completed ? "yes" : "NO", outcomeName(r.outcome));
    if (opts.mode == SimMode::Srt || opts.mode == SimMode::Crt) {
        std::printf("store pairs compared %llu, mismatches %llu, "
                    "detections %llu, recoveries %llu\n",
                    static_cast<unsigned long long>(r.store_comparisons),
                    static_cast<unsigned long long>(r.store_mismatches),
                    static_cast<unsigned long long>(r.detections),
                    static_cast<unsigned long long>(r.recoveries));
        const auto &rm = sim.chip().redundancy();
        for (std::size_t i = 0; i < rm.numPairs(); ++i) {
            const auto &events = rm.pair(i).detections();
            const std::size_t shown = std::min<std::size_t>(5,
                                                            events.size());
            for (std::size_t e = 0; e < shown; ++e) {
                const auto &d = events[e];
                const char *kind =
                    d.kind == DetectionKind::StoreMismatch
                        ? "store mismatch"
                        : d.kind == DetectionKind::LvqAddrMismatch
                              ? "LVQ address mismatch"
                              : "control divergence";
                std::printf("  pair %zu: %s at cycle %llu\n", i, kind,
                            static_cast<unsigned long long>(d.cycle));
            }
            const std::uint64_t total = rm.pair(i).detectionCount();
            if (total > shown) {
                std::printf("  pair %zu: ... and %llu further "
                            "detections (streams diverged)\n",
                            i,
                            static_cast<unsigned long long>(total -
                                                            shown));
            }
        }
    }

    if (want_efficiency) {
        BaselineCache baseline(opts);
        const auto effs = baseline.efficiencies(r);
        for (std::size_t i = 0; i < effs.size(); ++i) {
            std::printf("efficiency %-10s %.3f\n",
                        r.threads[i].workload.c_str(), effs[i]);
        }
        std::printf("mean SMT-efficiency %.3f\n", meanEfficiency(effs));
    }

    if (want_stats) {
        for (unsigned c = 0; c < sim.chip().numCores(); ++c)
            sim.chip().cpu(c).dumpStats(std::cout);
    }

    if (!stats_json_file.empty()) {
        std::ostream *os = openOut(stats_json_file, owned_streams);
        *os << sim.statsJson(r) << "\n";
    }
    if (!timeline_file.empty() && sim.timeline()) {
        std::ostream *os = openOut(timeline_file, owned_streams);
        sim.timeline()->writeJsonl(*os);
        if (sim.timeline()->dropped()) {
            std::fprintf(stderr,
                         "timeline: ring dropped %llu of %llu samples "
                         "(raise --timeline-interval or the ring cap)\n",
                         static_cast<unsigned long long>(
                             sim.timeline()->dropped()),
                         static_cast<unsigned long long>(
                             sim.timeline()->recorded()));
        }
    }
    return 0;
}
