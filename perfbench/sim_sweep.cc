/**
 * @file
 * Workload `sim-sweep`: every SimMode on gcc (branchy integer), swim
 * (streaming past the L2), fpppp (cache-resident dependent chains) and
 * the gcc+swim mix, run serially through the Simulation library entry
 * point.  Nearly all host time is the core hot path (cpu, predictor,
 * mem, rmt, cmp); runner, ckpt and serve are never touched.
 *
 * Untraced: whole sweeps back to back until the window closes; the
 * metrics come from each config's best build and run time over the
 * sweeps.
 *
 * Traced: untraced and traced sweeps alternate.  The traced sweep
 * replaces Simulation::run() by a tick loop driven from here, which is
 * Chip::run() for a fault-free run with recovery and probes off, and
 * times every SmtCpu::tick().  It must land on the same cycle count as
 * the untraced sweep.
 */

#include <algorithm>
#include <array>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/stats.hh"
#include "sim/simulator.hh"

namespace rmtbench
{

namespace
{

constexpr std::array<rmt::SimMode, 5> kModes = {
    rmt::SimMode::Base, rmt::SimMode::Base2, rmt::SimMode::Srt,
    rmt::SimMode::Lockstep, rmt::SimMode::Crt};

constexpr std::uint64_t kWarmup = 2000;
constexpr std::uint64_t kMeasure = 20000;

struct Config
{
    std::size_t mode;                   ///< index into kModes
    std::vector<std::string> mix;
    rmt::SimOptions options;
};

std::vector<Config>
sweepConfigs()
{
    const std::vector<std::vector<std::string>> mixes = {
        {"gcc"}, {"swim"}, {"fpppp"}, {"gcc", "swim"}};
    std::vector<Config> out;
    for (std::size_t m = 0; m < kModes.size(); ++m) {
        for (const auto &mix : mixes) {
            Config c{m, mix, {}};
            c.options.mode = kModes[m];
            c.options.warmup_insts = kWarmup;
            c.options.measure_insts = kMeasure;
            out.push_back(c);
        }
    }
    return out;
}

std::string
configName(const Config &c)
{
    std::string s = rmt::modeName(kModes[c.mode]);
    s += ":";
    for (std::size_t i = 0; i < c.mix.size(); ++i)
        s += (i ? "+" : "") + c.mix[i];
    return s;
}

/** Same warm-up test Simulation::run() uses to split its timers. */
bool
pastWarmup(rmt::Simulation &sim)
{
    for (unsigned i = 0; i < sim.numLogical(); ++i) {
        const auto &pl = sim.placement(i);
        if (sim.chip().cpu(pl.lead_core).committed(pl.lead_tid) < kWarmup)
            return false;
        if (pl.redundant &&
            sim.chip().cpu(pl.trail_core).committed(pl.trail_tid) < kWarmup)
            return false;
    }
    return true;
}

std::uint64_t
counterNamed(rmt::StatGroup &group, const std::string &name)
{
    for (const rmt::StatBase *s : group.statList()) {
        if (s->name() == name) {
            if (const auto *c = dynamic_cast<const rmt::Counter *>(s))
                return c->value();
        }
    }
    return 0;
}

/** One untraced sweep; the vectors are indexed by config. */
struct Sweep
{
    double build_s = 0;                     ///< whole sweep
    double run_s = 0;
    std::vector<double> cfg_build_s;
    std::vector<double> cfg_run_s;
    std::vector<rmt::Cycle> cycles;
    std::vector<std::uint64_t> committed;
};

Sweep
untracedSweep(const std::vector<Config> &configs,
              const std::vector<std::size_t> &order, Report &report)
{
    Sweep s;
    s.cfg_build_s.resize(configs.size());
    s.cfg_run_s.resize(configs.size());
    s.cycles.resize(configs.size());
    s.committed.resize(configs.size());
    for (const std::size_t idx : order) {
        const Config &c = configs[idx];
        const Clock::time_point t0 = Clock::now();
        rmt::Simulation sim(c.mix, c.options);
        const Clock::time_point t1 = Clock::now();
        const rmt::RunResult r = sim.run();
        const Clock::time_point t2 = Clock::now();

        ++report.attempted;
        std::uint64_t committed = 0;
        for (const rmt::ThreadResult &t : r.threads)
            committed += t.committed;
        const std::string name = configName(c);
        // && stops at the first failed check: a run fails at most once.
        (void)(
            report.check(r.outcome == rmt::Outcome::Completed,
                         name + ": outcome " +
                             rmt::outcomeName(r.outcome)) &&
            report.check(r.detections == 0,
                         name + ": fault-free run detected a fault") &&
            report.check(r.attribution.conserves(r.attribution_core_cycles,
                                                 r.commit_width),
                         name + ": commit-slot attribution not conserved"));

        s.cfg_build_s[idx] = secondsBetween(t0, t1);
        s.cfg_run_s[idx] = secondsBetween(t1, t2);
        s.build_s += s.cfg_build_s[idx];
        s.run_s += s.cfg_run_s[idx];
        s.cycles[idx] = r.total_cycles;
        s.committed[idx] = committed;
    }
    return s;
}

/** Per-layer sums of one traced sweep. */
struct TracedSweep
{
    double wall_s = 0;
    double build_s = 0;
    std::array<double, kModes.size()> tick_ns{};
    std::array<std::uint64_t, kModes.size()> ticks{};
    std::uint64_t allocs = 0;           ///< measure window only
    std::uint64_t alloc_bytes = 0;
    std::uint64_t measure_committed = 0;
    std::uint64_t committed = 0;        ///< whole runs, logical threads
    std::uint64_t core_cycles = 0;      ///< occupancy samples
    std::uint64_t iq_sum = 0;
    std::uint64_t rob_sum = 0;
    std::uint64_t wrong_path = 0;
    std::uint64_t branch_miss = 0;
    std::uint64_t line_miss = 0;
    std::uint64_t l1d_miss = 0;
    std::uint64_t l2_miss = 0;
    std::uint64_t rmt_committed = 0;    ///< srt + crt configs
    std::uint64_t store_compares = 0;
    std::uint64_t lvq_full = 0;
    std::uint64_t sq_full = 0;
};

TracedSweep
tracedSweep(const std::vector<Config> &configs,
            const std::vector<std::size_t> &order,
            const std::vector<rmt::Cycle> &ref_cycles, Report &report)
{
    TracedSweep t;
    const Clock::time_point start = Clock::now();
    for (const std::size_t idx : order) {
        const Config &c = configs[idx];
        const std::string name = configName(c);
        const Clock::time_point b0 = Clock::now();
        rmt::Simulation sim(c.mix, c.options);
        t.build_s += secondsSince(b0);

        rmt::Chip &chip = sim.chip();
        const unsigned ncores = chip.numCores();
        const std::uint64_t per_thread = kWarmup + kMeasure;
        const rmt::Cycle cap =
            100 * per_thread * std::max(1u, sim.numLogical()) + 1'000'000;

        double tick_ns = 0;
        std::uint64_t ticks = 0;
        auto tickAll = [&]() {
            for (unsigned k = 0; k < ncores; ++k) {
                rmt::SmtCpu &cpu = chip.cpu(k);
                const Clock::time_point s = Clock::now();
                cpu.tick();
                tick_ns += std::chrono::duration<double, std::nano>(
                               Clock::now() - s)
                               .count();
                t.iq_sum += cpu.iqHalfOccupancy(0) + cpu.iqHalfOccupancy(1);
                t.rob_sum += cpu.robOcc();
                ++t.core_cycles;
            }
            ticks += ncores;
        };

        bool in_warmup = true;
        std::uint64_t a0 = threadAllocs();
        std::uint64_t bytes0 = threadAllocBytes();
        std::uint64_t c0 = 0;
        rmt::Cycle n = 0;
        while (n < cap && !chip.allDone()) {
            tickAll();
            ++n;
            if (in_warmup && pastWarmup(sim)) {
                in_warmup = false;
                a0 = threadAllocs();
                bytes0 = threadAllocBytes();
                c0 = logicalCommitted(sim);
            }
        }
        t.allocs += threadAllocs() - a0;
        t.alloc_bytes += threadAllocBytes() - bytes0;
        t.measure_committed += logicalCommitted(sim) - c0;
        const bool done = chip.allDone();
        if (done) {
            for (rmt::Cycle d = 0; d < rmt::Chip::drainCycles && n < cap;
                 ++d, ++n)
                tickAll();
        }

        ++report.attempted;
        std::uint64_t detections = 0;
        for (std::size_t p = 0; p < chip.redundancy().numPairs(); ++p)
            detections += chip.redundancy().pair(p).detectionCount();
        bool conserved = true;
        for (unsigned k = 0; k < ncores; ++k) {
            rmt::SmtCpu &cpu = chip.cpu(k);
            conserved = conserved &&
                        cpu.attributionSlots().conserves(cpu.cycleCount(),
                                                         cpu.commitWidth());
        }
        (void)(
            report.check(done, name + ": traced tick loop did not finish") &&
            report.check(chip.cycle() == ref_cycles[idx],
                         name + ": traced tick loop ran " +
                             std::to_string(chip.cycle()) +
                             " cycles, untraced run " +
                             std::to_string(ref_cycles[idx])) &&
            report.check(detections == 0,
                         name + ": fault-free run detected a fault") &&
            report.check(conserved,
                         name + ": commit-slot attribution not conserved"));

        const std::uint64_t committed = logicalCommitted(sim);
        const bool redundant = kModes[c.mode] == rmt::SimMode::Srt ||
                               kModes[c.mode] == rmt::SimMode::Crt;
        t.committed += committed;
        t.tick_ns[c.mode] += tick_ns;
        t.ticks[c.mode] += ticks;
        for (unsigned k = 0; k < ncores; ++k) {
            rmt::SmtCpu &cpu = chip.cpu(k);
            t.wrong_path += counterNamed(cpu.stats(), "wrong_path_insts");
            t.branch_miss += cpu.branchMispredicts();
            t.line_miss += cpu.lineMispredicts();
            t.l1d_miss += cpu.dcache().misses();
            if (redundant) {
                t.lvq_full += cpu.lvqFullStalls();
                t.sq_full += cpu.sqFullStalls();
            }
        }
        t.l2_miss += chip.memSystem().l2().misses();
        if (redundant) {
            t.rmt_committed += committed;
            for (std::size_t p = 0; p < chip.redundancy().numPairs(); ++p)
                t.store_compares +=
                    chip.redundancy().pair(p).comparator.comparisons();
        }
    }
    t.wall_s = secondsSince(start);
    return t;
}

double
perKinst(std::uint64_t count, std::uint64_t insts)
{
    return insts ? 1000.0 * static_cast<double>(count) /
                       static_cast<double>(insts)
                 : 0;
}

/** Best-of-run build, run and build + run time of every config. */
struct BestTimes
{
    std::vector<double> build, run, total;
};

BestTimes
bestTimes(const std::vector<Sweep> &sweeps, std::size_t nconfigs)
{
    BestTimes b;
    for (std::size_t i = 0; i < nconfigs; ++i) {
        std::vector<double> build, run, total;
        for (const Sweep &s : sweeps) {
            build.push_back(s.cfg_build_s[i]);
            run.push_back(s.cfg_run_s[i]);
            total.push_back(s.cfg_build_s[i] + s.cfg_run_s[i]);
        }
        b.build.push_back(best(build));
        b.run.push_back(best(run));
        b.total.push_back(best(total));
    }
    return b;
}

/** KIPS of the configs @p pick selects, from their best run times. */
template <typename Pick>
double
bestKips(const std::vector<Config> &configs, const Sweep &first,
         const BestTimes &b, Pick pick)
{
    std::uint64_t committed = 0;
    double seconds = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (pick(configs[i])) {
            committed += first.committed[i];
            seconds += b.run[i];
        }
    }
    return static_cast<double>(committed) / seconds / 1000.0;
}

/** Every sweep must simulate exactly what the first one did. */
void
checkRepeat(const Sweep &first, const Sweep &s, Report &report)
{
    report.check(s.cycles == first.cycles && s.committed == first.committed,
                 "sim-sweep: simulated cycles/committed differ between "
                 "repeated sweeps");
}

} // namespace

void
runSimSweep(const Args &args, Report &report)
{
    const std::vector<Config> configs = sweepConfigs();
    // The seed only shuffles the run order: the simulated work is the
    // same on every seed, so the work counters repeat across seeds too.
    std::vector<std::size_t> order(configs.size());
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(args.seed);
    std::shuffle(order.begin(), order.end(), rng);

    std::vector<Sweep> sweeps;
    std::vector<TracedSweep> traced;
    const Clock::time_point start = Clock::now();
    do {
        sweeps.push_back(untracedSweep(configs, order, report));
        checkRepeat(sweeps.front(), sweeps.back(), report);
        if (args.trace)
            traced.push_back(tracedSweep(configs, order,
                                         sweeps.front().cycles, report));
    } while (secondsSince(start) < args.seconds);
    report.repeats = sweeps.size();

    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        cycles += sweeps.front().cycles[i];
        committed += sweeps.front().committed[i];
    }
    report.counters["sim.cycles"] = cycles;
    report.counters["sim.committed"] = committed;

    const BestTimes b = bestTimes(sweeps, configs.size());
    for (std::size_t m = 0; m < kModes.size(); ++m) {
        report.breakdown[std::string("kips_") + rmt::modeName(kModes[m])] =
            bestKips(configs, sweeps.front(), b,
                     [m](const Config &c) { return c.mode == m; });
    }

    if (!args.trace) {
        double setup = 0, total = 0;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            setup += b.build[i];
            total += b.total[i];
        }
        report.metrics["setup_s"] = setup;
        report.metrics["sim_kips"] = bestKips(configs, sweeps.front(), b,
                                              [](const Config &) {
                                                  return true;
                                              });
        report.metrics["units_per_s"] =
            static_cast<double>(configs.size()) / total;
        report.metrics["peak_rss_mb"] = selfPeakRssMb();
        return;
    }

    // Per-layer metrics from the traced sweeps (times: median over
    // sweeps; counts: identical on every sweep, checked below).
    const TracedSweep &t0 = traced.front();
    for (const TracedSweep &t : traced) {
        report.check(t.allocs == t0.allocs && t.wrong_path == t0.wrong_path &&
                         t.l1d_miss == t0.l1d_miss,
                     "sim-sweep: traced work counters differ between "
                     "repeated sweeps");
    }
    std::vector<double> build_ms, overhead, run_ns;
    std::array<std::vector<double>, kModes.size()> tick_ns;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const TracedSweep &t = traced[i];
        const Sweep &u = sweeps[i];
        build_ms.push_back(1e3 * t.build_s /
                           static_cast<double>(configs.size()));
        overhead.push_back(t.wall_s / (u.build_s + u.run_s) - 1.0);
        run_ns.push_back(1e9 * u.run_s / static_cast<double>(cycles));
        for (std::size_t m = 0; m < kModes.size(); ++m)
            tick_ns[m].push_back(t.tick_ns[m] /
                                 static_cast<double>(t.ticks[m]));
    }
    auto &pm = report.metrics;
    pm["sim.build_ms"] = median(build_ms);
    pm["sim.run_ns_per_cycle"] = median(run_ns);
    pm["sim.cycles"] = static_cast<double>(cycles);
    pm["sim.committed"] = static_cast<double>(committed);
    for (std::size_t m = 0; m < kModes.size(); ++m)
        pm[std::string("cpu.tick_ns.") + rmt::modeName(kModes[m])] =
            median(tick_ns[m]);
    pm["cpu.allocs_per_kinst"] = perKinst(t0.allocs, t0.measure_committed);
    pm["cpu.alloc_bytes_per_kinst"] =
        perKinst(t0.alloc_bytes, t0.measure_committed);
    pm["cpu.iq_occupancy"] = static_cast<double>(t0.iq_sum) /
                             static_cast<double>(t0.core_cycles);
    pm["cpu.rob_occupancy"] = static_cast<double>(t0.rob_sum) /
                              static_cast<double>(t0.core_cycles);
    pm["cpu.squashes_per_kinst"] = perKinst(t0.wrong_path, t0.committed);
    pm["predictor.branch_mpki"] = perKinst(t0.branch_miss, t0.committed);
    pm["predictor.line_mpki"] = perKinst(t0.line_miss, t0.committed);
    pm["mem.l1d_mpki"] = perKinst(t0.l1d_miss, t0.committed);
    pm["mem.l2_mpki"] = perKinst(t0.l2_miss, t0.committed);
    pm["rmt.store_compares_per_kinst"] =
        perKinst(t0.store_compares, t0.rmt_committed);
    pm["rmt.lvq_full_stalls"] = static_cast<double>(t0.lvq_full);
    pm["rmt.sq_full_stalls"] = static_cast<double>(t0.sq_full);
    pm["bench.trace_overhead_frac"] = median(overhead);

    report.counters["cpu.allocs"] = t0.allocs;
    report.counters["cpu.alloc_bytes"] = t0.alloc_bytes;
    report.counters["cpu.measure_committed"] = t0.measure_committed;
    report.counters["cpu.wrong_path_insts"] = t0.wrong_path;
}

} // namespace rmtbench
